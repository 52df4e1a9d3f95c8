//! The shard wire protocol: how a coordinator asks a worker for a subset
//! of a job's tiles and how the worker streams the results back.
//!
//! Everything rides the plain HTTP transport:
//!
//! - `POST /v1/shards?shard=<sid>&jobs=<id,id,..>&<job query>` dispatches a
//!   shard. The job query is exactly [`crate::params::JobParams::to_query`]
//!   output (the state-log persistence format), so the worker re-derives
//!   the identical batch plan via the identical validation path; the body
//!   carries the target PGM for inline sources and is empty otherwise.
//! - The `200` response body is JSON Lines: a [`shard_header_line`] first,
//!   then one [`shard_job_line`] per requested job in ascending id order.
//!   A job line is the job's WAL record (the same serialization the
//!   checkpoint log uses) with one extra top-level `"mask"` field holding
//!   the mask PGM in base64 — absent when the job produced no mask.
//! - `DELETE /v1/shards/<sid>` requests cooperative cancellation of a
//!   running shard; `404` means the shard already finished (and counts as
//!   an acknowledgement).
//!
//! Masks round-trip bit-exactly: PGM encodes the binarized mask as 0/255,
//! decode re-thresholds at 0.5, and the record's `mask_hash` is verified
//! after decode — the same witness the checkpoint restore path uses.

use ilt_field::{parse_pgm, pgm_bytes};
use ilt_runtime::{field_hash, json, json_escape, parse_wal_record, JobOutput};

use crate::transport::{base64_decode, base64_encode};

/// The header line opening a shard response stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardHeader {
    /// Echo of the dispatched shard id.
    pub shard: String,
    /// Number of job lines that follow.
    pub jobs: usize,
    /// The worker's configuration fingerprint for the planned case — the
    /// coordinator cross-checks it to catch version/parameter skew between
    /// replicas before trusting any mask.
    pub fingerprint: u64,
}

/// Formats the `jobs=` query value: ascending comma-separated ids.
pub fn encode_job_ids(ids: &[usize]) -> String {
    ids.iter().map(|id| id.to_string()).collect::<Vec<_>>().join(",")
}

/// Parses a `jobs=` query value.
///
/// # Errors
///
/// Returns a message for an empty list or a non-numeric id.
pub fn parse_job_ids(raw: &str) -> Result<Vec<usize>, String> {
    let ids: Vec<usize> = raw
        .split(',')
        .filter(|p| !p.is_empty())
        .map(|p| p.trim().parse().map_err(|_| format!("bad job id {p:?} in jobs={raw:?}")))
        .collect::<Result<_, _>>()?;
    if ids.is_empty() {
        return Err("jobs= lists no job ids".into());
    }
    Ok(ids)
}

/// Serializes the response header line.
pub fn shard_header_line(header: &ShardHeader) -> String {
    format!(
        "{{\"kind\":\"shard_header\",\"shard\":\"{}\",\"jobs\":{},\"fingerprint\":\"{:016x}\"}}",
        json_escape(&header.shard),
        header.jobs,
        header.fingerprint
    )
}

/// Parses the response header line. Unknown keys are ignored, so the
/// `"restored"` count a worker before 0.42.0 sent still parses.
///
/// # Errors
///
/// Returns a message when the line is not a shard header or a field is
/// malformed.
pub fn parse_shard_header(line: &str) -> Result<ShardHeader, String> {
    let v = json::parse(line)?;
    if v.field_str("kind")? != "shard_header" {
        return Err(format!("not a shard header: {line}"));
    }
    Ok(ShardHeader {
        shard: v.field_str("shard")?.to_string(),
        jobs: v.field_usize("jobs")?,
        fingerprint: v.field_hex("fingerprint")?,
    })
}

/// Serializes one finished job as a response line: the WAL record with the
/// mask (when present) appended as a base64 PGM field.
pub fn shard_job_line(output: &JobOutput) -> String {
    let mut line = output.record.to_json_wal(None);
    if let Some(mask) = &output.mask {
        line.pop(); // the closing brace
        line.push_str(&format!(",\"mask\":\"{}\"}}", base64_encode(&pgm_bytes(mask, 0.0, 1.0))));
    }
    line
}

/// Parses one job line back into a [`JobOutput`], verifying the decoded
/// mask against the record's `mask_hash`.
///
/// # Errors
///
/// Returns a message for a malformed record, undecodable mask, or a mask
/// whose hash does not match the record — any of which means the shard
/// result cannot be trusted and the shard must be re-dispatched.
pub fn parse_shard_job(line: &str) -> Result<JobOutput, String> {
    let v = json::parse(line)?;
    let record = parse_wal_record(&v)?.record;
    let mask = match v.get("mask") {
        None => None,
        Some(b64) => {
            let b64 = b64.as_str().ok_or("field mask is not a string")?;
            let bytes = base64_decode(b64).map_err(|e| format!("bad mask base64: {e}"))?;
            let img = parse_pgm(&bytes).map_err(|e| format!("bad mask PGM: {e}"))?;
            let mask = img.threshold(0.5);
            if let Some(metrics) = &record.metrics {
                if field_hash(&mask) != metrics.mask_hash {
                    return Err(format!(
                        "mask hash mismatch for job {} (corrupt transfer)",
                        record.job_id
                    ));
                }
            }
            Some(mask)
        }
    };
    if record.status.has_mask() && mask.is_none() {
        return Err(format!("job {} reports a mask but the line carries none", record.job_id));
    }
    Ok(JobOutput { record, mask })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_field::Field2D;
    use ilt_runtime::{JobMetrics, JobRecord, JobStatus, StageTimes};

    fn output(job_id: usize, mask: Option<Field2D>) -> JobOutput {
        let metrics = mask.as_ref().map(|m| JobMetrics {
            l2_nm2: 10.0,
            pvband_nm2: 5.0,
            epe_violations: 0,
            shots: 7,
            iterations: 40,
            mask_hash: field_hash(m),
        });
        JobOutput {
            record: JobRecord {
                job_id,
                case: "wire".into(),
                tile: Some((0, 1)),
                grid: 64,
                attempts: 1,
                status: if mask.is_some() {
                    JobStatus::Done
                } else {
                    JobStatus::Failed("boom".into())
                },
                metrics,
                times: StageTimes { sim_ms: 1.0, optimize_ms: 2.0, evaluate_ms: 0.0 },
                wall_ms: 3.0,
            },
            mask,
        }
    }

    fn checker(r: usize, c: usize) -> f64 {
        if (r + c) % 2 == 0 {
            1.0
        } else {
            0.0
        }
    }

    #[test]
    fn header_round_trips() {
        let header = ShardHeader {
            shard: "7-1".into(),
            jobs: 3,
            fingerprint: 0xdead_beef_cafe_f00d,
        };
        assert_eq!(parse_shard_header(&shard_header_line(&header)).unwrap(), header);
        assert!(parse_shard_header("{\"kind\":\"run_header\"}").is_err());
    }

    #[test]
    fn golden_lines_are_pinned_both_ways() {
        const HEADER: &str = r#"{"kind":"shard_header","shard":"7-1 \"x\"","jobs":3,"fingerprint":"deadbeefcafef00d"}"#;
        let header = ShardHeader {
            shard: "7-1 \"x\"".into(),
            jobs: 3,
            fingerprint: 0xdead_beef_cafe_f00d,
        };
        assert_eq!(shard_header_line(&header), HEADER);
        assert_eq!(parse_shard_header(HEADER).unwrap(), header);
        // A worker before 0.42.0 also sent the tiles it restored from its
        // own WAL; the count is ignored.
        let old = HEADER.replace("\"}", "\",\"restored\":1}");
        assert_eq!(parse_shard_header(&old).unwrap(), header);

        // The WAL record (ckpt always null on the wire) + the PGM in base64.
        const JOB: &str = r#"{"job_id":4,"case":"wire","tile":[0,1],"grid":64,"attempts":1,"status":"done","l2_nm2":10.0,"pvband_nm2":5.0,"epe":0,"shots":7,"iterations":40,"mask_hash":"36266942fcc0d345","sim_ms":1.0,"optimize_ms":2.0,"evaluate_ms":0.0,"wall_ms":3.0,"ckpt":null,"mask":"UDUKMiAyCjI1NQr/AAD/"}"#;
        let sent = output(4, Some(Field2D::from_fn(2, 2, checker)));
        assert_eq!(shard_job_line(&sent), JOB);
        let got = parse_shard_job(JOB).unwrap();
        assert_eq!(got.record, sent.record);
        assert_eq!(got.mask.unwrap().as_slice(), sent.mask.unwrap().as_slice());
    }

    #[test]
    fn job_ids_round_trip() {
        assert_eq!(encode_job_ids(&[0, 3, 5]), "0,3,5");
        assert_eq!(parse_job_ids("0,3,5").unwrap(), vec![0, 3, 5]);
        assert!(parse_job_ids("").is_err());
        assert!(parse_job_ids("1,x").is_err());
    }

    #[test]
    fn job_line_round_trips_mask_bit_exactly() {
        let mask = Field2D::from_fn(16, 16, checker);
        let sent = output(4, Some(mask.clone()));
        let got = parse_shard_job(&shard_job_line(&sent)).unwrap();
        assert_eq!(got.record, sent.record);
        let decoded = got.mask.expect("mask survives");
        assert_eq!(field_hash(&decoded), field_hash(&mask));
        assert_eq!(decoded.as_slice(), mask.as_slice());
    }

    #[test]
    fn failed_job_line_has_no_mask() {
        let sent = output(9, None);
        let line = shard_job_line(&sent);
        assert!(!line.contains("\"mask\":"), "{line}");
        let got = parse_shard_job(&line).unwrap();
        assert!(got.mask.is_none());
        assert!(matches!(got.record.status, JobStatus::Failed(_)));
    }

    #[test]
    fn corrupt_mask_is_rejected_by_hash() {
        let mask = Field2D::from_fn(16, 16, checker);
        let mut sent = output(4, Some(mask));
        // Tamper: claim a different hash than the shipped mask.
        sent.record.metrics.as_mut().unwrap().mask_hash ^= 1;
        let err = parse_shard_job(&shard_job_line(&sent)).unwrap_err();
        assert!(err.contains("hash mismatch"), "{err}");
    }

    #[test]
    fn done_record_without_mask_is_rejected() {
        let mask = Field2D::from_fn(16, 16, checker);
        let sent = output(4, Some(mask));
        let line = sent.record.to_json_wal(None); // drop the mask field
        let err = parse_shard_job(&line).unwrap_err();
        assert!(err.contains("carries none"), "{err}");
    }
}
