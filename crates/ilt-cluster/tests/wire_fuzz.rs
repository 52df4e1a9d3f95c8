//! Seeded fuzz for the shard-response wire parsers: torn lines, truncated
//! base64, and byte garbage must come back as typed `Err` values — never a
//! panic, and never a silently-accepted corrupt mask. These are exactly
//! the inputs the chaos tests' proxy manufactures when it tears or garbles
//! a worker's reply, so the parser is the last line of defense behind them.

use ilt_cluster::wire::{parse_shard_header, parse_shard_job, shard_header_line, shard_job_line, ShardHeader};
use ilt_field::Field2D;
use ilt_layouts::Xorshift64Star;
use ilt_runtime::{field_hash, JobMetrics, JobOutput, JobRecord, JobStatus, StageTimes};

fn masked_output(job_id: usize) -> JobOutput {
    let mask = Field2D::from_fn(24, 24, |r, c| if (r * 31 + c * 7 + job_id) % 3 == 0 { 1.0 } else { 0.0 });
    JobOutput {
        record: JobRecord {
            job_id,
            case: "fuzz".into(),
            tile: Some((job_id % 3, job_id / 3)),
            grid: 24,
            attempts: 1,
            status: JobStatus::Done,
            metrics: Some(JobMetrics {
                l2_nm2: 12.5,
                pvband_nm2: 3.25,
                epe_violations: 1,
                shots: 9,
                iterations: 17,
                mask_hash: field_hash(&mask),
            }),
            times: StageTimes { sim_ms: 1.0, optimize_ms: 2.0, evaluate_ms: 0.5 },
            wall_ms: 3.5,
        },
        mask: Some(mask),
    }
}

fn header_line() -> String {
    shard_header_line(&ShardHeader {
        shard: "9-2".into(),
        jobs: 4,
        fingerprint: 0x0123_4567_89ab_cdef,
    })
}

/// Every truncation of a valid line — the shape of a torn reply — parses
/// to a typed error, or (when the tear only shaves trailing syntax and
/// every field survives intact) to exactly the original value. Never a
/// panic, never fabricated data.
#[test]
fn torn_lines_never_panic_and_never_fabricate() {
    let original = masked_output(5);
    let job = shard_job_line(&original);
    for cut in 0..job.len() {
        match parse_shard_job(&job[..cut]) {
            Err(e) => assert!(!e.is_empty(), "typed error for cut at {cut}"),
            Ok(got) => {
                assert_eq!(got.record, original.record, "cut at {cut} fabricated a record");
                assert_eq!(
                    field_hash(got.mask.as_ref().expect("mask")),
                    original.record.metrics.as_ref().unwrap().mask_hash,
                    "cut at {cut} fabricated a mask"
                );
            }
        }
    }
    assert!(parse_shard_job(&job).is_ok(), "the untouched line still parses");

    let original_header = ShardHeader {
        shard: "9-2".into(),
        jobs: 4,
        fingerprint: 0x0123_4567_89ab_cdef,
    };
    let header = header_line();
    for cut in 0..header.len() {
        match parse_shard_header(&header[..cut]) {
            Err(e) => assert!(!e.is_empty(), "typed error for cut at {cut}"),
            Ok(got) => {
                assert_eq!(got, original_header, "cut at {cut} fabricated a header")
            }
        }
    }
    assert!(parse_shard_header(&header).is_ok());
    // The `"restored"` count a worker before 0.42.0 sent is ignored.
    let old = header.replace("\"}", "\",\"restored\":1}");
    assert_eq!(parse_shard_header(&old).unwrap(), original_header);
}

/// Seeded single-byte corruption across the whole line — the shape of a
/// garbled reply. Corrupting the mask payload or its hash must be caught; nothing
/// may panic; and any mutation the parser does accept must decode to a
/// mask matching its own record's hash (the parser re-verifies, so a
/// successful parse is self-consistent by construction).
#[test]
fn garbled_bytes_are_rejected_or_self_consistent() {
    let job = shard_job_line(&masked_output(2));
    let mut rng = Xorshift64Star::new(0x5eed_f00d);
    let mut rejected = 0u32;
    for _ in 0..4000 {
        let mut bytes = job.clone().into_bytes();
        let at = (rng.next_u64() as usize) % bytes.len();
        let flip = (rng.next_u64() % 255) as u8 + 1;
        bytes[at] ^= flip;
        let Ok(line) = String::from_utf8(bytes) else { continue };
        match parse_shard_job(&line) {
            Err(_) => rejected += 1,
            Ok(output) => {
                // A mutation that survives (e.g. inside a float digit or
                // the case label) must still be internally consistent:
                // decoded mask matches the record's own hash.
                if let (Some(mask), Some(metrics)) = (&output.mask, &output.record.metrics) {
                    assert_eq!(
                        field_hash(mask),
                        metrics.mask_hash,
                        "an accepted line must never carry a mismatched mask"
                    );
                }
            }
        }
    }
    assert!(rejected > 1000, "most single-byte garbles must be rejected, got {rejected}");
}

/// Truncating or padding the base64 mask payload specifically — the
/// subtlest torn shape, since the JSON around it stays intact.
#[test]
fn truncated_base64_masks_are_typed_errors() {
    let job = shard_job_line(&masked_output(7));
    let mask_start = job.find("\"mask\":\"").expect("mask field") + "\"mask\":\"".len();
    let mask_end = job[mask_start..].find('"').expect("close quote") + mask_start;
    for keep in [0, 1, 7, (mask_end - mask_start) / 2, mask_end - mask_start - 1] {
        let mut cut = String::new();
        cut.push_str(&job[..mask_start + keep]);
        cut.push_str(&job[mask_end..]);
        let err = parse_shard_job(&cut).expect_err("truncated base64 must not parse");
        assert!(
            err.contains("base64") || err.contains("PGM") || err.contains("hash"),
            "typed error, got: {err}"
        );
    }
}

/// Pure seeded garbage — random bytes, random lengths — fed to both
/// parsers: always a typed error, never a panic.
#[test]
fn random_garbage_is_always_a_typed_error() {
    let mut rng = Xorshift64Star::new(0xdead_cafe);
    for _ in 0..2000 {
        let len = (rng.next_u64() % 300) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| (rng.next_u64() % 256) as u8).collect();
        let line = String::from_utf8_lossy(&bytes).into_owned();
        assert!(parse_shard_header(&line).is_err());
        assert!(parse_shard_job(&line).is_err());
    }
    // JSON-shaped but wrong: also typed errors.
    assert!(parse_shard_job("{\"kind\":\"shard_header\"}").is_err());
    assert!(parse_shard_header("{}").is_err());
    assert!(parse_shard_job("{}").is_err());
}

/// Shapes only a hostile or broken worker sends, now that response lines
/// reach a recursive parser: nesting deep enough to exhaust a thread's
/// stack (the default 2 MB test-thread stack here), and objects that say
/// the same key twice (which value would a first-match reader trust?).
#[test]
fn deep_nesting_and_duplicate_keys_are_typed_errors() {
    for bomb in ["{\"a\":".repeat(100_000), "[".repeat(1 << 20)] {
        for parsed in [parse_shard_job(&bomb).map(|_| ()), parse_shard_header(&bomb).map(|_| ())] {
            let err = parsed.expect_err("a nesting bomb must not parse");
            assert!(err.contains("nesting"), "{err}");
        }
        // The same bomb smuggled into an otherwise valid line's field.
        let line = header_line().replacen("\"jobs\":4", &format!("\"jobs\":{bomb}"), 1);
        assert!(parse_shard_header(&line).is_err());
    }

    let original = masked_output(3);
    let job = shard_job_line(&original);
    let claimed = format!("\"mask_hash\":\"{:016x}\"", original.record.metrics.unwrap().mask_hash);
    assert!(job.contains(&claimed));
    for (field, dup) in [
        ("\"status\":\"done\"", "\"status\":\"done\",\"status\":\"failed\""),
        ("\"job_id\":3", "\"job_id\":3,\"job_id\":4"),
        (claimed.as_str(), &format!("{claimed},\"mask_hash\":\"0000000000000000\"")),
    ] {
        let err = parse_shard_job(&job.replacen(field, dup, 1)).expect_err("duplicate key");
        assert!(err.contains("duplicate key"), "{err}");
    }
    let header = header_line().replacen("\"jobs\":4", "\"jobs\":4,\"jobs\":400", 1);
    assert!(parse_shard_header(&header).unwrap_err().contains("duplicate key"));

    // Integers are exact or rejected — never cast.
    for bad in ["4.5", "-4", "1e300", "18014398509481984"] {
        let header = header_line().replacen("\"jobs\":4", &format!("\"jobs\":{bad}"), 1);
        assert!(parse_shard_header(&header).is_err(), "jobs={bad} must be rejected");
    }
}
