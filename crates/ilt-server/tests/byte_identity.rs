//! What a served job leaves on disk and puts on the wire is a function of
//! its description alone. For one `case=` job, one `via=` job (free-text
//! name, a tenant and a priority class) and one inline PGM with `inject=`,
//! the state log, the compaction snapshot and the `POST /v1/shards?...`
//! request line are pinned to the bytes the binary of commit 7322372 wrote
//! — when the store still kept the query string, the target file name and
//! a rasterized plan beside the description, and `server.rs` cut `inject=`
//! out of the query by splitting it at `&`. Every description carries
//! `seam=crop`, the one seam policy.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};

use ilt_cluster::{ClusterConfig, Worker, WorkerConfig};
use ilt_server::{
    Admission, CancelOutcome, ExecPolicy, JobParams, JobStore, PriorityClass, Request,
    ServerConfig, StateLog, SNAPSHOT_FILE,
};
use util::{get, job_id, post, post_with_headers, shutdown, start, tiny_pgm};

mod util;

/// `(request query, client, class)`; the third submission carries
/// [`tiny_pgm`] as its body.
const SUBMISSIONS: [(&str, &str, &str); 3] = [
    ("case=3&grid=64&kernels=3&iters=2", "anonymous", "normal"),
    ("via=7&name=we%26ird%3Dna+me%25&grid=64&kernels=3&iters=2", "tenant-a", "high"),
    ("clip_nm=512&kernels=3&iters=2&inject=panic@0:1,delay@0:2=5", "tenant-b", "low"),
];

/// The descriptions as 7322372 serialized them (`JobParams::to_query`),
/// without the third's `&inject=panic@0:1,delay@0:2=5` tail.
const SAVED: [&str; 3] = [
    "case=3&name=case3&grid=64&clip_nm=2048&kernels=3&tile=512&halo=64&seam=crop&schedule=fast&iters=2&max_eff_nm=8&threads=1&timeout_s=0&retries=1&eval=1",
    "via=7&name=we%26ird%3Dna%20me%25&grid=64&clip_nm=2048&kernels=3&tile=512&halo=64&seam=crop&schedule=fast&iters=2&max_eff_nm=8&threads=1&timeout_s=0&retries=1&eval=1",
    "name=inline&grid=512&clip_nm=512&kernels=3&tile=512&halo=64&seam=crop&schedule=fast&iters=2&max_eff_nm=8&threads=1&timeout_s=0&retries=1&eval=1",
];
const INJECT: &str = "&inject=panic@0:1,delay@0:2=5";

fn body_of(i: usize) -> Vec<u8> {
    if i == 2 { tiny_pgm() } else { Vec::new() }
}

/// The three submit records of 7322372's `state.jsonl`, in id order.
fn submit_records() -> Vec<String> {
    let record = |id: usize, tail: &str| {
        let (_, client, class) = SUBMISSIONS[id];
        let inject = if id == 2 { INJECT } else { "" };
        format!(
            r#"{{"kind":"submit","id":{id},"query":"{}{inject}","client":"{client}","class":"{class}"{tail}}}"#,
            SAVED[id]
        )
    };
    vec![record(0, ""), record(1, ""), record(2, r#","target":"job-2-target.pgm""#)]
}

fn allow_inject() -> ExecPolicy {
    ExecPolicy { allow_inject: true, ..ExecPolicy::default() }
}

#[test]
fn state_log_and_snapshot_equal_the_parent_binarys() {
    let dir = util::temp_dir("byte_identity_state");
    let state = StateLog::open(&dir, 1).unwrap();
    let (store, _) = JobStore::open(8, 0, 0, Some(state), &ExecPolicy::default()).unwrap();
    for (i, (query, client, class)) in SUBMISSIONS.into_iter().enumerate() {
        // Through the real request parser, as `POST /v1/jobs` decodes it.
        let body = body_of(i);
        let mut raw =
            format!("POST /v1/jobs?{query} HTTP/1.1\r\ncontent-length: {}\r\n\r\n", body.len())
                .into_bytes();
        raw.extend_from_slice(&body);
        let (req, _) =
            Request::read_from_buffered(&mut &raw[..], &mut Vec::new()).unwrap();
        let params = JobParams::from_request(&req, &allow_inject()).unwrap();
        let class = PriorityClass::parse(class).unwrap();
        assert_eq!(store.submit(&params, Admission { client: client.into(), class }), Ok(i));
    }
    let lines = |name: &str| -> Vec<String> {
        std::fs::read_to_string(dir.join(name)).unwrap().lines().map(str::to_string).collect()
    };
    assert_eq!(lines("state.jsonl"), submit_records());

    // A fourth job, cancelled while queued, ages out at the compaction its
    // own cancellation triggers; the snapshot is the three survivors,
    // re-rendered from their descriptions.
    let extra = JobParams::from_saved("via=9&grid=64", Vec::new(), &ExecPolicy::default()).unwrap();
    assert_eq!(store.submit(&extra, Admission::default()), Ok(3));
    assert_eq!(store.cancel(3), CancelOutcome::Cancelled);
    let mut snapshot = vec![r#"{"kind":"compact","next_id":4}"#.to_string()];
    snapshot.extend(submit_records());
    assert_eq!(lines(SNAPSHOT_FILE), snapshot);
    assert!(lines("state.jsonl").is_empty(), "truncated by the compaction");
    assert!(dir.join("job-2-target.pgm").exists(), "the inline target is still referenced");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A pass-through in front of one worker that keeps every request line it
/// forwards. Every exchange is `connection: close`, so one request in, the
/// worker's whole answer out.
fn recording_proxy(worker: SocketAddr) -> (SocketAddr, Arc<Mutex<Vec<String>>>) {
    fn forward(mut client: TcpStream, worker: SocketAddr, lines: &Mutex<Vec<String>>) {
        let mut request = Vec::new();
        let mut chunk = [0u8; 4096];
        let body_start = loop {
            match client.read(&mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(n) => request.extend_from_slice(&chunk[..n]),
            }
            if let Some(at) = request.windows(4).position(|w| w == b"\r\n\r\n") {
                break at + 4;
            }
        };
        let head = String::from_utf8_lossy(&request[..body_start]).into_owned();
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length: "))
            .map_or(0, |v| v.parse().unwrap());
        while request.len() < body_start + length {
            let n = client.read(&mut chunk).unwrap();
            assert!(n > 0, "request body cut short");
            request.extend_from_slice(&chunk[..n]);
        }
        lines.lock().unwrap().push(head.lines().next().unwrap().to_string());
        let mut upstream = TcpStream::connect(worker).unwrap();
        upstream.write_all(&request).unwrap();
        let mut reply = Vec::new();
        upstream.read_to_end(&mut reply).unwrap();
        let _ = client.write_all(&reply);
    }
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let lines = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::clone(&lines);
    std::thread::spawn(move || {
        for client in listener.incoming().flatten() {
            let seen = Arc::clone(&seen);
            std::thread::spawn(move || forward(client, worker, &seen));
        }
    });
    (addr, lines)
}

#[test]
fn shard_dispatch_request_lines_equal_the_parent_binarys() {
    let worker = Worker::bind(WorkerConfig::default()).expect("bind worker");
    let worker_addr = worker.local_addr().expect("worker addr");
    let worker_thread = std::thread::spawn(move || worker.run());
    let (proxy, request_lines) = recording_proxy(worker_addr);

    let state_dir = util::temp_dir("byte_identity_wire");
    let (addr, handle) = start(ServerConfig {
        workers: 1,
        policy: allow_inject(),
        state_dir: Some(state_dir.clone()),
        cluster: Some(ClusterConfig { workers: vec![proxy.to_string()], ..ClusterConfig::default() }),
        ..ServerConfig::default()
    });
    for (i, (query, client, class)) in SUBMISSIONS.into_iter().enumerate() {
        let headers = [("x-ilt-client", client), ("x-ilt-priority", class)];
        let reply = post_with_headers(addr, &format!("/v1/jobs?{query}"), &headers, &body_of(i));
        assert_eq!(reply.status, 202, "{}", reply.text());
        assert_eq!(job_id(&reply), Ok(i));
    }
    for id in 0..3 {
        util::wait_for_state(addr, id, "done");
    }
    // One whole-clip shard per job; `inject=` never leaves the coordinator.
    let mut dispatched: Vec<String> = request_lines
        .lock()
        .unwrap()
        .iter()
        .filter(|line| line.starts_with("POST /v1/shards?"))
        .cloned()
        .collect();
    dispatched.sort();
    let expected: Vec<String> = (0..3)
        .map(|id| format!("POST /v1/shards?shard={id}-0&jobs=0&{} HTTP/1.1", SAVED[id]))
        .collect();
    assert_eq!(dispatched, expected);
    // ...while the state log keeps it, for the restart that replays it.
    let log = std::fs::read_to_string(state_dir.join("state.jsonl")).unwrap();
    let submits: Vec<&str> = log.lines().filter(|l| l.contains(r#""kind":"submit""#)).collect();
    assert_eq!(submits, submit_records());
    assert!(get(addr, "/metrics").text().contains("ilt_jobs_completed_total 3\n"));

    shutdown(addr, handle);
    assert_eq!(post(worker_addr, "/v1/shutdown", b"").status, 200);
    worker_thread.join().expect("worker thread");
    let _ = std::fs::remove_dir_all(&state_dir);
}
