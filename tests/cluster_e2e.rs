//! The real `ilt` binary as real processes on loopback.
//!
//! Cluster chaos: a coordinator and two `ilt worker` processes, one worker
//! killed with SIGKILL while it holds a shard (its tiles stall on
//! `--inject delay@J=MS`, so the kill is sure to catch it computing). The
//! coordinator must detect the death, re-dispatch the lost shard to the
//! survivor, and still serve a mask byte-identical to the single-process
//! batch engine — with the re-dispatch visible in `/metrics`.
//!
//! Kill -9 + `--register`: a replica dies under the job, a replacement
//! announces itself mid-job, a straggler is speculated — same mask.
//!
//! Four routes: one job description through `ilt batch`, the in-process
//! engine, `ilt serve` and `ilt serve --workers` yields one PGM.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use multilevel_ilt::cluster::transport::request;
use multilevel_ilt::cluster::{ExecPolicy, JobParams};
use multilevel_ilt::field::{pgm_bytes, Field2D};
use multilevel_ilt::runtime::{run_batch, SimulatorCache};

/// The tests take turns: each runs several processes, and timing-driven
/// chaos is sensitive to a loaded machine.
static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Kills the child on drop so a failing assertion never leaks processes.
struct Proc(Child);

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns the `ilt` binary and returns once it prints its listen line.
fn spawn_ilt(args: &[&str]) -> (Proc, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ilt"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ilt");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .unwrap_or_else(|| panic!("ilt {args:?} exited before its listen line"))
            .expect("read child stdout");
        if let Some(rest) = line.split("listening on http://").nth(1) {
            break rest.trim().to_string();
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (Proc(child), addr)
}

/// One `connection: close` HTTP exchange; returns status and body.
fn http(addr: &str, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
    request(addr, method, path, body, Duration::from_secs(30)).expect("http exchange")
}

/// Submits `query` (+ `body`) as job 0 of a fresh server at `addr`, polls
/// it to `done` and returns the served mask.
fn serve_mask(addr: &str, query: &str, body: &[u8]) -> Vec<u8> {
    let (status, reply) = http(addr, "POST", &format!("/v1/jobs?{query}"), body);
    assert_eq!(status, 202, "submit: {}", String::from_utf8_lossy(&reply));
    await_mask(addr)
}

/// Polls job 0 at `addr` to `done` and returns the served mask.
fn await_mask(addr: &str) -> Vec<u8> {
    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        let (status, detail) = http(addr, "GET", "/v1/jobs/0", &[]);
        assert_eq!(status, 200);
        let detail = String::from_utf8_lossy(&detail).into_owned();
        if detail.contains("\"state\":\"done\"") {
            break;
        }
        assert!(!detail.contains("\"state\":\"failed\""), "job must not fail: {detail}");
        assert!(Instant::now() < deadline, "job did not finish in time: {detail}");
        std::thread::sleep(Duration::from_millis(100));
    }
    let (status, mask) = http(addr, "GET", "/v1/jobs/0/mask", &[]);
    assert_eq!(status, 200);
    mask
}

#[test]
fn crashed_worker_is_redispatched_and_mask_stays_byte_identical() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const QUERY: &str = "via=7&grid=128&kernels=3&tile=64&halo=8&iters=2&threads=1&eval=0";

    // Reference: the in-process batch engine on the identical parameters.
    let params = JobParams::from_saved(QUERY, Vec::new(), &ExecPolicy::default()).expect("params");
    let (case, config) = params.plan().expect("plan");
    let cache = SimulatorCache::new();
    let reference =
        run_batch(std::slice::from_ref(&case), &config, &cache).expect("local batch");
    let reference_pgm = pgm_bytes(&reference.cases[0].mask, 0.0, 1.0);

    // Worker A stalls every tile it is given, so it still holds its shard
    // when it is killed; the coordinator's membership says it has one.
    // Worker B is healthy.
    let a_stalls: Vec<String> = (0..9).map(|job| format!("delay@{job}=60000")).collect();
    let (mut worker_a, addr_a) =
        spawn_ilt(&["worker", "--addr", "127.0.0.1:0", "--inject", &a_stalls.join(",")]);
    let (_worker_b, addr_b) = spawn_ilt(&["worker", "--addr", "127.0.0.1:0"]);
    let (_coordinator, addr_c) = spawn_ilt(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--threads",
        "1",
        "--workers",
        &format!("{addr_a},{addr_b}"),
        "--heartbeat-ms",
        "100",
    ]);

    let (status, reply) = http(&addr_c, "POST", &format!("/v1/jobs?{QUERY}"), &[]);
    assert_eq!(status, 202, "submit: {}", String::from_utf8_lossy(&reply));
    let deadline = Instant::now() + Duration::from_secs(60);
    // `GET /v1/members` lists each member as one object: A's `inflight`
    // is the first one after its address.
    let a_key = format!("\"addr\":\"{addr_a}\"");
    let holds_a_shard = || {
        let (status, members) = http(&addr_c, "GET", "/v1/members", &[]);
        assert_eq!(status, 200);
        let members = String::from_utf8_lossy(&members).into_owned();
        let (_, a) = members.split_once(&a_key).expect("A is a member");
        let (_, inflight) = a.split_once("\"inflight\":").expect("an inflight count");
        let digits: String = inflight.chars().take_while(char::is_ascii_digit).collect();
        digits.parse::<u32>().expect("a numeric inflight count") >= 1
    };
    while !holds_a_shard() {
        assert!(Instant::now() < deadline, "worker A never started a shard");
        std::thread::sleep(Duration::from_millis(20));
    }
    worker_a.0.kill().expect("kill -9 worker A");

    // The job must survive the crash.
    let mask = await_mask(&addr_c);
    assert!(mask == reference_pgm, "cluster mask must match ilt batch byte-for-byte");

    // The heartbeat monitor needs three missed probes to bury worker A;
    // the job may be done sooner.
    let deadline = Instant::now() + Duration::from_secs(10);
    let metrics = loop {
        let (status, metrics) = http(&addr_c, "GET", "/metrics", &[]);
        assert_eq!(status, 200);
        let metrics = String::from_utf8_lossy(&metrics).into_owned();
        if metrics.contains("ilt_workers_alive 1\n") || Instant::now() >= deadline {
            break metrics;
        }
        std::thread::sleep(Duration::from_millis(100));
    };
    let redispatched: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("ilt_shards_redispatched_total "))
        .expect("re-dispatch counter exported")
        .trim()
        .parse()
        .expect("numeric counter");
    assert!(redispatched >= 1, "the crashed shard must be re-dispatched:\n{metrics}");
    for line in [
        "ilt_workers_configured 2",
        "ilt_workers_alive 1",
        "ilt_shard_latency_ms_bucket{stage=\"shard\",le=\"+Inf\"}",
    ] {
        assert!(metrics.contains(line), "expected `{line}` after one crash:\n{metrics}");
    }

    // Worker A is dead of the kill, not still serving.
    let exit = worker_a
        .0
        .wait_timeout_like(Duration::from_secs(10))
        .expect("worker A must have died");
    assert!(!exit.success(), "worker A must die of the kill, got {exit:?}");
}

/// The self-healing story on real processes (once `verify_chaos.sh`):
/// replica A delays job 0's tile by 4 s, so whatever shard carries it is a
/// straggler; replica B — every tile delayed, so the kill is sure to catch
/// it still computing — dies of `kill -9` under the job; a
/// replacement started with `--register` announces itself mid-job and picks
/// up the slack, including the speculative copy of the straggler. The mask
/// is still the in-process engine's, and `/metrics` tells the story.
#[test]
fn killed_worker_is_replaced_by_a_registering_one_and_the_straggler_is_speculated() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const QUERY: &str = "via=7&grid=128&kernels=3&tile=64&halo=8&iters=2&threads=1&eval=0";
    const STRAGGLE: &str = "delay@0=4000";

    let params = JobParams::from_saved(QUERY, Vec::new(), &ExecPolicy::default()).expect("params");
    let (case, config) = params.plan().expect("plan");
    let reference = run_batch(&[case], &config, &SimulatorCache::new()).expect("local batch");
    let reference_pgm = pgm_bytes(&reference.cases[0].mask, 0.0, 1.0);

    let b_stalls: Vec<String> = (0..9).map(|job| format!("delay@{job}=5000")).collect();
    let (_worker_a, addr_a) =
        spawn_ilt(&["worker", "--addr", "127.0.0.1:0", "--inject", STRAGGLE]);
    let (mut worker_b, addr_b) =
        spawn_ilt(&["worker", "--addr", "127.0.0.1:0", "--inject", &b_stalls.join(",")]);
    let (_coordinator, addr_c) = spawn_ilt(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--threads",
        "1",
        "--workers",
        &format!("{addr_a},{addr_b}"),
        "--heartbeat-ms",
        "100",
        "--speculate-factor",
        "1.5",
        "--speculate-after",
        "1",
    ]);

    // Submit, then tear the cluster apart under the job.
    let (status, reply) = http(&addr_c, "POST", &format!("/v1/jobs?{QUERY}"), &[]);
    assert_eq!(status, 202, "submit: {}", String::from_utf8_lossy(&reply));
    std::thread::sleep(Duration::from_millis(300));
    worker_b.0.kill().expect("kill -9 worker B");
    let (_worker_c, addr_new) = spawn_ilt(&[
        "worker", "--addr", "127.0.0.1:0", "--inject", STRAGGLE, "--register", &addr_c,
    ]);
    let members = |want: &str| {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (status, members) = http(&addr_c, "GET", "/v1/members", &[]);
            assert_eq!(status, 200);
            let members = String::from_utf8_lossy(&members).into_owned();
            if members.contains(&format!("\"addr\":\"{want}\"")) {
                return members;
            }
            assert!(Instant::now() < deadline, "{want} is not a member: {members}");
            std::thread::sleep(Duration::from_millis(50));
        }
    };
    members(&addr_new);

    let mask = await_mask(&addr_c);
    assert!(mask == reference_pgm, "mask under kill/join/straggler chaos differs from run_batch");

    let (status, metrics) = http(&addr_c, "GET", "/metrics", &[]);
    assert_eq!(status, 200);
    let metrics = String::from_utf8_lossy(&metrics).into_owned();
    let metric = |name: &str| -> u64 {
        let line = metrics.lines().find_map(|l| l.strip_prefix(name)?.strip_prefix(' '));
        line.unwrap_or_else(|| panic!("{name} exported:\n{metrics}")).parse().expect("counter")
    };
    assert!(metric("ilt_members_joined_total") >= 3, "A, B and the replacement:\n{metrics}");
    assert!(
        metric("ilt_worker_heartbeat_failures_total") >= 1,
        "the kill must be noticed by the heartbeat monitor:\n{metrics}"
    );
    // B's in-flight shards come back one of two ways, depending on who is
    // first: a speculative copy already racing the stalled dispatch wins,
    // or the dispatch that died with B is retried on another replica.
    assert!(
        metric("ilt_shards_redispatched_total") + metric("ilt_speculation_wins_total") >= 1,
        "neither a re-dispatch nor a speculation win after the kill:\n{metrics}"
    );
    assert!(metric("ilt_shards_speculated_total") >= 1, "the straggler was never speculated");
    assert!(metrics.contains("ilt_worker_breaker_state{"), "per-worker breaker gauge:\n{metrics}");
    members(&addr_a);
}

/// One job description, written once as the decoder's pairs, through all
/// four routes — `ilt batch` (the pairs as flags, the target as a PGM
/// file), the in-process engine (`run_batch(plan())`), `ilt serve` (the
/// pairs as a query, the target as the body) and `ilt serve --workers`
/// (the same, sharded over two `ilt worker`s) — is one PGM, byte for byte,
/// and the binary's `--no-timing` journal is the in-process report's.
#[test]
fn one_description_takes_four_routes_to_one_mask() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const PAIRS: [(&str, &str); 6] = [
        ("clip_nm", "512"),
        ("kernels", "3"),
        ("tile", "32"),
        ("halo", "4"),
        ("threads", "1"),
        ("eval", "0"),
    ];
    let dir = std::env::temp_dir().join(format!("ilt-four-routes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 temp path").to_string();
    let target = Field2D::from_fn(64, 64, |r, c| {
        if (24..40).contains(&r) && (16..48).contains(&c) { 1.0 } else { 0.0 }
    });
    let pgm = pgm_bytes(&target, 0.0, 1.0);
    std::fs::write(path("routes.pgm"), &pgm).expect("write target");

    // Route 1: the in-process engine. The file's stem is the job's name.
    let mut pairs: Vec<(String, String)> =
        PAIRS.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    pairs.push(("name".into(), "routes".into()));
    let params = JobParams::from_pairs(&pairs, &pgm, &ExecPolicy::default()).expect("params");
    let (case, config) = params.plan().expect("plan");
    let reference = run_batch(&[case], &config, &SimulatorCache::new()).expect("local batch");
    assert_eq!(reference.cases[0].tiles, 9, "the job must exercise tiling and stitching");
    let reference_pgm = pgm_bytes(&reference.cases[0].mask, 0.0, 1.0);

    // Route 2: `ilt batch`, each pair as the flag it is.
    let mut args: Vec<String> =
        ["batch", "--no-timing", "--out", &path("cli")].map(Into::into).into();
    for (key, value) in PAIRS {
        match (key, value) {
            ("eval", "0") => args.push("--no-eval".into()),
            _ => args.extend([format!("--{}", key.replace('_', "-")), value.to_string()]),
        }
    }
    args.push(path("routes.pgm"));
    let status = Command::new(env!("CARGO_BIN_EXE_ilt"))
        .args(&args)
        .stdout(Stdio::null())
        .status()
        .expect("run ilt batch");
    assert!(status.success(), "ilt {args:?} failed");
    let cli_mask = std::fs::read(path("cli_routes_mask.pgm")).expect("CLI mask");
    assert!(cli_mask == reference_pgm, "`ilt batch` mask differs from run_batch(plan())");
    let cli_journal = std::fs::read_to_string(path("cli_journal.jsonl")).expect("CLI journal");
    assert_eq!(cli_journal, reference.report.to_jsonl_opts(false));

    // Routes 3 and 4: `ilt serve`, alone and coordinating two workers.
    let query: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
    let query = query.join("&");
    let (_local, addr_local) = spawn_ilt(&["serve", "--addr", "127.0.0.1:0"]);
    let served = serve_mask(&addr_local, &query, &pgm);
    assert!(served == reference_pgm, "`ilt serve` mask differs from run_batch(plan())");

    let (_worker_a, addr_a) = spawn_ilt(&["worker", "--addr", "127.0.0.1:0"]);
    let (_worker_b, addr_b) = spawn_ilt(&["worker", "--addr", "127.0.0.1:0"]);
    let (_coordinator, addr_c) = spawn_ilt(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        &format!("{addr_a},{addr_b}"),
    ]);
    let sharded = serve_mask(&addr_c, &query, &pgm);
    assert!(sharded == reference_pgm, "`ilt serve --workers` mask differs from run_batch(plan())");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `Child::wait` with a deadline, std-only (no `wait-timeout` crate).
trait WaitTimeoutLike {
    fn wait_timeout_like(&mut self, limit: Duration) -> Option<std::process::ExitStatus>;
}

impl WaitTimeoutLike for Child {
    fn wait_timeout_like(&mut self, limit: Duration) -> Option<std::process::ExitStatus> {
        let deadline = Instant::now() + limit;
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.try_wait() {
                return Some(status);
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        None
    }
}
