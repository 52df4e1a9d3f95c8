//! End-to-end cluster chaos: a coordinator and two `ilt worker` processes
//! on loopback, one worker armed with an injected process crash
//! (`--inject crash@0`) that kills it mid-job. The coordinator must detect
//! the death, re-dispatch the lost shard to the survivor, and still serve
//! a mask byte-identical to the single-process batch engine — with the
//! re-dispatch visible in `/metrics`.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use multilevel_ilt::cluster::transport::request;
use multilevel_ilt::cluster::{ExecPolicy, JobParams};
use multilevel_ilt::field::pgm_bytes;
use multilevel_ilt::runtime::{run_batch, SimulatorCache};

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
fn http(addr: &str, method: &str, path: &str) -> (u16, Vec<u8>) {
    request(addr, method, path, &[], Duration::from_secs(30)).expect("http exchange")
}

#[test]
fn crashed_worker_is_redispatched_and_mask_stays_byte_identical() {
    const QUERY: &str = "via=7&grid=128&kernels=3&tile=64&halo=8&iters=2&threads=1&eval=0";

    // Reference: the in-process batch engine on the identical parameters.
    let params = JobParams::from_saved(QUERY, Vec::new(), &ExecPolicy::default()).expect("params");
    let (case, config) = params.plan().expect("plan");
    let cache = SimulatorCache::new();
    let reference =
        run_batch(std::slice::from_ref(&case), &config, &cache).expect("local batch");
    let reference_pgm = pgm_bytes(&reference.cases[0].mask, 0.0, 1.0);

    // Worker A aborts its own process right after job 0's checkpoint is
    // durable (the crash plan is local: the coordinator never forwards
    // fault specs). Worker B is healthy.
    let state_a = std::env::temp_dir().join(format!("ilt-cluster-e2e-{}", std::process::id()));
    let (worker_a, addr_a) = spawn_ilt(&[
        "worker",
        "--addr",
        "127.0.0.1:0",
        "--state-dir",
        state_a.to_str().expect("utf-8 temp path"),
        "--inject",
        "crash@0",
    ]);
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

    let (status, body) = http(&addr_c, "POST", &format!("/v1/jobs?{QUERY}"));
    assert_eq!(status, 202, "submit: {}", String::from_utf8_lossy(&body));

    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        let (status, body) = http(&addr_c, "GET", "/v1/jobs/0");
        assert_eq!(status, 200);
        let body = String::from_utf8_lossy(&body).into_owned();
        if body.contains("\"state\":\"done\"") {
            break;
        }
        assert!(!body.contains("\"state\":\"failed\""), "job must survive the crash: {body}");
        assert!(Instant::now() < deadline, "job did not finish in time: {body}");
        std::thread::sleep(Duration::from_millis(200));
    }

    let (status, mask) = http(&addr_c, "GET", "/v1/jobs/0/mask");
    assert_eq!(status, 200);
    assert_eq!(mask, reference_pgm, "cluster mask must match ilt batch byte-for-byte");

    let (status, metrics) = http(&addr_c, "GET", "/metrics");
    assert_eq!(status, 200);
    let metrics = String::from_utf8_lossy(&metrics).into_owned();
    let redispatched: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("ilt_shards_redispatched_total "))
        .expect("re-dispatch counter exported")
        .trim()
        .parse()
        .expect("numeric counter");
    assert!(redispatched >= 1, "the crashed shard must be re-dispatched:\n{metrics}");
    assert!(
        metrics.contains("ilt_workers_configured 2"),
        "both replicas configured:\n{metrics}"
    );

    // The crash plan really fired: worker A is dead of an abnormal exit,
    // not still serving.
    let mut worker_a = worker_a;
    let exit = worker_a
        .0
        .wait_timeout_like(Duration::from_secs(10))
        .expect("worker A must have aborted");
    assert!(!exit.success(), "worker A must die of the injected abort, got {exit:?}");

    let _ = std::fs::remove_dir_all(&state_a);
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
