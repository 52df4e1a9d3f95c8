//! The hermetic build policy (ROADMAP "Build policy") as a test: tier-1
//! must resolve offline, so the lock file may name workspace packages only
//! and no package may be carved out of the workspace to dodge that. The
//! next registry crate or `exclude`d directory fails here, not on a
//! disconnected machine.

use std::path::Path;

fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn lock_file_names_no_registry_or_git_source() {
    let sourced: Vec<String> =
        read("Cargo.lock").lines().filter(|l| l.starts_with("source = ")).map(Into::into).collect();
    assert!(sourced.is_empty(), "Cargo.lock resolves packages from outside the tree: {sourced:?}");
}

#[test]
fn workspace_excludes_nothing() {
    let manifest = read("Cargo.toml");
    let excludes: Vec<&str> =
        manifest.lines().filter(|l| l.trim_start().starts_with("exclude")).collect();
    assert!(excludes.is_empty(), "a package is carved out of the workspace: {excludes:?}");
}

/// The barometer measures compute kernels; the serving path has its one
/// measurement in `benchmark/`'s `serve_small`. A serving workload cannot
/// drift back in without one of these dependencies.
#[test]
fn barometer_links_neither_service_crate() {
    let manifest = read("crates/ilt-perf/Cargo.toml");
    for service in ["ilt-server", "ilt-cluster"] {
        assert!(!manifest.contains(service), "crates/ilt-perf/Cargo.toml names {service}");
    }
}

/// Every `.rs` file under `src/` and `crates/*/src/`, with the part of it
/// that ships: the lines before its first top-level `#[cfg(test)]`.
fn shipped_sources() -> Vec<(std::path::PathBuf, String)> {
    fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                rust_files(&path, out);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                out.push(path);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        rust_files(&krate.expect("crate directory").path().join("src"), &mut files);
    }
    files
        .into_iter()
        .map(|file| {
            let text = std::fs::read_to_string(&file).expect("readable source");
            let shipped: Vec<&str> =
                text.lines().take_while(|l| !l.starts_with("#[cfg(test)]")).collect();
            (file, shipped.join("\n"))
        })
        .collect()
}

/// One HTTP/1.1 edge and one query codec: only `transport.rs` encodes a
/// request or a status line (`HTTP/1.1\r\n`), runs an accept loop
/// (`.incoming()`), splits a query string (`split('&')`) or may read a
/// socket to EOF (`read_to_end(` — and it does not). Checked on the part of
/// every workspace source file that ships.
#[test]
fn only_transport_speaks_http_or_accepts_connections() {
    const TRANSPORT: &str = "crates/ilt-cluster/src/transport.rs";
    let sources = shipped_sources();
    let transport = sources.iter().find(|(file, _)| file.ends_with(TRANSPORT));
    let (_, transport) = transport.unwrap_or_else(|| panic!("{TRANSPORT} moved; update this guard"));
    for (file, shipped) in sources.iter().filter(|(file, _)| !file.ends_with(TRANSPORT)) {
        for needle in ["HTTP/1.1\\r\\n", ".incoming()", "read_to_end(", "split('&')"] {
            assert!(
                !shipped.contains(needle),
                "{} has its own `{needle}`; the HTTP edge lives in {TRANSPORT}",
                file.display()
            );
        }
    }
    assert!(!transport.contains("read_to_end("), "{TRANSPORT} frames by content-length, not EOF");
    assert_eq!(transport.matches(".incoming()").count(), 1, "one accept loop");
    assert_eq!(transport.matches("split('&')").count(), 1, "one query codec");
}

/// A Cargo feature is an option every build and test run would have to
/// cover twice; the workspace has none. (The last six gated property tests
/// nothing in tier-1 could compile.)
#[test]
fn no_workspace_manifest_declares_features() {
    let mut manifests = vec!["Cargo.toml".to_string()];
    for krate in std::fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("crates")).unwrap() {
        let name = krate.unwrap().file_name();
        manifests.push(format!("crates/{}/Cargo.toml", name.to_string_lossy()));
    }
    for manifest in manifests {
        assert!(!read(&manifest).contains("[features]"), "{manifest} has a [features] table");
    }
}

/// What ships under `src/` for tests' sake: every `pub` / `pub(crate)`
/// function no `ilt` command and no `benchmark/` workload reaches, with the
/// test, example or reference role that keeps it. A function leaves this
/// list by gaining a shipped caller or by being deleted with its tests;
/// one joins it only with a reason a reviewer can check.
const TEST_TOOLING: &[(&str, &str)] = &[
    // ilt-fft: the references the fast paths are pinned to.
    ("process_scalar", "FftPlan's scalar reference: crates/ilt-fft/tests/kernel_guard.rs holds `process` to it bit for bit"),
    ("process_cols_scalar", "FftPlan's scalar column reference: crates/ilt-fft/tests/kernel_guard.rs, same contract for `process_cols`"),
    ("pad_centered", "the dense pad the pruned inverse is checked against: crates/ilt-fft/tests/proptests.rs and fft2d.rs's unit tests"),
    ("inverse_padded_batch", "Fft2d's thread-scratch form of `inverse_padded_batch_with` (which benchmark/src/m1.rs links): crates/ilt-fft/tests/kernel_guard.rs"),
    // ilt-field / ilt-geom / ilt-layouts / ilt-metrics: fixtures and oracles.
    ("count_on", "Field2D's pixel count: tests/end_to_end.rs, tests/paper_claims.rs and the geom / optics / layouts tests assert on it"),
    ("rasterize_rects", "the rectangle fixture of crates/ilt-metrics/tests/proptests.rs, crates/ilt-geom/tests/proptests.rs and ilt-core's region tests"),
    ("intersects", "Rect overlap: crates/ilt-geom/tests/proptests.rs proves `fracture`'s shots disjoint with it"),
    ("dilate", "the dual crates/ilt-geom/tests/proptests.rs checks `erode` (which `simplify_mask` runs) against"),
    ("area_nm2", "Layout's drawn area: examples/quickstart.rs prints it and m1.rs's tests hold every clip to its published ICCAD area"),
    ("num_sites", "EpeResult's site count: crates/ilt-metrics/tests/proptests.rs bounds `violations()` by it"),
    // ilt-optics: what the kept examples show.
    ("spatial_magnitude", "KernelSet's spatial-domain view: examples/kernel_gallery.rs writes it per kernel"),
    ("rms_waves", "Wavefront's RMS: examples/aberration_study.rs reports it for each aberration"),
    // ilt-autodiff: the finite-difference oracle and the optics-free tape.
    ("finite_diff", "gradcheck oracle: crates/ilt-autodiff/tests/pipeline_gradients.rs and ilt-core's binary / loss unit tests"),
    ("finite_diff_at", "gradcheck oracle at chosen pixels: crates/ilt-core/tests/composite_gradcheck.rs"),
    ("assert_gradients_close", "gradcheck comparator: crates/ilt-autodiff/tests/pipeline_gradients.rs and ilt-core's binary / loss unit tests"),
    ("assert_gradients_close_at", "gradcheck comparator at chosen pixels: crates/ilt-core/tests/composite_gradcheck.rs"),
    ("without_simulator", "Graph with no optics attached: crates/ilt-autodiff/tests/pipeline_gradients.rs and ilt-core's binary / loss unit tests build pointwise tapes on it"),
    // ilt-runtime: assertions and fault arming of the pool and resume tests.
    ("is_done", "JobStatus::Done test: crates/ilt-runtime/tests/batch_determinism.rs and tests/resume_recovery.rs assert on it"),
    ("through", "FaultSpec 'fail attempts 1..=n': pool.rs's and job.rs's retry tests arm the shipped fault path with it"),
    // ilt-cluster / ilt-server: the in-process HTTP harness and its probes.
    ("expect_closed", "Client's EOF probe: crates/ilt-server/tests/lifecycle.rs proves the keep-alive cap closes the connection"),
    ("read_from", "Request's parser entry for a recording proxy: crates/ilt-server/tests/byte_identity.rs pins the shard request line through it"),
    ("quota_usage", "JobStore's per-client counts: crates/ilt-server/tests/fairness.rs reconciles them to zero after every drain"),
    ("exchange", "ilt_server::harness (linked by benchmark/src/serve.rs): keep-alive exchange of http_e2e.rs, lifecycle.rs, keep_alive_latency.rs"),
    ("delete", "ilt_server::harness: DELETE of crates/ilt-server/tests/lifecycle.rs and http_e2e.rs"),
    ("post_with_headers", "ilt_server::harness: tenant-header POST of crates/ilt-server/tests/fairness.rs and byte_identity.rs"),
    ("wait_for_state", "ilt_server::harness: state poll of every crates/ilt-server/tests suite"),
    ("fast_params", "ilt_server::harness: the seconds-scale job query of http_e2e.rs and fairness.rs"),
    ("tiny_pgm", "ilt_server::harness: the inline target of http_e2e.rs, lifecycle.rs, fairness.rs and byte_identity.rs"),
];

/// A line ships only if an `ilt` command or `benchmark/` reaches it, or a
/// test needs it as the reference / tooling it checks shipped code with.
/// Checked by name: every `pub` / `pub(crate)` function of five or more
/// characters declared in [`shipped_sources`] must occur in shipped code or
/// in `benchmark/src/*.rs` somewhere other than a `fn` declaration, a
/// comment or a `pub use` — or be on [`TEST_TOOLING`], which in turn may
/// list nothing that has a caller or no longer exists.
#[test]
fn nothing_ships_uncalled() {
    fn idents(line: &str) -> impl Iterator<Item = &str> {
        line.split(|c: char| !(c.is_alphanumeric() || c == '_')).filter(|t| !t.is_empty())
    }
    fn declared_fn(line: &str) -> Option<&str> {
        let rest = line.strip_prefix("pub(crate) ").or_else(|| line.strip_prefix("pub "))?;
        let rest = rest.trim_start_matches("const ").trim_start_matches("unsafe ");
        idents(rest.strip_prefix("fn ")?).next()
    }
    let mut sources = shipped_sources();
    let benchmark = Path::new(env!("CARGO_MANIFEST_DIR")).join("benchmark/src");
    for entry in std::fs::read_dir(&benchmark).expect("benchmark/src") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_some_and(|ext| ext == "rs") {
            let text = std::fs::read_to_string(&path).expect("readable source");
            sources.push((path, text));
        }
    }
    let mut declared = std::collections::BTreeMap::new();
    let mut uses = std::collections::BTreeSet::new();
    for (file, text) in &sources {
        let mut in_reexport = false;
        for line in text.lines().map(str::trim).filter(|l| !l.starts_with("//")) {
            if in_reexport || line.starts_with("pub use ") || line.starts_with("pub(crate) use ") {
                in_reexport = !line.ends_with(';');
                continue;
            }
            if let Some(name) = declared_fn(line).filter(|n| n.len() >= 5) {
                if !file.starts_with(&benchmark) {
                    declared.insert(name, file.as_path());
                }
            }
            let mut previous = "";
            for token in idents(line) {
                if previous != "fn" {
                    uses.insert(token);
                }
                previous = token;
            }
        }
    }
    let uncalled: Vec<_> = declared.iter().filter(|(name, _)| !uses.contains(*name)).collect();
    println!("{} of {} pub fns have no shipped caller", uncalled.len(), declared.len());
    let unlisted: Vec<_> = uncalled
        .iter()
        .filter(|(name, _)| !TEST_TOOLING.iter().any(|(listed, _)| listed == *name))
        .map(|(name, file)| format!("{name} ({})", file.display()))
        .collect();
    assert!(unlisted.is_empty(), "shipped for no caller and not on TEST_TOOLING: {unlisted:#?}");
    let stale: Vec<_> = TEST_TOOLING
        .iter()
        .filter(|(listed, _)| !uncalled.iter().any(|(name, _)| *name == listed))
        .collect();
    assert!(stale.is_empty(), "on TEST_TOOLING but called by shipped code, or gone: {stale:#?}");
}

/// The number ROADMAP item 3 tracks, by the PR-14 counting command:
/// non-blank, non-comment lines before each file's first top-level
/// `#[cfg(test)]`, over `crates/*/src` and `src`. It may only go down; a
/// change that has to grow it edits this constant on purpose.
#[test]
fn non_test_lines_do_not_grow() {
    const CEILING: usize = 13184;
    let total: usize = shipped_sources()
        .iter()
        .flat_map(|(_, shipped)| shipped.lines())
        .filter(|l| !l.trim_start().is_empty() && !l.trim_start().starts_with("//"))
        .count();
    assert!(total <= CEILING, "non-test lines grew: {total} > {CEILING}");
    println!("non-test lines: {total} (ceiling {CEILING})");
}
