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
    ("forward", "Fft2d's dense transform on the thread's scratch: the unpruned reference of tests/spectral_guard.rs, crates/ilt-fft/tests/kernel_guard.rs and proptests.rs"),
    ("inverse", "its inverse: same three suites, and spectrum.rs's round-trip unit tests"),
    ("forward_cropped", "Fft2d's thread-scratch form of `forward_cropped_with` (which the simulator calls): crates/ilt-fft/tests/kernel_guard.rs"),
    ("forward_real_cropped", "Fft2d's thread-scratch form of `forward_real_cropped_with`: crates/ilt-fft/tests/kernel_guard.rs"),
    ("inverse_padded_batch", "Fft2d's thread-scratch form of `inverse_padded_batch_with` (which benchmark/src/m1.rs links): crates/ilt-fft/tests/kernel_guard.rs"),
    ("capacity", "Fft2dScratch's held-values count: scratch.rs's unit tests prove reuse, pool recycling and panic-safe restore by it"),
    // ilt-field / ilt-geom / ilt-layouts / ilt-metrics: fixtures and oracles.
    ("count_on", "Field2D's pixel count: tests/end_to_end.rs, tests/paper_claims.rs and the geom / optics / layouts tests assert on it"),
    ("rasterize_rects", "the rectangle fixture of crates/ilt-metrics/tests/proptests.rs, crates/ilt-geom/tests/proptests.rs and ilt-core's region tests"),
    ("intersects", "Rect overlap: crates/ilt-geom/tests/proptests.rs proves `fracture`'s shots disjoint with it"),
    ("area_nm2", "Layout's drawn area: examples/quickstart.rs prints it and m1.rs's tests hold every clip to its published ICCAD area"),
    ("clip_nm", "Layout's clip width: examples/quickstart.rs prints it beside the area"),
    ("rects", "Layout's rectangle list: via.rs's and m1.rs's unit tests check counts, sizes, spacing and margins on it"),
    ("num_sites", "EpeResult's site count: crates/ilt-metrics/tests/proptests.rs bounds `violations()` by it"),
    // ilt-optics: what the kept examples show, and the TCC reference.
    ("spatial_magnitude", "KernelSet's spatial-domain view: examples/kernel_gallery.rs writes it per kernel"),
    ("dense", "Tcc as a dense matrix: tcc.rs's unit tests check the matrix-free operator, Hermitian symmetry and the trace against it"),
    // ilt-autodiff: the finite-difference oracle and the optics-free tape.
    ("finite_diff", "gradcheck oracle: crates/ilt-autodiff/tests/pipeline_gradients.rs and ilt-core's binary / loss unit tests"),
    ("finite_diff_at", "gradcheck oracle at chosen pixels: crates/ilt-core/tests/composite_gradcheck.rs"),
    ("assert_gradients_close", "gradcheck comparator: crates/ilt-autodiff/tests/pipeline_gradients.rs and ilt-core's binary / loss unit tests"),
    ("assert_gradients_close_at", "gradcheck comparator at chosen pixels: crates/ilt-core/tests/composite_gradcheck.rs"),
    ("without_simulator", "Graph with no optics attached: crates/ilt-autodiff/tests/pipeline_gradients.rs and ilt-core's binary / loss unit tests build pointwise tapes on it"),
    // ilt-runtime: assertions and fault arming of the pool and resume tests.
    ("is_done", "JobStatus::Done test: crates/ilt-runtime/tests/batch_determinism.rs and tests/resume_recovery.rs assert on it"),
    ("through", "FaultSpec 'fail attempts 1..=n': pool.rs's and job.rs's retry tests arm the shipped fault path with it"),
    ("always", "FaultSpec 'fail every attempt': crates/ilt-runtime/tests/batch_determinism.rs and resume_recovery.rs exhaust a job's retries with it"),
    ("at", "FaultSpec 'fail one attempt': crates/ilt-runtime/tests/resume_recovery.rs and batch_determinism.rs, pool.rs's timeout tests"),
    // ilt-cluster / ilt-server: the in-process HTTP harness and its probes.
    ("stats", "Coordinator's live counters (shipped code renders them through `render_metrics`): crates/ilt-cluster/tests/cluster.rs and chaos.rs assert on re-dispatch, speculation and membership counts"),
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

/// [`shipped_sources`] plus `benchmark/src/*.rs` whole: the code an `ilt`
/// command or a benchmark workload can reach. The flag says which.
fn reachable_sources() -> Vec<(std::path::PathBuf, String, bool)> {
    let mut sources: Vec<_> =
        shipped_sources().into_iter().map(|(file, text)| (file, text, true)).collect();
    let benchmark = Path::new(env!("CARGO_MANIFEST_DIR")).join("benchmark/src");
    for entry in std::fs::read_dir(&benchmark).expect("benchmark/src") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_some_and(|ext| ext == "rs") {
            let text = std::fs::read_to_string(&path).expect("readable source");
            sources.push((path, text, false));
        }
    }
    sources
}

/// The identifiers of `text` with their byte offsets.
fn idents(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut rest = 0;
    std::iter::from_fn(move || {
        let start = rest + text[rest..].find(is_ident)?;
        let len = text[start..].find(|c| !is_ident(c)).unwrap_or(text.len() - start);
        rest = start + len;
        Some((start, &text[start..rest]))
    })
}

/// A line ships only if an `ilt` command or `benchmark/` reaches it, or a
/// test needs it as the reference / tooling it checks shipped code with.
/// Checked by name: every `pub` / `pub(crate)` function declared in
/// [`shipped_sources`] must be **used** in shipped code or in
/// `benchmark/src/*.rs` — called (`name(`, `name::<`) or named as the last
/// segment of a path (`::name`, a function handed over as a value) outside
/// comments and `pub use` — or be on [`TEST_TOOLING`], which in turn may
/// list nothing that has a caller or no longer exists. A field, a parameter
/// or a local of the same name is not a use.
#[test]
fn nothing_ships_uncalled() {
    fn declared_fn(line: &str) -> Option<&str> {
        let rest = line.strip_prefix("pub(crate) ").or_else(|| line.strip_prefix("pub "))?;
        let rest = rest.trim_start_matches("const ").trim_start_matches("unsafe ");
        idents(rest.strip_prefix("fn ")?).next().map(|(_, name)| name)
    }
    let sources = reachable_sources();
    let mut declared = std::collections::BTreeMap::new();
    let mut uses = std::collections::BTreeSet::new();
    for (file, text, shipped) in &sources {
        let mut in_reexport = false;
        for line in text.lines().map(str::trim).filter(|l| !l.starts_with("//")) {
            if in_reexport || line.starts_with("pub use ") || line.starts_with("pub(crate) use ") {
                in_reexport = !line.ends_with(';');
                continue;
            }
            if let Some(name) = declared_fn(line).filter(|_| *shipped) {
                declared.insert(name, file.as_path());
            }
            let mut previous = "";
            for (at, token) in idents(line) {
                let after = &line[at + token.len()..];
                let used = after.starts_with('(')
                    || after.starts_with("::<")
                    || (line[..at].ends_with("::") && !after.starts_with("::"));
                if used && previous != "fn" {
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

/// Result- or behaviour-affecting settings no shipped code sets: every
/// `pub` field of a `Default`-constructible struct that no `ilt` command and
/// no `benchmark/` workload writes, with the test, example or paper section
/// that keeps it. A field leaves this list by gaining a shipped setter or by
/// being deleted with its tests; one joins it only with a reason a reviewer
/// can check.
const KEPT_KNOBS: &[(&str, &str)] = &[
    // The imaging regime: ICCAD-2013's scanner and resist (paper §IV), which
    // the checkpoint fingerprint records field by field so that a resume
    // under another regime is refused.
    ("OpticsConfig::na", "ICCAD-2013 regime (NA 1.35): pinned in the fingerprint pre-image, varied by checkpoint.rs's every_result_affecting_field_moves_the_fingerprint"),
    ("OpticsConfig::wavelength_nm", "ICCAD-2013 regime (193 nm): same pre-image and table"),
    ("OpticsConfig::source", "ICCAD-2013 regime (annular 0.6/0.9): crates/ilt-core/tests/optimizer_integration.rs and crates/ilt-autodiff/tests/pipeline_gradients.rs and kernels.rs's unit tests run a 0.5/0.9 annulus"),
    ("OpticsConfig::defocus_nm", "the inner process corner's defocus (Definition 2's PVBand): kernels.rs's unit tests build focus pairs at chosen values"),
    ("OpticsConfig::kernel_size", "explicit kernel support P: tests/spectral_guard.rs's explicit-P classes and config.rs's unit tests"),
    ("OpticsConfig::resist_threshold", "Eq. 1's I_th = 0.225: config.rs's validation test drives it out of range; benchmark/src/m1.rs reads it"),
    ("OpticsConfig::resist_steepness", "Eq. 9's alpha = 50: pinned in the fingerprint pre-image and varied by the same table; benchmark/src/m1.rs reads it"),
    ("IltConfig::frozen_value", "M' of frozen pixels: crates/ilt-core/tests/optimizer_integration.rs::frozen_pixels_never_move tells frozen from default by it"),
    // Paper §III-D's optional post-processing, quoted in postprocess.rs and
    // exercised end to end by tests/end_to_end.rs through IltConfig::postprocess.
    ("SimplifyConfig::min_area", "§III-D 'eliminate too small shapes': tests/end_to_end.rs and optimizer.rs's unit test lower it to the test grid's scale"),
    ("SimplifyConfig::rect_max_area", "§III-D 'medium-sized irregular SRAFs': postprocess.rs's unit tests set the size class"),
    ("SimplifyConfig::min_solidity", "§III-D 'irregular': postprocess.rs's unit tests set the solidity bar"),
    // The metric and the baseline as their sources define them.
    ("EpeChecker::spacing_nm", "Definition 3's 40 nm measurement pitch: epe.rs's spacing_controls_site_count varies it"),
    ("LevelSetConfig::redistance_every", "the level-set baseline's re-initialization period: levelset.rs's unit test bounds phi under a short one"),
    ("LevelSetConfig::scale", "the level-set baseline at reduced resolution: tests/end_to_end.rs and levelset.rs's unit tests run it at s = 2"),
    // Supervision tuning the cluster suites turn to make a fault deterministic.
    ("ClusterConfig::heartbeat_failures", "crates/ilt-cluster/tests/cluster.rs and chaos.rs set 2 / 1000 to make (or forbid) a death verdict"),
    ("ClusterConfig::cancel_grace", "crates/ilt-cluster/tests/chaos.rs and cluster.rs shorten it so a lost exchange ends inside the test"),
    ("ClusterConfig::max_inflight_per_worker", "crates/ilt-cluster/tests/cluster.rs and chaos.rs size per-worker concurrency"),
    ("ClusterConfig::max_shard_attempts", "crates/ilt-cluster/tests/cluster.rs bounds re-dispatch at 2 to reach 'shard lost'"),
    ("ClusterConfig::breaker", "crates/ilt-cluster/tests/cluster.rs and chaos.rs tune or disable quarantine"),
    // The listener's bounds; ROADMAP item 3 holds ServerConfig's restatement
    // of ConnOptions for a benchmark-side change (benchmark/src/serve.rs
    // sets `keep_alive_requests` beside these).
    ("Limits::max_head_bytes", "crates/ilt-server/tests/http_e2e.rs::oversized_bodies_and_heads_are_refused lowers it to 2048"),
    ("Limits::max_body_bytes", "same test lowers it to 4096"),
    ("ServerConfig::limits", "same test hands the lowered Limits in"),
    ("ServerConfig::max_connections", "crates/ilt-server/tests/lifecycle.rs lowers the cap to see the 503"),
    ("ServerConfig::read_timeout", "restates ConnOptions::read_timeout; ROADMAP item 3 names the benchmark-side change that folds the five into one ConnOptions"),
    ("ServerConfig::write_timeout", "restates ConnOptions::write_timeout; same ROADMAP entry"),
    ("WorkerConfig::conn", "crates/ilt-server/tests/keep_alive_latency.rs raises the worker's keep-alive cap through it"),
];

/// `text` without its comments, the contents of its string literals and its
/// `'{'` / `'}'` char literals, so braces and names inside them are not read
/// as code.
fn code_only(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '/' if chars.peek() == Some(&'/') => {
                while chars.next_if(|&c| c != '\n').is_some() {}
            }
            '"' => {
                out.push('"');
                while let Some(c) = chars.next() {
                    match c {
                        '\\' => drop(chars.next()),
                        '"' => break,
                        _ => {}
                    }
                }
                out.push('"');
            }
            '\'' if matches!(chars.peek(), Some('{' | '}')) => drop(chars.next()),
            _ => out.push(c),
        }
    }
    out
}

/// A knob ships only if a caller turns it. Checked by name: every `pub`
/// field of a struct in [`shipped_sources`] that has an `impl Default` must
/// be **written** in shipped code or `benchmark/src/*.rs` — named in a
/// literal of its struct (`Name { field: v, .. }`, shorthand included) or
/// assigned from outside (`x.field =`, not `self.field =`: that is some
/// type's own state) — outside the struct's declaration, its `Default` and
/// patterns, or be on [`KEPT_KNOBS`] as `Name::field`, which in turn may
/// list nothing that has a setter or no longer exists.
#[test]
fn every_knob_has_a_setter() {
    use std::collections::{BTreeMap, BTreeSet};
    let sources: Vec<(bool, String)> = reachable_sources()
        .into_iter()
        .map(|(_, text, shipped)| (shipped, code_only(&text)))
        .collect();
    // `Name {` ... the `}` that closes it, as (body, what follows).
    fn braced(text: &str) -> (&str, &str) {
        let mut depth = 0usize;
        for (at, c) in text.char_indices() {
            match c {
                '{' | '(' | '[' => depth += 1,
                '}' | ')' | ']' if depth == 1 => return (&text[1..at], &text[at + 1..]),
                '}' | ')' | ']' => depth -= 1,
                _ => {}
            }
        }
        panic!("unbalanced braces after {:?}", &text[..text.len().min(40)]);
    }
    // Items of a literal's body at nesting depth 0, split at its commas.
    fn items(body: &str) -> Vec<&str> {
        let (mut depth, mut start, mut out) = (0usize, 0, Vec::new());
        for (at, c) in body.char_indices() {
            match c {
                '{' | '(' | '[' => depth += 1,
                '}' | ')' | ']' => depth -= 1,
                ',' if depth == 0 => {
                    out.push(body[start..at].trim());
                    start = at + 1;
                }
                _ => {}
            }
        }
        out.push(body[start..].trim());
        out
    }

    // The knobs: `pub` fields of shipped structs with an `impl Default`.
    let mut knobs: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (_, text) in sources.iter().filter(|(shipped, _)| *shipped) {
        for (at, _) in text.match_indices("\nimpl Default for ") {
            let name = idents(&text[at + 18..]).next().expect("impl Default for <name>").1;
            knobs.insert(name, Vec::new());
        }
    }
    for (_, text) in sources.iter().filter(|(shipped, _)| *shipped) {
        for (at, _) in text.match_indices("\npub struct ") {
            let name = idents(&text[at + 12..]).next().expect("struct name").1;
            let Some(fields) = knobs.get_mut(name) else { continue };
            // The lines after `pub struct Name {`, up to its closing brace.
            let body = text[at + 1..].split("\n}").next().expect("struct body").lines().skip(1);
            for field in body.filter_map(|line| line.trim().strip_prefix("pub ")) {
                fields.push(idents(field).next().expect("field name").1);
            }
        }
    }

    // What a `Default` writes is the value nobody chose.
    let beside_defaults: Vec<String> = sources
        .iter()
        .map(|(_, text)| {
            let mut kept = String::new();
            let mut rest = text.as_str();
            while let Some(at) = rest.find("\nimpl Default for ") {
                kept.push_str(&rest[..at]);
                rest = &rest[at + 1..];
                rest = &rest[rest.find("\n}").expect("end of impl Default")..];
            }
            kept + rest
        })
        .collect();
    let mut written: BTreeSet<(&str, &str)> = BTreeSet::new();
    let mut assigned: BTreeSet<&str> = BTreeSet::new();
    for text in &beside_defaults {
        let mut previous = "";
        for (at, token) in idents(text) {
            let after = &text[at + token.len()..];
            if text[..at].ends_with('.') && previous != "self" {
                let rest = after.trim_start();
                let compound = rest.strip_prefix(['+', '-', '*', '/', '|', '&']).unwrap_or(rest);
                if compound.starts_with('=') && !compound.starts_with("==") {
                    assigned.insert(token);
                }
            }
            let literal = knobs.contains_key(token)
                && after.trim_start().starts_with('{')
                && !["struct", "for", "impl", "let"].contains(&previous);
            previous = token;
            if !literal {
                continue;
            }
            let (body, rest) = braced(after.trim_start());
            let rest = rest.trim_start_matches([')', ' ', '\n']);
            if rest.starts_with("=>") || rest.starts_with('|') || rest.starts_with("= ") {
                continue; // a pattern reads the fields
            }
            for item in items(body) {
                let Some((_, field)) = idents(item).next().filter(|_| !item.starts_with("..")) else {
                    continue;
                };
                written.insert((token, field));
            }
        }
    }

    let unset: Vec<String> = knobs
        .iter()
        .flat_map(|(name, fields)| fields.iter().map(move |field| (*name, *field)))
        .filter(|(name, field)| !written.contains(&(*name, *field)) && !assigned.contains(field))
        .map(|(name, field)| format!("{name}::{field}"))
        .collect();
    println!("{} of {} knobs have no shipped setter", unset.len(), knobs.values().map(Vec::len).sum::<usize>());
    let unlisted: Vec<_> =
        unset.iter().filter(|knob| !KEPT_KNOBS.iter().any(|(kept, _)| kept == *knob)).collect();
    assert!(unlisted.is_empty(), "set by no shipped caller and not on KEPT_KNOBS: {unlisted:#?}");
    let stale: Vec<_> =
        KEPT_KNOBS.iter().filter(|(kept, _)| !unset.iter().any(|knob| knob == kept)).collect();
    assert!(stale.is_empty(), "on KEPT_KNOBS but set by shipped code, or gone: {stale:#?}");
}

/// ROADMAP item 4(b): a clustered job is supervised by events — a copy
/// reports, a member joins, leaves or is declared dead — and by deadlines
/// the loop computes, never by a poll. In the shipped part of the
/// coordinator and the membership: no `recv_timeout(`, `set_read_timeout(`
/// or `thread::sleep(`, and no `wait_timeout` on a `Duration` literal (the
/// monitor's `config.heartbeat` and a computed deadline are the allowed
/// forms; `CONNECT_TIMEOUT` bounds connects, not waits).
#[test]
fn coordinator_waits_on_events_not_timers() {
    let sources = shipped_sources();
    for name in ["crates/ilt-cluster/src/coordinator.rs", "crates/ilt-cluster/src/membership.rs"] {
        let (_, shipped) = sources
            .iter()
            .find(|(file, _)| file.ends_with(name))
            .unwrap_or_else(|| panic!("{name} moved; update this guard"));
        let code = code_only(shipped);
        for needle in ["recv_timeout(", "set_read_timeout(", "thread::sleep("] {
            assert!(
                !code.contains(needle),
                "{name} polls with `{needle}`; wait on the membership condvar until an event or \
                 a computed deadline"
            );
        }
        for (at, _) in code.match_indices("wait_timeout") {
            let call = code[at..].split(';').next().unwrap_or_default();
            assert!(
                !call.contains("Duration::from_"),
                "{name} waits on a literal timeout: `{call}`; wait until a computed deadline"
            );
        }
    }
}

/// The number ROADMAP item 3 tracks, by the PR-14 counting command:
/// non-blank, non-comment lines before each file's first top-level
/// `#[cfg(test)]`, over `crates/*/src` and `src`. It may only go down; a
/// change that has to grow it edits this constant on purpose.
#[test]
fn non_test_lines_do_not_grow() {
    const CEILING: usize = 12999;
    let total: usize = shipped_sources()
        .iter()
        .flat_map(|(_, shipped)| shipped.lines())
        .filter(|l| !l.trim_start().is_empty() && !l.trim_start().starts_with("//"))
        .count();
    assert!(total <= CEILING, "non-test lines grew: {total} > {CEILING}");
    println!("non-test lines: {total} (ceiling {CEILING})");
}
