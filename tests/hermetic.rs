//! The hermetic build policy (ROADMAP "Build policy") as a test: tier-1
//! must resolve offline, so the lock file may name workspace packages only
//! and no package may be carved out of the workspace to dodge that. The
//! next registry crate or `exclude`d directory fails here, not on a
//! disconnected machine.

use std::path::{Path, PathBuf};

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

/// Every file under `dir`, outside any `target` directory.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if !path.is_dir() {
            files.push(path);
        } else if !path.ends_with("target") {
            files.extend(files_under(&path));
        }
    }
    files
}

/// Every `.rs` file under `src/` and `crates/*/src/`, with the part of it
/// that ships: the lines before its first top-level `#[cfg(test)]`.
fn shipped_sources() -> Vec<(PathBuf, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = files_under(&root.join("src"));
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        files.extend(files_under(&krate.expect("crate directory").path().join("src")));
    }
    files.sort();
    files
        .into_iter()
        .filter(|file| file.extension().is_some_and(|ext| ext == "rs"))
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

/// What ships under `src/` for tests' sake: every `pub` / `pub(crate)` fn
/// or const no `ilt` command and no `benchmark/` workload reaches, by name,
/// with the reference, oracle, probe or fixture role that keeps it. A
/// convenience a test can do without (a shortcut over a shipped entry
/// point, a builder that bypasses a grammar users type, a one-line
/// predicate or accessor) does not qualify: the test drives the shipped
/// entry point instead. An item leaves this list by gaining a shipped use
/// or by being deleted with its tests; one joins it only with a reason a
/// reviewer can check, and only by raising [`TOOLING_CEILING`] in the same
/// change.
const TEST_TOOLING: &[(&str, &str)] = &[
    // ilt-fft: the references the fast paths are pinned to.
    ("process_scalar", "FftPlan's scalar reference: crates/ilt-fft/tests/kernel_guard.rs holds `process` to it bit for bit, row and panel"),
    ("pad_centered", "the dense pad the pruned inverse is checked against: crates/ilt-fft/tests/proptests.rs and fft2d.rs's unit tests"),
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
    // ilt-cluster / ilt-server: probes of live state.
    ("stats", "Coordinator's live counters (shipped code renders them through `render_metrics`): crates/ilt-cluster/tests/cluster.rs and chaos.rs assert on re-dispatch, speculation and membership counts"),
    ("expect_closed", "Client's EOF probe: crates/ilt-server/tests/lifecycle.rs proves the keep-alive cap closes the connection"),
    ("quota_usage", "JobStore's per-client counts: crates/ilt-server/tests/fairness.rs reconciles them to zero after every drain"),
];

/// The most entries [`TEST_TOOLING`] may hold. It may only go down; a change
/// that has to grow the list edits this constant on purpose.
const TOOLING_CEILING: usize = 20;

/// [`shipped_sources`] plus `benchmark/src/*.rs` whole: the code an `ilt`
/// command or a benchmark workload can reach. The flag says which.
fn reachable_sources() -> Vec<(PathBuf, String, bool)> {
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
/// Checked by the compiler, which resolves every name: a copy of the tree
/// under `target/shipped-probe/tree` marks every `pub` / `pub(crate)` fn and
/// const in [`shipped_sources`] `#[deprecated(note = "probe#N")]` (and lets
/// each `pub use` re-export them), and `cargo check` of the workspace's libs
/// and bins and of `benchmark/` warns once per use. An item no warning names
/// has no use outside tests and must be on [`TEST_TOOLING`], which in turn
/// may list nothing that has a use or no longer exists.
#[test]
fn nothing_ships_uncalled() {
    // `pub [const] [unsafe] fn name` or `pub const NAME`, as its name.
    fn declared(line: &str) -> Option<&str> {
        let rest = line.strip_prefix("pub(crate) ").or_else(|| line.strip_prefix("pub "))?;
        let words: Vec<&str> = idents(rest).map(|(_, word)| word).take(4).collect();
        match words.iter().position(|word| *word == "fn") {
            Some(at) if words[..at].iter().all(|word| ["const", "unsafe"].contains(word)) => {
                words.get(at + 1).copied()
            }
            _ => words.get(1).copied().filter(|_| words[0] == "const"),
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let probe = root.join("target/shipped-probe");
    let tree = probe.join("tree");

    // The copy, with the shipped part of every source file tagged.
    let mut copy = std::collections::BTreeMap::new();
    for entry in ["Cargo.toml", "Cargo.lock", "crates", "src", "tests", "examples", "benchmark"] {
        let path = root.join(entry);
        for file in if path.is_dir() { files_under(&path) } else { vec![path] } {
            let bytes = std::fs::read(&file).expect("readable file");
            copy.insert(file.strip_prefix(root).expect("under the root").to_path_buf(), bytes);
        }
    }
    // Item N as `(name, "file:line")`.
    let mut items: Vec<(String, String)> = Vec::new();
    for (file, shipped) in shipped_sources() {
        let file = file.strip_prefix(root).expect("under the root").to_path_buf();
        let text = String::from_utf8(copy[&file].clone()).expect("UTF-8 source");
        let mut tagged = Vec::new();
        for (at, line) in shipped.lines().enumerate() {
            let code = line.trim_start();
            let indent = &line[..line.len() - code.len()];
            if code.starts_with("pub use ") || code.starts_with("pub(crate) use ") {
                tagged.push(format!("{indent}#[allow(deprecated)]"));
            } else if let Some(name) = declared(code) {
                tagged.push(format!("{indent}#[deprecated(note = \"probe#{}\")]", items.len()));
                items.push((name.to_string(), format!("{}:{}", file.display(), at + 1)));
            }
            tagged.push(line.to_string());
        }
        copy.insert(file, (tagged.join("\n") + &text[shipped.len()..]).into_bytes());
    }
    assert!(items.len() >= 500, "tagged only {} items; the tagger is broken", items.len());
    // Rewrite only what changed, so a warm check recompiles only that.
    std::fs::create_dir_all(&tree).expect("writable target/");
    for stale in files_under(&tree) {
        if !copy.contains_key(stale.strip_prefix(&tree).expect("under the copy")) {
            std::fs::remove_file(stale).expect("removable stale copy");
        }
    }
    for (file, bytes) in &copy {
        let path = tree.join(file);
        if std::fs::read(&path).ok().as_ref() != Some(bytes) {
            std::fs::create_dir_all(path.parent().unwrap()).expect("writable target/");
            std::fs::write(&path, bytes).expect("writable target/");
        }
    }

    let check = |dir: &Path, args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO"))
            .args(["check", "--offline", "--message-format", "short"])
            .args(args)
            .current_dir(dir)
            .env("CARGO_TARGET_DIR", probe.join("target"))
            .env("RUSTFLAGS", "--cap-lints=warn")
            .env_remove("CARGO_ENCODED_RUSTFLAGS")
            .output()
            .expect("cargo runs");
        let log = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "cargo check {args:?} of the tagged copy failed:\n{log}");
        log.into_owned()
    };
    let log = check(&tree, &["--workspace", "--lib", "--bins"])
        + &check(&tree.join("benchmark"), &[]);
    let used: std::collections::BTreeSet<usize> = log
        .split("probe#")
        .skip(1)
        .filter_map(|rest| {
            rest[..rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len())].parse().ok()
        })
        .collect();
    let unused: Vec<&(String, String)> =
        items.iter().enumerate().filter(|(n, _)| !used.contains(n)).map(|(_, item)| item).collect();
    println!("{} of {} pub fns and consts have no shipped use", unused.len(), items.len());
    let unlisted: Vec<String> = unused
        .iter()
        .filter(|(name, _)| !TEST_TOOLING.iter().any(|(listed, _)| listed == name))
        .map(|(name, at)| format!("{name} ({at})"))
        .collect();
    assert!(unlisted.is_empty(), "shipped for no caller and not on TEST_TOOLING: {unlisted:#?}");
    let stale: Vec<_> = TEST_TOOLING
        .iter()
        .filter(|(listed, _)| !unused.iter().any(|(name, _)| name == listed))
        .collect();
    assert!(stale.is_empty(), "on TEST_TOOLING but called by shipped code, or gone: {stale:#?}");
    assert!(
        TEST_TOOLING.len() <= TOOLING_CEILING,
        "TEST_TOOLING grew: {} > {TOOLING_CEILING}; drive a shipped entry point from the test \
         instead, or raise the ceiling on purpose",
        TEST_TOOLING.len()
    );
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
    ("ClusterConfig::breaker", "crates/ilt-cluster/tests/cluster.rs and chaos.rs tune or disable quarantine"),
    ("BreakerConfig::threshold", "crates/ilt-cluster/tests/cluster.rs opens the breaker on the first failure; chaos.rs and cluster.rs raise it to 1000 to disable quarantine"),
    ("BreakerConfig::base", "crates/ilt-cluster/tests/cluster.rs sets 40 ms to see a half-open probe, or 60 s to hold a quarantine for the whole test"),
    ("BreakerConfig::cap", "same tests pin it to `base` so the backoff is exact"),
];

/// The most entries [`KEPT_KNOBS`] may hold. It may only go down; a change
/// that has to grow the list edits this constant on purpose.
const KNOBS_CEILING: usize = 21;

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
/// list nothing that has a setter or no longer exists. An assignment names
/// no type, so it counts only for a field name no other struct in those
/// sources declares; a literal in the struct's own file that re-spreads a
/// value (`..cfg`, anything but `..X::default()`) normalises a caller's
/// setting rather than making one, so it does not count.
#[test]
fn every_knob_has_a_setter() {
    use std::collections::{BTreeMap, BTreeSet};
    let sources: Vec<(PathBuf, bool, String)> = reachable_sources()
        .into_iter()
        .map(|(file, text, shipped)| (file, shipped, code_only(&text)))
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

    // The knobs: `pub` fields of shipped structs with an `impl Default`,
    // and the file that declares each such struct.
    let mut knobs: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut homes: BTreeMap<&str, &Path> = BTreeMap::new();
    for (_, _, text) in sources.iter().filter(|(_, shipped, _)| *shipped) {
        for (at, _) in text.match_indices("\nimpl Default for ") {
            let name = idents(&text[at + 18..]).next().expect("impl Default for <name>").1;
            knobs.insert(name, Vec::new());
        }
    }
    for (file, _, text) in sources.iter().filter(|(_, shipped, _)| *shipped) {
        for (at, _) in text.match_indices("\npub struct ") {
            let name = idents(&text[at + 12..]).next().expect("struct name").1;
            let Some(fields) = knobs.get_mut(name) else { continue };
            homes.insert(name, file);
            // The lines after `pub struct Name {`, up to its closing brace.
            let body = text[at + 1..].split("\n}").next().expect("struct body").lines().skip(1);
            for field in body.filter_map(|line| line.trim().strip_prefix("pub ")) {
                fields.push(idents(field).next().expect("field name").1);
            }
        }
    }

    // Every braced struct's field names, to tell whose field `x.field =` is.
    let mut declarers: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (_, _, text) in &sources {
        for (at, _) in idents(text).filter(|(_, token)| *token == "struct") {
            let Some((start, name)) = idents(&text[at + 6..]).next() else { continue };
            let rest = &text[at + 6 + start + name.len()..];
            let open = rest.find(['{', ';']).filter(|&end| rest[end..].starts_with('{'));
            let Some(open) = open else { continue }; // a unit or tuple struct
            for item in items(braced(&rest[open..]).0) {
                let head = item.split_once(':').map(|(head, _)| head).unwrap_or_default();
                if let Some((_, field)) = idents(head).last() {
                    declarers.entry(field).or_default().insert(name);
                }
            }
        }
    }

    // What a `Default` writes is the value nobody chose.
    let beside_defaults: Vec<(&Path, String)> = sources
        .iter()
        .map(|(file, _, text)| {
            let mut kept = String::new();
            let mut rest = text.as_str();
            while let Some(at) = rest.find("\nimpl Default for ") {
                kept.push_str(&rest[..at]);
                rest = &rest[at + 1..];
                rest = &rest[rest.find("\n}").expect("end of impl Default")..];
            }
            (file.as_path(), kept + rest)
        })
        .collect();
    let mut written: BTreeSet<(&str, &str)> = BTreeSet::new();
    let mut assigned: BTreeSet<&str> = BTreeSet::new();
    for (file, text) in &beside_defaults {
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
            let respreads = items(body)
                .iter()
                .any(|item| item.starts_with("..") && !item.ends_with("::default()"));
            if respreads && homes.get(token) == Some(file) {
                continue; // the type normalising a value handed to it
            }
            for item in items(body) {
                let Some((_, field)) = idents(item).next().filter(|_| !item.starts_with("..")) else {
                    continue;
                };
                written.insert((token, field));
            }
        }
    }

    let assigned_to = |name: &str, field: &str| {
        assigned.contains(field) && declarers[field].iter().all(|declarer| *declarer == name)
    };
    let unset: Vec<String> = knobs
        .iter()
        .flat_map(|(name, fields)| fields.iter().map(move |field| (*name, *field)))
        .filter(|(name, field)| !written.contains(&(*name, *field)) && !assigned_to(name, field))
        .map(|(name, field)| format!("{name}::{field}"))
        .collect();
    println!("{} of {} knobs have no shipped setter", unset.len(), knobs.values().map(Vec::len).sum::<usize>());
    let unlisted: Vec<_> =
        unset.iter().filter(|knob| !KEPT_KNOBS.iter().any(|(kept, _)| kept == *knob)).collect();
    assert!(unlisted.is_empty(), "set by no shipped caller and not on KEPT_KNOBS: {unlisted:#?}");
    let stale: Vec<_> =
        KEPT_KNOBS.iter().filter(|(kept, _)| !unset.iter().any(|knob| knob == kept)).collect();
    assert!(stale.is_empty(), "on KEPT_KNOBS but set by shipped code, or gone: {stale:#?}");
    assert!(
        KEPT_KNOBS.len() <= KNOBS_CEILING,
        "KEPT_KNOBS grew: {} > {KNOBS_CEILING}; have a command set the knob or turn it into a \
         constant, or raise the ceiling on purpose",
        KEPT_KNOBS.len()
    );
}

/// A clustered job is supervised by events — a copy
/// reports, a member joins, leaves, dies or revives, the job is cancelled —
/// and by deadlines the loop computes, never by a poll. In the shipped part
/// of the coordinator and the membership: no `recv_timeout(`,
/// `set_read_timeout(` or `thread::sleep(`, and no `wait_timeout` on a
/// `Duration` literal (the monitor's `config.heartbeat` and a computed
/// deadline are the allowed forms; `CONNECT_TIMEOUT` bounds connects, not
/// waits). The `Supervisor` impl does not name `heartbeat`: the probe
/// interval is the monitor's, not a bound on the loop's wait.
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
        if !name.ends_with("coordinator.rs") {
            continue;
        }
        let start = code.find("> Supervisor<").expect("Supervisor's impl moved; update this guard");
        let open = start + code[start..].find('{').expect("an impl body");
        let mut depth = 0usize;
        let end = open
            + code[open..]
                .char_indices()
                .find(|&(_, c)| {
                    depth = match c {
                        '{' => depth + 1,
                        '}' => depth - 1,
                        _ => depth,
                    };
                    depth == 0
                })
                .expect("a closed impl body")
                .0;
        assert!(
            !idents(&code[open..end]).any(|(_, id)| id == "heartbeat"),
            "{name}: the Supervisor impl names `heartbeat`; the loop waits on events and the \
             deadlines it computes, the probe interval is the monitor's"
        );
    }
}

/// A batch is supervised by one loop on the `run_jobs` caller's thread: the
/// only threads the pool spawns are attempt threads, and no thread exists
/// just to wait on one. In the shipped part of `pool.rs`: no `Condvar`, no
/// scoped threads, and exactly one `thread::Builder::new()`.
#[test]
fn pool_supervises_from_the_callers_thread() {
    const POOL: &str = "crates/ilt-runtime/src/pool.rs";
    let sources = shipped_sources();
    let (_, shipped) = sources
        .iter()
        .find(|(file, _)| file.ends_with(POOL))
        .unwrap_or_else(|| panic!("{POOL} moved; update this guard"));
    let code = code_only(shipped);
    assert!(
        !code.contains("Condvar"),
        "{POOL} waits on a condvar; the supervisor loop waits on the attempts' report channel"
    );
    for needle in ["thread::scope", "spawn_scoped"] {
        assert!(!code.contains(needle), "{POOL} runs scoped threads (`{needle}`); only attempts get a thread");
    }
    let spawns = code.matches("thread::Builder::new()").count();
    assert_eq!(spawns, 1, "{POOL} spawns {spawns} kinds of thread; only attempts get one");
}

/// One thread mechanism in the compute crates: in the shipped part of
/// `ilt-fft`, `ilt-field`, `ilt-optics`, `ilt-autodiff` and `ilt-core`, a
/// thread starts only in the core ledger's fork (`fork_join`), which
/// borrows a core no compute thread holds and joins before it returns.
#[test]
fn compute_crates_start_threads_only_in_the_core_ledger() {
    const LEDGER: &str = "crates/ilt-fft/src/cores.rs";
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sites = Vec::new();
    for (file, shipped) in shipped_sources() {
        let file = file.strip_prefix(root).unwrap_or(&file).display().to_string();
        let compute = ["ilt-fft", "ilt-field", "ilt-optics", "ilt-autodiff", "ilt-core"]
            .iter()
            .any(|krate| file.starts_with(&format!("crates/{krate}/src/")));
        if !compute {
            continue;
        }
        let code = code_only(&shipped);
        for needle in ["thread::scope", "spawn_scoped", "thread::spawn", "thread::Builder"] {
            sites.extend((0..code.matches(needle).count()).map(|_| (file.clone(), needle)));
        }
    }
    assert_eq!(
        sites,
        [(LEDGER.to_string(), "thread::scope")],
        "the compute crates start threads only in {LEDGER}'s fork_join"
    );
}

/// No `ilt` command builds a tape: the optimizer step and the level-set
/// loop call `LossWeights::eq5` and the binary function's adjoint directly,
/// so no shipped source outside `crates/ilt-autodiff` calls `Graph::new(`
/// or `Graph::without_simulator(`. The tape is the reference those are
/// held to, in tests (and in `benchmark/`'s replay of the unfused chain).
#[test]
fn no_shipped_graph_outside_autodiff() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sites = Vec::new();
    for (file, shipped) in shipped_sources() {
        let file = file.strip_prefix(root).unwrap_or(&file).display().to_string();
        if file.starts_with("crates/ilt-autodiff/") {
            continue;
        }
        for (at, line) in code_only(&shipped).lines().enumerate() {
            if line.contains("Graph::new(") || line.contains("Graph::without_simulator(") {
                sites.push(format!("{file}:{}", at + 1));
            }
        }
    }
    assert!(
        sites.is_empty(),
        "shipped code builds an autodiff tape; call LossWeights::eq5 and \
         BinaryFunction::pull_back instead: {sites:#?}"
    );
}

/// One logistic for every sigmoid: no shipped line calls libm's `exp`
/// (`.exp()` or `f64::exp`, outside comments). A sigmoid calls
/// `ilt_fft::logistic` / `logistic_in_place`, whose scalar and AVX2 kernels
/// agree to the bit, so masks do not depend on the host's libm or CPU.
#[test]
fn one_exp_for_every_sigmoid() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sites = Vec::new();
    for (file, shipped) in shipped_sources() {
        for (at, line) in code_only(&shipped).lines().enumerate() {
            if line.contains(".exp()") || line.contains("f64::exp") {
                let file = file.strip_prefix(root).unwrap_or(&file).display().to_string();
                sites.push(format!("{file}:{}", at + 1));
            }
        }
    }
    assert!(
        sites.is_empty(),
        "libm `exp` in shipped code; route the sigmoid through ilt_fft::logistic / \
         logistic_in_place: {sites:#?}"
    );
}

/// The shipped line count, by the PR-14 counting command:
/// non-blank, non-comment lines before each file's first top-level
/// `#[cfg(test)]`, over `crates/*/src` and `src`. It may only go down; a
/// change that has to grow it edits this constant on purpose.
#[test]
fn non_test_lines_do_not_grow() {
    const CEILING: usize = 12159;
    let total: usize = shipped_sources()
        .iter()
        .flat_map(|(_, shipped)| shipped.lines())
        .filter(|l| !l.trim_start().is_empty() && !l.trim_start().starts_with("//"))
        .count();
    assert!(total <= CEILING, "non-test lines grew: {total} > {CEILING}");
    println!("non-test lines: {total} (ceiling {CEILING})");
}
