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

/// The number ROADMAP item 3 tracks, by the PR-14 counting command:
/// non-blank, non-comment lines before each file's first top-level
/// `#[cfg(test)]`, over `crates/*/src` and `src`. It may only go down; a
/// change that has to grow it edits this constant on purpose.
#[test]
fn non_test_lines_do_not_grow() {
    const CEILING: usize = 13661;
    let total: usize = shipped_sources()
        .iter()
        .flat_map(|(_, shipped)| shipped.lines())
        .filter(|l| !l.trim_start().is_empty() && !l.trim_start().starts_with("//"))
        .count();
    assert!(total <= CEILING, "non-test lines grew: {total} > {CEILING}");
    println!("non-test lines: {total} (ceiling {CEILING})");
}
