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
