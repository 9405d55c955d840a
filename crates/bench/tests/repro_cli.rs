//! `repro` rejects bad command lines: an unknown artifact name or a
//! `--workers` without a number prints the usage line, exits non-zero,
//! and writes nothing.

// detlint:allow-file(env-read): the test drives the repro binary as a child process, so it needs the binary path cargo provides and a scratch working directory
use std::path::PathBuf;
use std::process::Command;

/// Runs `repro` with `args` in a fresh empty directory and returns the
/// exit status, the captured stderr, and whether `results/` appeared.
fn run_repro(tag: &str, args: &[&str]) -> (std::process::ExitStatus, String, bool) {
    let dir: PathBuf = std::env::temp_dir().join(format!("repro-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn repro");
    let results = dir.join("results").exists();
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    (
        out.status,
        String::from_utf8_lossy(&out.stderr).into_owned(),
        results,
    )
}

#[test]
fn unknown_artifact_is_a_usage_error() {
    // The later names are removed artifacts: each must be rejected, not
    // accepted and silently skipped.
    for (tag, name) in [
        ("unknown", "no-such-artifact"),
        ("removed", "scale100k"),
        ("removed-scaling", "scaling"),
    ] {
        let (status, stderr, results) = run_repro(tag, &[name]);
        assert!(!status.success(), "{name}: exit status {status}");
        assert_eq!(status.code(), Some(2), "{name}: not a usage error");
        assert!(stderr.contains("usage: repro"), "{name}: stderr: {stderr}");
        assert!(stderr.contains(name), "{name}: stderr: {stderr}");
        assert!(!results, "{name}: results/ was created");
    }
}

#[test]
fn workers_without_a_number_is_a_usage_error() {
    for (tag, args) in [
        ("missing", &["--workers"][..]),
        ("nonnumeric", &["--workers", "many", "table1"][..]),
    ] {
        let (status, stderr, results) = run_repro(tag, args);
        assert!(!status.success(), "{args:?}: exit status {status}");
        assert_eq!(status.code(), Some(2), "{args:?}: not a usage error");
        assert!(
            stderr.contains("usage: repro"),
            "{args:?}: stderr: {stderr}"
        );
        assert!(!results, "{args:?}: results/ was created");
    }
}
