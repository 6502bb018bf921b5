//! The `ioguard-repro` and `trace-export` command lines refuse what they
//! cannot parse: a bad flag value or seed exits non-zero with the usage
//! instead of silently running the default or panicking.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ioguard-repro"))
        .args(args)
        .output()
        .expect("ioguard-repro runs")
}

#[test]
fn unparsable_trials_fail_with_the_usage() {
    let out = repro(&["fig7", "--trials", "abc"]);
    assert!(!out.status.success(), "fig7 --trials abc must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: ioguard-repro"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing runs on a bad flag");
}

#[test]
fn missing_flag_values_fail() {
    for args in [
        &["fig7", "--threads"][..],
        &["fig8", "--eta", "x"][..],
        &["fig7", "--trials", "--threads", "1"][..],
    ] {
        assert!(!repro(args).status.success(), "{args:?} must fail");
    }
}

#[test]
fn unparsable_seed_fails_with_the_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_trace-export"))
        .arg("abc")
        .output()
        .expect("trace-export runs");
    assert!(!out.status.success(), "trace-export abc must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("usage: trace-export [seed] [output-path]"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing runs on a bad seed");
}

#[test]
fn unwritable_output_fails_without_a_panic() {
    // A directory is never writable as a file.
    let out = Command::new(env!("CARGO_BIN_EXE_trace-export"))
        .args(["7", env!("CARGO_MANIFEST_DIR")])
        .output()
        .expect("trace-export runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot write"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty());
}
