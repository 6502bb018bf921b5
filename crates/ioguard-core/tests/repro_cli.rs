//! The `ioguard-repro` command line refuses what it cannot parse: a bad
//! flag value exits non-zero with the usage instead of silently running
//! the default.

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
