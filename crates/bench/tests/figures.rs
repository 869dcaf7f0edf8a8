//! The `figures` binary prints the paper's figures and rejects bad
//! arguments with its usage line and a failing exit status.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn prints_the_requested_figure() {
    let out = figures(&["--figure", "2"]);
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        grid_realloc::figures::figure2()
    );
}

#[test]
fn bad_arguments_print_usage_and_fail() {
    for args in [&["--figure", "3"][..], &["--figure"], &["--bogus"]] {
        let out = figures(args);
        assert!(!out.status.success(), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("usage: figures"), "{args:?}: {stderr}");
    }
}
