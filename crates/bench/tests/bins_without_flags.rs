//! The figure bins that take no flags refuse any argument: each exits 2
//! and names it before running, so a `--seed 2` is never silently run with
//! the built-in values.

use std::process::Command;

#[test]
fn bins_without_flags_reject_any_argument() {
    for bin in [
        env!("CARGO_BIN_EXE_table2"),
        env!("CARGO_BIN_EXE_fig04_conformance"),
        env!("CARGO_BIN_EXE_fig_blackhole"),
    ] {
        for args in [&["--seed", "2"][..], &["--full"], &["extra"]] {
            let out = Command::new(bin).args(args).output().expect("runs");
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
            assert!(out.stdout.is_empty(), "{bin} {args:?} ran");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains(args[0]), "{bin} {args:?}: {err}");
        }
    }
}
