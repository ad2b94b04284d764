//! The bins that take no flags refuse any argument: each exits 2 and names
//! it before running, so a `--seed 2` is never silently run with the
//! built-in values, and a flag `bench_gate` no longer takes cannot widen or
//! re-base its bounds.

use std::process::Command;

/// `bin args` exits 2 naming `args[0]`, with nothing on stdout.
fn refuses(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("runs");
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} ran");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(args[0]), "{bin} {args:?}: {err}");
}

#[test]
fn bins_without_flags_reject_any_argument() {
    for bin in [
        env!("CARGO_BIN_EXE_table2"),
        env!("CARGO_BIN_EXE_fig04_conformance"),
        env!("CARGO_BIN_EXE_fig_blackhole"),
        env!("CARGO_BIN_EXE_bench_gate"),
    ] {
        for args in [&["--seed", "2"][..], &["--full"], &["extra"]] {
            refuses(bin, args);
        }
    }
}

/// The baseline file, its tolerance band and the run count are gone. Each
/// case names a missing baseline, so that a gate which still read one
/// would fail at once instead of measuring.
#[test]
fn bench_gate_refuses_its_removed_flags() {
    let gate = env!("CARGO_BIN_EXE_bench_gate");
    refuses(gate, &["--baseline", "no-such-file"]);
    refuses(gate, &["--tolerance", "0.5", "--baseline", "no-such-file"]);
    refuses(gate, &["--runs", "3", "--baseline", "no-such-file"]);
}
