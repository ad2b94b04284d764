//! Scripted smoke test of the `pathdump` operator CLI: pipes
//! `tests/data/cli_smoke.cmds` through the binary and asserts the
//! load-bearing lines — time-travel query answers with the half-open
//! `[t0, t1)` boundary honored, snapshot save/diff, and standing
//! watch registration, raise, and removal.

use std::io::Write;
use std::process::{Command, Stdio};

#[test]
fn cli_smoke_script() {
    // The script saves its snapshots under `target/`, relative to the
    // workspace root. Here they go to this test's scratch directory, which
    // exists wherever the target directory is.
    let tmp = env!("CARGO_TARGET_TMPDIR");
    let moved = |s: &str| s.replace("target/tmp_cli_smoke_", &format!("{tmp}/tmp_cli_smoke_"));
    let script = moved(include_str!("data/cli_smoke.cmds"));
    let _ = std::fs::remove_file(format!("{tmp}/tmp_cli_smoke_a.tib2"));
    let _ = std::fs::remove_file(format!("{tmp}/tmp_cli_smoke_b.tib2"));

    let mut child = Command::new(env!("CARGO_BIN_EXE_pathdump"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pathdump");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(script.as_bytes())
        .expect("write script");
    let out = child.wait_with_output().expect("run pathdump");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "CLI exited nonzero: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    for expected in [
        // help reached the user
        "commands (times in ms, ranges half-open [t0 t1)):",
        // watch registration handles are sequential
        "watch 0 registered",
        "watch 1 registered",
        // the link-ceiling watch stays quiet at 2 distinct flows...
        "no standing events",
        // ...and raises exactly when the 3rd distinct flow lands
        "RAISE watch=0 flow=10.2.0.2:7002->10.1.0.2:80/tcp",
        // top talkers, all-time and per-link
        "11000 bytes  10.0.0.2:7000->10.1.0.2:80/tcp",
        "5000 bytes  10.0.0.2:7000->10.1.0.2:80/tcp",
        // host-pair time travel
        "flow 10.0.0.2:7000->10.1.0.2:80/tcp path [S0 S2 S4]",
        // half-open [0, 20): the record starting at exactly 20 ms is out
        "5000 bytes 4 pkts",
        // before/after diff around t=15ms
        "before: path [S0 S2 S4]",
        "after:  path [S0 S3 S4]",
        // snapshot roundtrip + first-class snapshot diffing
        "saved 4 records to target/tmp_cli_smoke_a.tib2",
        "diff: 1 flows changed (4 records before, 5 after)",
        "+ [S1 S3 S5]",
        // unwatch is idempotent-checked
        "watch 0 removed",
        "error: no watch 0",
        // the refused `rec` stored nothing: the next one is the 6th record
        "ok (6 records)",
        // a replayed simnet run merges into the working store
        "replayed ",
        // `load` swaps the store for the saved one: its 4 records, and
        // flow 7004 (recorded after that save) is gone
        "loaded 4 records from target/tmp_cli_smoke_a.tib2",
        "0 bytes 0 pkts",
    ]
    .map(moved)
    {
        assert!(
            stdout.contains(&expected),
            "missing `{expected}` in CLI output:\n{stdout}"
        );
    }
    // Both commands with an out-of-range time are answered, not panicked on.
    assert_eq!(stdout.matches("error: time out of range").count(), 2);
    // The dud rate watch (watch 1) must never fire, in particular not
    // during the replay merge.
    assert!(
        !stdout.contains("watch=1"),
        "rate watch on a nonexistent flow fired:\n{stdout}"
    );
}
