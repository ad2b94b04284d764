//! Repo-level source lint: fails CI on banned patterns in crate sources.
//!
//! Rules (library code only — `src/bin/`, `examples/`, `tests/` and the
//! `#[cfg(test)]` tail of a file are exempt; the workspace convention keeps
//! unit tests at the bottom of each file, so scanning stops at the first
//! `#[cfg(test)]`):
//!
//! - `unwrap()` / `expect(` are banned in the crates a packet or a query
//!   runs through: all of `crates/{tib,rpc,core,dpswitch,wire}/src/`, and
//!   the simulator's event queue, `crates/simnet/src/event.rs`. A panic in
//!   any of these takes down the datapath, the store, the simulation or the
//!   query plane (and with it every in-flight query on the node).
//! - `HashMap::new()`, `HashSet::new()` and `RandomState` are banned in the
//!   store's per-record files, `crates/tib/src/tib.rs` and `segment.rs`:
//!   each builds a SipHash table, and an insert there is budgeted in
//!   nanoseconds. Maps and sets take `FnvBuild` (`…::default()`); the one
//!   allowlisted site builds the `HashMap` that `link_flow_counts` returns.
//! - `Instant` and `SystemTime` are banned in `crates/rpc/src/` outside
//!   `compute.rs`: the plane reads wall time only through its compute
//!   seam, which is what lets the chaos suite replay a run exactly
//!   (`rerun.elapsed == run.elapsed`).
//! - `println!` is banned in all library code (benches and bins own stdout;
//!   libraries must not pollute it — `bench_gate` parses the benches'
//!   stdout, and dpswitch pipelines stdout).
//!
//! Justified sites live in the allowlist file (`lint_allow.txt` at the repo
//! root): one `path needle` pair per line, `#` comments. A finding is
//! allowed when its file matches `path` and its source line contains
//! `needle`. An entry that tolerated no finding in the run is stale and
//! fails the gate, so the list cannot outlive the code it excuses.
//!
//! `--loc` runs another check instead: it prints library lines of code
//! per crate — ROADMAP's tracked number: every line of `crates/*/src` and
//! the facade's `src/`, `bin/` directories excluded — and fails when the
//! total exceeds the ceiling committed in `lint_loc_ceiling.txt`. Lower
//! the ceiling in the change that lowers the count.
//!
//! `--uncalled` runs the third: every `pub fn` declared in those same
//! library lines (unit-test tails excluded) whose name occurs, as a whole
//! word, exactly once in the `.rs` files under `crates/`, `src/`, `tests/`,
//! `examples/` and `benchmark/src` — that once being its declaration — is a
//! finding: public surface that no code, test, example or doc line mentions.
//! It goes by name, not by path, so it cannot see an unused `len` among ten
//! used ones; what it does see is certain. Trait methods carry no `pub` and
//! are never candidates. Tolerate one with an allowlist line whose needle is
//! `fn <name>(`; such lines belong to this check alone, and go stale here.
//!
//! Usage: `lint_gate [--root DIR] [--allow FILE] [--loc | --uncalled]`
//! (defaults: `crates`, `lint_allow.txt`), run from the repository root as
//! in CI.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Files where a panic is a datapath outage: no `unwrap()` / `expect(`.
const HOT_PATHS: &[&str] = &[
    "crates/tib/src/",
    "crates/rpc/src/",
    "crates/core/src/",
    "crates/dpswitch/src/",
    "crates/wire/src/",
    "crates/simnet/src/event.rs",
];

/// Files that may not build a `std`-hashed table (see the module docs).
const NO_SIPHASH: &[&str] = &["crates/tib/src/tib.rs", "crates/tib/src/segment.rs"];

/// What builds one.
const SIPHASH: &[&str] = &["HashMap::new()", "HashSet::new()", "RandomState"];

/// The rpc plane, which may not read a wall clock (see the module docs)…
const NO_WALL_CLOCK: &str = "crates/rpc/src/";

/// …except in its compute seam.
const WALL_CLOCK_SEAM: &str = "crates/rpc/src/compute.rs";

/// What reads one.
const WALL_CLOCK: &[&str] = &["Instant", "SystemTime"];

/// One banned-pattern hit.
#[derive(Debug, PartialEq, Eq)]
struct Finding {
    file: String,
    line_no: usize,
    pattern: &'static str,
    line: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: banned `{}`: {}",
            self.file,
            self.line_no,
            self.pattern,
            self.line.trim()
        )
    }
}

/// Is `needle` present at a macro/method boundary (previous char is not a
/// word char)? Keeps `eprintln!` from matching the `println!` ban.
fn has_bounded(line: &str, needle: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(rel) = line[from..].find(needle) {
        let at = from + rel;
        let bounded = at == 0 || {
            let c = bytes[at - 1] as char;
            !(c.is_ascii_alphanumeric() || c == '_')
        };
        if bounded {
            return true;
        }
        from = at + 1;
    }
    false
}

/// Scans one library source file. `file` is the normalized repo-relative
/// path (forward slashes); scanning stops at the unit-test tail.
fn scan_source(file: &str, source: &str) -> Vec<Finding> {
    let hot = HOT_PATHS.iter().any(|p| file.starts_with(p));
    let mut findings = Vec::new();
    for (i, line) in source.lines().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("#[cfg(test)]") {
            break;
        }
        if trimmed.starts_with("//") {
            continue;
        }
        let mut hit = |pattern: &'static str| {
            findings.push(Finding {
                file: file.to_string(),
                line_no: i + 1,
                pattern,
                line: line.to_string(),
            });
        };
        if hot {
            if line.contains("unwrap()") {
                hit("unwrap()");
            }
            if has_bounded(line, "expect(") {
                hit("expect(");
            }
        }
        if NO_SIPHASH.contains(&file) {
            for pattern in SIPHASH {
                if has_bounded(line, pattern) {
                    hit(pattern);
                }
            }
        }
        if file.starts_with(NO_WALL_CLOCK) && file != WALL_CLOCK_SEAM {
            for pattern in WALL_CLOCK {
                if has_bounded(line, pattern) {
                    hit(pattern);
                }
            }
        }
        if has_bounded(line, "println!") {
            hit("println!");
        }
    }
    findings
}

/// Parses the allowlist: `path needle…` per line, `#` comments. A needle
/// that starts with `fn ` excuses an uncalled function and every other one
/// a banned pattern; a run keeps the entries of the check it makes.
fn parse_allowlist(text: &str, uncalled: bool) -> Vec<(String, String)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (path, needle) = l.split_once(char::is_whitespace)?;
            Some((path.to_string(), needle.trim().to_string()))
        })
        .filter(|(_, needle)| needle.starts_with("fn ") == uncalled)
        .collect()
}

/// Does any allowlist entry tolerate `f`? Every entry that does is
/// marked in `used`.
fn is_allowed(f: &Finding, allow: &[(String, String)], used: &mut [bool]) -> bool {
    let mut any = false;
    for ((path, needle), u) in allow.iter().zip(used.iter_mut()) {
        if f.file == *path && f.line.contains(needle) {
            *u = true;
            any = true;
        }
    }
    any
}

/// The allowlist lines that tolerated no finding in this run.
fn stale_entries(allow: &[(String, String)], used: &[bool]) -> Vec<String> {
    allow
        .iter()
        .zip(used)
        .filter(|(_, &u)| !u)
        .map(|((path, needle), _)| format!("{path} {needle}"))
        .collect()
}

/// Library sources under `root`: every `crates/*/src/**/*.rs` except
/// `src/bin/` (per-crate binaries own their stdout and exit behavior).
fn library_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates = match std::fs::read_dir(root) {
        Ok(rd) => rd,
        Err(e) => {
            eprintln!("lint_gate: cannot read {}: {e}", root.display());
            return out;
        }
    };
    for entry in crates.flatten() {
        let src = entry.path().join("src");
        if src.is_dir() {
            collect_rs(&src, &mut out);
        }
    }
    out.sort();
    out
}

/// The `.rs` files under `dir` that are library code: `bin/` directories
/// are not descended into.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    collect_rs_where(dir, &|d| d.file_name().is_none_or(|n| n != "bin"), out);
}

/// The `.rs` files under `dir`, descending into the directories `enter`
/// accepts.
fn collect_rs_where(dir: &Path, enter: &dyn Fn(&Path) -> bool, out: &mut Vec<PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in rd.flatten() {
        let p = entry.path();
        if p.is_dir() {
            if enter(&p) {
                collect_rs_where(&p, enter, out);
            }
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Is `c` part of a Rust identifier?
fn is_word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The name of the function a source line declares `pub`, if it does.
fn pub_fn_name(line: &str) -> Option<&str> {
    let mut rest = line.trim_start().strip_prefix("pub ")?;
    for qualifier in ["const ", "async ", "unsafe "] {
        rest = rest.strip_prefix(qualifier).unwrap_or(rest);
    }
    let rest = rest.strip_prefix("fn ")?;
    Some(&rest[..rest.find(|c| !is_word(c)).unwrap_or(rest.len())])
}

/// The `pub fn`s of one library file (up to its unit-test tail) whose name
/// `uses` counts once.
fn scan_uncalled(file: &str, source: &str, uses: &HashMap<&str, usize>) -> Vec<Finding> {
    source
        .lines()
        .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
        .enumerate()
        .filter(|(_, l)| pub_fn_name(l).is_some_and(|name| uses.get(name) == Some(&1)))
        .map(|(i, l)| Finding {
            file: file.to_string(),
            line_no: i + 1,
            pattern: "uncalled pub fn",
            line: l.to_string(),
        })
        .collect()
}

/// `--uncalled`: the findings of [`scan_uncalled`] over `library` (the
/// crates' library files) and the facade, names counted over every `.rs`
/// file of the directories in the module docs.
fn uncalled_findings(root: &Path, mut library: Vec<PathBuf>) -> Vec<Finding> {
    collect_rs(Path::new("src"), &mut library);
    // Bins, benches and tests call too.
    let mut everywhere = Vec::new();
    for dir in ["src", "tests", "examples", "benchmark/src"] {
        collect_rs_where(dir.as_ref(), &|_| true, &mut everywhere);
    }
    collect_rs_where(root, &|_| true, &mut everywhere);
    let texts: Vec<String> = everywhere
        .iter()
        .filter_map(|p| std::fs::read_to_string(p).ok())
        .collect();
    let mut uses: HashMap<&str, usize> = HashMap::new();
    for word in texts.iter().flat_map(|t| t.split(|c| !is_word(c))) {
        *uses.entry(word).or_insert(0) += 1;
    }
    let mut findings = Vec::new();
    for path in library {
        if let Ok(source) = std::fs::read_to_string(&path) {
            let file = path.to_string_lossy().replace('\\', "/");
            findings.extend(scan_uncalled(&file, &source, &uses));
        }
    }
    findings
}

/// The committed library-LoC ceiling, next to the allowlist.
const LOC_CEILING_FILE: &str = "lint_loc_ceiling.txt";

/// Lines (as `wc -l` counts them) of the library sources under one `src`
/// directory.
fn loc_of(src: &Path) -> usize {
    let mut files = Vec::new();
    collect_rs(src, &mut files);
    files
        .iter()
        .filter_map(|p| std::fs::read(p).ok())
        .map(|bytes| bytes.iter().filter(|&&b| b == b'\n').count())
        .sum()
}

/// The first number in the ceiling file (`#` comments skipped).
fn parse_ceiling(text: &str) -> Option<usize> {
    text.lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))?
        .parse()
        .ok()
}

/// `--loc`: per-crate library LoC, the facade's `src/`, and the total
/// against the committed ceiling.
fn loc_report(root: &Path) -> ExitCode {
    let ceiling = std::fs::read_to_string(LOC_CEILING_FILE)
        .ok()
        .and_then(|t| parse_ceiling(&t));
    let Some(ceiling) = ceiling else {
        eprintln!("lint_gate: {LOC_CEILING_FILE} must hold the library LoC ceiling");
        return ExitCode::FAILURE;
    };
    let mut rows: Vec<(String, usize)> = std::fs::read_dir(root)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.join("src").is_dir())
        .map(|p| (p.display().to_string(), loc_of(&p.join("src"))))
        .collect();
    rows.sort();
    rows.push(("src (facade)".to_string(), loc_of(Path::new("src"))));
    let total: usize = rows.iter().map(|(_, n)| n).sum();
    for (name, n) in &rows {
        println!("{n:>7}  {name}");
    }
    println!("{total:>7}  library LoC (ceiling {ceiling})");
    if total > ceiling {
        eprintln!(
            "lint_gate: library LoC {total} exceeds the committed ceiling {ceiling} \
             ({LOC_CEILING_FILE}): delete before adding, or raise it with a reason"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut root = PathBuf::from("crates");
    let mut allow_path = PathBuf::from("lint_allow.txt");
    let mut loc = false;
    let mut uncalled = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = PathBuf::from(args.next().unwrap_or_default()),
            "--allow" => allow_path = PathBuf::from(args.next().unwrap_or_default()),
            "--loc" => loc = true,
            "--uncalled" => uncalled = true,
            other => {
                eprintln!("lint_gate: unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    if loc {
        return loc_report(&root);
    }

    let allow = match std::fs::read_to_string(&allow_path) {
        Ok(t) => parse_allowlist(&t, uncalled),
        Err(e) => {
            eprintln!(
                "lint_gate: cannot read allowlist {}: {e}",
                allow_path.display()
            );
            return ExitCode::FAILURE;
        }
    };

    let files = library_sources(&root);
    if files.is_empty() {
        eprintln!("lint_gate: no sources found under {}", root.display());
        return ExitCode::FAILURE;
    }

    let mut bad = 0usize;
    let mut scanned = 0usize;
    let mut findings = Vec::new();
    if uncalled {
        scanned = files.len();
        findings = uncalled_findings(&root, files);
    } else {
        for path in files {
            let Ok(source) = std::fs::read_to_string(&path) else {
                eprintln!("lint_gate: unreadable {}", path.display());
                bad += 1;
                continue;
            };
            scanned += 1;
            let file = path.to_string_lossy().replace('\\', "/");
            findings.extend(scan_source(&file, &source));
        }
    }
    let mut used = vec![false; allow.len()];
    for f in findings {
        if !is_allowed(&f, &allow, &mut used) {
            eprintln!("{f}");
            bad += 1;
        }
    }
    for line in stale_entries(&allow, &used) {
        eprintln!(
            "{}: stale entry (tolerated no finding): {line}",
            allow_path.display()
        );
        bad += 1;
    }

    if bad > 0 {
        eprintln!("lint_gate: {bad} finding(s) across {scanned} file(s)");
        ExitCode::FAILURE
    } else {
        eprintln!("lint_gate: clean ({scanned} files)");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_path_bans_unwrap_and_expect() {
        let src = "fn f() {\n    x.unwrap();\n    y.expect(\"oops\");\n}\n";
        let f = scan_source("crates/dpswitch/src/datapath.rs", src);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].pattern, "unwrap()");
        assert_eq!(f[0].line_no, 2);
        assert_eq!(f[1].pattern, "expect(");
        // Every file of the five crates is hot, not only a listed few.
        let f = scan_source("crates/core/src/world.rs", src);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn non_hot_library_allows_unwrap_but_not_println() {
        let src = "fn f() {\n    x.unwrap();\n    println!(\"hi\");\n}\n";
        let f = scan_source("crates/topology/src/graph.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].pattern, "println!");
    }

    #[test]
    fn store_files_may_not_build_siphash_tables() {
        let src = "use std::collections::hash_map::RandomState;\nfn f() {\n    let a = HashMap::new();\n    let b: HashSet<u32> = HashSet::new();\n    let c: FMap<u32, u32> = FMap::default();\n    let d: HashSet<u32, FnvBuild> = HashSet::default();\n}\n#[cfg(test)]\nmod tests {\n    fn g() { let t = HashMap::new(); }\n}\n";
        let f = scan_source("crates/tib/src/segment.rs", src);
        let hits: Vec<_> = f.iter().map(|f| (f.line_no, f.pattern)).collect();
        assert_eq!(
            hits,
            [
                (1, "RandomState"),
                (3, "HashMap::new()"),
                (4, "HashSet::new()")
            ]
        );
        // The rule is the store's: the same source elsewhere is clean.
        assert!(scan_source("crates/core/src/cluster.rs", src).is_empty());
        // The one tolerated site, by its allowlist line.
        let allow = parse_allowlist("crates/tib/src/tib.rs HashMap::new()\n", false);
        let f = scan_source("crates/tib/src/tib.rs", "let mut out = HashMap::new();\n");
        assert!(is_allowed(&f[0], &allow, &mut [false]));
    }

    #[test]
    fn rpc_plane_reads_wall_time_only_through_the_compute_seam() {
        let src = "use std::time::Instant;\nfn f() {\n    let t = std::time::SystemTime::now();\n    // Instant in a comment\n}\n";
        let f = scan_source("crates/rpc/src/plane.rs", src);
        let hits: Vec<_> = f.iter().map(|f| (f.line_no, f.pattern)).collect();
        assert_eq!(hits, [(1, "Instant"), (3, "SystemTime")]);
        // The seam itself, and code outside the plane, may read the clock.
        assert!(scan_source("crates/rpc/src/compute.rs", src).is_empty());
        assert!(scan_source("crates/core/src/agent.rs", src).is_empty());
    }

    #[test]
    fn eprintln_is_not_println() {
        let src = "fn f() {\n    eprintln!(\"to stderr\");\n}\n";
        assert!(scan_source("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn comments_and_test_tail_are_skipped() {
        let src = "fn f() {}\n// println! in a comment\n#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); println!(\"t\"); }\n}\n";
        assert!(scan_source("crates/simnet/src/event.rs", src).is_empty());
    }

    #[test]
    fn ceiling_file_is_one_number_after_comments() {
        assert_eq!(parse_ceiling("# why\n\n26932\n"), Some(26932));
        assert_eq!(parse_ceiling("# only a comment\n"), None);
        assert_eq!(parse_ceiling("lots\n"), None);
    }

    #[test]
    fn allowlist_matches_path_and_needle() {
        let allow = parse_allowlist(
            "# comment\ncrates/tib/src/tib.rs expect(\"overlap checked\")\n\ncrates/bench/src/lib.rs println!\n",
            false,
        );
        assert_eq!(allow.len(), 2);
        let f = scan_source(
            "crates/tib/src/tib.rs",
            "fn f() { y.expect(\"overlap checked\"); }\n",
        );
        assert_eq!(f.len(), 1);
        let mut used = vec![false; allow.len()];
        assert!(is_allowed(&f[0], &allow, &mut used));
        let g = scan_source(
            "crates/tib/src/tib.rs",
            "fn f() { y.expect(\"something else\"); }\n",
        );
        assert!(!is_allowed(&g[0], &allow, &mut used));
    }

    #[test]
    fn allowlist_entry_without_a_finding_is_stale() {
        let allow = parse_allowlist(
            "crates/tib/src/tib.rs expect(\"overlap checked\")\ncrates/simnet/src/pool.rs expect(\"spawn shard worker\")\n",
            false,
        );
        let mut used = vec![false; allow.len()];
        assert_eq!(stale_entries(&allow, &used).len(), 2, "nothing scanned yet");
        let f = scan_source(
            "crates/tib/src/tib.rs",
            "fn f() { y.expect(\"overlap checked\"); }\n",
        );
        assert!(is_allowed(&f[0], &allow, &mut used));
        assert_eq!(
            stale_entries(&allow, &used),
            ["crates/simnet/src/pool.rs expect(\"spawn shard worker\")"]
        );
    }

    #[test]
    fn pub_fn_names() {
        assert_eq!(
            pub_fn_name("    pub fn insert(&mut self) {"),
            Some("insert")
        );
        assert_eq!(
            pub_fn_name("pub const fn as_secs(self) -> u64 {"),
            Some("as_secs")
        );
        assert_eq!(pub_fn_name("pub fn generic<T: Ord>(x: T)"), Some("generic"));
        assert_eq!(pub_fn_name("    fn private(&self)"), None);
        assert_eq!(pub_fn_name("    pub(crate) fn inner(&self)"), None);
        assert_eq!(pub_fn_name("// pub fn in_a_comment()"), None);
        assert_eq!(pub_fn_name("pub struct NotAFn;"), None);
    }

    #[test]
    fn uncalled_is_a_name_seen_once_outside_the_test_tail() {
        let src = "pub fn used() {}\npub fn lonely() {}\nfn private() {}\n#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n";
        let uses = HashMap::from([("used", 3), ("lonely", 1), ("private", 1), ("helper", 1)]);
        let f = scan_uncalled("crates/x/src/lib.rs", src, &uses);
        assert_eq!(f.len(), 1);
        assert_eq!(
            (f[0].line_no, f[0].line.as_str()),
            (2, "pub fn lonely() {}")
        );
        // The allowlist splits by check: `fn ` needles are this one's.
        let list = "crates/x/src/lib.rs fn lonely(\ncrates/x/src/lib.rs println!\n";
        let allow = parse_allowlist(list, true);
        assert_eq!(allow, [("crates/x/src/lib.rs".into(), "fn lonely(".into())]);
        assert!(is_allowed(&f[0], &allow, &mut [false]));
        assert_eq!(parse_allowlist(list, false).len(), 1);
    }
}
