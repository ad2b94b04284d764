//! `pathdump` — the operator CLI/REPL over the TIB query plane.
//!
//! Reads whitespace-separated commands from stdin (one per line; `#`
//! starts a comment) and answers over a single working TIB, which can be
//! populated three ways: explicit `rec` injection, a deterministic
//! `replay` of a simulated web-traffic run (every host's TIB merged in
//! host/arena order), or `load`ing a snapshot. Every insert also
//! drives the standing-query engine, so `watch`es registered before a
//! replay fire as the replayed records stream in.
//!
//! Time travel: command time arguments are **milliseconds** and ranges
//! are the conventional half-open `[t0, t1)`; they are mapped to the
//! TIB's closed `TimeRange` as `[t0, t1 - 1ns]` at the boundary (see the
//! time-boundary convention in `pathdump_tib::tib`).

use std::io::{BufRead, Write};

use pathdump_apps::Testbed;
use pathdump_core::standing::{StandingPredicate, StandingQuery, StandingQueryEngine};
use pathdump_core::{execute_on_tib, Query, Response, WorldConfig};
use pathdump_simnet::SimConfig;
use pathdump_tib::{diff_snapshots, load_tiered, save_tiered, TibDiff, TibRead, TieredTib};
use pathdump_topology::{
    FlowId, HostId, Ip, LinkPattern, Nanos, Path, SwitchId, TimeRange, MILLIS, SECONDS,
};

const HELP: &str = "\
commands (times in ms, ranges half-open [t0 t1)):
  rec <src> <dst> <sport> <t0> <t1> <bytes> <sw,sw,..>  inject a record
  replay <load> <secs> <seed>       merge a simulated web-traffic run
  paths <src> <dst> <sport> [t0 t1] paths of one flow
  between <src> <dst> [t0 t1]       paths of every flow src->dst
  top <k> [t0 t1]                   top talkers by bytes
  toplink <k> <a-b> [t0 t1]         top talkers crossing link a-b
  flows [a-b|any] [t0 t1]           flows on a link
  count <src> <dst> <sport> [t0 t1] bytes/pkts of one flow
  diff <src> <dst> <sport> <t>      flow's paths before vs after time t
  save <file>                       write a TIB3 snapshot
  load <file>                       replace the store from a snapshot (TIB2 or TIB3)
  diffsnap <fileA> <fileB>          diff two snapshots
  watch rate <src> <dst> <sport> <window_ms> <min_bytes>
  watch topk <src> <dst> <sport> <k>
  watch path <src> <dst> <sport>
  watch link <a-b> <ceiling>
  unwatch <id>                      remove a standing query
  alarms                            drain standing raises/clears
  help | quit";

struct Cli {
    tib: TieredTib,
    eng: StandingQueryEngine,
}

fn parse_ip(s: &str) -> Result<Ip, String> {
    let mut oct = [0u8; 4];
    let mut parts = s.split('.');
    for o in &mut oct {
        *o = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("bad ip `{s}`"))?;
    }
    if parts.next().is_some() {
        return Err(format!("bad ip `{s}`"));
    }
    Ok(Ip::new(oct[0], oct[1], oct[2], oct[3]))
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {what} `{s}`"))
}

/// A user-typed time in `unit`s ([`MILLIS`], [`SECONDS`]). Checked:
/// `Nanos::from_millis` multiplies unchecked, so a large enough number
/// would panic a debug build and wrap a release one into some other time.
fn parse_time(s: &str, what: &str, unit: u64) -> Result<Nanos, String> {
    parse_num::<u64>(s, what)?
        .checked_mul(unit)
        .map(Nanos)
        .ok_or_else(|| "time out of range".into())
}

fn parse_flow(src: &str, dst: &str, sport: &str) -> Result<FlowId, String> {
    Ok(FlowId::tcp(
        parse_ip(src)?,
        parse_num(sport, "sport")?,
        parse_ip(dst)?,
        80,
    ))
}

/// `a-b` → the exact link a→b; `any` → wildcard.
fn parse_link(s: &str) -> Result<LinkPattern, String> {
    if s.eq_ignore_ascii_case("any") {
        return Ok(LinkPattern::ANY);
    }
    let (a, b) = s.split_once('-').ok_or_else(|| format!("bad link `{s}`"))?;
    Ok(LinkPattern::exact(
        SwitchId(parse_num(a, "switch")?),
        SwitchId(parse_num(b, "switch")?),
    ))
}

/// Optional trailing `[t0 t1)` in ms, mapped to the closed TimeRange
/// `[t0, t1 - 1ns]`; absent → all time.
fn parse_range(args: &[&str]) -> Result<TimeRange, String> {
    match args {
        [] => Ok(TimeRange::ANY),
        [t0, t1] => {
            let lo = parse_time(t0, "t0", MILLIS)?;
            let hi = parse_time(t1, "t1", MILLIS)?;
            if hi <= lo {
                return Err(format!("empty range [{t0} {t1})"));
            }
            Ok(TimeRange::between(lo, Nanos(hi.0 - 1)))
        }
        _ => Err("expected zero or two time arguments".into()),
    }
}

fn show_paths(paths: &[Path]) -> String {
    if paths.is_empty() {
        return "no paths".into();
    }
    paths
        .iter()
        .map(|p| format!("path {p}"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn show_diff(d: &TibDiff) -> String {
    let mut out = vec![format!(
        "diff: {} flows changed ({} records before, {} after)",
        d.deltas.len(),
        d.before_records,
        d.after_records
    )];
    for delta in &d.deltas {
        out.push(format!("flow {}", delta.flow));
        for p in delta.removed() {
            out.push(format!("  - {p}"));
        }
        for p in delta.added() {
            out.push(format!("  + {p}"));
        }
    }
    out.join("\n")
}

impl Cli {
    fn new() -> Self {
        Cli {
            tib: TieredTib::new(),
            eng: StandingQueryEngine::new(HostId(0)),
        }
    }

    /// Single insert path: store, then mirror to the standing engine
    /// (event time = the record's etime).
    fn insert(&mut self, rec: pathdump_tib::TibRecord) {
        self.tib.insert(rec.clone());
        self.eng.on_record(&self.tib, &rec, rec.etime);
    }

    fn replay(&mut self, load: f64, traffic: Nanos, seed: u64) -> Result<String, String> {
        // Four more seconds for the last flows to finish and flush.
        let end = traffic
            .0
            .checked_add(4 * SECONDS)
            .map(Nanos)
            .ok_or("time out of range")?;
        let mut tb = Testbed::fattree(4, SimConfig::for_tests(), WorldConfig::default());
        let specs = tb.add_web_traffic(load, traffic, seed);
        tb.run_and_flush(end);
        let mut merged = 0usize;
        let records: Vec<_> = tb
            .sim
            .world
            .agents
            .iter()
            .flat_map(|a| a.tib.records_vec())
            .collect();
        for rec in records {
            self.insert(rec);
            merged += 1;
        }
        Ok(format!(
            "replayed {} flows -> merged {merged} records ({} total in store)",
            specs.len(),
            self.tib.len()
        ))
    }

    fn watch(&mut self, args: &[&str]) -> Result<String, String> {
        let pred = match args {
            ["rate", src, dst, sport, win, min] => StandingPredicate::RateAbove {
                flow: parse_flow(src, dst, sport)?,
                window: parse_time(win, "window", MILLIS)?,
                min_bytes: parse_num(min, "min_bytes")?,
                min_pkts: 1,
            },
            ["topk", src, dst, sport, k] => StandingPredicate::TopKMember {
                flow: parse_flow(src, dst, sport)?,
                k: parse_num(k, "k")?,
            },
            ["path", src, dst, sport] => StandingPredicate::PathChanged {
                flow: parse_flow(src, dst, sport)?,
            },
            ["link", link, ceiling] => StandingPredicate::LinkFlowsAbove {
                link: parse_link(link)?,
                ceiling: parse_num(ceiling, "ceiling")?,
            },
            _ => return Err("usage: watch rate|topk|path|link ... (see help)".into()),
        };
        let clock = self.eng.clock();
        let id = self.eng.watch(&self.tib, StandingQuery::new(pred), clock);
        Ok(format!("watch {} registered", id.0))
    }

    fn exec(&mut self, toks: &[&str]) -> Result<String, String> {
        match toks {
            ["help"] => Ok(HELP.into()),
            ["rec", src, dst, sport, t0, t1, bytes, path] => {
                let sw: Result<Vec<SwitchId>, String> = path
                    .split(',')
                    .map(|s| Ok(SwitchId(parse_num(s, "switch")?)))
                    .collect();
                let (stime, etime) = (parse_time(t0, "t0", MILLIS)?, parse_time(t1, "t1", MILLIS)?);
                if etime < stime {
                    return Err("t1 must be >= t0".into());
                }
                let bytes: u64 = parse_num(bytes, "bytes")?;
                self.insert(pathdump_tib::TibRecord {
                    flow: parse_flow(src, dst, sport)?,
                    path: Path::new(sw?),
                    stime,
                    etime,
                    bytes,
                    pkts: 1 + bytes / 1460,
                });
                Ok(format!("ok ({} records)", self.tib.len()))
            }
            ["replay", load, secs, seed] => self.replay(
                parse_num(load, "load")?,
                parse_time(secs, "secs", SECONDS)?,
                parse_num(seed, "seed")?,
            ),
            ["paths", src, dst, sport, rest @ ..] => {
                let q = Query::GetPaths {
                    flow: parse_flow(src, dst, sport)?,
                    link: LinkPattern::ANY,
                    range: parse_range(rest)?,
                };
                match execute_on_tib(&self.tib, &q) {
                    Response::Paths(p) => Ok(show_paths(&p)),
                    r => Err(format!("unexpected response {r:?}")),
                }
            }
            ["between", src, dst, rest @ ..] => {
                let (sip, dip) = (parse_ip(src)?, parse_ip(dst)?);
                let range = parse_range(rest)?;
                let flows = match execute_on_tib(
                    &self.tib,
                    &Query::GetFlows {
                        link: LinkPattern::ANY,
                        range,
                    },
                ) {
                    Response::Flows(f) => f,
                    r => return Err(format!("unexpected response {r:?}")),
                };
                let mut out = Vec::new();
                for f in flows.iter().filter(|f| f.src_ip == sip && f.dst_ip == dip) {
                    let q = Query::GetPaths {
                        flow: *f,
                        link: LinkPattern::ANY,
                        range,
                    };
                    if let Response::Paths(p) = execute_on_tib(&self.tib, &q) {
                        for path in p {
                            out.push(format!("flow {f} path {path}"));
                        }
                    }
                }
                if out.is_empty() {
                    out.push(format!("no paths between {sip} and {dip}"));
                }
                Ok(out.join("\n"))
            }
            ["top", k, rest @ ..] => {
                let q = Query::TopK {
                    k: parse_num(k, "k")?,
                    range: parse_range(rest)?,
                };
                match execute_on_tib(&self.tib, &q) {
                    Response::TopK { entries, .. } => Ok(entries
                        .iter()
                        .map(|(b, f)| format!("{b} bytes  {f}"))
                        .collect::<Vec<_>>()
                        .join("\n")),
                    r => Err(format!("unexpected response {r:?}")),
                }
            }
            ["toplink", k, link, rest @ ..] => {
                let k: usize = parse_num(k, "k")?;
                let mut counts: Vec<(u64, FlowId)> = self
                    .tib
                    .link_flow_counts(parse_link(link)?, parse_range(rest)?)
                    .into_iter()
                    .map(|(f, (bytes, _))| (bytes, f))
                    .collect();
                // Same total order as `TibRead::top_k_flows`.
                counts.sort_unstable_by(|a, b| b.cmp(a));
                counts.truncate(k);
                Ok(counts
                    .iter()
                    .map(|(b, f)| format!("{b} bytes  {f}"))
                    .collect::<Vec<_>>()
                    .join("\n"))
            }
            ["flows", rest @ ..] => {
                let (link, rest) = match rest {
                    [l, rest @ ..] if l.contains('-') || l.eq_ignore_ascii_case("any") => {
                        (parse_link(l)?, rest)
                    }
                    _ => (LinkPattern::ANY, rest),
                };
                let q = Query::GetFlows {
                    link,
                    range: parse_range(rest)?,
                };
                match execute_on_tib(&self.tib, &q) {
                    Response::Flows(f) => Ok(f
                        .iter()
                        .map(|f| format!("flow {f}"))
                        .collect::<Vec<_>>()
                        .join("\n")),
                    r => Err(format!("unexpected response {r:?}")),
                }
            }
            ["count", src, dst, sport, rest @ ..] => {
                let q = Query::GetCount {
                    flow: parse_flow(src, dst, sport)?,
                    path: None,
                    range: parse_range(rest)?,
                };
                match execute_on_tib(&self.tib, &q) {
                    Response::Count { bytes, pkts } => Ok(format!("{bytes} bytes {pkts} pkts")),
                    r => Err(format!("unexpected response {r:?}")),
                }
            }
            ["diff", src, dst, sport, t] => {
                let flow = parse_flow(src, dst, sport)?;
                let t = parse_time(t, "t", MILLIS)?;
                let d = TibDiff::at(&self.tib, t);
                match d.for_flow(flow) {
                    None => Ok(format!("flow {flow}: unchanged across {t:?}")),
                    Some(delta) => {
                        let mut out = vec![format!("flow {flow} across {t:?}:")];
                        out.push(format!("  before: {}", show_paths(&delta.before)));
                        out.push(format!("  after:  {}", show_paths(&delta.after)));
                        Ok(out.join("\n"))
                    }
                }
            }
            ["save", file] => {
                let bytes = save_tiered(&self.tib).map_err(|e| e.to_string())?;
                std::fs::write(file, bytes).map_err(|e| e.to_string())?;
                Ok(format!("saved {} records to {file}", self.tib.len()))
            }
            ["load", file] => {
                let bytes = std::fs::read(file).map_err(|e| e.to_string())?;
                let records = load_tiered(&bytes)
                    .map_err(|e| format!("{e:?}"))?
                    .records_vec();
                // Rebuild through the single insert path so registered
                // watches observe every record (incremental contract).
                self.tib = TieredTib::new();
                let n = records.len();
                for rec in records {
                    self.insert(rec);
                }
                Ok(format!("loaded {n} records from {file}"))
            }
            ["diffsnap", fa, fb] => {
                let a = std::fs::read(fa).map_err(|e| e.to_string())?;
                let b = std::fs::read(fb).map_err(|e| e.to_string())?;
                let d = diff_snapshots(&a, &b).map_err(|e| format!("{e:?}"))?;
                Ok(show_diff(&d))
            }
            ["watch", rest @ ..] => self.watch(rest),
            ["unwatch", id] => {
                let id = pathdump_core::standing::WatchId(parse_num(id, "id")?);
                if self.eng.unwatch(id) {
                    Ok(format!("watch {} removed", id.0))
                } else {
                    Err(format!("no watch {}", id.0))
                }
            }
            ["alarms"] => {
                let evs = self.eng.drain_events();
                if evs.is_empty() {
                    return Ok("no standing events".into());
                }
                Ok(evs
                    .iter()
                    .map(|e| {
                        format!(
                            "{} watch={} flow={} at={:?}",
                            if e.raised { "RAISE" } else { "CLEAR" },
                            e.watch.0,
                            e.alarm.flow,
                            e.alarm.at
                        )
                    })
                    .collect::<Vec<_>>()
                    .join("\n"))
            }
            _ => Err(format!("unknown command `{}` (try help)", toks.join(" "))),
        }
    }
}

fn main() {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut cli = Cli::new();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        if matches!(toks[0], "quit" | "exit") {
            break;
        }
        let reply = match cli.exec(&toks) {
            Ok(s) => s,
            Err(e) => format!("error: {e}"),
        };
        if writeln!(out, "{reply}").is_err() {
            break;
        }
    }
}
