//! `query_fsd` and `query_topk`: one controller asking every host over the
//! `rpc` aggregation tree (Fig 11 and Fig 12).
//!
//! Both read the same population: per host a flat `Tib` of real shortest
//! paths of a k = 8 fat-tree, heavy-tailed flow sizes and one hour of start
//! times. `query_fsd` asks 112 hosts for the flow-size distribution of the
//! traffic into one aggregation switch during ten minutes: answers are
//! small, so each host's index scan dominates. `query_topk` asks 28 hosts
//! for their 10 000 largest flows of all time: the store answers from its
//! running totals, so encode, decode, merge and the plane dominate. An
//! optimisation of one should leave the other unchanged.
//!
//! Traffic is in-process: `Loopback` models the management network's delay
//! in virtual time, which costs no wall time.

use crate::harness::{median, Measured, Rng, RoundResult, Tracer, Workload};
use crate::metrics::Metrics;
use pathdump_core::{build_tree, execute_on_tib, Query, Response, TreeNode};
use pathdump_rpc::{Channel, Loopback, RpcConfig, TreePlane};
use pathdump_tib::{Tib, TibRecord};
use pathdump_topology::{
    FatTree, FatTreeParams, FlowId, HostId, LinkPattern, Nanos, Path, TimeRange, UpDownRouting,
};
use pathdump_wire::{from_bytes, to_bytes};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fsd,
    TopK,
}

struct Shape {
    name: &'static str,
    hosts: usize,
    fanouts: &'static [usize],
    records_per_host: usize,
    queries_per_round: usize,
    top_k: u32,
}

fn shape(kind: Kind, quick: bool) -> Shape {
    match (kind, quick) {
        (Kind::Fsd, false) => Shape {
            name: "query_fsd",
            hosts: 112,
            fanouts: &[7, 4, 4],
            records_per_host: 24_000,
            // Two rotations over the queries: every round does the same
            // work.
            queries_per_round: 56,
            top_k: 0,
        },
        (Kind::TopK, false) => Shape {
            name: "query_topk",
            hosts: 28,
            fanouts: &[7, 4],
            records_per_host: 24_000,
            queries_per_round: 12,
            top_k: 10_000,
        },
        (Kind::Fsd, true) => Shape {
            name: "query_fsd",
            hosts: 16,
            fanouts: &[4, 3],
            records_per_host: 600,
            queries_per_round: 4,
            top_k: 0,
        },
        (Kind::TopK, true) => Shape {
            name: "query_topk",
            hosts: 8,
            fanouts: &[4, 2],
            records_per_host: 600,
            queries_per_round: 4,
            top_k: 100,
        },
    }
}

/// Replies each agent keeps for duplicate requests. `RpcConfig::default()`
/// keeps 1 024: with `query_topk`'s 10 000-entry replies that grows the
/// process by 6 MB per query for two minutes and 8 GB, so an 18 s run would
/// time the growth (fresh pages, rising system time) and never the steady
/// state. Eight is twice `max_queries_inflight`, which is all that
/// at-most-once execution needs, and is reached within the warm-up round.
const REPLY_CACHE_CAP: usize = 8;
const HOUR_NS: u64 = 3_600_000_000_000;
const TEN_MINUTES_NS: u64 = 600_000_000_000;

/// One host's TIB: `n` flows from seeded sources over seeded equal-cost
/// paths, 90 % mice and 10 % elephants.
fn host_tib(ft: &FatTree, host: HostId, n: usize, seed: u64) -> Tib {
    let topo = ft.topology();
    let mut rng = Rng::fork(seed, 0x1000 + u64::from(host.0));
    let n_hosts = topo.num_hosts() as u32;
    let paths: Vec<Vec<Path>> = (0..n_hosts)
        .map(|s| {
            if s == host.0 {
                Vec::new()
            } else {
                ft.all_paths(HostId(s), host)
            }
        })
        .collect();
    let mut tib = Tib::new();
    for i in 0..n {
        let src = (host.0 + 1 + rng.below(u64::from(n_hosts) - 1) as u32) % n_hosts;
        let choices = &paths[src as usize];
        let path = choices[rng.below(choices.len() as u64) as usize].clone();
        let bytes = if rng.below(10) < 9 {
            200 + rng.below(99_800)
        } else {
            100_000 + rng.below(29_900_000)
        };
        let stime = rng.below(HOUR_NS);
        let dur = 1_000_000 + rng.below(9_999_000_000);
        tib.insert(TibRecord {
            flow: FlowId::tcp(
                topo.host(HostId(src)).ip,
                1024 + (i % 60_000) as u16,
                topo.host(host).ip,
                80,
            ),
            path,
            stime: Nanos(stime),
            etime: Nanos(stime + dur),
            bytes,
            pkts: bytes / 1460 + 1,
        });
    }
    tib
}

/// Every query answered without the plane: per query the fold of all
/// hosts' answers, each host's own answer (if `keep_locals`), and the total
/// time inside `execute_on_tib`.
fn answer_alone(
    tibs: &[Tib],
    queries: &[Query],
    keep_locals: bool,
) -> (Vec<Response>, Vec<Vec<Response>>, u128) {
    let mut reference = Vec::new();
    let mut locals = Vec::new();
    let mut exec_ns = 0;
    for q in queries {
        let mut acc = Response::empty_for(q);
        let mut per_host = Vec::new();
        for tib in tibs {
            let t = Instant::now();
            let local = execute_on_tib(tib, q);
            exec_ns += t.elapsed().as_nanos();
            if keep_locals {
                per_host.push(local.clone());
            }
            acc.merge(local);
        }
        reference.push(acc);
        locals.push(per_host);
    }
    (reference, locals, exec_ns)
}

pub struct QueryLoad {
    shape: Shape,
    hosts: Vec<usize>,
    queries: Vec<Query>,
    /// What each query must answer: folded from `execute_on_tib` and
    /// `Response::merge` over the same hosts, without the plane.
    reference: Vec<Response>,
    /// Per query, every host's own answer (kept in traced runs only).
    locals: Vec<Vec<Response>>,
    /// Wall time of `execute_on_tib` per host and query, from set-up.
    exec_ms_per_host: f64,
    plane: TreePlane<Loopback>,
    next_query: usize,
    done: u64,
    virtual_elapsed_ns: u64,
    queued_wait_ns: u64,
    bytes_mark: u64,
}

impl QueryLoad {
    pub fn new(kind: Kind, seed: u64, quick: bool, keep_locals: bool) -> Self {
        let shape = shape(kind, quick);
        let ft = FatTree::build(FatTreeParams { k: 8 });
        let tibs: Vec<Tib> = (0..shape.hosts)
            .map(|h| host_tib(&ft, HostId(h as u32), shape.records_per_host, seed))
            .collect();

        let mut rng = Rng::fork(seed, 3);
        let queries: Vec<Query> = match kind {
            Kind::Fsd => {
                // One query per aggregation switch of the pods that hold
                // queried hosts, in seeded order with a seeded window: the
                // mix of near (in-pod) and far hosts, and of shallow and
                // deep tree positions, is the same whatever the seed.
                let hosts_per_pod = ft.half() * ft.half();
                let pods = shape.hosts.div_ceil(hosts_per_pod);
                let mut aggs: Vec<_> = (0..pods * ft.half())
                    .map(|i| ft.agg(i / ft.half(), i % ft.half()))
                    .collect();
                rng.shuffle(&mut aggs);
                aggs.into_iter()
                    .map(|agg| {
                        let start = rng.below(HOUR_NS - TEN_MINUTES_NS);
                        Query::FlowSizeDist {
                            link: LinkPattern::into(agg),
                            range: TimeRange::between(Nanos(start), Nanos(start + TEN_MINUTES_NS)),
                            bin_bytes: 10_000,
                        }
                    })
                    .collect()
            }
            Kind::TopK => vec![Query::TopK {
                k: shape.top_k,
                range: TimeRange::ANY,
            }],
        };

        // A traced run times the second pass, after the first has touched
        // every store once.
        if keep_locals {
            answer_alone(&tibs, &queries, false);
        }
        let (reference, locals, exec_ns) = answer_alone(&tibs, &queries, keep_locals);
        let exec_ms_per_host = exec_ns as f64 / 1e6 / (queries.len() * shape.hosts) as f64;

        QueryLoad {
            hosts: (0..shape.hosts).collect(),
            plane: TreePlane::new(
                Loopback::default(),
                RpcConfig {
                    reply_cache_cap: REPLY_CACHE_CAP,
                    ..RpcConfig::default()
                },
                tibs,
            ),
            shape,
            queries,
            reference,
            locals,
            exec_ms_per_host,
            next_query: 0,
            done: 0,
            virtual_elapsed_ns: 0,
            queued_wait_ns: 0,
            bytes_mark: 0,
        }
    }
}

impl Workload for QueryLoad {
    fn round(&mut self, tracer: &mut Tracer, unit_ms: &mut Vec<f64>) -> RoundResult {
        let mut r = RoundResult { ops: 0, failed: 0 };
        for _ in 0..self.shape.queries_per_round {
            let qi = self.next_query;
            self.next_query = (self.next_query + 1) % self.queries.len();
            let op = self.done;

            let t = Instant::now();
            let unit = tracer.begin("query", None, op);
            let s = tracer.begin("rpc.submit", unit, op);
            let id = self
                .plane
                .submit(&self.queries[qi], &self.hosts, self.shape.fanouts);
            tracer.end(s);
            let s = tracer.begin("rpc.run", unit, op);
            let outcome = self.plane.run(id);
            tracer.end(s);
            tracer.end(unit);
            unit_ms.push(t.elapsed().as_secs_f64() * 1e3);

            self.done += 1;
            r.ops += 1;
            let ok = outcome.is_some_and(|o| {
                self.virtual_elapsed_ns += o.elapsed.0;
                self.queued_wait_ns += o.queued_wait.0;
                o.response == self.reference[qi] && o.coverage.is_complete() && o.deadline_met
            });
            r.failed += u64::from(!ok);
        }
        r
    }

    fn mark_bytes(&mut self) {
        self.bytes_mark = self.plane.channel().bytes_sent();
    }

    /// Frame bytes handed to the channel (`Channel::bytes_sent`).
    fn bytes_since_mark(&self) -> f64 {
        (self.plane.channel().bytes_sent() - self.bytes_mark) as f64
    }

    fn verify_end(&mut self) -> Vec<String> {
        let s = self.plane.stats();
        let mut problems = Vec::new();
        if s.decode_failures + s.protocol_errors > 0 {
            problems.push(format!(
                "plane counted {} decode failures and {} protocol errors on a lossless channel",
                s.decode_failures, s.protocol_errors
            ));
        }
        problems
    }

    fn layer_metrics(
        &mut self,
        tracer: &Tracer,
        plain: &Measured,
        traced: &Measured,
        m: &mut Metrics,
    ) {
        let done = self.done as f64;
        let stats = self.plane.stats();
        let ch = self.plane.channel();
        m.set("rpc.frames_per_query", ch.frames_sent() as f64 / done);
        m.set("rpc.bytes_per_query", ch.bytes_sent() as f64 / done);
        m.set(
            "rpc.virtual_elapsed_ms",
            self.virtual_elapsed_ns as f64 / 1e6 / done,
        );
        m.set(
            "rpc.queued_wait_ms",
            self.queued_wait_ns as f64 / 1e6 / done,
        );
        m.set("rpc.retries_per_query", stats.retries as f64 / done);
        m.set("rpc.hedges_per_query", stats.hedges as f64 / done);
        m.set(
            "rpc.cache_replies_per_query",
            stats.cache_replies as f64 / done,
        );

        // Codec and merge alone: every host's answer travels its edge of
        // the same tree, outside the plane.
        let roots = build_tree(&self.hosts, self.shape.fanouts);
        let mut iso = TreeIsolates::default();
        for (qi, q) in self.queries.iter().enumerate() {
            let mut acc = Response::empty_for(q);
            for root in &roots {
                let reply = iso.fold(root, &self.locals[qi]);
                iso.hop(&mut acc, reply);
            }
            assert!(
                acc == self.reference[qi],
                "the isolation fold of query {qi} differs from the reference"
            );
        }
        let per_query = |ns: u128| ns as f64 / 1e6 / self.queries.len() as f64;
        let replies = iso.replies as f64;
        m.set("query.exec_ms_per_host", self.exec_ms_per_host);
        m.set(
            "query.merge_us_per_child",
            iso.merge_ns as f64 / 1e3 / replies,
        );
        m.set(
            "wire.encode_us_per_response",
            iso.encode_ns as f64 / 1e3 / replies,
        );
        m.set(
            "wire.decode_us_per_response",
            iso.decode_ns as f64 / 1e3 / replies,
        );
        m.set("wire.response_bytes", iso.bytes as f64 / replies);

        let (query_ns, n) = tracer.total_ns("query");
        let end_to_end = query_ns as f64 / 1e6 / n as f64;
        let rows = [
            (
                "query exec on every host (isolate)",
                self.exec_ms_per_host * self.shape.hosts as f64,
            ),
            (
                "wire encode of every reply (isolate)",
                per_query(iso.encode_ns),
            ),
            (
                "wire decode of every reply (isolate)",
                per_query(iso.decode_ns),
            ),
            (
                "Response::merge at every hop (isolate)",
                per_query(iso.merge_ns),
            ),
        ];
        let sum: f64 = rows.iter().map(|r| r.1).sum();
        m.set("rpc.residual_ms_per_query", end_to_end - sum);
        m.set("budget.rows_over_end_to_end", sum / end_to_end);
        println!("budget {} (ms/query)", self.shape.name);
        for (name, v) in &rows {
            println!("  {name:<40}{v:>10.3}");
        }
        println!("  {:<40}{:>10.3}", "sum of rows", sum);
        println!("  {:<40}{:>10.3}", "end to end, traced queries", end_to_end);
        println!(
            "  {:<40}{:>10.3}",
            "residual: plane (tree, framing, CRC, queue)",
            end_to_end - sum
        );
        println!(
            "  {:<40}{:>10.3}",
            "end to end, untraced rounds",
            1e3 / median(&plain.round_rates)
        );
        println!(
            "  (rpc.submit {:.3} ms, rpc.run {:.3} ms per traced query; {} traced queries)",
            tracer.total_ns("rpc.submit").0 as f64 / 1e6 / n as f64,
            tracer.total_ns("rpc.run").0 as f64 / 1e6 / n as f64,
            traced.ops
        );
    }
}

/// Time and bytes of moving every reply one hop up the tree.
#[derive(Default)]
struct TreeIsolates {
    encode_ns: u128,
    decode_ns: u128,
    merge_ns: u128,
    bytes: u64,
    replies: u64,
}

impl TreeIsolates {
    /// The reply of `node`: its own answer merged with its children's.
    fn fold(&mut self, node: &TreeNode, locals: &[Response]) -> Response {
        let mut acc = locals[node.host].clone();
        for child in &node.children {
            let reply = self.fold(child, locals);
            self.hop(&mut acc, reply);
        }
        acc
    }

    /// One reply crossing one edge: encoded by the child, decoded and
    /// merged by the parent.
    fn hop(&mut self, acc: &mut Response, reply: Response) {
        let t = Instant::now();
        let wire = to_bytes(&reply);
        self.encode_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        let back: Response = from_bytes(&wire).expect("an encoded response decodes");
        self.decode_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        acc.merge(back);
        self.merge_ns += t.elapsed().as_nanos();
        self.bytes += wire.len() as u64;
        self.replies += 1;
    }
}
