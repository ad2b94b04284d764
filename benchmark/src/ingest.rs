//! `ingest_steady`: the host pipeline of ROADMAP item 1 in steady state.
//!
//! Tagged frames → `DataPath` (strip, classify) → `HostAgent::on_packet`
//! (trajectory memory, FIN eviction, decode, `TieredTib` insert with a
//! `FileWal`, auto-seal, cold eviction), one 512-packet window at a time.
//!
//! The agent is `HostAgent`, not `ShardedAgent` with one worker: the two
//! store the same records (the repository's `sharded_equivalence` suite),
//! but `ShardedAgent::ingest` hands every window to a freshly spawned
//! thread, and on a 2-vCPU virtual machine that hand-off costs anything
//! from 5 % to 40 % of the window depending on how busy the host is —
//! minutes-long swings that no estimator inside an 18 s run can remove.
//! A single-threaded closed loop has to be single-threaded.
//!
//! # The stream
//!
//! One destination host of a k = 8 fat-tree receives from `LIVE` flow
//! slots. A slot sends one packet per `LIVE` packets and runs its flows
//! back to back: a finished flow (FIN) is replaced at once, so exactly
//! `LIVE` flows are live at any time. Flow lengths are 8 / 32 / 128
//! packets at 80 / 15 / 5 % of flows; a tenth of the flows is sprayed per
//! packet over its equal-cost paths. Every slot's timeline is a circle of
//! `SLOT_LEN` packets entered at a seeded phase, so the `LIVE × SLOT_LEN`
//! packet cycle can be replayed end to end for any length of time without
//! a seam: FINs, seals and evictions arrive at a steady rate. The *counts*
//! of flows per length class are fixed; the seed decides which slot gets
//! what, the order, the phases, the sources, the ports and the paths.

use crate::harness::{median, Measured, Rng, RoundResult, Tracer, Workload};
use crate::metrics::Metrics;
use pathdump_cherrypick::{tags_for_walk, FatTreeCherryPick, FatTreeReconstructor};
use pathdump_core::{AgentConfig, Fabric, HostAgent};
use pathdump_dpswitch::{build_frame, DataPath, FrameBatch, Mode};
use pathdump_simnet::{Packet, TagHeaders, TcpFlags};
use pathdump_tib::{
    save_tiered, FileWal, MemKey, PendingRecord, TibRead, TibRecord, TieredTib, TrajectoryMemory,
    WalStore,
};
use pathdump_topology::{
    FatTree, FatTreeParams, FlowId, HostId, LinkPattern, Nanos, TimeRange, UpDownRouting,
};
use std::path::{Path as FsPath, PathBuf};
use std::time::Instant;

/// Packets per `ingest` call (the NIC-ring poll batch).
const WINDOW: usize = 512;
/// Packets of one slot per cycle.
const SLOT_LEN: usize = 128;
/// Virtual arrival spacing: 500 k packets/s at the host.
const STEP_NS: u64 = 2_000;
const T0_NS: u64 = 1_000_000_000;
const DST_MAC: [u8; 6] = [0x02, 0, 0, 0, 0, 0x01];
const FRAME_OVERHEAD: usize = 14 + 20 + 20;
/// Sealed segments kept in memory; older ones go to disk.
const KEEP_HOT: usize = 2;

struct Shape {
    /// Concurrently live flows.
    live: usize,
    /// Head records per sealed segment.
    seal_after: usize,
    /// A round ends with the window in which the store seals, so that
    /// every round carries exactly one seal and one cold eviction; this
    /// many windows end it regardless (twice what a seal takes here).
    max_windows_per_round: usize,
}

/// Cycles the isolation phases replay.
const ISOLATE_CYCLES: usize = 3;

const FULL: Shape = Shape {
    live: 4096,
    seal_after: 50_000,
    max_windows_per_round: 2048,
};

const QUICK: Shape = Shape {
    live: 64,
    seal_after: 400,
    max_windows_per_round: 32,
};

/// One packet of the cycle as the reference ledger sees it.
#[derive(Clone, Copy)]
struct KeyEvent {
    flow: u32,
    path: u8,
    fin: bool,
    wire_bytes: u32,
}

pub struct Ingest {
    shape: Shape,
    fabric: Fabric,
    dst: HostId,
    dp: DataPath,
    agent: HostAgent,
    rings: Vec<FrameBatch>,
    windows: Vec<Vec<(Packet, Nanos)>>,
    events: Vec<KeyEvent>,
    flows: usize,
    dir: PathBuf,
    /// Next window of the cycle.
    cursor: usize,
    /// Windows ingested so far: the virtual clock and the ledger's length.
    windows_done: u64,
    sealed_seen: usize,
    /// Cold-segment files written so far, and their bytes.
    cold_seen: usize,
    cold_bytes: u64,
    /// `(WAL bytes, records)` at `mark_bytes`.
    bytes_mark: (u64, usize),
}

/// The flow lengths of every slot: exact class counts, seeded placement.
fn slot_flows(live: usize, rng: &mut Rng) -> Vec<Vec<usize>> {
    // 5 % of flows at 128 packets fill 4/11 of the slots; the rest hold
    // 12/11 × live flows of 32 packets and are topped up with 8s.
    let whole = live * 4 / 11;
    let mixed = live - whole;
    let thirty_twos = live * 12 / 11;
    let mut slots: Vec<Vec<usize>> = (0..live)
        .map(|s| {
            if s < whole {
                return vec![SLOT_LEN];
            }
            let i = s - whole;
            let a = thirty_twos / mixed + usize::from(i < thirty_twos % mixed);
            let mut flows = vec![32; a];
            flows.extend(std::iter::repeat_n(8, (SLOT_LEN - 32 * a) / 8));
            rng.shuffle(&mut flows);
            flows
        })
        .collect();
    rng.shuffle(&mut slots);
    slots
}

impl Ingest {
    pub fn new(seed: u64, quick: bool, dir: &FsPath) -> Self {
        let shape = if quick { QUICK } else { FULL };
        let ft = FatTree::build(FatTreeParams { k: 8 });
        let topo = ft.topology();
        let dst = ft.host(1, 0, 0);
        let policy = FatTreeCherryPick::new(ft.clone());
        let n_hosts = topo.num_hosts() as u32;

        // Per source host: its equal-cost paths as the headers they leave.
        let headers: Vec<Vec<TagHeaders>> = (0..n_hosts)
            .map(|h| {
                ft.all_paths(HostId(h), dst)
                    .iter()
                    .map(|p| tags_for_walk(&policy, &ft, &p.0))
                    .collect()
            })
            .collect();

        struct FlowGen {
            id: FlowId,
            src: u32,
            /// The flow's path, or the first of the round it is sprayed over.
            first_path: u8,
            sprayed: bool,
        }
        let mut rng = Rng::fork(seed, 2);
        let slots = slot_flows(shape.live, &mut rng);
        let lens: Vec<usize> = slots.iter().flatten().copied().collect();
        let n_flows = lens.len();
        // Exactly a tenth of each length class is sprayed, and sources go
        // round the hosts within each (length, sprayed) group, so records
        // per packet and bytes per record do not depend on the seed.
        let mut sources: Vec<u32> = (0..n_hosts).filter(|&h| h != dst.0).collect();
        rng.shuffle(&mut sources);
        let port0 = rng.below(60_000);
        let mut flows: Vec<Option<FlowGen>> = (0..n_flows).map(|_| None).collect();
        let mut next_src = 0;
        for class in [8, 32, SLOT_LEN] {
            let mut members: Vec<usize> = (0..n_flows).filter(|&i| lens[i] == class).collect();
            rng.shuffle(&mut members);
            let n_sprayed = members.len() / 10;
            for (rank, &i) in members.iter().enumerate() {
                if rank == 0 || rank == n_sprayed {
                    next_src = 0;
                }
                let src = sources[next_src % sources.len()];
                next_src += 1;
                let n_paths = headers[src as usize].len() as u64;
                flows[i] = Some(FlowGen {
                    id: FlowId::tcp(
                        topo.host(HostId(src)).ip,
                        1024 + ((port0 + i as u64) % 60_000) as u16,
                        topo.host(dst).ip,
                        80,
                    ),
                    src,
                    first_path: rng.below(n_paths) as u8,
                    sprayed: rank < n_sprayed,
                });
            }
        }
        let flows: Vec<FlowGen> = flows
            .into_iter()
            .map(|f| f.expect("every flow has a class"))
            .collect();

        // Each slot's timeline: (flow, packet of the flow, is-last) per
        // position.
        let mut next_flow = 0u32;
        let timelines: Vec<Vec<(u32, usize, bool)>> = slots
            .iter()
            .map(|lens| {
                let mut t = Vec::with_capacity(SLOT_LEN);
                for &len in lens {
                    for q in 0..len {
                        t.push((next_flow, q, q + 1 == len));
                    }
                    next_flow += 1;
                }
                t
            })
            .collect();
        let phases: Vec<usize> = (0..shape.live)
            .map(|_| rng.below(SLOT_LEN as u64) as usize)
            .collect();

        let cycle = shape.live * SLOT_LEN;
        let mut frames: Vec<Vec<u8>> = Vec::with_capacity(cycle);
        let mut pkts: Vec<(Packet, Nanos)> = Vec::with_capacity(cycle);
        let mut events = Vec::with_capacity(cycle);
        let mut order: Vec<usize> = (0..shape.live).collect();
        for row in 0..SLOT_LEN {
            rng.shuffle(&mut order);
            for &s in &order {
                let (f, q, fin) = timelines[s][(row + phases[s]) % SLOT_LEN];
                let flow = &flows[f as usize];
                let paths = &headers[flow.src as usize];
                // Spraying goes round the equal-cost paths packet by packet.
                let path = if flow.sprayed {
                    ((flow.first_path as usize + q) % paths.len()) as u8
                } else {
                    flow.first_path
                };
                let h = &paths[path as usize];
                let payload = 64usize
                    .saturating_sub(FRAME_OVERHEAD + 4 * h.tags.len())
                    .max(6);
                // Frames carry the stack outermost first; headers hold it
                // in push order.
                let outer_first: Vec<u16> = h.tags.iter().rev().copied().collect();
                frames.push(build_frame(&flow.id, &outer_first, h.dscp, payload));
                let mut pkt =
                    Packet::data(pkts.len() as u64, flow.id, 0, payload as u32, Nanos::ZERO);
                pkt.headers = h.clone();
                if fin {
                    pkt.flags = TcpFlags::FIN;
                }
                events.push(KeyEvent {
                    flow: f,
                    path,
                    fin,
                    wire_bytes: pkt.wire_size(),
                });
                pkts.push((pkt, Nanos::ZERO));
            }
        }

        let mut dp = DataPath::new(Mode::PathDump);
        dp.learn(DST_MAC, 1);
        let mut agent = HostAgent::new(dst, AgentConfig::default());
        let wal = FileWal::create(&dir.join("host.wal")).expect("create WAL in the scratch dir");
        agent.tib.attach_wal(Box::new(wal));
        agent.tib.set_seal_after(Some(shape.seal_after));

        Ingest {
            fabric: Fabric::FatTree(FatTreeReconstructor::new(ft)),
            dst,
            dp,
            agent,
            rings: frames
                .chunks(WINDOW)
                .map(|c| FrameBatch::new(c.to_vec()))
                .collect(),
            windows: pkts.chunks(WINDOW).map(<[_]>::to_vec).collect(),
            events,
            flows: n_flows,
            dir: dir.to_path_buf(),
            cursor: 0,
            windows_done: 0,
            sealed_seen: 0,
            cold_seen: 0,
            cold_bytes: 0,
            bytes_mark: (0, 0),
            shape,
        }
    }

    fn window_time(windows_done: u64) -> u64 {
        T0_NS + windows_done * WINDOW as u64 * STEP_NS
    }

    /// Adds the cold-segment files written since the last call.
    fn count_cold_files(&mut self) {
        let cold = self.sealed_seen.saturating_sub(KEEP_HOT);
        for i in self.cold_seen..cold {
            self.cold_bytes += seg_file(&self.dir, i).metadata().map_or(0, |m| m.len());
        }
        self.cold_seen = cold;
    }

    /// What the store must hold once everything is flushed: records,
    /// bytes and packets, from the generator's ledger alone.
    fn ledger(&self) -> (u64, u64, u64) {
        let mut seen = vec![0u32; self.flows];
        let (mut records, mut bytes) = (0u64, 0u64);
        let total = self.windows_done as usize * WINDOW;
        for i in 0..total {
            let e = self.events[i % self.events.len()];
            seen[e.flow as usize] |= 1 << e.path;
            bytes += u64::from(e.wire_bytes);
            if e.fin {
                records += u64::from(seen[e.flow as usize].count_ones());
                seen[e.flow as usize] = 0;
            }
        }
        records += seen.iter().map(|s| u64::from(s.count_ones())).sum::<u64>();
        (records, bytes, total as u64)
    }
}

fn seg_file(dir: &FsPath, i: usize) -> PathBuf {
    dir.join(format!("seg-{i:06}.tibseg"))
}

impl Workload for Ingest {
    fn round(&mut self, tracer: &mut Tracer, unit_ms: &mut Vec<f64>) -> RoundResult {
        let mut windows = 0;
        let mut sealed_now = false;
        while !sealed_now && windows < self.shape.max_windows_per_round {
            windows += 1;
            let w = self.cursor;
            self.cursor = (self.cursor + 1) % self.windows.len();
            let now = Self::window_time(self.windows_done);
            for (j, (_, t)) in self.windows[w].iter_mut().enumerate() {
                *t = Nanos(now + j as u64 * STEP_NS);
            }
            self.dp.set_clock(Nanos(now));
            let op = self.windows_done;

            let t = Instant::now();
            let unit = tracer.begin("ingest.window", None, op);
            let s = tracer.begin("dpswitch.run_once", unit, op);
            self.rings[w].run_once(&mut self.dp);
            tracer.end(s);
            let s = tracer.begin("agent.ingest", unit, op);
            for (pkt, at) in &self.windows[w] {
                self.agent.on_packet(&self.fabric, pkt, *at);
            }
            tracer.end(s);
            let sealed = self.agent.tib.num_sealed();
            if sealed > self.sealed_seen {
                sealed_now = true;
                self.sealed_seen = sealed;
                let s = tracer.begin("store.evict_cold", unit, op);
                self.agent
                    .tib
                    .evict_cold(KEEP_HOT, &self.dir)
                    .expect("evict cold segments to the scratch dir");
                tracer.end(s);
            }
            tracer.end(unit);
            unit_ms.push(t.elapsed().as_secs_f64() * 1e3);
            self.windows_done += 1;
        }
        self.count_cold_files();
        RoundResult {
            ops: (windows * WINDOW) as u64,
            // Packets are not answered one by one; `verify_end` checks the
            // store against the ledger.
            failed: 0,
        }
    }

    fn mark_bytes(&mut self) {
        self.bytes_mark = (self.agent.tib.wal_len(), self.agent.tib.len());
    }

    /// WAL bytes as counted, plus every new record's share of a segment
    /// file at the bytes per record of the files written so far. Files are
    /// written two seals late and 50 000 records at a time; charging each
    /// record its share when it is stored keeps the figure independent of
    /// where in that cycle a run of a given number of seconds happens to end.
    fn bytes_since_mark(&self) -> f64 {
        let tib = &self.agent.tib;
        let (wal0, records0) = self.bytes_mark;
        let file_bytes_per_record = if self.cold_seen == 0 {
            0.0
        } else {
            self.cold_bytes as f64 / (self.cold_seen * self.shape.seal_after) as f64
        };
        (tib.wal_len() - wal0) as f64 + (tib.len() - records0) as f64 * file_bytes_per_record
    }

    fn verify_end(&mut self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut check = |ok: bool, what: String| {
            if !ok {
                problems.push(what);
            }
        };
        let end = Nanos(Self::window_time(self.windows_done));
        self.agent.flush(&self.fabric, end);
        let (records, bytes, pkts) = self.ledger();
        let tib = &self.agent.tib;
        let (got_bytes, got_pkts) = tib
            .link_flow_counts(LinkPattern::ANY, TimeRange::ANY)
            .values()
            .fold((0u64, 0u64), |(b, p), v| (b + v.0, p + v.1));
        check(
            tib.len() as u64 == records,
            format!(
                "store holds {} records, the ledger says {records}",
                tib.len()
            ),
        );
        check(
            got_bytes == bytes,
            format!("store sums {got_bytes} bytes, the ledger says {bytes}"),
        );
        check(
            got_pkts == pkts,
            format!("store sums {got_pkts} packets, the ledger says {pkts}"),
        );
        check(
            self.dp.errors == 0 && self.dp.packets == pkts,
            format!(
                "datapath saw {} packets with {} errors, {pkts} were sent",
                self.dp.packets, self.dp.errors
            ),
        );
        check(
            self.agent.recon_failures == 0,
            format!("{} reconstruction failures", self.agent.recon_failures),
        );
        check(
            tib.wal_errors() == 0,
            format!("{} WAL append errors", tib.wal_errors()),
        );
        match tib.wal_bytes().map(|b| pathdump_tib::wal::replay(&b)) {
            Ok(Ok(r)) => check(
                r.records.len() == tib.len() && r.dropped_tail == 0,
                format!(
                    "WAL replays {} records (+{} torn bytes), the store holds {}",
                    r.records.len(),
                    r.dropped_tail,
                    tib.len()
                ),
            ),
            other => check(
                false,
                format!("WAL does not replay: {:?}", other.map(|r| r.map(|_| ()))),
            ),
        }
        // Every segment the rounds pushed out: a query may have reloaded
        // one, but its file stays.
        for i in 0..self.cold_seen {
            check(
                seg_file(&self.dir, i).is_file(),
                format!("cold segment file {i} is missing"),
            );
        }
        check(
            tib.read_failures() == 0,
            format!("{} segment read failures", tib.read_failures()),
        );
        problems
    }

    fn layer_metrics(
        &mut self,
        tracer: &Tracer,
        plain: &Measured,
        traced: &Measured,
        m: &mut Metrics,
    ) {
        let pkts = traced.ops as f64;
        let (dp_ns, _) = tracer.total_ns("dpswitch.run_once");
        let (ingest_ns, _) = tracer.total_ns("agent.ingest");
        let (evict_ns, evictions) = tracer.total_ns("store.evict_cold");
        let (window_ns, _) = tracer.total_ns("ingest.window");
        let window_self_ns = tracer.self_ns("ingest.window");

        let iso = self.isolate();

        let tib = &self.agent.tib;
        let total_pkts = (self.windows_done as usize * WINDOW) as f64;
        let (cache_hits, cache_misses) = self.agent.cache.stats();
        let (memo_misses, memo_hits) = self.agent.memo.stats();
        let share = |hit: u64, miss: u64| {
            if hit + miss == 0 {
                0.0
            } else {
                hit as f64 / (hit + miss) as f64
            }
        };
        let records_per_pkt = tib.len() as f64 / total_pkts;
        let fins_per_pkt = iso.fins as f64 / iso.pkts as f64;

        m.set("dpswitch.batch_ns_per_pkt", dp_ns as f64 / pkts);
        m.set("dpswitch.span_share", dp_ns as f64 / window_ns as f64);
        m.set("memory.update_ns_per_pkt", iso.update_ns_per_pkt);
        m.set("memory.evict_flow_us_per_fin", iso.evict_us_per_fin);
        m.set("memory.live_records", self.agent.memory.len() as f64);
        m.set("cherrypick.reconstruct_ns_per_record", iso.reconstruct_ns);
        m.set(
            "cherrypick.cache_hit_share",
            share(cache_hits, cache_misses),
        );
        m.set("cherrypick.memo_hit_share", share(memo_hits, memo_misses));
        m.set("agent.ingest_ns_per_pkt", ingest_ns as f64 / pkts);
        m.set("agent.records_per_pkt", records_per_pkt);
        m.set("agent.recon_failures", self.agent.recon_failures as f64);
        m.set("store.insert_ns_per_record", iso.insert_ns);
        m.set("store.seal_ms_per_segment", iso.seal_ms);
        m.set("store.evict_cold_ms_per_segment", iso.evict_cold_ms);
        m.set(
            "store.segment_bytes_per_record",
            iso.segment_bytes_per_record,
        );
        m.set("store.resident_mb", tib.approx_bytes() as f64 / 1e6);
        m.set("wal.append_ns_per_record", iso.wal_append_ns);
        m.set("wal.bytes_per_record", iso.wal_bytes_per_record);
        m.set("wal.errors", tib.wal_errors() as f64);
        m.set("wal.recover_ms_per_100k", iso.recover_ms_per_100k);

        // The agent's ingest span against the isolates of what it calls.
        let rows: Vec<(&str, f64)> = vec![
            ("dpswitch.run_once (span)", dp_ns as f64 / pkts),
            ("memory update (isolate)", iso.update_ns_per_pkt),
            (
                "memory evict_flow (isolate)",
                iso.evict_us_per_fin * 1e3 * fins_per_pkt,
            ),
            (
                "cherrypick reconstruct (isolate)",
                iso.reconstruct_ns * records_per_pkt,
            ),
            (
                "store insert, no WAL (isolate)",
                iso.insert_ns * records_per_pkt,
            ),
            ("wal append (isolate)", iso.wal_append_ns * records_per_pkt),
            (
                "store seal (isolate, amortised)",
                iso.seal_ms * 1e6 * records_per_pkt / self.shape.seal_after as f64,
            ),
            ("store.evict_cold (span)", evict_ns as f64 / pkts),
        ];
        let inside_agent: f64 = rows[1..7].iter().map(|r| r.1).sum();
        let agent_residual = ingest_ns as f64 / pkts - inside_agent;
        m.set("agent.residual_ns_per_pkt", agent_residual);
        let end_to_end = window_ns as f64 / pkts;
        let sum: f64 = rows.iter().map(|r| r.1).sum();
        println!("budget ingest_steady (ns/packet)");
        for (name, v) in &rows {
            println!("  {name:<36}{v:>10.1}");
        }
        println!("  {:<36}{:>10.1}", "sum of rows", sum);
        println!(
            "  {:<36}{:>10.1}",
            "agent.ingest span - agent's isolates", agent_residual
        );
        println!(
            "  {:<36}{:>10.1}",
            "benchmark loop (window self time)",
            window_self_ns as f64 / pkts
        );
        println!("  {:<36}{:>10.1}", "end to end, traced windows", end_to_end);
        println!(
            "  {:<36}{:>10.1}",
            "residual (end to end - sum of rows)",
            end_to_end - sum
        );
        println!(
            "  {:<36}{:>10.1}",
            "end to end, untraced rounds",
            1e9 / median(&plain.round_rates)
        );
        println!(
            "  ({evictions} evict_cold calls in the traced rounds; agent.ingest span {:.1} ns/packet)",
            ingest_ns as f64 / pkts
        );
        m.set("budget.rows_over_end_to_end", sum / end_to_end);

        self.range_queries(m);
    }
}

/// Results of the isolation phases.
struct Isolates {
    pkts: u64,
    fins: u64,
    update_ns_per_pkt: f64,
    evict_us_per_fin: f64,
    reconstruct_ns: f64,
    insert_ns: f64,
    seal_ms: f64,
    evict_cold_ms: f64,
    segment_bytes_per_record: f64,
    wal_append_ns: f64,
    wal_bytes_per_record: f64,
    recover_ms_per_100k: f64,
}

impl Ingest {
    /// Replays the same stream through one layer's public function at a
    /// time: trajectory memory, decode, store insert, seal, cold eviction,
    /// WAL append and recovery, each on its own fresh state.
    fn isolate(&self) -> Isolates {
        let dir = self.dir.join("isolate");
        std::fs::create_dir_all(&dir).expect("create the isolation dir");
        let cfg = AgentConfig::default();

        // Trajectory memory: update per packet, evict_flow per FIN.
        let mut mem = TrajectoryMemory::new(cfg.idle_timeout);
        let mut key = MemKey {
            flow: self.windows[0][0].0.flow,
            dscp_sample: None,
            tags: Vec::with_capacity(4),
        };
        let mut pending: Vec<PendingRecord> = Vec::new();
        let (mut pkts, mut fins) = (0u64, 0u64);
        let mut evict_ns = 0u128;
        let t_all = Instant::now();
        for _ in 0..ISOLATE_CYCLES {
            for window in &self.windows {
                for (pkt, _) in window {
                    let now = Nanos(T0_NS + pkts * STEP_NS);
                    key.flow = pkt.flow;
                    key.dscp_sample = pkt.headers.dscp_sample();
                    key.tags.clear();
                    key.tags.extend_from_slice(&pkt.headers.tags);
                    mem.update_borrowed(&key, pkt.wire_size(), now);
                    pkts += 1;
                    if pkt.flags.contains(TcpFlags::FIN) {
                        let t = Instant::now();
                        let batch = mem.evict_flow(&pkt.flow, now);
                        evict_ns += t.elapsed().as_nanos();
                        fins += 1;
                        pending.extend(batch);
                    }
                }
            }
        }
        let all_ns = t_all.elapsed().as_nanos();

        // Decode, uncached: every evicted record through Fabric::reconstruct.
        let topo = self.fabric.topology();
        let t = Instant::now();
        let records: Vec<TibRecord> = pending
            .iter()
            .map(|rec| {
                let src = topo.host_by_ip(rec.flow.src_ip).expect("generated source");
                let path = self
                    .fabric
                    .reconstruct(src, self.dst, rec.dscp_sample, &rec.tags)
                    .expect("generated trajectory decodes");
                TibRecord {
                    flow: rec.flow,
                    path,
                    stime: rec.stime,
                    etime: rec.etime,
                    bytes: rec.bytes,
                    pkts: rec.pkts,
                }
            })
            .collect();
        let reconstruct_ns = t.elapsed().as_nanos() as f64 / records.len() as f64;

        // Store without a WAL: insert, then seal and evict by hand so that
        // each is timed alone.
        let mut store = TieredTib::new();
        let (mut insert_ns, mut seal_ms, mut evict_ms) = (0u128, Vec::new(), Vec::new());
        let mut file_bytes = 0u64;
        for chunk in records.chunks(self.shape.seal_after) {
            let copy = chunk.to_vec();
            let t = Instant::now();
            for rec in copy {
                store.insert(rec);
            }
            insert_ns += t.elapsed().as_nanos();
            if chunk.len() < self.shape.seal_after {
                break;
            }
            let t = Instant::now();
            store.seal();
            seal_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            store
                .evict_cold(0, &dir)
                .expect("evict in the isolation dir");
            evict_ms.push(t.elapsed().as_secs_f64() * 1e3);
            file_bytes += seg_file(&dir, store.num_sealed() - 1)
                .metadata()
                .map_or(0, |m| m.len());
        }
        let sealed_records = (seal_ms.len() * self.shape.seal_after) as f64;

        // WAL alone: frame and append every record, then recover from it.
        let mut wal = FileWal::create(&dir.join("isolate.wal")).expect("create the isolation WAL");
        let t = Instant::now();
        for rec in &records {
            wal.append(&pathdump_tib::wal::frame_record(rec))
                .expect("append to the isolation WAL");
        }
        let wal_append_ns = t.elapsed().as_nanos() as f64 / records.len() as f64;
        let log = wal.bytes().expect("read the isolation WAL back");
        let empty = save_tiered(&TieredTib::new()).expect("snapshot of an empty store");
        let t = Instant::now();
        let (recovered, report) = TieredTib::recover(&empty, &log).expect("WAL recovers");
        let recover_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            (recovered.len(), report.wal_records, report.dropped_tail),
            (records.len(), records.len(), 0),
            "recovery must replay every appended record"
        );

        Isolates {
            pkts,
            fins,
            update_ns_per_pkt: (all_ns - evict_ns) as f64 / pkts as f64,
            evict_us_per_fin: evict_ns as f64 / 1e3 / fins as f64,
            reconstruct_ns,
            insert_ns: insert_ns as f64 / records.len() as f64,
            seal_ms: if seal_ms.is_empty() {
                0.0
            } else {
                median(&seal_ms)
            },
            evict_cold_ms: if evict_ms.is_empty() {
                0.0
            } else {
                median(&evict_ms)
            },
            segment_bytes_per_record: if sealed_records > 0.0 {
                file_bytes as f64 / sealed_records
            } else {
                0.0
            },
            wal_append_ns,
            wal_bytes_per_record: wal.len() as f64 / records.len() as f64,
            recover_ms_per_100k: recover_ms * 100_000.0 / records.len() as f64,
        }
    }

    /// 32 fixed ranged queries on the store the traced run left behind:
    /// 16 over the newest records (head and hot segments) and 16 that each
    /// land on a segment evicted to disk.
    fn range_queries(&mut self, m: &mut Metrics) {
        let end = Self::window_time(self.windows_done);
        let span = end - T0_NS;
        let reloads0 = self.agent.tib.cold_reloads();
        let slice = span / 64;
        let mut hot = Vec::new();
        let mut cold = Vec::new();
        for q in 0..16u64 {
            // Hot: slices of the last sixteenth of the run.
            let lo = end - span / 16 + (q % 4) * (span / 64);
            let range = TimeRange::between(Nanos(lo), Nanos(lo + slice));
            let t = Instant::now();
            std::hint::black_box(self.agent.tib.top_k_flows(10, range));
            hot.push(t.elapsed().as_secs_f64() * 1e3);

            // Cold: push everything but the newest segments back to disk
            // (untimed), then ask about the run's first sixteenth.
            self.agent
                .tib
                .evict_cold(KEEP_HOT, &self.dir)
                .expect("re-evict cold segments");
            let lo = T0_NS + (q % 4) * (span / 64);
            let range = TimeRange::between(Nanos(lo), Nanos(lo + slice));
            let t = Instant::now();
            std::hint::black_box(self.agent.tib.top_k_flows(10, range));
            cold.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let tib = &self.agent.tib;
        m.set("store.hot_range_query_ms_p50", median(&hot));
        m.set("store.cold_range_query_ms_p50", median(&cold));
        m.set("store.cold_reloads", (tib.cold_reloads() - reloads0) as f64);
        m.set("store.read_failures", tib.read_failures() as f64);
        println!(
            "range queries: hot p50 {:.3} ms, cold p50 {:.3} ms, {} cold reloads, {} cold segments of {}",
            median(&hot),
            median(&cold),
            tib.cold_reloads() - reloads0,
            tib.num_cold(),
            tib.num_sealed()
        );
    }
}
