//! `strip_64`: the end-host datapath on the smallest packets (Fig 13).
//!
//! 4 096 flows of 64-byte-class frames, half with one VLAN tag and half
//! with two, sit in sixteen 256-frame rings and go through `DataPath` in
//! PathDump mode again and again. Nothing is decoded, stored or sent: the
//! whole cost is parse + trajectory-memory update + strip + classify, which
//! is where per-packet cost is undiluted.

use crate::harness::{median, Measured, Rng, RoundResult, Tracer, Workload};
use crate::metrics::Metrics;
use pathdump_dpswitch::{build_frame, parse_into, Action, DataPath, FrameBatch, Mode, Parsed};
use pathdump_tib::TrajectoryMemory;
use pathdump_topology::{FlowId, Ip, Nanos};
use std::hint::black_box;
use std::time::Instant;

const FLOWS: usize = 4096;
const RING: usize = 256;
/// Passes over all rings in one timed unit (65 536 frames, a few ms).
const PASSES_PER_UNIT: usize = 16;
const DST_MAC: [u8; 6] = [0x02, 0, 0, 0, 0, 0x01];
const OUT_PORT: u16 = 7;
const FRAME_OVERHEAD: usize = 14 + 20 + 20;

pub struct Strip {
    dp: DataPath,
    rings: Vec<FrameBatch>,
    /// The frames as generated, for the isolation phases.
    frames: Vec<Vec<u8>>,
    /// VLAN tags on each frame, ring by ring: what the strip must remove.
    tags: Vec<usize>,
    units_per_round: usize,
    next_op: u64,
    bytes_mark: u64,
}

fn frames(seed: u64) -> (Vec<Vec<u8>>, Vec<usize>) {
    let mut rng = Rng::fork(seed, 1);
    // Exactly half the flows carry one tag and half two, in seeded order,
    // so bytes per packet do not depend on the seed.
    let mut tag_counts: Vec<usize> = (0..FLOWS).map(|i| 1 + i % 2).collect();
    rng.shuffle(&mut tag_counts);
    let base_ip = 0x0A00_0002 + (rng.below(1 << 16) as u32) * 8192;
    let frames = tag_counts
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let flow = FlowId::tcp(
                Ip(base_ip + i as u32),
                1024 + rng.below(60_000) as u16,
                Ip(0x0A63_0002),
                80,
            );
            let tags: Vec<u16> = (0..n).map(|_| rng.below(4096) as u16).collect();
            let payload = 64usize.saturating_sub(FRAME_OVERHEAD + 4 * n).max(6);
            build_frame(&flow, &tags, 0, payload)
        })
        .collect();
    (frames, tag_counts)
}

fn rings(frames: &[Vec<u8>]) -> Vec<FrameBatch> {
    frames
        .chunks(RING)
        .map(|c| FrameBatch::new(c.to_vec()))
        .collect()
}

impl Strip {
    pub fn new(seed: u64, quick: bool) -> Self {
        let (frames, tags) = frames(seed);
        let mut dp = DataPath::new(Mode::PathDump);
        dp.learn(DST_MAC, OUT_PORT);
        Strip {
            dp,
            rings: rings(&frames),
            frames,
            tags,
            units_per_round: if quick { 2 } else { 128 },
            next_op: 0,
            bytes_mark: 0,
        }
    }

    /// Checks the verdicts of each ring's most recent pass.
    fn bad_verdicts(&self) -> u64 {
        let mut bad = 0;
        for (r, ring) in self.rings.iter().enumerate() {
            for (i, v) in ring.verdicts().iter().enumerate() {
                let tags = self.tags[r * RING + i];
                let len = self.frames[r * RING + i].len();
                let ok = v.action == Action::Forward(OUT_PORT)
                    && v.offset == 4 * tags
                    && v.len == len - 4 * tags;
                bad += u64::from(!ok);
            }
        }
        bad
    }

    /// ns per packet of `f` over the generated frames, as the median of
    /// `reps` timed sweeps of `sweeps` passes each.
    fn sweep_ns_per_pkt(&self, reps: usize, sweeps: usize, mut f: impl FnMut(&[Vec<u8>])) -> f64 {
        let per: Vec<f64> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..sweeps {
                    f(&self.frames);
                }
                t.elapsed().as_nanos() as f64 / (sweeps * self.frames.len()) as f64
            })
            .collect();
        median(&per)
    }
}

impl Workload for Strip {
    fn round(&mut self, tracer: &mut Tracer, unit_ms: &mut Vec<f64>) -> RoundResult {
        let mut r = RoundResult { ops: 0, failed: 0 };
        for _ in 0..self.units_per_round {
            let op = self.next_op;
            self.next_op += 1;
            let mut forwarded = 0;
            let t = Instant::now();
            let unit = tracer.begin("strip.unit", None, op);
            for _ in 0..PASSES_PER_UNIT {
                for ring in &mut self.rings {
                    let s = tracer.begin("dpswitch.run_once", unit, op);
                    forwarded += ring.run_once(&mut self.dp);
                    tracer.end(s);
                }
            }
            tracer.end(unit);
            unit_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let pkts = (PASSES_PER_UNIT * FLOWS) as u64;
            r.ops += pkts;
            // Dropped frames of any pass, plus wrong verdicts of the last.
            r.failed += (pkts - forwarded as u64) + self.bad_verdicts();
        }
        r
    }

    fn mark_bytes(&mut self) {
        self.bytes_mark = self.dp.bytes;
    }

    /// The bytes the datapath forwarded (`DataPath.bytes`).
    fn bytes_since_mark(&self) -> f64 {
        (self.dp.bytes - self.bytes_mark) as f64
    }

    fn verify_end(&mut self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.dp.errors != 0 {
            problems.push(format!("datapath counted {} parse errors", self.dp.errors));
        }
        if self.dp.memory.len() != FLOWS {
            problems.push(format!(
                "trajectory memory holds {} records, the generator made {FLOWS}",
                self.dp.memory.len()
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
        let (reps, sweeps) = if self.units_per_round < 128 {
            (3, 4)
        } else {
            (9, 256)
        };
        let mut parsed = Parsed::scratch();
        let parse = self.sweep_ns_per_pkt(reps, sweeps, |frames| {
            for f in frames {
                black_box(parse_into(black_box(f), &mut parsed)).ok();
            }
        });

        let mut vanilla = DataPath::new(Mode::Vanilla);
        vanilla.learn(DST_MAC, OUT_PORT);
        let mut vrings = rings(&self.frames);
        let vanilla_ns = self.sweep_ns_per_pkt(reps, sweeps, |_| {
            for ring in &mut vrings {
                black_box(ring.run_once(&mut vanilla));
            }
        });

        // The memory update alone, fed the parse products of each frame.
        let keys: Vec<(FlowId, Vec<u16>, u32)> = self
            .frames
            .iter()
            .map(|f| {
                parse_into(f, &mut parsed).expect("generated frame parses");
                (parsed.flow, parsed.tags.clone(), parsed.payload_len as u32)
            })
            .collect();
        let mut mem = TrajectoryMemory::default();
        let update = self.sweep_ns_per_pkt(reps, sweeps, |_| {
            for (flow, tags, len) in &keys {
                black_box(mem.update_wire(flow, None, tags, *len, Nanos::ZERO));
            }
        });

        let pathdump_ns = 1e9 / median(&plain.round_rates);
        let (span_ns, _) = tracer.total_ns("dpswitch.run_once");
        let (unit_ns, _) = tracer.total_ns("strip.unit");
        m.set("dpswitch.parse_ns_per_pkt", parse);
        m.set("dpswitch.vanilla_ns_per_pkt", vanilla_ns);
        m.set("dpswitch.pathdump_ns_per_pkt", pathdump_ns);
        m.set("dpswitch.pathdump_over_vanilla", pathdump_ns / vanilla_ns);
        m.set(
            "dpswitch.drop_share",
            (plain.failed + traced.failed) as f64 / (plain.ops + traced.ops) as f64,
        );
        m.set(
            "dpswitch.batch_ns_per_pkt",
            span_ns as f64 / traced.ops as f64,
        );
        m.set("dpswitch.span_share", span_ns as f64 / unit_ns as f64);
        m.set("memory.update_ns_per_pkt", update);
        m.set("memory.live_records", self.dp.memory.len() as f64);

        println!("budget strip_64 (ns/packet)");
        println!(
            "  {:<34}{:>10.2}",
            "dpswitch.run_once spans",
            span_ns as f64 / traced.ops as f64
        );
        println!("    {:<32}{:>10.2}", "of which parse (isolate)", parse);
        println!(
            "    {:<32}{:>10.2}",
            "of which memory update (isolate)", update
        );
        println!(
            "  {:<34}{:>10.2}",
            "benchmark loop (unit self time)",
            tracer.self_ns("strip.unit") as f64 / traced.ops as f64
        );
        println!(
            "  {:<34}{:>10.2}",
            "end to end, traced",
            unit_ns as f64 / traced.ops as f64
        );
        println!("  {:<34}{:>10.2}", "end to end, untraced", pathdump_ns);
        m.set(
            "budget.rows_over_end_to_end",
            span_ns as f64 / unit_ns as f64,
        );
    }
}
