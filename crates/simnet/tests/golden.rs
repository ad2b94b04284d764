//! The simulator's recorded oracle: one 64-bit FNV digest per scenario of
//! everything a harness can observe — every `SimStats` counter and the
//! drop log, delivery trajectories with times, punts, timer callbacks, the
//! world's RNG draws, and the clock and pending count at every `run_until`
//! return — for [`SCENARIOS`] scenarios drawn from [`GOLDEN_SEED`] over
//! the space in `common/mod.rs`.
//!
//! `tests/data/golden_digests.txt` was written by the two-engine simulator
//! this crate had before it was collapsed to one event loop (both engines
//! produced the same file), so a pass here is equality with that
//! simulator's results, not with this one's own history. Regenerate only
//! for a deliberate behaviour change, and say so:
//! `cargo test -p pathdump_simnet --test golden -- --ignored regenerate`.

mod common;

use common::{run, Observed, Scenario};
use pathdump_simnet::LinkCounters;
use pathdump_topology::FnvHasher;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/golden_digests.txt");
/// Key prefix of this suite's lines; the file also holds the `k8.` lines
/// of the facade's `tests/e2e_k8_scenarios.rs`.
const PREFIX: &str = "scenario.";
const GOLDEN_SEED: u64 = 0x601D_E20A_C1E5;
const SCENARIOS: usize = 600;

/// Draws the scenario list: explicit seed, not the proptest stub's
/// per-test-name stream, so the list cannot move when a test is renamed.
fn scenarios() -> Vec<(Scenario, u8)> {
    let mut rng = SmallRng::seed_from_u64(GOLDEN_SEED);
    let sel = |rng: &mut SmallRng| (rng.gen::<u8>(), rng.gen::<u8>(), rng.gen::<u8>());
    (0..SCENARIOS)
        .map(|_| {
            let k = [4, 4, 6, 8][rng.gen_range(0..4usize)];
            let sc = Scenario {
                k,
                seed: rng.gen(),
                lb: rng.gen_range(0..3u8),
                tagged: rng.gen(),
                faults: (0..rng.gen_range(0..4usize))
                    .map(|_| (rng.gen_range(0..4u8), rng.gen(), rng.gen()))
                    .collect(),
                flows: (0..rng.gen_range(1..5usize))
                    .map(|_| (sel(&mut rng), sel(&mut rng), rng.gen()))
                    .collect(),
            };
            // A third of the runs coarse, the rest in 2–12 slices.
            let steps = match rng.gen_range(0..3u8) {
                0 => 0,
                _ => rng.gen_range(2..=12u8),
            };
            (sc, steps)
        })
        .collect()
}

fn hash_link(h: &mut FnvHasher, c: &LinkCounters) {
    for v in [
        c.tx_pkts,
        c.tx_bytes,
        c.queue_drops,
        c.down_drops,
        c.silent_drops,
        c.blackhole_drops,
    ] {
        h.write_u64(v);
    }
}

/// Field by field, lengths included, so the digest pins values and not a
/// `Debug` rendering.
fn digest(o: &Observed) -> u64 {
    let mut h = FnvHasher::default();
    let s = &o.stats;
    for ports in &s.switch_ports {
        h.write_usize(ports.len());
        ports.iter().for_each(|c| hash_link(&mut h, c));
    }
    for c in &s.switches {
        for v in [c.rx_pkts, c.punts, c.ttl_drops, c.no_route_drops] {
            h.write_u64(v);
        }
    }
    s.host_nics.iter().for_each(|c| hash_link(&mut h, c));
    for v in [
        s.delivered_pkts,
        s.delivered_bytes,
        s.injected_pkts,
        s.events,
    ] {
        h.write_u64(v);
    }
    h.write_usize(s.drop_log.len());
    for d in &s.drop_log {
        (d.time, d.sw, d.port, d.reason as u8, d.flow, d.uid).hash(&mut h);
    }
    o.delivered.hash(&mut h);
    o.punts.hash(&mut h);
    o.rng_draws.hash(&mut h);
    o.timers.hash(&mut h);
    o.boundaries.hash(&mut h);
    h.finish()
}

fn key(i: usize) -> String {
    format!("{PREFIX}{i:03}")
}

/// `key digest` lines; `#` starts a comment.
fn read_golden() -> BTreeMap<String, u64> {
    let text = std::fs::read_to_string(GOLDEN_PATH).expect("golden file is committed");
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| {
            let (k, v) = l.split_once(' ').expect("`key digest`");
            (
                k.to_string(),
                u64::from_str_radix(v, 16).expect("hex digest"),
            )
        })
        .collect()
}

#[test]
fn results_match_golden() {
    let golden = read_golden();
    let cases = scenarios();
    assert_eq!(
        golden.keys().filter(|k| k.starts_with(PREFIX)).count(),
        cases.len(),
        "golden file and scenario list differ in length"
    );
    let wrong: Vec<String> = cases
        .iter()
        .enumerate()
        .filter(|(i, (sc, steps))| golden.get(&key(*i)) != Some(&digest(&run(sc, *steps))))
        .map(|(i, (sc, steps))| format!("{} steps={steps} {sc:?}", key(i)))
        .collect();
    assert!(
        wrong.is_empty(),
        "{} of {} scenarios differ from the recorded results, first: {}",
        wrong.len(),
        cases.len(),
        wrong[0]
    );
}

/// The scenario list must actually reach what the digest claims to pin.
#[test]
fn scenarios_cover_the_space() {
    let (mut delivered, mut punts, mut drops, mut sliced) = (0, 0, 0, 0);
    for (sc, steps) in &scenarios() {
        let o = run(sc, *steps);
        delivered += o.delivered.len();
        punts += o.punts.len();
        drops += o.stats.drop_log.len();
        sliced += usize::from(*steps >= 2);
        assert_eq!(o.timers.len(), 1, "the horizon timer fires: {sc:?}");
    }
    assert!(
        delivered > 10_000 && punts > 4_000 && drops > 200 && sliced > 300,
        "{delivered} deliveries, {punts} punts, {drops} drops, {sliced} sliced runs"
    );
}

/// Rewrites this suite's lines of the golden file, keeping every other
/// line (see the module docs for when that is legitimate).
#[test]
#[ignore = "rewrites tests/data/golden_digests.txt"]
fn regenerate() {
    let old = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_default();
    let mut out: String = old
        .lines()
        .filter(|l| !l.starts_with(PREFIX))
        .map(|l| format!("{l}\n"))
        .collect();
    for (i, (sc, steps)) in scenarios().iter().enumerate() {
        let d = digest(&run(sc, *steps));
        out.push_str(&format!("{} {d:016x}\n", key(i)));
    }
    std::fs::write(GOLDEN_PATH, out).expect("write golden file");
}
