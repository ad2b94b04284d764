//! Differential proof that the sharded engine is bit-identical to the
//! sequential reference: for arbitrary seeds, fault injections, load-
//! balance policies, tagging (controller punts + re-injection), and
//! traffic matrices with world feedback (echo replies), both engines must
//! produce the same [`SimStats`] (per-port counters, drop records, punts)
//! and the same per-packet trajectories (delivery order, uid, ground-truth
//! path, delivery time).
//!
//! Topology sizes: k = 4, 6, 8 fat-trees (5, 7, 9 switch shards).
//!
//! Inputs are kept deliberately small: the vendored proptest stub does
//! not shrink failures.

mod common;

use common::{run, Scenario};
use pathdump_simnet::EngineKind;
use proptest::prelude::*;

/// The sharded engine run in `steps` slices must observe exactly what one
/// coarse sequential run observes.
fn assert_equivalent(sc: &Scenario, steps: u8) -> Result<(), proptest::test_runner::TestCaseError> {
    let seq = run(sc, EngineKind::Sequential, 0);
    let sha = run(sc, EngineKind::Sharded, steps);
    prop_assert_eq!(
        &sha.delivered,
        &seq.delivered,
        "trajectories diverged: {:?}",
        sc
    );
    prop_assert_eq!(&sha.punts, &seq.punts, "punts diverged: {:?}", sc);
    prop_assert_eq!(
        &sha.rng_draws,
        &seq.rng_draws,
        "world rng draws diverged: {:?}",
        sc
    );
    prop_assert_eq!(&sha.timers, &seq.timers, "timers diverged: {:?}", sc);
    prop_assert_eq!(&sha.stats, &seq.stats, "stats diverged: {:?}", sc);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// k=4: densest coverage of fault/LB/tagging mixes.
    #[test]
    fn shard_equivalence_k4(
        seed in any::<u64>(),
        lb in 0u8..3,
        tagged in any::<bool>(),
        faults in proptest::collection::vec((0u8..4, 0u8..=255, 0u8..=255), 0..4),
        flows in proptest::collection::vec(
            ((0u8..=255, 0u8..=255, 0u8..=255), (0u8..=255, 0u8..=255, 0u8..=255), 0u8..=255),
            1..5,
        ),
    ) {
        let sc = Scenario { k: 4, seed, lb, tagged, faults, flows };
        assert_equivalent(&sc, 0)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(14))]

    /// k=6 and k=8, alternating: larger fabrics, more shards.
    #[test]
    fn shard_equivalence_k6_k8(
        seed in any::<u64>(),
        big in any::<bool>(),
        lb in 0u8..3,
        tagged in any::<bool>(),
        faults in proptest::collection::vec((0u8..4, 0u8..=255, 0u8..=255), 0..3),
        flows in proptest::collection::vec(
            ((0u8..=255, 0u8..=255, 0u8..=255), (0u8..=255, 0u8..=255, 0u8..=255), 0u8..=255),
            1..4,
        ),
    ) {
        let sc = Scenario {
            k: if big { 8 } else { 6 },
            seed,
            lb,
            tagged,
            faults,
            flows,
        };
        assert_equivalent(&sc, 0)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fine-grained stepping on the windowed rounds: many small
    /// `run_until` slices, each ending mid-window, must still be
    /// bit-identical to one sequential run.
    #[test]
    fn shard_equivalence_stepping(
        seed in any::<u64>(),
        lb in 0u8..3,
        tagged in any::<bool>(),
        steps in 5u8..12,
        faults in proptest::collection::vec((0u8..4, 0u8..=255, 0u8..=255), 0..3),
        flows in proptest::collection::vec(
            ((0u8..=255, 0u8..=255, 0u8..=255), (0u8..=255, 0u8..=255, 0u8..=255), 0u8..=255),
            1..4,
        ),
    ) {
        let sc = Scenario { k: 4, seed, lb, tagged, faults, flows };
        assert_equivalent(&sc, steps)?;
    }
}
