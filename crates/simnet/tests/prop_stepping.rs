//! A harness may slice a run however it likes: for arbitrary seeds, fault
//! injections, load-balance policies, tagging (controller punts +
//! re-injection) and traffic matrices with world feedback (echo replies),
//! a run cut into n `run_until` steps — boundaries landing mid-flight, on
//! no event's timestamp — must produce the same [`SimStats`] (per-port
//! counters, drop records, punts), the same per-packet trajectories
//! (delivery order, uid, ground-truth path, delivery time) and the same
//! world callbacks as one coarse run.
//!
//! `golden.rs` pins *what* those results are; this suite pins that they do
//! not depend on where the harness looks.

mod common;

use common::{run, Scenario};
use proptest::prelude::*;

/// A run in `steps` slices must observe exactly what the coarse run does.
fn assert_stepping_invisible(
    sc: &Scenario,
    steps: u8,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let coarse = run(sc, 0);
    let sliced = run(sc, steps);
    prop_assert_eq!(
        &sliced.delivered,
        &coarse.delivered,
        "trajectories diverged: {:?}",
        sc
    );
    prop_assert_eq!(&sliced.punts, &coarse.punts, "punts diverged: {:?}", sc);
    prop_assert_eq!(
        &sliced.rng_draws,
        &coarse.rng_draws,
        "world rng draws diverged: {:?}",
        sc
    );
    prop_assert_eq!(&sliced.timers, &coarse.timers, "timers diverged: {:?}", sc);
    prop_assert_eq!(&sliced.stats, &coarse.stats, "stats diverged: {:?}", sc);
    // Every slice ends with the clock on its boundary.
    let end = coarse.boundaries.last().expect("coarse run steps twice").0;
    for (i, (now, _)) in sliced.boundaries.iter().enumerate() {
        prop_assert_eq!(now.0, end.0 * (i as u64 + 1) / steps as u64);
    }
    prop_assert_eq!(sliced.boundaries.last(), coarse.boundaries.last());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// k=4: densest coverage of fault/LB/tagging mixes.
    #[test]
    fn stepping_k4(
        seed in any::<u64>(),
        lb in 0u8..3,
        tagged in any::<bool>(),
        steps in 2u8..=12,
        faults in proptest::collection::vec((0u8..4, 0u8..=255, 0u8..=255), 0..4),
        flows in proptest::collection::vec(
            ((0u8..=255, 0u8..=255, 0u8..=255), (0u8..=255, 0u8..=255, 0u8..=255), 0u8..=255),
            1..5,
        ),
    ) {
        let sc = Scenario { k: 4, seed, lb, tagged, faults, flows };
        assert_stepping_invisible(&sc, steps)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(14))]

    /// k=6 and k=8, alternating: larger fabrics, longer paths.
    #[test]
    fn stepping_k6_k8(
        seed in any::<u64>(),
        big in any::<bool>(),
        lb in 0u8..3,
        tagged in any::<bool>(),
        steps in 2u8..=12,
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
        assert_stepping_invisible(&sc, steps)?;
    }
}
