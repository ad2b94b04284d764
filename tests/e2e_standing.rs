//! End-to-end standing-query scenario: a rate-threshold watch registered
//! **mid-run** on the victim host of an incast burst must
//!
//! - stay silent on registration (empty TIB, nothing to raise),
//! - fire **exactly once** when the burst's records land (hysteresis: the
//!   remaining incast records re-confirm the predicate silently),
//! - clear exactly once after the burst drains — a later trickle record
//!   advances the event-time clock, sliding the window past the burst,
//! - and surface the raise (and only the raise) on the world alarm bus.

use pathdump_apps::Testbed;
use pathdump_core::standing::{StandingPredicate, StandingQuery};
use pathdump_core::{Reason, WorldConfig};
use pathdump_simnet::SimConfig;
use pathdump_topology::Nanos;

// The name predates the single simnet event loop (this is one run now);
// it stays because tooling outside the repository tracks tests by name.
#[test]
fn incast_rate_watch_fires_once_and_clears_on_both_engines() {
    let cfg = SimConfig::for_tests();
    let mut tb = Testbed::fattree(4, cfg, WorldConfig::default());
    let dst = tb.ft.host(1, 0, 0);
    let watched = tb.flow(tb.ft.host(0, 0, 0), dst, 7000);

    // Let the world tick for a second, then register the watch
    // mid-run — nothing has reached dst's TIB, so no raise.
    tb.sim.run_until(Nanos::from_secs(1));
    let now = tb.sim.now();
    let ids = tb.sim.world.watch(
        &[dst],
        StandingQuery::new(StandingPredicate::RateAbove {
            flow: watched,
            window: Nanos::from_millis(500),
            min_bytes: 30_000,
            min_pkts: 1,
        }),
        now,
    );
    assert_eq!(ids.len(), 1);
    assert!(
        tb.sim.world.drain_standing_events().is_empty(),
        "registration against an empty TIB must not raise"
    );

    // 8-source incast onto dst 200 ms from now (`add_flow` start
    // times are offsets from the current clock), i.e. at t=1.2s; the
    // watched flow is one of the eight (50 KB ≫ the 30 KB window
    // threshold).
    let srcs = [
        tb.ft.host(0, 0, 0),
        tb.ft.host(0, 0, 1),
        tb.ft.host(0, 1, 0),
        tb.ft.host(0, 1, 1),
        tb.ft.host(2, 0, 0),
        tb.ft.host(2, 0, 1),
        tb.ft.host(3, 0, 0),
        tb.ft.host(3, 0, 1),
    ];
    for (i, &src) in srcs.iter().enumerate() {
        tb.add_flow(src, dst, 7000 + i as u16, 50_000, Nanos::from_millis(200));
    }
    tb.sim.run_until(Nanos::from_secs(4));

    // Post-burst trickle at t=5s: a tiny flow whose record advances
    // the event-time clock past burst + window, so the watch clears.
    tb.add_flow(tb.ft.host(2, 1, 0), dst, 7100, 1_000, Nanos::from_secs(1));
    tb.run_and_flush(Nanos::from_secs(8));

    let events = tb.sim.world.drain_standing_events();
    assert_eq!(
        events.len(),
        2,
        "one raise + one clear, no flapping: {events:?}"
    );
    for (h, ev) in &events {
        assert_eq!(*h, dst, "the watch lives on the victim host");
        assert_eq!(ev.alarm.flow, watched);
        assert_eq!(ev.alarm.host, dst);
        assert_eq!(ev.alarm.reason, Reason::InvariantViolated);
    }
    assert!(events[0].1.raised, "burst raises");
    assert!(!events[1].1.raised, "drain clears");
    assert!(
        events[0].1.alarm.at < events[1].1.alarm.at,
        "raise precedes clear in sim time"
    );
    // The raise went to the world alarm bus (clears are not re-sent).
    let standing_alarms = tb
        .sim
        .world
        .drain_alarms()
        .into_iter()
        .filter(|a| a.flow == watched && a.reason == Reason::InvariantViolated)
        .count();
    assert_eq!(standing_alarms, 1, "exactly the raise reaches the bus");
}
