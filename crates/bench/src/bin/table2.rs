//! Table 2: the debugging applications PathDump supports, with pointers to
//! the module and test that demonstrates each row in this repository.

use pathdump_bench::{banner, reject_args};

fn main() {
    reject_args();
    banner(
        "Table 2",
        "Debugging applications supported by PathDump",
        "PathDump supports >85% of the applications surveyed from recent \
         debugging papers; two rows genuinely need in-network support",
    );
    let rows: &[(&str, &str, &str)] = &[
        (
            "Loop freedom",
            "yes",
            "apps::routing_loop (tests four_switch/eight_switch_loop_detected)",
        ),
        (
            "Load imbalance diagnosis",
            "yes",
            "apps::load_imbalance (ecmp_size_split_visible_in_fsd, spraying_bias_visible_per_path)",
        ),
        (
            "Congested link diagnosis",
            "yes",
            "apps::traffic::flows_on_link (congested_link_flows)",
        ),
        (
            "Silent blackhole detection",
            "yes",
            "apps::blackhole (agg_core/tor_agg blackhole tests)",
        ),
        (
            "Silent packet drop detection",
            "yes",
            "apps::silent_drops (localizes_injected_silent_drop)",
        ),
        (
            "Packet drops on servers",
            "yes",
            "simnet NIC faults + agent records (nic_silent_fault_applies)",
        ),
        (
            "Overlay loop detection",
            "NO",
            "needs in-network support (paper Table 2: unsupported)",
        ),
        (
            "Protocol bugs",
            "yes",
            "transport retransmission counters + TIB evidence",
        ),
        (
            "Isolation",
            "yes",
            "apps::traffic::isolation_violations (isolation_check)",
        ),
        (
            "Incorrect packet modification",
            "NO*",
            "pinpointed when the trajectory is infeasible (§2.4): \
             fattree_wrong_id_detected, corrupted_tags_raise_infeasible",
        ),
        (
            "Waypoint routing",
            "yes",
            "core::agent::Invariant{forbidden} (forbidden_switch_detected; invert = waypoint)",
        ),
        (
            "DDoS diagnosis",
            "yes",
            "apps::traffic::ddos_sources (ddos_sources_ranked)",
        ),
        (
            "Traffic matrix",
            "yes",
            "apps::traffic::{traffic_matrix, link_utilization}",
        ),
        (
            "Netshark (path-aware logger)",
            "yes",
            "TIB per-path flow records + getPaths",
        ),
        (
            "Max path length",
            "yes",
            "core::agent::Invariant{max_hops} (failover_path_raises_pc_fail)",
        ),
    ];
    let supported = rows.iter().filter(|(_, s, _)| s.starts_with("yes")).count();
    for (app, sup, place) in rows {
        println!("{sup:>4}  {app:<34} {place}");
    }
    println!(
        "\nsupported: {supported}/{} = {:.0}% (paper: >85%; the two gaps match \
         the paper's own Table 2)",
        rows.len(),
        supported as f64 / rows.len() as f64 * 100.0
    );
}
