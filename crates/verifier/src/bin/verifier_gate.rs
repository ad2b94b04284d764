//! CI gate: healthy fat-tree (k=4/6/8/16) and VL2 forwarding state must
//! statically verify clean, and the k=16 pass must finish inside a wall-time
//! budget — pinning the "well under a second" promise of the memoized DFS.
//!
//! Usage: `verifier_gate [--max-secs F]` (default 5.0, generous for loaded
//! CI runners; locally k=16 verifies in milliseconds). Exits 1 on any
//! violation or budget overrun, and 2 on an unknown flag or a budget that
//! does not parse.

use std::process::ExitCode;
use std::time::Instant;

use pathdump_topology::{FatTree, FatTreeParams, RouteTables, UpDownRouting, Vl2, Vl2Params};
use pathdump_verifier::{verify, IntentModel};

fn check(name: &str, routing: &dyn UpDownRouting, budget_secs: f64) -> Result<f64, String> {
    let topo = routing.topology();
    let rt = RouteTables::build(routing);
    let t0 = Instant::now();
    let verdict = verify(topo, &rt);
    let secs = t0.elapsed().as_secs_f64();
    if !verdict.is_clean() {
        return Err(format!(
            "{name}: healthy topology failed verification: {} violation(s), first: {:?}",
            verdict.violations.len(),
            verdict.violations.first()
        ));
    }
    let im = IntentModel::build(topo, &rt).map_err(|e| {
        format!(
            "{name}: IntentModel::build rejected clean tables: {} violation(s)",
            e.violations.len()
        )
    })?;
    let total = im.total_paths();
    eprintln!(
        "verifier_gate: {name}: clean, {} pairs, {} intended paths, verify {:.1} ms",
        verdict.pairs_checked,
        total,
        secs * 1e3
    );
    if secs > budget_secs {
        return Err(format!(
            "{name}: verify took {secs:.3} s > budget {budget_secs:.3} s"
        ));
    }
    Ok(secs)
}

/// A command-line error exits 2, so a mistyped budget cannot run the gate
/// with the default one.
fn usage_error(err: &str) -> ExitCode {
    eprintln!("verifier_gate: {err}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut max_secs = 5.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--max-secs" => {
                let v = args.next().unwrap_or_default();
                match v.parse() {
                    Ok(secs) => max_secs = secs,
                    Err(_) => return usage_error(&format!("--max-secs: cannot parse `{v}`")),
                }
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let mut failed = false;
    for k in [4u16, 6, 8, 16] {
        let ft = FatTree::build(FatTreeParams { k });
        if let Err(e) = check(&format!("fat-tree k={k}"), &ft, max_secs) {
            eprintln!("verifier_gate: FAIL: {e}");
            failed = true;
        }
    }
    let v2 = Vl2::build(Vl2Params {
        da: 16,
        di: 16,
        hosts_per_tor: 4,
    });
    if let Err(e) = check("VL2 da=16 di=16", &v2, max_secs) {
        eprintln!("verifier_gate: FAIL: {e}");
        failed = true;
    }

    if failed {
        ExitCode::FAILURE
    } else {
        eprintln!("verifier_gate: all healthy topologies verify clean within {max_secs} s");
        ExitCode::SUCCESS
    }
}
