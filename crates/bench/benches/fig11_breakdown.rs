//! Figure 11: time breakdown per transaction (4 rows, 4ISL) at 0/50/100%
//! multisite, for read-only and update microbenchmarks.

use islands_bench::{micro, sim_run};
use islands_hwtopo::Machine;
use islands_obs::BreakdownCategory;
use islands_workload::OpKind;

fn main() {
    for (kind, title) in [
        (OpKind::Read, "Figure 11 (left): retrieving 4 rows, 4ISL"),
        (OpKind::Update, "Figure 11 (right): updating 4 rows, 4ISL"),
    ] {
        println!("\n=== {title}: per-txn time (us) by category ===");
        print!("{:>16} |", "category");
        for pct in [0, 50, 100] {
            print!(" {:>8}%", pct);
        }
        println!();
        let runs: Vec<_> = [0.0, 0.5, 1.0]
            .iter()
            .map(|&p| sim_run(Machine::quad_socket(), 4, &micro(kind, 4, p), 1))
            .collect();
        for cat in BreakdownCategory::ALL {
            print!("{:>16} |", cat.label());
            for r in &runs {
                let per = r.breakdown[cat.index()] as f64 / r.commits.max(1) as f64 / 1e6;
                print!(" {per:>9.2}");
            }
            println!();
        }
        print!("{:>16} |", "TOTAL");
        for r in &runs {
            print!(" {:>9.2}", r.cost_per_txn_us());
        }
        println!();
    }
    println!("(paper: communication dominates distributed read-only transactions;\n updates split between communication and the extra logging)");
}
