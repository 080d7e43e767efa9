#![forbid(unsafe_code)]
//! Fig. 6: search energy per bit (a) and search delay (b) as functions of
//! the number of rows and the vector dimension.
//!
//! Reproduces both trends the paper reports: energy/bit *decreases* with
//! rows (the LTA's fixed bias cost amortizes, Fig. 6(a)) while total delay
//! *increases gradually* as the array scales, with roughly 60 % of it spent
//! on ScL stabilization through the op-amp (Fig. 6(b)).
//!
//! Run with: `cargo run --release -p ferex-bench --bin fig6_energy_delay`

use ferex_bench::{random_filled_engine, random_query};
use ferex_core::Backend;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let row_sweep = [16usize, 32, 64, 128, 256];
    let dim_sweep = [16usize, 32, 64, 128];

    println!("# Fig 6(a): search energy per bit (fJ/bit)");
    print!("{:>6}", "rows\\D");
    for &d in &dim_sweep {
        print!(" {:>10}", d);
    }
    println!();
    for &rows in &row_sweep {
        print!("{rows:>6}");
        for &dim in &dim_sweep {
            let mut engine = random_filled_engine(rows, dim, Backend::Ideal, 11)?;
            let cost = engine.cost_report(&random_query(dim, 13))?;
            print!(" {:>10.3}", cost.energy.per_bit(rows, dim * 2).value() * 1e15);
        }
        println!();
    }

    println!("\n# Fig 6(b): search delay (ns) [ScL share %]");
    print!("{:>6}", "rows\\D");
    for &d in &dim_sweep {
        print!(" {:>14}", d);
    }
    println!();
    for &rows in &row_sweep {
        print!("{rows:>6}");
        for &dim in &dim_sweep {
            let mut engine = random_filled_engine(rows, dim, Backend::Ideal, 11)?;
            let cost = engine.cost_report(&random_query(dim, 13))?;
            print!(
                " {:>14}",
                format!(
                    "{:.2} [{:.0}%]",
                    cost.delay.total().value() * 1e9,
                    cost.delay.scl_fraction() * 100.0
                )
            );
        }
        println!();
    }

    println!("\n# energy breakdown at 64 rows x 64 dims:");
    let mut engine = random_filled_engine(64, 64, Backend::Ideal, 11)?;
    let cost = engine.cost_report(&random_query(64, 13))?;
    let e = cost.energy;
    let total = e.total().value();
    println!(
        "  array {:.2} pJ ({:.0}%), op-amps {:.2} pJ ({:.0}%), LTA {:.2} pJ ({:.0}%), drivers {:.2} pJ ({:.0}%)",
        e.array.value() * 1e12,
        e.array.value() / total * 100.0,
        e.opamps.value() * 1e12,
        e.opamps.value() / total * 100.0,
        e.lta.value() * 1e12,
        e.lta.value() / total * 100.0,
        e.drivers.value() * 1e12,
        e.drivers.value() / total * 100.0,
    );
    println!("\npaper reference: energy/bit falls with rows; ~60% of delay is ScL settling.");
    Ok(())
}
