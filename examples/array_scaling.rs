//! Array scaling study (a miniature of the paper's Fig. 6): search
//! energy-per-bit and delay as the FeReX array grows in rows and columns.
//!
//! Run with: `cargo run --release --example array_scaling`

use ferex::core::Backend;
use ferex_bench::{random_filled_engine, random_query};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("rows   dim | energy/bit (fJ) | delay (ns) | ScL share");
    for &rows in &[16usize, 32, 64, 128, 256] {
        for &dim in &[32usize, 64] {
            let mut engine = random_filled_engine(rows, dim, Backend::Ideal, 1)?;
            let query = random_query(dim, 99);
            let cost = engine.cost_report(&query)?;
            let per_bit = cost.energy.per_bit(rows, dim * 2); // 2-bit symbols
            println!(
                "{rows:>4} {dim:>5} | {:>15.3} | {:>10.2} | {:>8.0}%",
                per_bit.value() * 1e15,
                cost.delay.total().value() * 1e9,
                cost.delay.scl_fraction() * 100.0
            );
        }
    }
    println!("\nEnergy per bit falls with rows (LTA cost amortizes);");
    println!("delay grows gradually (log-like LTA term + ScL settling).");
    Ok(())
}
