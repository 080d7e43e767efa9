#![forbid(unsafe_code)]
//! Write-path cost study: ISPP program-and-verify effort per threshold
//! level, write energy per cell, and the disturb budget of the half-voltage
//! inhibition scheme (paper Sec. III-A peripherals).
//!
//! Not a paper figure — programming cost is the flip side of
//! reconfigurability (every metric change re-programs V_th states), so the
//! repo quantifies it.
//!
//! Run with: `cargo run --release -p ferex-bench --bin write_cost`

use ferex_analog::driver::DriverParams;
use ferex_analog::parasitics::WireParams;
use ferex_fefet::{FeFet, Technology, WriteScheme};

fn main() {
    let tech = Technology::default();
    let scheme = WriteScheme::default();
    let driver = DriverParams::default();
    let wire = WireParams::default();
    let rows = 64;

    println!("# ISPP program-and-verify cost per threshold level");
    println!(
        "{:>6} | {:>7} | {:>12} | {:>12} | {:>10}",
        "level", "pulses", "latency (µs)", "energy (pJ)", "|err| (mV)"
    );
    for level in 0..tech.n_vth_levels {
        let mut fet = FeFet::new(&tech);
        let report = scheme
            .program_to_level(&mut fet, &tech, level)
            .unwrap_or_else(|e| panic!("level {level}: {e}"));
        // Erase (4 long pulses) + program pulses, each one driving the
        // column through the level shifter.
        let erase_pulses = 4;
        let total_pulses = report.pulses + erase_pulses;
        let latency = total_pulses as f64 * scheme.pulse_width.value()
            + erase_pulses as f64 * scheme.pulse_width.value() * 99.0; // erase pulses are 100× long
        let energy: f64 = (0..total_pulses)
            .map(|_| driver.write_drive_energy(&wire, rows, scheme.v_write).value())
            .sum();
        println!(
            "{:>6} | {:>7} | {:>12.2} | {:>12.2} | {:>10.1}",
            level,
            report.pulses,
            latency * 1e6,
            energy * 1e12,
            report.residual.value().abs() * 1e3
        );
    }

    println!("\n# write-inhibition disturb: V_write/2 pulses on an unselected cell");
    println!("{:>10} | {:>14} | {:>10}", "pulses", "ΔVth (mV)", "level kept?");
    for n in [10usize, 100, 1000, 10_000] {
        let mut victim = FeFet::new(&tech);
        scheme.program_to_level(&mut victim, &tech, 1).expect("programs");
        let shift = scheme.disturb(&mut victim, &tech, n);
        println!(
            "{:>10} | {:>14.2} | {:>10}",
            n,
            shift.value() * 1e3,
            if victim.level(&tech) == Some(1) { "yes" } else { "NO" }
        );
    }
    println!("\n(zero disturb is a property of the per-pulse deterministic Merz-law");
    println!(" model: a half-voltage pulse cannot reach any hysteron the program");
    println!(" staircase left unswitched — the design target of the inhibition");
    println!(" scheme; real devices show small cumulative drift)");
    println!("\n(reconfiguration cost = one full-array re-program; the CSP encoding");
    println!(" itself is software: ~0.1 ms (Hamming/Manhattan) to ~4 ms (Euclidean2)");
    println!(" per metric switch)");
}
