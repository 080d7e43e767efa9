#![forbid(unsafe_code)]
//! Fig. 8(a): HDC classification accuracy per distance metric per dataset.
//!
//! The paper's point: conventional CiM HDC accelerators hard-wire Hamming
//! distance, but the best metric varies per dataset — so a reconfigurable
//! AM recovers accuracy a fixed-function AM leaves on the table. We train
//! one HDC model per dataset, then run the *same* trained model through the
//! FeReX AM configured for each metric (ideal and variation-afflicted
//! backends) alongside the full-precision software baseline.
//!
//! Run with: `cargo run --release -p ferex-bench --bin fig8a_accuracy`

use ferex_core::{Backend, CircuitConfig, DistanceMetric};
use ferex_datasets::spec::{ISOLET, MNIST, UCIHAR};
use ferex_datasets::synth::{generate, SynthOptions};
use ferex_hdc::am::{AmClassifier, AmConfig};
use ferex_hdc::encoder::ProjectionEncoder;
use ferex_hdc::model::HdcModel;

const HV_DIM: usize = 2048;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Noise chosen so software accuracy lands in the high-80s/90s range the
    // paper reports on the real datasets (see EXPERIMENTS.md).
    let options = SynthOptions { separation: 1.0, noise: 4.0, seed: 0x8A };
    let configs = [(ISOLET.scaled(0.10), 1), (UCIHAR.scaled(0.10), 2), (MNIST.scaled(0.01), 3)];

    println!(
        "{:<8} | {:>9} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
        "dataset", "software", "HD", "L1", "L2²", "HD+var", "L1+var", "L2²+var"
    );
    for (spec, seed) in configs {
        let data = generate(&spec, &options);
        let encoder = ProjectionEncoder::new(spec.n_features, HV_DIM, seed);
        let mut model = HdcModel::train_single_pass(encoder, &data.train, spec.n_classes);
        model.retrain(&data.train, 3);
        let software = model.accuracy(&data.test);

        let mut accs = Vec::new();
        let noisy = Backend::Noisy(Box::new(CircuitConfig { seed, ..Default::default() }));
        for backend in [Backend::Ideal, noisy] {
            let cfg = AmConfig { backend: backend.clone(), ..Default::default() };
            let mut am = AmClassifier::from_model(&model, &cfg)?;
            for metric in DistanceMetric::ALL {
                am.reconfigure(metric)?;
                accs.push(am.accuracy(&model, &data.test)?);
            }
        }
        println!(
            "{:<8} | {:>8.1}% | {:>8.1}% {:>8.1}% {:>8.1}% | {:>8.1}% {:>8.1}% {:>8.1}%",
            spec.name,
            software * 100.0,
            accs[0] * 100.0,
            accs[1] * 100.0,
            accs[2] * 100.0,
            accs[3] * 100.0,
            accs[4] * 100.0,
            accs[5] * 100.0,
        );
    }
    println!("\npaper reference: accuracy is metric-dependent per dataset; the");
    println!("reconfigurable AM matches software within a small degradation.");
    Ok(())
}
