//! Quickstart: run the complete DB-PIM co-design pipeline on a small CNN.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! The pipeline takes a model with synthetic weights, quantizes it to INT8,
//! applies the FTA algorithm, compiles the result for the DB-PIM macros and
//! the dense baseline, and simulates all four Fig. 7 sparsity configurations
//! from the same compiled programs. Sweeps over the zoo models go through a
//! cached `SimSession` instead (see the `sparsity_explorer` example).

use std::error::Error;

use db_pim::prelude::*;

fn main() -> Result<(), Box<dyn Error>> {
    // A fast configuration: 10 classes, a handful of synthetic images.
    let mut config = PipelineConfig::fast();
    config.evaluation_images = 8;
    let pipeline = Pipeline::new(config)?;

    let model = zoo::tiny_cnn(10, 42)?;
    println!("model: {} ({} nodes)", model.name(), model.nodes().len());
    let result = pipeline.run_model(&model)?;

    println!("\n== model summary ==");
    print!("{}", result.summary.to_table());

    println!("\n== FTA algorithm ==");
    println!("binary zero-bit ratio : {:.1} %", 100.0 * result.fta_stats.binary_zero_ratio());
    println!("CSD zero-digit ratio  : {:.1} %", 100.0 * result.fta_stats.csd_zero_ratio());
    println!("FTA zero-digit ratio  : {:.1} %", 100.0 * result.fta_stats.fta_zero_ratio());
    println!("actual utilization    : {:.2} %", 100.0 * result.utilization());
    if let Some(fidelity) = &result.fidelity {
        println!(
            "fidelity              : {:.1} % top-1 agreement, {:.2} % accuracy drop",
            100.0 * fidelity.top1_agreement,
            100.0 * fidelity.accuracy_drop()
        );
    }

    println!("\n== Fig. 7 style comparison (vs dense digital PIM baseline) ==");
    for sparsity in SparsityConfig::all() {
        let run = result.run(sparsity).expect("all four configurations are simulated");
        println!(
            "{:<16} {:>10} cycles  {:>8.3} ms  {:>8.2} uJ  speedup {:>5.2}x  energy saving {:>5.1} %",
            sparsity.label(),
            run.total_cycles(),
            run.latency_ms(),
            run.total_energy_uj(),
            result.speedup(sparsity),
            100.0 * result.energy_saving(sparsity)
        );
    }

    println!("\n== area (Table 4 style) ==");
    let area = AreaModel::calibrated_28nm();
    for component in area.breakdown(&ArchConfig::paper()) {
        println!(
            "{:<32} {:>8.5} mm^2  {:>5.2} %",
            component.name,
            component.mm2,
            100.0 * component.share
        );
    }
    Ok(())
}
