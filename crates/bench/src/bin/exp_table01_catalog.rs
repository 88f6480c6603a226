//! Table 1 / Table 10: the dataset and band-width catalog with input and output sizes.
//!
//! For every catalog row the binary instantiates the scaled workload (with the band
//! width calibrated to the paper's output-to-input ratio, see the README's *Datasets
//! and substitutions* section), computes the exact output size, and prints the
//! resulting characteristics next to the paper's numbers.
//!
//! ```text
//! cargo run -p bench --release --bin exp_table01_catalog [-- --scale 2e-4]
//! ```

use bench::ExperimentArgs;
use datagen::catalog::table1_catalog;
use distsim::exact_join_count;

fn main() {
    let args = ExperimentArgs::from_env();
    println!(
        "=== Table 1 / Table 10: band-join characteristics (scale {}) ===",
        args.scale
    );
    println!(
        "{:<28} {:>3} {:>12} {:>12} {:>14} {:>14} {:>12}",
        "dataset", "d", "|S|+|T|", "output", "out/in", "paper out/in", "band mult"
    );
    for entry in table1_catalog() {
        // The 8-D and PTF rows are the most expensive; shrink them a little further in
        // quick mode.
        let total = args.scaled_tuples(entry.paper_input_millions);
        let workload = entry.instantiate(total, args.seed);
        let output = exact_join_count(&workload.s, &workload.t, &workload.band);
        let total = workload.s.len() + workload.t.len();
        let ratio = output as f64 / total as f64;
        let band_mult = if entry.paper_band[0] > 0.0 {
            workload.band.eps(0) / entry.paper_band[0]
        } else {
            1.0
        };
        println!(
            "{:<28} {:>3} {:>12} {:>12} {:>14.3} {:>14.3} {:>12.3}",
            entry.id,
            entry.dataset.dims(),
            total,
            output,
            ratio,
            entry.paper_output_ratio(),
            band_mult,
        );
    }
}
