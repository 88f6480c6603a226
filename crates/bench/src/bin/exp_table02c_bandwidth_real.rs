//! Table 2c: impact of band width for the ebird ⋈ cloud spatio-temporal join
//! (synthetic stand-ins, see the README's *Datasets and substitutions* section).
//!
//! ```text
//! cargo run -p bench --release --bin exp_table02c_bandwidth_real [-- --scale 2e-4]
//! ```

use bench::harness::Strategy;
use bench::{print_figure_points, print_table, run_rows, ExperimentArgs, RowSpec};

fn main() {
    let args = ExperimentArgs::from_env();
    let rows = vec![
        RowSpec::new("ebird-cloud eps=(0,0,0)", "ebird-cloud/eps0"),
        RowSpec::new("ebird-cloud eps=(1,1,1)", "ebird-cloud/eps1"),
        RowSpec::new("ebird-cloud eps=(1,1,5)", "ebird-cloud/eps1-1-5"),
        RowSpec::new("ebird-cloud eps=(2,2,2)", "ebird-cloud/eps2"),
        RowSpec::new("ebird-cloud eps=(4,4,4)", "ebird-cloud/eps4"),
    ];
    let (table, points) = run_rows(&rows, &Strategy::paper_main(), &args);
    print_table(
        "Table 2c — impact of band width (ebird ⋈ cloud, d = 3)",
        &table,
    );
    print_figure_points("Figure 4 points from Table 2c", &points);
}
