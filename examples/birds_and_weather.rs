//! The paper's motivating scenario (Example 1): join bird observations with weather
//! reports on longitude, latitude and time using a 3-D band condition, so that every
//! sighting is linked to weather measured "nearby" in space and time.
//!
//! ```text
//! cargo run --release --example birds_and_weather
//! ```

use band_join::prelude::*;
use datagen::spatial::{BirdObservationGenerator, SpatialConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let workers = 12;
    let mut rng = StdRng::seed_from_u64(7);

    // Synthetic stand-ins for the ebird and cloud datasets: clustered spatio-temporal
    // observations with shared hot spots (see the README's "Datasets and
    // substitutions" section).
    let birds_gen = BirdObservationGenerator::new(SpatialConfig::default(), &mut rng);
    let weather_gen = birds_gen.paired_weather_generator(&mut rng);
    let birds = birds_gen.generate(40_000, &mut rng);
    let weather = weather_gen.generate(30_000, &mut rng);

    // |B.time − W.time| ≤ 10 days, |Δlatitude| ≤ 0.5°, |Δlongitude| ≤ 0.5°.
    let band = BandCondition::symmetric(&[10.0, 0.5, 0.5]);

    println!(
        "Joining {} bird observations with {} weather reports on (time, lat, lon)…",
        birds.len(),
        weather.len()
    );

    // RecPart with the full symmetric-partitioning extension.
    let recpart =
        RecPart::new(RecPartConfig::new(workers)).optimize(&birds, &weather, &band, &mut rng);

    // The Grid-ε baseline for comparison.
    let grid = GridPartitioner::build(&birds, &weather, &band, 1.0);

    let executor = Executor::with_workers(workers);
    let strategies: Vec<(&str, &dyn Partitioner)> =
        vec![("RecPart", &recpart.partitioner), ("Grid-eps", &grid)];

    println!(
        "{:<10} {:>12} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "strategy", "I", "Im", "Om", "dup ovh", "load ovh", "sim time"
    );
    for (name, partitioner) in strategies {
        let report = executor.execute(partitioner, &birds, &weather, &band);
        assert_eq!(
            report.correct,
            Some(true),
            "{name} produced an incorrect result"
        );
        println!(
            "{:<10} {:>12} {:>10} {:>10} {:>11.1}% {:>11.1}% {:>9.1}s",
            name,
            report.stats.total_input,
            report.stats.max_worker_input,
            report.stats.max_worker_output,
            100.0 * report.duplication_overhead(),
            100.0 * report.load_overhead(),
            report.simulated_join_seconds,
        );
    }
    println!();
    println!(
        "RecPart grew a split tree with {} leaves ({} partitions) in {:.1} ms.",
        recpart.report.leaves,
        recpart.report.partitions,
        1e3 * recpart.report.optimization_seconds
    );
}
