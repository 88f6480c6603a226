//! Criterion benchmark of the plan-cached serving tier: the latency of one
//! served query on the cold path (optimize + compile + shuffle + join, fresh
//! service every iteration), the warm-hit path (cached plan and arenas, reduce
//! only), and the subsumed-hit path (narrower band answered from a wider
//! cached plan's arenas). The cold/warm gap is the serving tier's headline —
//! `exp_serve_smoke` gates it in CI; this bench gives the detailed curves.
//! Those three groups turn verification off to time the serving machinery
//! alone; `serve_warm_hit_verified` times a warm hit under the service's
//! default configuration, whose `Count` verification sweeps the service's
//! cached exact-join index.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use distsim::{BandJoinQuery, BandJoinService, ServiceConfig, VerificationLevel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use recpart::{BandCondition, Relation};

const WORKERS: usize = 64;
const PER_SIDE: usize = 30_000;

fn workload() -> (Relation, Relation) {
    let mut rng = StdRng::seed_from_u64(0x5E17_E201);
    let s = datagen::pareto_relation(PER_SIDE, 1, 1.5, &mut rng);
    let t = datagen::pareto_relation(PER_SIDE, 1, 1.5, &mut rng);
    (s, t)
}

fn config() -> ServiceConfig {
    ServiceConfig::new().with_verification(VerificationLevel::None)
}

/// `(label, eps)` rows: the hot band every path serves, narrow to wide.
const BAND_ROWS: [(&str, f64); 2] = [("eps-5e-4", 0.0005), ("eps-2e-3", 0.002)];

fn bench_cold_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_cold_build");
    group.sample_size(10);
    let (s, t) = workload();
    for (label, eps) in BAND_ROWS {
        let query = BandJoinQuery::new(BandCondition::symmetric(&[eps]), WORKERS);
        group.bench_function(BenchmarkId::new(label, 2 * PER_SIDE), |b| {
            b.iter(|| {
                let mut service = BandJoinService::new(s.clone(), t.clone(), config());
                service.serve(&query).unwrap().report.stats.output_len
            })
        });
    }
    group.finish();
}

fn bench_warm_hit(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_warm_hit");
    group.sample_size(10);
    let (s, t) = workload();
    for (label, eps) in BAND_ROWS {
        let query = BandJoinQuery::new(BandCondition::symmetric(&[eps]), WORKERS);
        let mut service = BandJoinService::new(s.clone(), t.clone(), config());
        service.serve(&query).unwrap();
        group.bench_function(BenchmarkId::new(label, 2 * PER_SIDE), |b| {
            b.iter(|| service.serve(&query).unwrap().report.stats.output_len)
        });
    }
    group.finish();
}

fn bench_warm_hit_verified(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_warm_hit_verified");
    group.sample_size(10);
    let (s, t) = workload();
    for (label, eps) in BAND_ROWS {
        let query = BandJoinQuery::new(BandCondition::symmetric(&[eps]), WORKERS);
        let mut service = BandJoinService::new(s.clone(), t.clone(), ServiceConfig::default());
        service.serve(&query).unwrap();
        group.bench_function(BenchmarkId::new(label, 2 * PER_SIDE), |b| {
            b.iter(|| {
                let report = service.serve(&query).unwrap().report;
                assert_eq!(report.correct, Some(true));
                report.stats.output_len
            })
        });
    }
    group.finish();
}

fn bench_subsumed_hit(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_subsumed_hit");
    group.sample_size(10);
    let (s, t) = workload();
    for (label, eps) in BAND_ROWS {
        // Warm a plan for 2x the band, then serve the narrower band from it.
        let wide = BandJoinQuery::new(BandCondition::symmetric(&[2.0 * eps]), WORKERS);
        let query = BandJoinQuery::new(BandCondition::symmetric(&[eps]), WORKERS);
        let mut service = BandJoinService::new(s.clone(), t.clone(), config());
        service.serve(&wide).unwrap();
        group.bench_function(BenchmarkId::new(label, 2 * PER_SIDE), |b| {
            b.iter(|| service.serve(&query).unwrap().report.stats.output_len)
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cold_build,
    bench_warm_hit,
    bench_warm_hit_verified,
    bench_subsumed_hit
);
criterion_main!(benches);
