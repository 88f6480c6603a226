//! Tests pinning the plan-cached query service to the one-shot executor.
//!
//! The service contract: every [`QueryResponse`] — cold build, warm hit, or
//! band-subsumed hit — is **bit-identical** (wall-clock fields aside) to a
//! fresh one-shot `Executor::execute` with the serving partitioner and the
//! query band, because every served path runs the same per-partition join and
//! report assembly. The serving partitioner is reachable through
//! [`BandJoinService::cached_partitioner`], which is how these tests rebuild
//! the oracle for each response.
//!
//! On top of bit-identity the suite pins:
//!
//! * **exact counter accounting** — `hits + subsumed_hits + misses` equals the
//!   number of queries, warm and subsumed hits shuffle zero tuples, and the
//!   cached arena bytes respect the capacity (or a single oversized plan
//!   remains);
//! * **generation staleness** — mutating the dataset purges every cached plan
//!   and the next identical query cold-builds against the new data;
//! * **supervised degradation** — a permanently crashing shard degrades
//!   exactly one response while the service keeps serving.

use band_join::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small skewed-ish workload (mixture of a dense cluster and a uniform tail)
/// so RecPart has something to balance.
fn workload(seed: u64, n: usize, dims: usize) -> (Relation, Relation) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = Relation::new(dims);
    let mut t = Relation::new(dims);
    let mut key = vec![0.0f64; dims];
    for _ in 0..n {
        for k in key.iter_mut() {
            *k = if rng.gen::<f64>() < 0.3 {
                rng.gen::<f64>() * 0.1
            } else {
                rng.gen::<f64>()
            };
        }
        s.push(&key);
        for k in key.iter_mut() {
            *k = rng.gen::<f64>();
        }
        t.push(&key);
    }
    (s, t)
}

fn small_sample() -> SampleConfig {
    SampleConfig {
        input_sample_size: 200,
        output_sample_size: 100,
        output_probe_count: 100,
    }
}

/// Field-by-field bit-identity of everything deterministic in a report (the
/// wall-clock fields are measurements and necessarily differ; a warm response
/// additionally reports `map_shuffle_wall_seconds == 0.0` by design).
fn assert_reports_identical(got: &ExecutionReport, want: &ExecutionReport, label: &str) {
    assert_eq!(got.strategy, want.strategy, "{label}: strategy");
    assert_eq!(got.stats, want.stats, "{label}: stats");
    assert_eq!(got.partitions, want.partitions, "{label}: partitions");
    assert_eq!(got.per_partition, want.per_partition, "{label}: loads");
    assert_eq!(
        got.partition_to_worker, want.partition_to_worker,
        "{label}: worker mapping"
    );
    assert_eq!(
        got.per_worker_work, want.per_worker_work,
        "{label}: per-worker work"
    );
    assert_eq!(
        got.total_comparisons, want.total_comparisons,
        "{label}: comparisons"
    );
    assert_eq!(got.exact_output, want.exact_output, "{label}: exact output");
    assert_eq!(got.correct, want.correct, "{label}: correctness");
    assert_eq!(got.pair_check, want.pair_check, "{label}: pair check");
    assert_eq!(got.degraded, want.degraded, "{label}: degraded flag");
}

/// The one-shot oracle for a response: a fresh `Executor::execute` with the
/// partitioner that served it and the query band.
fn oracle_for(
    service: &BandJoinService,
    response: &band_join::distsim::QueryResponse,
    band: &BandCondition,
    workers: usize,
) -> ExecutionReport {
    let partitioner = service
        .cached_partitioner(response.plan_signature)
        .expect("the serving plan is cached");
    Executor::new(service.config().executor_config(workers))
        .with_shuffle_config(service.config().shuffle.clone())
        .execute(partitioner, service.s(), service.t(), band)
}

/// Health invariants that must hold after any query stream.
fn assert_health_invariants(service: &BandJoinService, queries: u64) {
    let h = service.health();
    assert_eq!(
        h.cache.hits + h.cache.subsumed_hits + h.cache.misses,
        queries,
        "every query is exactly one of hit/subsumed/miss"
    );
    assert_eq!(h.queries_served, queries);
    assert_eq!(
        h.shuffles_run, h.cache.misses,
        "only cold builds shuffle; warm and subsumed hits reuse arenas"
    );
    assert!(
        h.cache.arena_bytes_cached <= service.config().cache_capacity_bytes || h.cached_plans == 1,
        "cached bytes respect the capacity unless a single oversized plan remains"
    );
}

#[test]
fn warm_and_subsumed_hits_are_bit_identical_to_one_shot() {
    let (s, t) = workload(11, 600, 1);
    let config = ServiceConfig::new()
        .with_seed(41)
        .with_sample(small_sample())
        .with_threads(1)
        .with_verification(VerificationLevel::FullPairs);
    let mut service = BandJoinService::new(s, t, config);

    let wide = BandJoinQuery::new(BandCondition::symmetric(&[0.05]), 4);
    let narrow = BandJoinQuery::new(BandCondition::symmetric(&[0.02]), 4).with_materialize();

    // Query 1: cold build.
    let cold = service.serve(&wide).expect("cold query");
    assert_eq!(cold.source, PlanSource::ColdBuild);
    assert_eq!(cold.report.correct, Some(true));
    let shuffled_after_cold = service.health().tuples_shuffled;
    assert!(shuffled_after_cold > 0);

    // Query 2: identical band — exact warm hit, zero new shuffles.
    let warm = service.serve(&wide).expect("warm query");
    assert_eq!(warm.source, PlanSource::WarmHit);
    assert_eq!(warm.plan_signature, cold.plan_signature);
    assert_eq!(warm.report.map_shuffle_wall_seconds, 0.0);
    assert_eq!(service.health().tuples_shuffled, shuffled_after_cold);

    // Query 3: narrower band — subsumed hit from the same plan, zero shuffles.
    let subsumed = service.serve(&narrow).expect("subsumed query");
    assert_eq!(subsumed.source, PlanSource::SubsumedHit);
    assert_eq!(subsumed.plan_signature, cold.plan_signature);
    assert_eq!(service.health().tuples_shuffled, shuffled_after_cold);
    assert_eq!(
        subsumed.report.correct,
        Some(true),
        "exact under subsumption"
    );

    // Bit-identity of every response against its one-shot oracle.
    let oracle_wide = oracle_for(&service, &cold, &wide.band, 4);
    assert_reports_identical(&cold.report, &oracle_wide, "cold");
    assert_reports_identical(&warm.report, &oracle_wide, "warm");
    let oracle_narrow = oracle_for(&service, &subsumed, &narrow.band, 4);
    assert_reports_identical(&subsumed.report, &oracle_narrow, "subsumed");

    // Materialized pairs of the narrow query are exactly the exact join.
    let mut pairs = subsumed.pairs.expect("materialize was requested");
    let mut exact = exact_join_count_probe(&service, &narrow.band);
    pairs.sort_unstable();
    exact.sort_unstable();
    assert_eq!(pairs, exact, "subsumed pairs == exact join");
    assert!(warm.pairs.is_none(), "pairs only when requested");

    let h = service.health();
    assert_eq!(
        (h.cache.hits, h.cache.subsumed_hits, h.cache.misses),
        (1, 1, 1)
    );
    assert_eq!(h.cached_plans, 1);
    assert_eq!(h.degraded_responses, 0);
    assert_health_invariants(&service, 3);
}

fn exact_join_count_probe(service: &BandJoinService, band: &BandCondition) -> Vec<(u32, u32)> {
    band_join::distsim::exact_join_pairs(service.s(), service.t(), band)
        .into_iter()
        .collect()
}

#[test]
fn mutation_bumps_generation_and_never_serves_stale_arenas() {
    let (s, t) = workload(13, 400, 2);
    let config = ServiceConfig::new()
        .with_seed(43)
        .with_sample(small_sample())
        .with_threads(1);
    let mut service = BandJoinService::new(s, t, config);
    let query = BandJoinQuery::new(BandCondition::symmetric(&[0.05, 0.05]), 4);

    let first = service.serve(&query).expect("cold query");
    assert_eq!(first.source, PlanSource::ColdBuild);
    assert_eq!(
        service.serve(&query).expect("warm query").source,
        PlanSource::WarmHit
    );
    let s_len_before = service.s().len();

    // Mutate S: the cached plan must be purged, not served.
    service.append_s(&[0.5, 0.5]);
    assert_eq!(service.s().len(), s_len_before + 1);
    assert_eq!(
        service.health().cached_plans,
        0,
        "stale plans are purged eagerly"
    );
    assert!(
        service.health().cache.evictions >= 1,
        "the purge is counted as an eviction"
    );

    let rebuilt = service.serve(&query).expect("rebuild after mutation");
    assert_eq!(
        rebuilt.source,
        PlanSource::ColdBuild,
        "a mutated dataset never gets a cached plan"
    );
    assert_eq!(
        rebuilt.report.stats.s_len,
        (s_len_before + 1) as u64,
        "the rebuilt plan sees the appended tuple"
    );
    assert_eq!(rebuilt.report.correct, Some(true));
    let oracle = oracle_for(&service, &rebuilt, &query.band, 4);
    assert_reports_identical(&rebuilt.report, &oracle, "rebuilt");
    assert_health_invariants(&service, 3);
}

/// The service's exact-join index belongs to one dataset generation: the
/// first verified query builds it, warm and subsumed hits reuse it, and an
/// append drops it so the next query verifies against the mutated relations.
#[test]
fn exact_join_index_is_rebuilt_per_generation_and_never_stale() {
    let (s, t) = workload(19, 2_500, 1);
    // Default configuration (Count verification, all cores) apart from a
    // small optimizer sample.
    let config = ServiceConfig::new().with_sample(small_sample());
    assert_eq!(config.verification, VerificationLevel::Count);
    let mut service = BandJoinService::new(s, t, config);
    assert_eq!(service.health().exact_index_builds, 0, "built lazily");
    let wide = BandJoinQuery::new(BandCondition::symmetric(&[0.02]), 4);
    let narrow = BandJoinQuery::new(BandCondition::symmetric(&[0.01]), 4);

    let mut last_exact = None;
    for mutation in ["none", "append_s", "append_t"] {
        let builds_before = service.health().exact_index_builds;
        match mutation {
            "append_s" => service.append_s(&[0.05]),
            "append_t" => service.append_t(&[0.05]),
            _ => {}
        }
        for (query, source) in [
            (&wide, PlanSource::ColdBuild),
            (&wide, PlanSource::WarmHit),
            (&narrow, PlanSource::SubsumedHit),
        ] {
            let response = service.serve(query).expect("query");
            let label = format!("after {mutation}, {source:?}");
            assert_eq!(response.source, source, "{label}");
            assert_eq!(response.report.correct, Some(true), "{label}");
            let exact = exact_join_count(service.s(), service.t(), &query.band);
            assert_eq!(response.report.exact_output, Some(exact), "{label}");
            assert_eq!(
                service.health().exact_index_builds,
                builds_before + 1,
                "{label}: one build per generation, none on warm or subsumed hits"
            );
            if source == PlanSource::ColdBuild {
                assert_ne!(
                    last_exact,
                    Some(exact),
                    "{label}: the append changes the join"
                );
                last_exact = Some(exact);
            }
        }
    }
    assert_health_invariants(&service, 9);
}

#[test]
fn lru_eviction_respects_the_byte_capacity() {
    let (s, t) = workload(17, 500, 2);
    // Size the capacity so roughly one plan fits: the second distinct band
    // must evict the first.
    let probe_config = ServiceConfig::new()
        .with_seed(47)
        .with_sample(small_sample())
        .with_threads(1);
    let mut probe = BandJoinService::new(s.clone(), t.clone(), probe_config.clone());
    // Mirrored per-dimension ε: neither band subsumes the other, so both
    // queries cold-build their own plan and the re-query cannot be served by
    // the survivor.
    let q1 = BandJoinQuery::new(BandCondition::symmetric(&[0.08, 0.02]), 4);
    let q2 = BandJoinQuery::new(BandCondition::symmetric(&[0.02, 0.08]), 4);
    probe.serve(&q1).expect("probe");
    let one_plan_bytes = probe.health().cache.arena_bytes_cached;

    let config = probe_config.with_cache_capacity_bytes(one_plan_bytes + one_plan_bytes / 4);
    let mut service = BandJoinService::new(s, t, config);
    service.serve(&q1).expect("cold 1");
    service.serve(&q2).expect("cold 2 evicts plan 1");
    let h = service.health();
    assert!(h.cache.evictions >= 1, "capacity forced an eviction");
    assert_eq!(h.cached_plans, 1);

    // q1 was evicted: serving it again is a fresh cold build, not a hit.
    let again = service.serve(&q1).expect("cold 3");
    assert_eq!(again.source, PlanSource::ColdBuild);
    assert_health_invariants(&service, 3);
    assert_eq!(service.health().cache.misses, 3);
}

#[test]
fn supervised_crash_degrades_one_response_and_service_keeps_serving() {
    let (s, t) = workload(19, 500, 1);
    let config = ServiceConfig::new()
        .with_seed(53)
        .with_sample(small_sample())
        .with_threads(1)
        .with_supervised(4, SupervisorConfig::default().with_max_attempts(2));
    let mut service = BandJoinService::new(s, t, config);
    let query = BandJoinQuery::new(BandCondition::symmetric(&[0.05]), 4);

    // Warm the cache fault-free.
    let cold = service.serve(&query).expect("cold query");
    assert_eq!(cold.source, PlanSource::ColdBuild);
    assert!(!cold.report.degraded);

    // Shard 1 panics on every attempt: this one response degrades.
    let crash = FaultPlan::new(vec![FaultSpec {
        point: InjectionPoint::ShardJoin,
        unit: 1,
        fire_attempts: u32::MAX,
        kind: FaultKind::Panic,
    }]);
    let degraded = service
        .serve_with_faults(&query, &crash)
        .expect("degraded but answered");
    assert_eq!(degraded.source, PlanSource::WarmHit);
    assert!(degraded.report.degraded, "response is flagged degraded");
    assert!(degraded.recovery.injected_panics >= 1);
    assert!(degraded.recovery.shard_retries >= 1);
    assert_eq!(service.health().degraded_responses, 1);

    // The next fault-free query is whole again and bit-identical to the oracle.
    let healthy = service.serve(&query).expect("healthy again");
    assert_eq!(healthy.source, PlanSource::WarmHit);
    assert!(!healthy.report.degraded);
    let oracle = oracle_for(&service, &healthy, &query.band, 4);
    assert_reports_identical(&healthy.report, &oracle, "post-degradation");
    assert!(
        service.health().recovery.injected_panics >= 1,
        "recovery accounting accumulates in health"
    );
    assert_health_invariants(&service, 3);
}

/// The shuffle configurations a deployment moves between.
fn shuffle_config(idx: usize) -> ShuffleConfig {
    match idx {
        0 => ShuffleConfig::default(),
        1 => ShuffleConfig::streaming(257, StorageMode::Heap),
        _ => ShuffleConfig::streaming(
            511,
            StorageMode::Spill(SpillDir::in_temp("serve-proptest").expect("spill dir")),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random query streams: per-dimension ε below / equal to / above the
    /// cached plans, both materialize modes, every thread setting, heap and
    /// spill arenas. Every response must be bit-identical to its one-shot
    /// oracle, and the counters must account for the stream exactly.
    #[test]
    fn random_query_streams_match_one_shot_oracles(
        seed in 0u64..500,
        threads_idx in 0usize..3,
        shuffle_idx in 0usize..3,
        stream in proptest::collection::vec((0usize..3, any::<bool>()), 1..6),
    ) {
        let threads = [1usize, 0, 4][threads_idx];
        let dims = 1 + (seed % 2) as usize;
        let (s, t) = workload(seed, 350, dims);
        let config = ServiceConfig::new()
            .with_seed(seed ^ 0xBAD5EED)
            .with_sample(small_sample())
            .with_threads(threads)
            .with_shuffle_config(shuffle_config(shuffle_idx))
            .with_verification(VerificationLevel::FullPairs);
        let mut service = BandJoinService::new(s, t, config);

        let eps_choices = [0.02, 0.04, 0.06];
        let workers = 4;
        for (i, &(eps_idx, materialize)) in stream.iter().enumerate() {
            let eps = vec![eps_choices[eps_idx]; dims];
            let band = BandCondition::symmetric(&eps);
            let mut query = BandJoinQuery::new(band.clone(), workers);
            if materialize {
                query = query.with_materialize();
            }
            let response = service.serve(&query).expect("query");
            let label = format!(
                "seed {seed} threads {threads} shuffle {shuffle_idx} query {i} \
                 (eps {eps:?}, materialize {materialize}, source {:?})",
                response.source
            );

            // Bit-identity against the one-shot oracle with the serving plan.
            let oracle = oracle_for(&service, &response, &band, workers);
            assert_reports_identical(&response.report, &oracle, &label);
            prop_assert_eq!(response.report.correct, Some(true), "{}", label);

            // A warm-served response reports no shuffle; pairs iff requested.
            if response.source != PlanSource::ColdBuild {
                prop_assert_eq!(response.report.map_shuffle_wall_seconds, 0.0, "{}", label);
            }
            prop_assert_eq!(response.pairs.is_some(), materialize, "{}", label);
            if let Some(mut pairs) = response.pairs {
                let mut exact: Vec<(u32, u32)> =
                    band_join::distsim::exact_join_pairs(service.s(), service.t(), &band)
                        .into_iter()
                        .collect();
                pairs.sort_unstable();
                exact.sort_unstable();
                prop_assert_eq!(pairs, exact, "{}", label);
            }
        }
        assert_health_invariants(&service, stream.len() as u64);
    }
}

/// A cold query whose merge keeps failing past the retry budget returns the
/// merge error and caches nothing, but its shuffle did run and is counted. The
/// next fault-free query cold-builds and matches the one-shot oracle.
#[test]
fn supervised_cold_query_failing_its_merge_caches_nothing_but_counts_its_shuffle() {
    let (s, t) = workload(31, 500, 1);
    let config = ServiceConfig::new()
        .with_seed(59)
        .with_sample(small_sample())
        .with_threads(1)
        .with_supervised(3, SupervisorConfig::default().with_max_attempts(2));
    let mut service = BandJoinService::new(s, t, config);
    let query = BandJoinQuery::new(BandCondition::symmetric(&[0.05]), 4);

    let merge_down = FaultPlan::new(vec![FaultSpec {
        point: InjectionPoint::Merge,
        unit: 0,
        fire_attempts: u32::MAX,
        kind: FaultKind::IoError,
    }]);
    match service.serve_with_faults(&query, &merge_down) {
        Err(SuperviseError::Merge { attempts, .. }) => assert_eq!(attempts, 2),
        other => panic!("expected a merge failure, got {other:?}"),
    }
    let h = service.health();
    assert_eq!(h.cached_plans, 0, "a failed query caches no plan");
    assert_eq!(h.cache.misses, 1);
    assert_eq!(h.queries_served, 0);
    assert_eq!(h.shuffles_run, 1, "the failed query's shuffle ran");
    assert_eq!(h.shuffles_run, h.cache.misses);
    let shuffled_by_failure = h.tuples_shuffled;
    assert!(shuffled_by_failure > 0, "its tuples are counted");

    let cold = service.serve(&query).expect("fault-free query");
    assert_eq!(cold.source, PlanSource::ColdBuild);
    assert!(!cold.report.degraded);
    assert_eq!(cold.report.correct, Some(true));
    let oracle = oracle_for(&service, &cold, &query.band, 4);
    assert_reports_identical(&cold.report, &oracle, "cold after a failed merge");
    let h = service.health();
    assert_eq!((h.shuffles_run, h.cache.misses), (2, 2));
    assert_eq!(
        h.tuples_shuffled,
        2 * shuffled_by_failure,
        "the same plan twice"
    );
    assert_eq!(h.cached_plans, 1);
}

/// A fault plan handed to an unsupervised service would never fire: the call
/// is rejected instead of passing a chaos test without injecting anything.
#[test]
#[should_panic(expected = "needs a supervised service")]
fn fault_plan_on_an_unsupervised_service_is_rejected() {
    let (s, t) = workload(37, 200, 1);
    let config = ServiceConfig::new()
        .with_sample(small_sample())
        .with_threads(1);
    let mut service = BandJoinService::new(s, t, config);
    let crash = FaultPlan::new(vec![FaultSpec {
        point: InjectionPoint::ShardJoin,
        unit: 0,
        fire_attempts: u32::MAX,
        kind: FaultKind::Panic,
    }]);
    let query = BandJoinQuery::new(BandCondition::symmetric(&[0.05]), 4);
    let _ = service.serve_with_faults(&query, &crash);
}

/// A degraded cold response still caches its plan: the shuffle completed, so
/// the arenas are whole and the next query is a healthy warm hit.
#[test]
fn degraded_cold_response_still_caches_its_plan() {
    let (s, t) = workload(41, 500, 1);
    let config = ServiceConfig::new()
        .with_seed(61)
        .with_sample(small_sample())
        .with_threads(1)
        .with_supervised(2, SupervisorConfig::default().with_max_attempts(2));
    let mut service = BandJoinService::new(s, t, config);
    let query = BandJoinQuery::new(BandCondition::symmetric(&[0.05]), 4);
    let crash = FaultPlan::new(vec![FaultSpec {
        point: InjectionPoint::ShardJoin,
        unit: 0,
        fire_attempts: u32::MAX,
        kind: FaultKind::Panic,
    }]);

    let cold = service
        .serve_with_faults(&query, &crash)
        .expect("degraded but answered");
    assert_eq!(cold.source, PlanSource::ColdBuild);
    assert!(cold.report.degraded);
    assert_eq!(service.health().cached_plans, 1, "the plan is cached");

    let warm = service.serve(&query).expect("healthy warm hit");
    assert_eq!(warm.source, PlanSource::WarmHit);
    assert!(!warm.report.degraded);
    let oracle = oracle_for(&service, &warm, &query.band, 4);
    assert_reports_identical(&warm.report, &oracle, "warm after a degraded cold build");
    assert_health_invariants(&service, 2);
    assert_eq!(service.health().degraded_responses, 1);
}
