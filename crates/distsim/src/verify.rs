//! Exact reference joins and correctness verification.
//!
//! Definition 1 of the paper requires that every join result is produced by *exactly
//! one* local join. The helpers here compute the exact result on a single node so that
//! the executor (and the test suites of every partitioner) can check both directions:
//! no result is lost, and no result is produced twice.
//!
//! # One sweep
//!
//! An exact join is one index-nested-loop sweep: T is sorted on dimension 0 and
//! gathered column-wise into a [`SortedProbeSide`], and every S tuple probes it
//! through [`probe_sorted`]. The probe side is split into contiguous chunks that run
//! on the current rayon context and merge in chunk order, so counts and pair sets are
//! identical for every chunking. The `*_on(…, pieces)` variants take an explicit
//! chunk count (`1` = strictly sequential); the plain functions chunk by
//! [`rayon::current_num_threads`].
//!
//! Within a chunk, probes run in blocks of 1,024 sorted on dimension 0, and each
//! probe's dimension-0 window gallops forward from the previous one (see
//! [`crate::local_join`]). A block therefore costs O(block · log(|T| / block)) window
//! steps plus the candidates it evaluates, whatever order the probes arrive in.
//!
//! # The cached index
//!
//! [`exact_join_count_on`]/[`exact_join_pairs_on`] build a transient T side per call
//! and probe S in arrival order: O(|T| log |T|) for the sort, then the sweep. A
//! caller that verifies many queries over the same data keeps an `ExactJoinIndex`
//! instead — T's sorted side plus S's dimension-0 order, tagged with the length and
//! [`Relation::generation`] of both relations. Probing S in sorted order makes the
//! windows of consecutive probes adjacent, so each verification is the sweep alone:
//! no sort, O(|S| + |T|) window steps plus the candidates. The index costs
//! 4·|S| + (4 + 8·d)·|T| bytes; [`crate::serve::BandJoinService`] builds it on the
//! first verified query of a dataset generation and drops it when an append bumps
//! one.

use crate::local_join::{probe_sorted, SortedProbeSide};
use crate::parallel::chunk_ranges;
use rayon::prelude::*;
use recpart::{BandCondition, Relation};
use std::collections::HashSet;

/// Below this probe-side size the exact join runs sequentially even in parallel mode.
const MIN_PARALLEL_PROBE: usize = 2_048;

/// A reusable exact-join index over one generation of `(S, T)`: T's sorted probe
/// side and S's dimension-0 probe order. See the module docs.
#[derive(Debug)]
pub(crate) struct ExactJoinIndex {
    t_side: SortedProbeSide,
    /// S tuple indices in dimension-0 `total_cmp` order.
    s_order: Vec<u32>,
    /// `(len, generation)` of S and of T at build time.
    built_for: [(usize, u64); 2],
}

impl ExactJoinIndex {
    /// Sort both relations on dimension 0.
    pub(crate) fn build(s: &Relation, t: &Relation) -> ExactJoinIndex {
        let key = s.column(0);
        let mut s_order: Vec<u32> = (0..s.len() as u32).collect();
        s_order.sort_unstable_by(|&a, &b| key[a as usize].total_cmp(&key[b as usize]));
        ExactJoinIndex {
            t_side: SortedProbeSide::build_full(t),
            s_order,
            built_for: shape(s, t),
        }
    }

    /// Exact `|S ⋈ T|` through the index, probe side chunked `pieces` ways.
    ///
    /// # Panics
    /// Panics if `s`/`t` are not the relations (length and generation) the index
    /// was built for.
    pub(crate) fn count_on(
        &self,
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
        pieces: usize,
    ) -> u64 {
        self.assert_built_for(s, t);
        count(sweep(
            s,
            t,
            &self.t_side,
            Some(&self.s_order),
            band,
            pieces,
            false,
        ))
    }

    /// Exact pair set through the index. Panics like [`ExactJoinIndex::count_on`].
    pub(crate) fn pairs_on(
        &self,
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
        pieces: usize,
    ) -> HashSet<(u32, u32)> {
        self.assert_built_for(s, t);
        pair_set(sweep(
            s,
            t,
            &self.t_side,
            Some(&self.s_order),
            band,
            pieces,
            true,
        ))
    }

    fn assert_built_for(&self, s: &Relation, t: &Relation) {
        assert_eq!(
            self.built_for,
            shape(s, t),
            "exact-join index is stale: (len, generation) of S and T changed since it was built"
        );
    }
}

fn shape(s: &Relation, t: &Relation) -> [(usize, u64); 2] {
    [(s.len(), s.generation()), (t.len(), t.generation())]
}

/// The exact join's one sweep: probe S — in `order`, or in arrival order when
/// `None` — against the sorted T side in `pieces` contiguous chunks on the current
/// rayon context. Returns each chunk's output count and, if `collect`, its pairs.
fn sweep(
    s: &Relation,
    t: &Relation,
    side: &SortedProbeSide,
    order: Option<&[u32]>,
    band: &BandCondition,
    pieces: usize,
    collect: bool,
) -> Vec<(u64, Vec<(u32, u32)>)> {
    let probe = |(lo, hi): (usize, usize)| {
        let mut pairs = Vec::new();
        let sink = collect.then_some(&mut pairs);
        let result = match order {
            Some(order) => probe_sorted(s, t, side, band, order[lo..hi].iter().copied(), sink),
            None => probe_sorted(s, t, side, band, lo as u32..hi as u32, sink),
        };
        (result.output, pairs)
    };
    if pieces <= 1 || s.len() < MIN_PARALLEL_PROBE {
        return vec![probe((0, s.len()))];
    }
    chunk_ranges(s.len(), pieces)
        .into_par_iter()
        .map(probe)
        .collect()
}

fn count(chunks: Vec<(u64, Vec<(u32, u32)>)>) -> u64 {
    chunks.iter().map(|(output, _)| output).sum()
}

fn pair_set(chunks: Vec<(u64, Vec<(u32, u32)>)>) -> HashSet<(u32, u32)> {
    let mut set = HashSet::with_capacity(chunks.iter().map(|(_, p)| p.len()).sum());
    for (_, pairs) in chunks {
        set.extend(pairs);
    }
    set
}

/// Exact number of band-join results `|S ⋈ T|`, computed with the index-nested-loop
/// algorithm on the current rayon context (probe side chunked across threads).
pub fn exact_join_count(s: &Relation, t: &Relation, band: &BandCondition) -> u64 {
    exact_join_count_on(s, t, band, rayon::current_num_threads())
}

/// [`exact_join_count`] with an explicit probe-side chunk count; `pieces <= 1` runs
/// strictly sequentially. The count is identical for every `pieces`.
pub fn exact_join_count_on(s: &Relation, t: &Relation, band: &BandCondition, pieces: usize) -> u64 {
    let side = SortedProbeSide::build_full(t);
    count(sweep(s, t, &side, None, band, pieces, false))
}

/// Exact set of matching `(s index, t index)` pairs, computed on the current rayon
/// context. Only use for small inputs — the result is materialized in memory.
pub fn exact_join_pairs(s: &Relation, t: &Relation, band: &BandCondition) -> HashSet<(u32, u32)> {
    exact_join_pairs_on(s, t, band, rayon::current_num_threads())
}

/// [`exact_join_pairs`] with an explicit probe-side chunk count; `pieces <= 1` runs
/// strictly sequentially. The resulting set is identical for every `pieces`.
pub fn exact_join_pairs_on(
    s: &Relation,
    t: &Relation,
    band: &BandCondition,
    pieces: usize,
) -> HashSet<(u32, u32)> {
    let side = SortedProbeSide::build_full(t);
    pair_set(sweep(s, t, &side, None, band, pieces, true))
}

/// Outcome of comparing a distributed execution's materialized pairs against the exact
/// result.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PairCheck {
    /// Pairs produced by the distributed execution but not part of the exact result
    /// (spurious results — should be impossible for a correct local join).
    pub spurious: usize,
    /// Exact-result pairs never produced by the distributed execution (lost results).
    pub missing: usize,
    /// Pairs produced more than once (violations of the exactly-once property).
    pub duplicated: usize,
}

impl PairCheck {
    /// `true` iff the distributed execution produced exactly the exact result, once each.
    pub fn is_correct(&self) -> bool {
        self.spurious == 0 && self.missing == 0 && self.duplicated == 0
    }
}

/// Compare the concatenated per-partition outputs of a distributed execution against the
/// exact join result (exact join computed on the current rayon context).
pub fn check_pairs(
    s: &Relation,
    t: &Relation,
    band: &BandCondition,
    produced: &[(u32, u32)],
) -> PairCheck {
    check_pairs_on(s, t, band, produced, rayon::current_num_threads())
}

/// [`check_pairs`] with an explicit probe-side chunk count for the exact join.
pub fn check_pairs_on(
    s: &Relation,
    t: &Relation,
    band: &BandCondition,
    produced: &[(u32, u32)],
    pieces: usize,
) -> PairCheck {
    check_pairs_against(&exact_join_pairs_on(s, t, band, pieces), produced)
}

/// Compare produced pairs against an already-computed exact pair set. Lets callers
/// that also need the exact output count reuse one exact join for both.
pub fn check_pairs_against(exact: &HashSet<(u32, u32)>, produced: &[(u32, u32)]) -> PairCheck {
    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(produced.len());
    let mut check = PairCheck::default();
    for &pair in produced {
        if !exact.contains(&pair) {
            check.spurious += 1;
        }
        if !seen.insert(pair) {
            check.duplicated += 1;
        }
    }
    check.missing = exact.iter().filter(|p| !seen.contains(p)).count();
    check
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tiny_inputs() -> (Relation, Relation, BandCondition) {
        // Example 2 of the paper: S = {1,2,3,5,6,8,9,10}, T = {1,5,6,10}, ε = 1.
        let s = Relation::from_values_1d(&[1.0, 2.0, 3.0, 5.0, 6.0, 8.0, 9.0, 10.0]);
        let t = Relation::from_values_1d(&[1.0, 5.0, 6.0, 10.0]);
        let band = BandCondition::symmetric(&[1.0]);
        (s, t, band)
    }

    fn random_relation(n: usize, seed: u64) -> Relation {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut r = Relation::with_capacity(1, n);
        for _ in 0..n {
            r.push(&[rng.gen_range(0.0..100.0)]);
        }
        r
    }

    #[test]
    fn exact_count_matches_paper_example() {
        let (s, t, band) = tiny_inputs();
        // Matches: (1,1),(2,1),(5,5),(6,5),(5,6),(6,6),(9,10),(10,10) → 8 pairs.
        assert_eq!(exact_join_count(&s, &t, &band), 8);
        assert_eq!(exact_join_pairs(&s, &t, &band).len(), 8);
    }

    #[test]
    fn chunked_exact_join_matches_sequential() {
        let s = random_relation(5_000, 1);
        let t = random_relation(3_000, 2);
        let band = BandCondition::symmetric(&[0.6]);
        let seq_count = exact_join_count_on(&s, &t, &band, 1);
        let seq_pairs = exact_join_pairs_on(&s, &t, &band, 1);
        assert!(seq_count > 0, "test needs non-empty output");
        for pieces in [2, 3, 8, 64] {
            assert_eq!(exact_join_count_on(&s, &t, &band, pieces), seq_count);
            assert_eq!(exact_join_pairs_on(&s, &t, &band, pieces), seq_pairs);
        }
    }

    /// A relation from row-major values through the serde ingress, which admits
    /// non-finite keys (`push` asserts finiteness in debug builds).
    fn relation(rows: &[[f64; 2]]) -> Relation {
        use serde::{Deserialize, Value};
        let blob = Value::Map(vec![
            ("dims".to_string(), Value::U64(2)),
            (
                "data".to_string(),
                Value::Seq(rows.iter().flatten().map(|&v| Value::F64(v)).collect()),
            ),
        ]);
        <Relation as Deserialize>::from_value(&blob).expect("valid relation blob")
    }

    /// Ties, ±∞, NaN and −NaN keys in both dimensions.
    fn adversarial_relation(n: usize, seed: u64) -> Relation {
        const SPECIALS: [f64; 4] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN];
        let mut rng = StdRng::seed_from_u64(seed);
        let coord = |rng: &mut StdRng| match rng.gen_range(0..10u32) {
            0 => SPECIALS[rng.gen_range(0..4usize)],
            1..=3 => [0.5, 2.0, 7.0][rng.gen_range(0..3usize)],
            _ => rng.gen_range(0.0..20.0),
        };
        let rows: Vec<[f64; 2]> = (0..n).map(|_| [coord(&mut rng), coord(&mut rng)]).collect();
        relation(&rows)
    }

    #[test]
    fn indexed_exact_join_matches_the_arrival_order_join() {
        let s = adversarial_relation(3_000, 11);
        let t = adversarial_relation(2_000, 12);
        let empty = relation(&[]);
        let band = BandCondition::try_asymmetric(&[0.3, 1.0], &[0.6, 1.0]).unwrap();
        for (label, s, t) in [
            ("adversarial", &s, &t),
            ("empty S", &empty, &t),
            ("empty T", &s, &empty),
            ("both empty", &empty, &empty),
        ] {
            let index = ExactJoinIndex::build(s, t);
            let want_count = exact_join_count_on(s, t, &band, 1);
            let want_pairs = exact_join_pairs_on(s, t, &band, 1);
            assert_eq!(want_pairs.len() as u64, want_count, "{label}");
            if label == "adversarial" {
                assert!(want_count > 0, "test needs non-empty output");
            }
            for pieces in [1, 2, 7] {
                assert_eq!(
                    exact_join_count_on(s, t, &band, pieces),
                    want_count,
                    "{label}"
                );
                assert_eq!(
                    exact_join_pairs_on(s, t, &band, pieces),
                    want_pairs,
                    "{label}"
                );
                assert_eq!(index.count_on(s, t, &band, pieces), want_count, "{label}");
                assert_eq!(index.pairs_on(s, t, &band, pieces), want_pairs, "{label}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exact-join index is stale")]
    fn stale_index_is_rejected() {
        let (mut s, t, band) = tiny_inputs();
        let index = ExactJoinIndex::build(&s, &t);
        s.push(&[4.0]);
        index.count_on(&s, &t, &band, 1);
    }

    #[test]
    fn check_pairs_accepts_exact_result() {
        let (s, t, band) = tiny_inputs();
        let exact: Vec<(u32, u32)> = exact_join_pairs(&s, &t, &band).into_iter().collect();
        let check = check_pairs(&s, &t, &band, &exact);
        assert!(check.is_correct(), "{check:?}");
    }

    #[test]
    fn check_pairs_detects_duplicates() {
        let (s, t, band) = tiny_inputs();
        let mut produced: Vec<(u32, u32)> = exact_join_pairs(&s, &t, &band).into_iter().collect();
        produced.push(produced[0]);
        let check = check_pairs(&s, &t, &band, &produced);
        assert_eq!(check.duplicated, 1);
        assert!(!check.is_correct());
    }

    #[test]
    fn check_pairs_detects_missing_and_spurious() {
        let (s, t, band) = tiny_inputs();
        let mut produced: Vec<(u32, u32)> = exact_join_pairs(&s, &t, &band).into_iter().collect();
        produced.pop();
        produced.push((0, 3)); // S=1.0 with T=10.0 does not match.
        let check = check_pairs(&s, &t, &band, &produced);
        assert_eq!(check.missing, 1);
        assert_eq!(check.spurious, 1);
        assert!(!check.is_correct());
    }

    #[test]
    fn check_pairs_against_reuses_exact_set() {
        let (s, t, band) = tiny_inputs();
        let exact = exact_join_pairs(&s, &t, &band);
        let produced: Vec<(u32, u32)> = exact.iter().copied().collect();
        assert!(check_pairs_against(&exact, &produced).is_correct());
        assert_eq!(check_pairs_against(&exact, &[]).missing, exact.len());
    }
}
