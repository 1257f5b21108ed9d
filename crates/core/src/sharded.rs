//! Shard-parallel aggregation with exact distance-decomposed GARs.
//!
//! The paper's deployment shards the model across multiple parameter
//! servers. Naive per-shard aggregation would run each GAR independently on
//! its coordinate slice — cheap, but it weakens the distance-based rules: a
//! Byzantine gradient only has to look locally plausible per shard, and the
//! per-shard Krum selections can disagree. This module implements the exact
//! alternative: because squared L2 distances decompose as sums of per-shard
//! partials over disjoint coordinate ranges,
//!
//! ```text
//! ‖x − y‖² = Σ_s Σ_{c ∈ shard s} (x_c − y_c)²,
//! ```
//!
//! even Krum, Multi-Krum and Bulyan can be computed with *no robustness
//! loss* in a sharded layout:
//!
//! 1. every shard computes its partial pair-distance matrix on its own
//!    column slice ([`agg_tensor::BatchColumns::distance_partials`]),
//! 2. the partials are reduce-summed in **fixed shard order** into one
//!    global [`DistanceMatrix`] (bit-reproducible under any thread count),
//! 3. the unsharded rule's `aggregate_batch_with_distances` selects **once,
//!    globally** on that matrix and reduces the selected rows — so the
//!    selection it reports is exactly the unsharded rule's.
//!
//! Coordinate-wise rules (average, median, trimmed mean, MeaMed, the
//! geometric median) run the unsharded rule: their per-column reductions
//! are independent, so one full-width kernel call computes every shard's
//! slice bit for bit as the shard would, without a per-shard dispatch
//! (which measured up to ~15% slower at S = 8 on a 2-core box).
//!
//! The distance partials of every shard fan out in one call of the distance
//! kernel, followed by a deterministic shard-order reduce, so for a fixed
//! shard count the aggregate is bit-for-bit reproducible regardless of
//! `RAYON_NUM_THREADS`.

use crate::gar::{Aggregation, Gar, GarProperties};
use crate::{resilience, AggregationError, GarConfig, Result};
use agg_tensor::{DistanceMatrix, GradientBatch, ShardPlan};
use std::ops::Range;

/// A gradient aggregation rule evaluated over `S` contiguous coordinate
/// shards, exactly equivalent to the underlying unsharded rule (up to
/// floating-point reassociation in the distance sums).
///
/// Implements [`Gar`], so a parameter server can swap it in wherever a plain
/// rule is used.
///
/// ```
/// use agg_core::{Gar, GarConfig, GarKind, ShardedAggregator};
/// use agg_tensor::Vector;
/// # fn main() -> Result<(), agg_core::AggregationError> {
/// let config = GarConfig::new(GarKind::MultiKrum, 1);
/// let sharded = ShardedAggregator::new(config, 4)?;
/// let honest = (0..6).map(|_| Vector::from(vec![1.0; 8]));
/// let byzantine = std::iter::once(Vector::from(vec![1e6; 8]));
/// let gradients: Vec<_> = honest.chain(byzantine).collect();
/// let update = sharded.aggregate(&gradients)?;
/// assert!((update[0] - 1.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedAggregator {
    config: GarConfig,
    shards: usize,
    /// The unsharded rule: source of [`GarProperties`], the aggregation path
    /// of the coordinate-wise rules, and the selection and reduction the
    /// distance rules run on the shard-reduced matrix.
    inner: Box<dyn Gar>,
}

impl ShardedAggregator {
    /// Wraps `config`'s rule in an `S`-shard evaluation plan.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::InvalidArgument`] when `shards` is zero
    /// and propagates rule-construction errors.
    pub fn new(config: GarConfig, shards: usize) -> Result<Self> {
        if shards == 0 {
            return Err(AggregationError::InvalidArgument {
                rule: config.kind.name().to_string(),
                message: "a sharded aggregator needs at least one shard".into(),
            });
        }
        let inner = config.build()?;
        Ok(ShardedAggregator { config, shards, inner })
    }

    /// Number of coordinate shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The wrapped rule configuration.
    pub fn config(&self) -> GarConfig {
        self.config
    }

    /// The shard partition for a `d`-dimensional batch.
    pub fn plan(&self, d: usize) -> ShardPlan {
        ShardPlan::new(d, self.shards).expect("constructor guarantees shards >= 1")
    }

    /// The global pair-distance matrix assembled from per-shard partials:
    /// every shard's partials computed in one fan-out of the distance
    /// kernel, a shard-order reduce, and one non-finite → `+∞` mapping at
    /// the end (NaN propagates faithfully through the raw sums).
    pub fn global_distances(&self, batch: &GradientBatch) -> DistanceMatrix {
        let ranges: Vec<Range<usize>> = self.plan(batch.dim()).ranges().collect();
        let mut global = DistanceMatrix::zeros(batch.n());
        for partial in &batch.pairwise_squared_distance_partials_per_range(&ranges) {
            global.accumulate(partial);
        }
        global.map_non_finite_to_infinity();
        global
    }
}

impl Gar for ShardedAggregator {
    fn properties(&self) -> GarProperties {
        self.inner.properties()
    }

    /// Distance rules reduce the shard partials into the global matrix and
    /// hand it to the unsharded rule, which selects once and reduces the
    /// selected rows. Coordinate rules — and a batch below a distance
    /// rule's floor, which the rule refuses before any distance work, with
    /// its own error — go straight to the unsharded rule.
    fn aggregate_batch(&self, batch: &GradientBatch) -> Result<Aggregation> {
        let kind = self.config.kind;
        if kind.uses_distances() && batch.n() >= resilience::resilience_floor(kind, self.config.f) {
            self.inner.aggregate_batch_with_distances(batch, &self.global_distances(batch))
        } else {
            self.inner.aggregate_batch(batch)
        }
    }

    fn aggregate_batch_with_distances(
        &self,
        batch: &GradientBatch,
        distances: &DistanceMatrix,
    ) -> Result<Aggregation> {
        self.inner.aggregate_batch_with_distances(batch, distances)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GarKind;
    use agg_tensor::rng::{gaussian_vector, seeded_rng};
    use agg_tensor::Vector;

    fn random_batch(n: usize, d: usize, seed: u64) -> GradientBatch {
        let mut rng = seeded_rng(seed);
        let vs: Vec<Vector> = (0..n).map(|_| gaussian_vector(&mut rng, d, 0.0, 1.0)).collect();
        GradientBatch::from_vectors(&vs).unwrap()
    }

    #[test]
    fn zero_shards_is_rejected() {
        assert!(ShardedAggregator::new(GarConfig::new(GarKind::Average, 0), 0).is_err());
    }

    #[test]
    fn properties_delegate_to_the_wrapped_rule() {
        let sharded = ShardedAggregator::new(GarConfig::new(GarKind::Bulyan, 2), 4).unwrap();
        assert_eq!(sharded.name(), "bulyan");
        assert_eq!(sharded.shards(), 4);
        assert_eq!(sharded.config().f, 2);
    }

    #[test]
    fn sharded_distances_match_the_unsharded_matrix() {
        let batch = random_batch(9, 257, 3);
        let sharded = ShardedAggregator::new(GarConfig::new(GarKind::MultiKrum, 2), 5).unwrap();
        let global = sharded.global_distances(&batch);
        let reference = batch.pairwise_squared_distances();
        for i in 0..9 {
            for j in 0..9 {
                let a = global.get(i, j);
                let e = reference.get(i, j);
                assert!((a - e).abs() <= 1e-4 * e.abs().max(1.0), "({i},{j}): {a} vs {e}");
            }
        }
    }

    #[test]
    fn selection_matches_the_unsharded_rule() {
        let mut batch = random_batch(12, 65, 7);
        batch.push_row(&vec![1e6; 65]).unwrap();
        let config = GarConfig::new(GarKind::MultiKrum, 2);
        let sharded = ShardedAggregator::new(config, 4).unwrap();
        let selected = sharded.aggregate_batch(&batch).unwrap().selected.unwrap();
        let unsharded = crate::MultiKrum::new(2).unwrap().aggregate_batch(&batch).unwrap().selected;
        assert_eq!(Some(selected.clone()), unsharded);
        assert!(!selected.contains(&12), "the outlier must not be selected");
    }

    #[test]
    fn coordinate_rules_have_no_selection_phase() {
        let batch = random_batch(5, 16, 1);
        let sharded = ShardedAggregator::new(GarConfig::new(GarKind::Median, 1), 3).unwrap();
        assert_eq!(sharded.aggregate_batch(&batch).unwrap().selected, None);
    }

    #[test]
    fn parallel_and_sequential_shards_agree_bitwise() {
        // Large enough that d·n clears the parallel gate: the one fan-out
        // over every shard must reproduce one kernel call per shard, folded
        // in shard order, bit for bit.
        let batch = random_batch(13, 40_000, 11);
        for kind in [GarKind::MultiKrum, GarKind::Bulyan] {
            let config = GarConfig::new(kind, 2);
            let sharded = ShardedAggregator::new(config, 4).unwrap();
            let mut sequential = DistanceMatrix::zeros(13);
            for range in sharded.plan(40_000).ranges() {
                sequential.accumulate(&batch.pairwise_squared_distance_partials(range));
            }
            sequential.map_non_finite_to_infinity();
            let parallel = sharded.aggregate_batch(&batch).unwrap();
            let shard_order = config
                .build()
                .unwrap()
                .aggregate_batch_with_distances(&batch, &sequential)
                .unwrap();
            assert_eq!(parallel.selected, shard_order.selected, "{kind}");
            assert_eq!(
                parallel.output.as_slice(),
                shard_order.output.as_slice(),
                "{kind}: shard-parallel aggregation must be bit-identical to shard order"
            );
        }
    }

    #[test]
    fn streamed_distances_aggregate_is_bit_identical_to_the_batch_path() {
        // The streaming accumulator replays the sharded partial pipeline, so
        // handing its matrix to `aggregate_batch_with_distances` must return
        // the same bits as the batch entry point for every distance rule.
        let batch = random_batch(9, 1500, 17);
        for (kind, f) in [(GarKind::Krum, 2), (GarKind::MultiKrum, 2), (GarKind::Bulyan, 1)] {
            let sharded = ShardedAggregator::new(GarConfig::new(kind, f), 4).unwrap();
            let mut acc = agg_tensor::StreamingDistances::sharded(9, 1500, 4).unwrap();
            for slot in [6, 0, 8, 2, 4, 1, 7, 5, 3] {
                acc.row_arrived(&batch, slot);
            }
            let keep: Vec<usize> = (0..9).collect();
            let streamed =
                sharded.aggregate_batch_with_distances(&batch, &acc.matrix(&batch, &keep)).unwrap();
            let reference = sharded.aggregate_batch(&batch).unwrap();
            assert_eq!(streamed, reference, "{kind}");
        }
    }

    #[test]
    fn with_distances_rejects_a_mismatched_matrix() {
        let batch = random_batch(9, 64, 2);
        let sharded = ShardedAggregator::new(GarConfig::new(GarKind::MultiKrum, 2), 2).unwrap();
        let wrong = DistanceMatrix::zeros(8);
        assert!(sharded.aggregate_batch_with_distances(&batch, &wrong).is_err());
    }

    #[test]
    fn coordinate_rules_ignore_a_supplied_matrix() {
        let batch = random_batch(7, 48, 4);
        let sharded = ShardedAggregator::new(GarConfig::new(GarKind::Median, 1), 3).unwrap();
        let matrix = sharded.global_distances(&batch);
        let with = sharded.aggregate_batch_with_distances(&batch, &matrix).unwrap();
        let without = sharded.aggregate_batch(&batch).unwrap();
        assert_eq!(with, without);
    }

    #[test]
    fn empty_batch_is_rejected_like_the_plain_rule() {
        let sharded = ShardedAggregator::new(GarConfig::new(GarKind::Average, 0), 2).unwrap();
        let empty = GradientBatch::new(4);
        assert!(matches!(
            sharded.aggregate_batch(&empty).unwrap_err(),
            AggregationError::NoGradients(_)
        ));
    }

    #[test]
    fn more_shards_than_coordinates_still_aggregates() {
        let batch = random_batch(9, 3, 5);
        let sharded = ShardedAggregator::new(GarConfig::new(GarKind::MultiKrum, 2), 7).unwrap();
        let out = sharded.aggregate_batch(&batch).unwrap().output;
        let reference = GarConfig::new(GarKind::MultiKrum, 2)
            .build()
            .unwrap()
            .aggregate_batch(&batch)
            .unwrap()
            .output;
        for c in 0..3 {
            assert!((out[c] - reference[c]).abs() <= 1e-6 * reference[c].abs().max(1.0));
        }
    }
}
