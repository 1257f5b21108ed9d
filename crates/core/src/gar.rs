//! The [`Gar`] trait: the interface every gradient aggregation rule exposes to
//! the parameter server.

use crate::Result;
use agg_tensor::{DistanceMatrix, GradientBatch, Vector};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The Byzantine-resilience level a rule provides, as defined in §2.2 of the
/// paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Resilience {
    /// No resilience: a single Byzantine gradient can steer the update
    /// arbitrarily (e.g. plain averaging).
    None,
    /// Weak resilience: convergence to *some* flat region is guaranteed, but
    /// the attacker may steer which one (Definition 1).
    Weak,
    /// Strong resilience: in every coordinate the output stays within
    /// `O(1/√d)` of a correct gradient (Definition 2).
    Strong,
}

impl fmt::Display for Resilience {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Resilience::None => "none",
            Resilience::Weak => "weak",
            Resilience::Strong => "strong",
        };
        f.write_str(s)
    }
}

/// Static properties of a gradient aggregation rule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GarProperties {
    /// Short machine-readable name (e.g. `"multi-krum"`), matching the
    /// `--aggregator` flag of the original runner.
    pub name: &'static str,
    /// Resilience level provided by the rule.
    pub resilience: Resilience,
    /// Declared number of Byzantine workers the rule is configured to
    /// tolerate.
    pub f: usize,
    /// Minimum number of submitted gradients required for `f` Byzantine
    /// workers.
    pub minimum_workers: usize,
    /// Whether the rule tolerates non-finite coordinates without an external
    /// sanitisation pass.
    pub tolerates_non_finite: bool,
}

/// What a rule returns for one round: the aggregate, plus the batch rows its
/// selection phase kept.
///
/// `selected` is `None` for coordinate-wise rules, which have no selection
/// phase. Krum, Multi-Krum and Bulyan return the rows they reduced, in the
/// order they picked them, so selection feedback (the Byzantine-selection
/// counter, adaptive attacks, the reputation ledger's exclusion evidence)
/// reads the round that was actually applied and costs no extra pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregation {
    /// The vector the server applies to the model.
    pub output: Vector,
    /// The rows the selection phase kept, or `None` without one.
    pub selected: Option<Vec<usize>>,
}

impl From<Vector> for Aggregation {
    /// A coordinate-wise rule's result: no selection phase.
    fn from(output: Vector) -> Self {
        Aggregation { output, selected: None }
    }
}

/// A Gradient Aggregation Rule (GAR).
///
/// A GAR consumes the `n` gradient estimates submitted in one synchronous
/// step (Equation 4 of the paper) and produces the single vector the server
/// applies to the model. Implementations must be deterministic functions of
/// their input: the server may be replicated and each replica must compute an
/// identical update (§6 of the paper).
///
/// There is one aggregation path: [`Gar::aggregate_batch`] (or
/// [`Gar::aggregate_batch_with_distances`] when the distances are already
/// known) returns the aggregate together with the rule's selection, so a
/// caller never reruns a selection to learn which rows the round used.
///
/// Implementations are `Send + Sync` so the parameter-server simulator can
/// evaluate them from worker threads and the benchmarks can share them.
pub trait Gar: Send + Sync + fmt::Debug {
    /// Static properties (name, resilience, preconditions).
    fn properties(&self) -> GarProperties;

    /// Aggregates one round of gradients packed into a contiguous
    /// [`GradientBatch`] arena — the hot-path entry point — and reports the
    /// rows the rule selected ([`Aggregation`]).
    ///
    /// The arena guarantees dimensional consistency by construction, so
    /// implementations only check their own preconditions (worker count,
    /// corruption). Callers that hold gradients as separate vectors use
    /// [`Gar::aggregate`], which packs them once and delegates here.
    ///
    /// # Errors
    ///
    /// Implementations return [`crate::AggregationError`] when the batch is
    /// empty, too small for the declared `f`, or entirely corrupt.
    fn aggregate_batch(&self, batch: &GradientBatch) -> Result<Aggregation>;

    /// Aggregates one round when the pairwise squared-distance matrix over
    /// the batch rows has already been computed — the entry point of the
    /// streaming round engine and of the sharded aggregator, which reduce
    /// the matrix from per-row or per-shard partials.
    ///
    /// The default ignores the matrix and delegates to
    /// [`Gar::aggregate_batch`]: coordinate-wise rules never consult
    /// distances, so for them the two entry points are the same function.
    /// Distance-based rules (Krum, Multi-Krum, Bulyan and their sharded
    /// wrappers) override this to select directly from the supplied matrix;
    /// [`Gar::aggregate_batch`] is then this function over the batch's own
    /// matrix, computed once.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Gar::aggregate_batch`]; overriding
    /// implementations additionally reject a matrix whose `n` disagrees with
    /// the batch.
    fn aggregate_batch_with_distances(
        &self,
        batch: &GradientBatch,
        _distances: &DistanceMatrix,
    ) -> Result<Aggregation> {
        self.aggregate_batch(batch)
    }

    /// Aggregates one round of gradients (thin adapter over
    /// [`Gar::aggregate_batch`]: validates, packs the arena, aggregates and
    /// keeps the output).
    ///
    /// # Errors
    ///
    /// Implementations return [`crate::AggregationError`] when the submission
    /// violates the rule's preconditions (too few gradients, inconsistent
    /// dimensions) or when every candidate is corrupt.
    fn aggregate(&self, gradients: &[Vector]) -> Result<Vector> {
        let rule = self.properties().name;
        validate_batch(rule, gradients)?;
        let batch = GradientBatch::from_vectors(gradients)
            .expect("validate_batch guarantees a non-empty, consistent batch");
        Ok(self.aggregate_batch(&batch)?.output)
    }

    /// Convenience accessor for the rule name.
    fn name(&self) -> &'static str {
        self.properties().name
    }
}

/// Validates that a batch of gradients is non-empty and dimensionally
/// consistent, returning the common dimension.
///
/// Every concrete rule calls this before touching the data, so the error
/// behaviour is uniform across rules.
///
/// # Errors
///
/// Returns [`crate::AggregationError::NoGradients`] or
/// [`crate::AggregationError::DimensionMismatch`].
pub fn validate_batch(rule: &'static str, gradients: &[Vector]) -> Result<usize> {
    use crate::AggregationError;
    if gradients.is_empty() {
        return Err(AggregationError::NoGradients(rule));
    }
    let d = gradients[0].len();
    for (i, g) in gradients.iter().enumerate() {
        if g.len() != d {
            return Err(AggregationError::DimensionMismatch {
                index: i,
                expected: d,
                actual: g.len(),
            });
        }
    }
    Ok(d)
}

/// Validates that an arena batch is non-empty, returning the gradient count.
///
/// The arena enforces dimensional consistency at construction, so this is
/// the only structural check an [`Gar::aggregate_batch`] implementation
/// needs before its rule-specific preconditions.
///
/// # Errors
///
/// Returns [`crate::AggregationError::NoGradients`].
pub fn ensure_batch_nonempty(rule: &'static str, batch: &GradientBatch) -> Result<usize> {
    if batch.is_empty() {
        return Err(crate::AggregationError::NoGradients(rule));
    }
    Ok(batch.n())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AggregationError;

    #[test]
    fn resilience_ordering_matches_strength() {
        assert!(Resilience::None < Resilience::Weak);
        assert!(Resilience::Weak < Resilience::Strong);
        assert_eq!(Resilience::Strong.to_string(), "strong");
    }

    #[test]
    fn validate_batch_accepts_consistent_input() {
        let gs = vec![Vector::zeros(3), Vector::zeros(3)];
        assert_eq!(validate_batch("test", &gs).unwrap(), 3);
    }

    #[test]
    fn validate_batch_rejects_empty_and_ragged() {
        assert_eq!(validate_batch("test", &[]).unwrap_err(), AggregationError::NoGradients("test"));
        let gs = vec![Vector::zeros(3), Vector::zeros(4)];
        assert!(matches!(
            validate_batch("test", &gs).unwrap_err(),
            AggregationError::DimensionMismatch { index: 1, expected: 3, actual: 4 }
        ));
    }
}
