//! The streaming round pipeline: double-buffered submission arenas plus the
//! incremental distance accumulator.
//!
//! The barrier round loop waits for every submission, then starts the
//! O(n²·d) distance work from scratch. The streaming loop inverts that
//! around per-row completion events:
//!
//! * **Per-row distance work.** When a worker's row completes, its distance
//!   contributions against every previously arrived row fold into
//!   [`agg_tensor::StreamingDistances`] immediately, so by the time the
//!   quorum is reached the matrix is one cheap cross-shard fold away.
//!   Bit-identity with the batch kernels is pinned at the tensor layer, so
//!   flipping streaming on or off never changes a round's result.
//! * **Double-buffered arenas.** The pipeline owns two submission arenas and
//!   flips them every round: round `t + 1`'s ingest lands in one arena while
//!   round `t`'s aggregation can still read the other, so the wire never
//!   waits on the GAR kernel.
//! * **Quorum.** [`QuorumPolicy`] decides when the server stops waiting:
//!   after every worker (the paper's synchronous baseline), after the first
//!   `n − f` arrivals (stragglers are indistinguishable from Byzantine
//!   workers, so a GAR tolerating `f` of them may simply not wait), or after
//!   an explicit count. Late rows are dropped exactly like transport losses
//!   — the round compacts them away — which keeps the quorum semantics
//!   identical whether streaming is on or off.

use crate::{PsError, Result};
use agg_tensor::{DistanceMatrix, GradientBatch, StreamingDistances};
use serde::{Deserialize, Serialize};

/// When the server stops waiting for stragglers and aggregates the round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum QuorumPolicy {
    /// Wait for every worker — the paper's synchronous baseline and the
    /// default.
    #[default]
    All,
    /// Aggregate at the first `n − f` arrivals. A GAR declared to tolerate
    /// `f` Byzantine workers tolerates `f` missing ones just the same, so
    /// the round never waits for the `f` slowest submissions.
    NMinusF,
    /// Aggregate at the first `k` arrivals (clamped to `1..=n`).
    Count(usize),
}

impl QuorumPolicy {
    /// How many arrivals the round waits for under this policy.
    pub fn accept_count(&self, workers: usize, f: usize) -> usize {
        match *self {
            QuorumPolicy::All => workers,
            QuorumPolicy::NMinusF => workers.saturating_sub(f).max(1),
            QuorumPolicy::Count(k) => k.clamp(1, workers),
        }
    }
}

/// Streaming knobs of the round engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct StreamingConfig {
    /// Run distance work per arriving row instead of batch-at-barrier. Off
    /// by default; results are bit-identical either way.
    pub enabled: bool,
    /// When the round stops waiting for stragglers. Applies in both modes —
    /// the quorum semantic is independent of the streaming mechanism.
    pub quorum: QuorumPolicy,
}

/// Double-buffered submission arenas plus (optionally) the incremental
/// distance accumulator — the server-side state of a streaming round.
#[derive(Debug)]
pub struct RoundPipeline {
    arenas: [GradientBatch; 2],
    front: usize,
    distances: Option<StreamingDistances>,
}

impl RoundPipeline {
    /// Two empty arenas sized for `workers` rows of dimension `dim`.
    pub fn new(dim: usize, workers: usize) -> Self {
        RoundPipeline {
            arenas: [
                GradientBatch::with_capacity(dim, workers),
                GradientBatch::with_capacity(dim, workers),
            ],
            front: 0,
            distances: None,
        }
    }

    /// Enables per-row distance accumulation matching the server tier's
    /// `shards` (one shard for an unsharded server): the column-blocked
    /// partial pipeline folded in shard order, bit-identical to the batch
    /// path it replaces.
    ///
    /// # Errors
    ///
    /// Returns [`PsError`] when the shard plan cannot be built.
    pub fn enable_distance_streaming(
        &mut self,
        slots: usize,
        dim: usize,
        shards: usize,
    ) -> Result<()> {
        self.distances =
            Some(StreamingDistances::sharded(slots, dim, shards).map_err(PsError::from)?);
        Ok(())
    }

    /// Whether per-row distance accumulation is active.
    pub fn distance_streaming(&self) -> bool {
        self.distances.is_some()
    }

    /// Flips the buffers and prepares the new front arena for `rows`
    /// submissions. The previous round's arena is left untouched in the back
    /// buffer, so an in-flight aggregation can keep reading it while this
    /// round's ingest proceeds.
    pub fn begin_round(&mut self, rows: usize) {
        self.front ^= 1;
        self.arenas[self.front].resize_rows(rows);
        if let Some(distances) = self.distances.as_mut() {
            distances.reset();
        }
    }

    /// The current round's submission arena.
    pub fn arena(&self) -> &GradientBatch {
        &self.arenas[self.front]
    }

    /// Mutable view of the current round's submission arena (workers deliver
    /// into disjoint rows of it).
    pub fn arena_mut(&mut self) -> &mut GradientBatch {
        &mut self.arenas[self.front]
    }

    /// Per-row completion event: records the freshly completed arena row in
    /// the distance state, which folds it against every previously arrived
    /// row once its arrival group fills. A no-op when distance streaming is
    /// disabled.
    ///
    /// # Panics
    ///
    /// Panics when `slot` is out of range or already completed this round
    /// (upstream deduplication is the caller's contract).
    pub fn row_done(&mut self, slot: usize) {
        if let Some(distances) = self.distances.as_mut() {
            distances.row_arrived(&self.arenas[self.front], slot);
        }
    }

    /// Extracts the distance matrix over the compacted slot set `keep`
    /// (strictly ascending worker slots, all completed). `None` when
    /// distance streaming is disabled — the caller falls back to the batch
    /// kernels.
    pub fn matrix(&mut self, keep: &[usize]) -> Option<DistanceMatrix> {
        let arena = &self.arenas[self.front];
        self.distances.as_mut().map(|distances| distances.matrix(arena, keep))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agg_tensor::rng::{gaussian_fill, seeded_rng};

    #[test]
    fn quorum_accept_counts() {
        assert_eq!(QuorumPolicy::All.accept_count(19, 4), 19);
        assert_eq!(QuorumPolicy::NMinusF.accept_count(19, 4), 15);
        assert_eq!(QuorumPolicy::NMinusF.accept_count(3, 5), 1);
        assert_eq!(QuorumPolicy::Count(7).accept_count(19, 4), 7);
        assert_eq!(QuorumPolicy::Count(0).accept_count(19, 4), 1);
        assert_eq!(QuorumPolicy::Count(50).accept_count(19, 4), 19);
        assert_eq!(QuorumPolicy::default(), QuorumPolicy::All);
    }

    #[test]
    fn buffers_flip_and_the_back_round_survives() {
        let mut pipeline = RoundPipeline::new(4, 3);
        pipeline.begin_round(3);
        pipeline.arena_mut().row_mut(0).copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let first_round_row = pipeline.arena().row(0).to_vec();
        pipeline.begin_round(3);
        pipeline.arena_mut().row_mut(0).copy_from_slice(&[9.0; 4]);
        // The previous round's arena is in the back buffer, untouched.
        pipeline.begin_round(3);
        assert_eq!(pipeline.arena().row(0), first_round_row.as_slice());
    }

    #[test]
    fn streamed_matrix_matches_the_batch_kernel() {
        let mut pipeline = RoundPipeline::new(257, 6);
        pipeline.enable_distance_streaming(6, 257, 1).unwrap();
        assert!(pipeline.distance_streaming());
        let mut rng = seeded_rng(41);
        pipeline.begin_round(6);
        for slot in 0..6 {
            gaussian_fill(&mut rng, pipeline.arena_mut().row_mut(slot), 0.0, 1.0);
        }
        for slot in [4, 1, 5, 0, 3, 2] {
            pipeline.row_done(slot);
        }
        let keep: Vec<usize> = (0..6).collect();
        let streamed = pipeline.matrix(&keep).unwrap();
        let batch = pipeline.arena().pairwise_squared_distances();
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(streamed.get(i, j).to_bits(), batch.get(i, j).to_bits());
            }
        }
    }

    #[test]
    fn matrix_is_none_without_distance_streaming() {
        let mut pipeline = RoundPipeline::new(8, 2);
        pipeline.begin_round(2);
        pipeline.row_done(0); // no-op
        assert!(pipeline.matrix(&[0]).is_none());
    }
}
