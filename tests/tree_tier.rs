//! The hierarchical (two-level) aggregation tier, end to end.
//!
//! Three contracts:
//!
//! * **Tree == flat where the math composes exactly.** A single-group tree
//!   (g ≥ n) runs the group rule over the whole batch and a degenerate
//!   f = 0 root over one output, so for every coordinate-wise rule the tree
//!   must be *bit-identical* to the flat GAR; multi-group averaging equals
//!   the flat average up to reassociation. Property-tested over arbitrary
//!   batches.
//! * **The tree tier is a pure performance change.** Like the phase-1 and
//!   shard tiers, the grouped stage fans out over rayon but reduces in
//!   ascending group order, so every point of the
//!   `set_phase1_parallel × set_tree_parallel` grid must produce the same
//!   `TrainingReport` bits. CI reruns this suite under
//!   `RAYON_NUM_THREADS={1,4}` × `AGG_STREAMING={on,off}` — streaming
//!   distance accumulation is deliberately a no-op in tree mode, and these
//!   pins prove the flag stays inert.
//! * **Composed resilience holds at engine scale.** A mid-scale tree run
//!   (n = 64, Multi-Krum at both levels) trains through the full
//!   cluster-placement + per-group-link path, and the colluding-group
//!   adversary that concentrates all its workers into the fewest groups is
//!   still rejected at the root under the composed bound.

use agg_attacks::AttackKind;
use agg_core::{GarConfig, GarKind, TreeAggregator, TreeConfig};
use agg_net::{LinkConfig, LossPolicy};
use agg_nn::schedule::LearningRate;
use agg_ps::{RunnerConfig, SyncTrainingEngine, TrainingReport, TransportKind};
use agg_tensor::{GradientBatch, Vector};
use proptest::prelude::*;

fn base_config(tree: TreeConfig, workers: usize) -> RunnerConfig {
    let mut config = RunnerConfig {
        experiment: agg_ps::ExperimentKind::MlpBlobs {
            input_dim: 16,
            hidden: 24,
            classes: 4,
            samples: 600,
        },
        gar: tree.root,
        tree: Some(tree),
        workers,
        max_steps: 12,
        eval_every: 4,
        eval_samples: 120,
        batch_size: 16,
        learning_rate: LearningRate::Fixed { rate: 0.01 },
        seed: 37,
        ..RunnerConfig::quick_default()
    };
    // The CI matrix hook: tree mode must be bit-identical whether or not the
    // streaming flag is set, because streaming accumulation is inert here.
    if matches!(std::env::var("AGG_STREAMING").as_deref(), Ok("on") | Ok("1") | Ok("true")) {
        config.streaming.enabled = true;
    }
    config
}

/// Bit-for-bit equality of everything the gradient path determines.
fn assert_reports_identical(a: &TrainingReport, b: &TrainingReport, label: &str) {
    assert_eq!(a.label, b.label, "{label}: labels");
    assert_eq!(a.steps_completed, b.steps_completed, "{label}: steps");
    assert_eq!(a.skipped_updates, b.skipped_updates, "{label}: skips");
    assert_eq!(a.refused_rounds, b.refused_rounds, "{label}: refusals");
    assert_eq!(a.trace.len(), b.trace.len(), "{label}: trace length");
    for (p, q) in a.trace.points().iter().zip(b.trace.points()) {
        assert_eq!(p.step, q.step, "{label}: trace steps");
        assert_eq!(
            p.accuracy.to_bits(),
            q.accuracy.to_bits(),
            "{label}: accuracy diverged at step {}",
            p.step
        );
        assert_eq!(p.loss.to_bits(), q.loss.to_bits(), "{label}: loss diverged at step {}", p.step);
    }
}

#[test]
fn tree_engine_is_deterministic_across_the_parallel_grid() {
    // d = 5380 and n = 40 puts the grouped stage past the rayon work
    // threshold, so the parallel arms genuinely fan groups out; all four
    // grid points must still agree bit-for-bit.
    let tree = TreeConfig::uniform(GarKind::Median, 1, 2, 8);
    let mut config = base_config(tree, 40);
    config.experiment =
        agg_ps::ExperimentKind::MlpBlobs { input_dim: 16, hidden: 256, classes: 4, samples: 600 };
    config.max_steps = 8;
    let mut reports = Vec::new();
    for phase1 in [false, true] {
        for tree_parallel in [false, true] {
            let mut engine = SyncTrainingEngine::new(config.clone()).expect("valid config");
            engine.set_phase1_parallel(phase1);
            engine.set_tree_parallel(tree_parallel);
            reports.push(engine.run().expect("run"));
        }
    }
    for report in &reports[1..] {
        assert_reports_identical(&reports[0], report, "parallel grid");
    }
    assert_eq!(reports[0].steps_completed, 8);
    assert!(reports[0].label.contains("tree(g=8)"), "label: {}", reports[0].label);
}

#[test]
fn tree_engine_is_deterministic_under_attack() {
    // The colluding-group adversary exercises the declared-f plumbing
    // (AttackContext sees the composed bound) on top of the grid pin.
    // Multi-Krum's floor is 2f + 3, so f = 1 groups need g ≥ 5 and the
    // f = 1 root needs ≥ 5 groups: 30 workers in groups of 6.
    let tree = TreeConfig::uniform(GarKind::MultiKrum, 1, 1, 6);
    let mut config = base_config(tree, 30);
    config.byzantine_count = 3;
    config.attack = AttackKind::GroupCollusion { scale: 8.0, group_size: 6 };
    let mut parallel = SyncTrainingEngine::new(config.clone()).expect("valid config");
    let mut sequential = SyncTrainingEngine::new(config).expect("valid config");
    sequential.set_phase1_parallel(false);
    sequential.set_tree_parallel(false);
    let parallel = parallel.run().expect("parallel run");
    let sequential = sequential.run().expect("sequential run");
    assert_reports_identical(&parallel, &sequential, "collusion grid");
    assert_eq!(parallel.steps_completed, 12);
}

#[test]
fn midscale_tree_round_trains_with_multikrum_at_both_levels() {
    // The engine-scale smoke for the asymptotic claim's correctness half:
    // n = 64 workers in groups of 16 with Multi-Krum at both levels place
    // one aggregator job per group plus a root, and the run learns.
    let tree = TreeConfig::uniform(GarKind::MultiKrum, 6, 0, 16);
    let config = base_config(tree, 64);
    let report = SyncTrainingEngine::new(config).expect("valid config").run().expect("runs");
    assert_eq!(report.steps_completed, 12);
    assert_eq!(report.refused_rounds, 0);
    assert!(report.final_accuracy() > 0.6, "accuracy {}", report.final_accuracy());
}

#[test]
fn a_group_output_lost_on_its_leg_is_never_counted_as_selected() {
    // Selection feedback must describe the round that was applied. Four
    // Median groups of five feed a Multi-Krum root; the last group holds
    // both (stealthy) attackers, and its root-ward leg drops every output.
    // Worker 19's own link is the degraded one too, so worker 18 is the
    // attacker whose row reaches the group stage. The root only ever sees
    // the three honest outputs, so no Byzantine row can have been selected
    // — even though, over all four outputs, the root would pick the
    // attackers' group about half the time.
    let tree = TreeConfig {
        group: GarConfig::new(GarKind::Median, 1),
        root: GarConfig::new(GarKind::MultiKrum, 0),
        group_size: 5,
    };
    let mut config = base_config(tree, 20);
    config.byzantine_count = 2;
    config.attack = AttackKind::None;
    config.transport = TransportKind::Lossy { policy: LossPolicy::DropGradient };
    config.lossy_links = 1;
    config.link = LinkConfig::datacenter().with_drop_rate(1.0);
    let report = SyncTrainingEngine::new(config).expect("valid config").run().expect("runs");
    assert_eq!(report.steps_completed, 12, "three delivered outputs seat the root every round");
    assert_eq!(
        report.byzantine_selected_rounds, 0,
        "a group output the root never received cannot have been selected"
    );
}

/// The flat aggregate of `rows` under `kind`/`f`, as raw bits.
fn flat_bits(kind: GarKind, f: usize, rows: &[Vector]) -> Vec<u32> {
    let batch = GradientBatch::from_vectors(rows).expect("batch");
    let gar = GarConfig::new(kind, f).build().expect("rule");
    gar.aggregate_batch(&batch)
        .expect("flat aggregate")
        .output
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// The tree aggregate of `rows` under `config` with `groups[i] = i / g`,
/// as raw bits.
fn tree_bits(config: TreeConfig, rows: &[Vector]) -> Vec<u32> {
    let batch = GradientBatch::from_vectors(rows).expect("batch");
    let groups: Vec<usize> = (0..rows.len()).map(|i| i / config.group_size).collect();
    let tree = TreeAggregator::new(config).expect("tree");
    tree.aggregate_batch_grouped(&batch, &groups)
        .expect("tree aggregate")
        .output
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A single-group tree (g ≥ n) must be bit-identical to the flat rule
    /// for every coordinate-wise GAR: the group stage aggregates the whole
    /// batch and the f = 0 root is the identity over its one output.
    #[test]
    fn single_group_tree_is_bit_identical_to_flat(
        rows in prop::collection::vec(
            prop::collection::vec(-100.0f32..100.0, 1..48),
            5..25,
        ),
    ) {
        let d = rows[0].len();
        let rows: Vec<Vector> =
            rows.into_iter().map(|mut r| { r.resize(d, 0.5); Vector::from(r) }).collect();
        for (kind, f) in [
            (GarKind::Average, 0),
            (GarKind::Median, 1),
            (GarKind::TrimmedMean, 1),
            (GarKind::MeaMed, 1),
        ] {
            let tree = TreeConfig::uniform(kind, f, 0, 32);
            prop_assert_eq!(
                tree_bits(tree, &rows),
                flat_bits(kind, f, &rows),
                "{} f={} diverged from flat", kind, f
            );
        }
    }

    /// Multi-group averaging composes exactly in real arithmetic when
    /// g | n (equal group sizes make the average of group averages the
    /// global average); in floats only the summation order differs, so the
    /// tree must match flat to reassociation tolerance.
    #[test]
    fn equal_group_average_matches_flat_up_to_reassociation(
        rows in prop::collection::vec(
            prop::collection::vec(-100.0f32..100.0, 1..48),
            4usize..7,
        ),
        group_size in 2usize..6,
    ) {
        let d = rows[0].len();
        // Replicate the generated rows to exactly groups × group_size.
        let n = rows.len() * group_size;
        let rows: Vec<Vector> = (0..n)
            .map(|i| {
                let mut r = rows[i % rows.len()].clone();
                r.resize(d, 0.25);
                r[i % d] += (i / rows.len()) as f32 * 0.125;
                Vector::from(r)
            })
            .collect();
        let tree = TreeConfig::uniform(GarKind::Average, 0, 0, group_size);
        let tree_result = tree_bits(tree, &rows);
        let flat_result = flat_bits(GarKind::Average, 0, &rows);
        for (i, (&t, &f)) in tree_result.iter().zip(&flat_result).enumerate() {
            let (t, f) = (f32::from_bits(t), f32::from_bits(f));
            let tolerance = 1e-4f32.max(f.abs() * 1e-5);
            prop_assert!(
                (t - f).abs() <= tolerance,
                "coordinate {}: tree {} vs flat {}", i, t, f
            );
        }
    }
}
