//! `shard_perf` — shard-parallel aggregation perf trajectory.
//!
//! Times one aggregation round (median ns/round) at the paper's deployment
//! size (n = 19 workers, f = 4 Byzantine, d = 100k) on two code paths:
//!
//! * **unsharded** — the live single-shard arena path
//!   (`GarConfig::build()` + `aggregate_batch`), the baseline every
//!   previous PR's numbers refer to;
//! * **sharded S ∈ {1, 2, 4, 8}** — the `ShardedAggregator` pipeline:
//!   per-shard partial distance matrices, shard-order reduce, then the
//!   unsharded rule's selection and reduction on the global matrix; the
//!   coordinate rules run one column kernel per shard.
//!
//! Both paths run the same blocked distance kernel, so the ratio measures
//! what sharding adds or saves, not a kernel difference. Results are written as machine-readable JSON (default
//! `BENCH_shard.json`, override with `--out <path>`) so CI can archive the
//! trajectory, and printed as a table for humans.

use agg_core::{Gar, GarConfig, GarKind, ShardedAggregator};
use agg_tensor::rng::{gaussian_fill, seeded_rng};
use agg_tensor::GradientBatch;
use std::fmt::Write as _;
use std::time::Instant;

/// The paper's deployment: 19 workers, 4 declared Byzantine, 100k proxy
/// dimension.
const N: usize = 19;
const F: usize = 4;
const D: usize = 100_000;
const SEED: u64 = 11;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// The shard count the headline speedup column reports (the acceptance
/// configuration: S = 4 shard-parallel vs the single-shard arena path).
const KEY_SHARDS: usize = 4;
/// The three distance-decomposed rules plus both coordinate-wise
/// order-statistic rules, so the per-shard column kernels (which inherit the
/// selection-network speedup directly) are tracked alongside the distance
/// pipeline.
const RULES: [GarKind; 5] =
    [GarKind::MultiKrum, GarKind::Krum, GarKind::Bulyan, GarKind::Median, GarKind::TrimmedMean];

/// Per-rule time budget across all arms; each arm still takes at least
/// `MIN_SAMPLES` runs.
const BUDGET_NS: u128 = 2_000_000_000;
const MIN_SAMPLES: usize = 5;
const MAX_SAMPLES: usize = 60;

/// Median ns/round per arm, sampled **round-robin across the arms** (first
/// pass is warm-up): every arm of a rule sees the same slice of the
/// machine's thermal/frequency drift, so the sharded-over-unsharded ratios
/// compare like with like. Sampling each arm to completion in sequence
/// — the previous scheme — systematically penalised whichever arm ran last
/// by a few percent, which is the same order as the overhead being
/// measured.
fn interleaved_median_ns(arms: &mut [&mut dyn FnMut()]) -> Vec<u128> {
    for run in arms.iter_mut() {
        run();
    }
    let mut samples: Vec<Vec<u128>> = vec![Vec::new(); arms.len()];
    let mut total = 0u128;
    while samples[0].len() < MIN_SAMPLES || (total < BUDGET_NS && samples[0].len() < MAX_SAMPLES) {
        for (run, bucket) in arms.iter_mut().zip(samples.iter_mut()) {
            let start = Instant::now();
            run();
            let ns = start.elapsed().as_nanos().max(1);
            total += ns;
            bucket.push(ns);
        }
    }
    samples
        .into_iter()
        .map(|mut bucket| {
            bucket.sort_unstable();
            bucket[bucket.len() / 2]
        })
        .collect()
}

struct RuleRow {
    rule: &'static str,
    unsharded_ns: u128,
    /// `(shards, median ns)` in `SHARD_COUNTS` order.
    sharded_ns: Vec<(usize, u128)>,
}

impl RuleRow {
    fn speedup(&self, shards: usize) -> f64 {
        let ns = self
            .sharded_ns
            .iter()
            .find(|(s, _)| *s == shards)
            .map(|&(_, ns)| ns)
            .unwrap_or(u128::MAX);
        self.unsharded_ns as f64 / ns.max(1) as f64
    }
}

fn main() {
    let mut out_path = String::from("BENCH_shard.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out_path = args.next().expect("--out requires a path");
            }
            other => {
                eprintln!("shard_perf: unknown argument '{other}' (supported: --out <path>)");
                std::process::exit(2);
            }
        }
    }

    // One round of gradients, packed once — both arms aggregate the same
    // arena, so the comparison isolates the aggregation path.
    let mut rng = seeded_rng(0x5AAD ^ SEED);
    let mut batch = GradientBatch::with_capacity(D, N);
    for _ in 0..N {
        batch.push_row_with(|dst| gaussian_fill(&mut rng, dst, 0.0, 1.0));
    }

    println!("shard_perf: n = {N}, f = {F}, d = {D} (median ns/round)");
    let mut header = format!("{:<11} {:>13}", "rule", "unsharded_ns");
    for shards in SHARD_COUNTS {
        let _ = write!(header, " {:>13}", format!("S={shards}_ns"));
    }
    let _ = write!(header, " {:>8}", format!("S{KEY_SHARDS}_spd"));
    println!("{header}");

    let mut rows: Vec<RuleRow> = Vec::new();
    for kind in RULES {
        let config = GarConfig::new(kind, F);
        let unsharded = config.build().expect("valid GAR config");
        let sharded: Vec<ShardedAggregator> = SHARD_COUNTS
            .iter()
            .map(|&shards| ShardedAggregator::new(config, shards).expect("valid shard count"))
            .collect();
        let batch_ref = &batch;
        let mut run_unsharded =
            || drop(unsharded.aggregate_batch(batch_ref).expect("aggregation succeeds"));
        let mut run_sharded: Vec<Box<dyn FnMut()>> = sharded
            .iter()
            .map(|rule| -> Box<dyn FnMut()> {
                Box::new(move || {
                    drop(rule.aggregate_batch(batch_ref).expect("aggregation succeeds"));
                })
            })
            .collect();
        let mut arms: Vec<&mut dyn FnMut()> = vec![&mut run_unsharded];
        arms.extend(run_sharded.iter_mut().map(|b| &mut **b as &mut dyn FnMut()));
        let medians = interleaved_median_ns(&mut arms);
        let unsharded_ns = medians[0];
        let sharded_ns: Vec<(usize, u128)> =
            SHARD_COUNTS.iter().copied().zip(medians[1..].iter().copied()).collect();
        let row = RuleRow { rule: kind.name(), unsharded_ns, sharded_ns };
        let mut line = format!("{:<11} {:>13}", row.rule, row.unsharded_ns);
        for &(_, ns) in &row.sharded_ns {
            let _ = write!(line, " {ns:>13}");
        }
        let _ = write!(line, " {:>7.2}x", row.speedup(KEY_SHARDS));
        println!("{line}");
        rows.push(row);
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"shard_perf\",\n");
    let _ = writeln!(json, "  \"n\": {N},");
    let _ = writeln!(json, "  \"f\": {F},");
    let _ = writeln!(json, "  \"d\": {D},");
    json.push_str("  \"unit\": \"median_ns_per_round\",\n");
    json.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let sharded: Vec<String> = row
            .sharded_ns
            .iter()
            .map(|&(s, ns)| {
                format!("{{\"shards\": {s}, \"ns\": {ns}, \"speedup\": {:.2}}}", row.speedup(s))
            })
            .collect();
        let _ = writeln!(
            json,
            "    {{\"rule\": \"{}\", \"unsharded_ns\": {}, \"sharded\": [{}]}}{comma}",
            row.rule,
            row.unsharded_ns,
            sharded.join(", ")
        );
    }
    json.push_str("  ]\n");
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write BENCH_shard.json");
    println!("\nwrote {out_path}");
}
