//! Sharded aggregation: the multi-parameter-server deployment, exactly.
//!
//! The paper's deployment splits the model across several parameter
//! servers. Distance-based GARs look like they resist sharding — Krum needs
//! the full-dimension pairwise distances — but squared L2 distances
//! decompose into per-shard partial sums, so the sharded tier computes one
//! partial distance matrix per shard, reduces them in shard order, selects
//! *once globally*, and each shard then averages only the selected rows of
//! its own coordinate slice. No robustness is lost: this example shows the
//! selected worker set is identical, sharded or not, even while under
//! attack.
//!
//! ```text
//! cargo run --release -p agg-apps --example sharded_aggregation
//! ```

use agg_core::{Gar, GarConfig, GarKind, MultiKrum, ShardedAggregator};
use agg_net::{GradientCodec, ShardedRoundAssembler};
use agg_tensor::rng::{gaussian_vector, seeded_rng};
use agg_tensor::{GradientBatch, ShardPlan, Vector};

const N: usize = 19; // the paper's worker count
const F: usize = 4; // declared Byzantine workers
const D: usize = 10_000;
const SHARDS: usize = 4;

fn main() {
    // One synchronous round: 15 honest gradients around a common descent
    // direction, 4 Byzantine submissions pulling somewhere else entirely.
    let mut rng = seeded_rng(7);
    let mut batch = GradientBatch::with_capacity(D, N);
    for _ in 0..N - F {
        let mut v = Vector::filled(D, 1.0);
        v.axpy(1.0, &gaussian_vector(&mut rng, D, 0.0, 0.05)).expect("same dimension");
        batch.push_row(v.as_slice()).expect("same dimension");
    }
    for _ in 0..F {
        batch.push_row(Vector::filled(D, -75.0).as_slice()).expect("same dimension");
    }

    // The wire side: a sender splits gradients into MTU-sized packets
    // oblivious to sharding; the sharded assembler routes each payload to
    // the shard owning its coordinates, splitting straddling packets.
    let plan = ShardPlan::new(D, SHARDS).expect("at least one shard");
    let codec = GradientCodec::default_mtu();
    let packets = codec.split_bytes(0, 0, batch.row(0));
    let mut assembler = ShardedRoundAssembler::new(plan.clone());
    let mut shard_rows: Vec<Vec<f32>> = plan.ranges().map(|r| vec![0.0f32; r.len()]).collect();
    let mut views: Vec<&mut [f32]> = shard_rows.iter_mut().map(Vec::as_mut_slice).collect();
    let missing = assembler.assemble_into(&packets, &mut views).expect("consistent round");
    println!(
        "wire: {} packets routed into {SHARDS} shard rows ({} coordinates missing)",
        packets.len(),
        missing
    );
    for (s, range) in plan.ranges().enumerate() {
        println!("  shard {s}: coordinates {}..{} ({} wide)", range.start, range.end, range.len());
    }

    // The aggregation side: Multi-Krum over the sharded tier vs the
    // monolithic server.
    let config = GarConfig::new(GarKind::MultiKrum, F);
    let sharded = ShardedAggregator::new(config, SHARDS).expect("valid shard count");
    let monolithic = MultiKrum::new(F).expect("valid f");

    let sharded_update = sharded.aggregate_batch(&batch).expect("aggregates");
    let monolithic_update = monolithic.aggregate_batch(&batch).expect("aggregates");
    let sharded_selection = sharded_update.selected.expect("multi-krum selects");
    let monolithic_selection = monolithic_update.selected.expect("multi-krum selects");
    println!("\nmonolithic selection: {monolithic_selection:?}");
    println!("sharded selection:    {sharded_selection:?}");
    assert_eq!(sharded_selection, monolithic_selection, "the decomposition is exact");
    assert!(
        sharded_selection.iter().all(|&w| w < N - F),
        "no Byzantine worker sneaks into the selection"
    );

    let max_diff = sharded_update
        .output
        .as_slice()
        .iter()
        .zip(monolithic_update.output.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    println!(
        "\nupdates agree to {max_diff:.2e} (selection identical, per-shard averages exact); \
         update[0] = {:.4}",
        sharded_update.output[0]
    );
}
