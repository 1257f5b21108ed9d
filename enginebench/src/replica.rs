//! The traced replica: the engine's round rebuilt from the layers' public
//! functions, with a span around every call into a layer.
//!
//! It follows `SyncTrainingEngine::new` and `SyncTrainingEngine::run` step by
//! step for the configurations the benchmark's workloads use, on the same
//! config and seed, so it must end on the engine's final loss bit for bit;
//! the benchmark checks that it does. What it leaves out feeds only the
//! simulated clock (cost model, GAR calibration, arrival times) and the
//! report's per-worker counters, neither of which the benchmark reports.
//! Configurations that need a path it does not follow are refused in
//! [`Replica::new`].

use crate::trace::{self_times, Span, Tracer};
use crate::{median, percentile, Metric};
use agg_attacks::{Attack, AttackContext, AttackKind};
use agg_core::resilience;
use agg_data::{Dataset, MiniBatchSampler};
use agg_net::{
    ChaosPlan, GradientCodec, LinkConfig, LossyTransport, ReliableTransport, RowTransfer, Transport,
};
use agg_nn::Sequential;
use agg_ps::{
    reputation, FaultAction, FaultPlan, MembershipView, ParameterServer, PsError, QuorumPolicy,
    ReputationLedger, RoundEvidence, RunnerConfig, TransportKind, WorkerRole,
};
use agg_tensor::rng::derive_seed;
use agg_tensor::{GroupPlan, Vector};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::sync::Arc;
use std::time::Instant;

type Result<T> = std::result::Result<T, String>;

fn err(e: impl Display) -> String {
    e.to_string()
}

/// One worker's state: the engine's `Worker` with its parts exposed so each
/// call can be timed.
struct ReplicaWorker {
    id: usize,
    role: WorkerRole,
    model: Sequential,
    dataset: Arc<Dataset>,
    sampler: MiniBatchSampler,
    transport: Box<dyn Transport>,
}

/// What one worker contributed to a round.
#[derive(Default)]
struct WorkerRound {
    honest_gradient: Option<Vector>,
    /// What the wire did with the worker's row; `None` when it sent none.
    transfer: Option<RowTransfer>,
}

impl WorkerRound {
    fn delivered(&self) -> bool {
        self.transfer.is_some_and(|t| t.delivered)
    }
}

/// Counts recorded at the layer boundaries, summed over a run.
#[derive(Debug, Default)]
pub struct Counts {
    rows_crafted: u64,
    distance_passes: u64,
    packets: u64,
    wire_bytes: u64,
    retransmits: u64,
    corrupt_rejects: u64,
    stale_rejects: u64,
    exhausted: u64,
    rows_sent: u64,
    rows_delivered: u64,
    reshuffles: u64,
    quarantines: u64,
}

impl Counts {
    fn row(&mut self, transfer: &RowTransfer) {
        self.packets += transfer.link_stats.sent as u64;
        self.wire_bytes += transfer.bytes_sent as u64;
        self.retransmits += transfer.retransmits as u64;
        self.corrupt_rejects += transfer.corrupt_rejects as u64;
        self.stale_rejects += transfer.stale_epoch_rejects as u64;
        self.exhausted += u64::from(transfer.retransmit_exhausted);
        self.rows_sent += 1;
        self.rows_delivered += u64::from(transfer.delivered);
    }
}

/// The outcome of one traced run.
pub struct ReplicaRun {
    pub final_loss: f64,
    pub failed: u64,
    pub rounds: u64,
    pub run_sec: f64,
    pub spans: Vec<Span>,
    pub counts: Counts,
}

/// The engine's state, built the way `SyncTrainingEngine::new` builds it.
pub struct Replica {
    config: RunnerConfig,
    server: ParameterServer,
    workers: Vec<ReplicaWorker>,
    attack: Box<dyn Attack>,
    eval_model: Sequential,
    test_set: Dataset,
    pipeline: agg_ps::RoundPipeline,
    membership: MembershipView,
    tree_plan: Option<GroupPlan>,
    tree_links: Vec<Box<dyn Transport>>,
    group_epochs: Vec<u32>,
    ledger: Option<ReputationLedger>,
    affinity_sample: Vec<usize>,
}

impl Replica {
    pub fn new(config: RunnerConfig) -> Result<Replica> {
        config.validate().map_err(err)?;
        let unsupported = [
            (!config.fault_plan.is_empty(), "a fault plan"),
            (config.adaptive_churn, "adaptive churn"),
            (config.data_poisoning.is_some(), "data poisoning"),
            (config.shards != 1, "a sharded server"),
            (config.streaming.enabled, "distance streaming"),
            (config.streaming.quorum != QuorumPolicy::All, "a quorum policy"),
            (!config.worker_extra_delay_sec.is_empty(), "straggler delays"),
        ];
        if let Some((_, what)) = unsupported.iter().find(|(set, _)| *set) {
            return Err(format!("the traced replica does not follow runs with {what}"));
        }
        let (model, train, test) = config.experiment.build(config.seed).map_err(err)?;
        let tree_plan = match &config.tree {
            Some(tree) => Some(GroupPlan::new(config.workers, tree.group_size).map_err(err)?),
            None => None,
        };
        let mut server = ParameterServer::new(
            model.parameters(),
            config.gar,
            config.optimizer,
            config.learning_rate,
            config.regularization,
        )
        .map_err(err)?;
        server.set_shards(config.shards).map_err(err)?;
        server.set_tree(config.tree).map_err(err)?;

        let dataset = Arc::new(train);
        let honest_count = config.workers - config.byzantine_count;
        let degraded_from = config.workers.saturating_sub(config.lossy_links);
        let workers = (0..config.workers)
            .map(|id| {
                Ok(ReplicaWorker {
                    id,
                    role: if id < honest_count { WorkerRole::Honest } else { WorkerRole::Attacker },
                    model: config.experiment.build_model(derive_seed(config.seed, id as u64)),
                    dataset: Arc::clone(&dataset),
                    sampler: MiniBatchSampler::new(config.batch_size, config.seed, id as u64)
                        .map_err(err)?,
                    transport: build_link(&config, id as u64, id >= degraded_from)?,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let tree_links = match &tree_plan {
            Some(plan) => (0..plan.group_count())
                .map(|gid| {
                    let degraded = plan.range(gid).end > degraded_from;
                    build_link(&config, (config.workers + gid) as u64, degraded)
                })
                .collect::<Result<_>>()?,
            None => Vec::new(),
        };
        let group_epochs =
            tree_plan.as_ref().map_or_else(Vec::new, |plan| vec![0; plan.group_count()]);
        let dimension = model.param_count();
        let affinity_sample = match &config.reputation {
            Some(cfg) => {
                reputation::affinity_sample_indices(config.seed, dimension, cfg.affinity_max_coords)
            }
            None => Vec::new(),
        };
        Ok(Replica {
            server,
            workers,
            attack: config.attack.build(),
            eval_model: model,
            test_set: test,
            pipeline: agg_ps::RoundPipeline::new(dimension, config.workers),
            membership: MembershipView::new(config.workers),
            tree_plan,
            tree_links,
            group_epochs,
            ledger: config.reputation.map(|cfg| ReputationLedger::new(cfg, config.workers)),
            affinity_sample,
            config,
        })
    }

    /// Test loss at the current parameters, as the engine's evaluator
    /// computes it.
    fn evaluate(&mut self, tracer: &mut Tracer, round: u64) -> Result<f64> {
        tracer.time("nn.eval", round, None, || {
            self.eval_model.set_parameters(self.server.parameters()).map_err(err)?;
            let (batch, labels) =
                self.test_set.head_batch(self.config.eval_samples).map_err(err)?;
            let out = self.eval_model.evaluate_loss(&batch, &labels).map_err(err)?;
            Ok(out.loss as f64)
        })
    }

    /// Trains for the configured steps, as `SyncTrainingEngine::run` does.
    pub fn run(mut self) -> Result<ReplicaRun> {
        let started = Instant::now();
        let mut tracer = Tracer::new();
        let mut counts = Counts::default();
        let mut failed = 0u64;
        let n = self.workers.len();
        let mut previous_selection: Option<Vec<usize>> = None;
        let mut prev_excluded = vec![false; n];
        let mut loss = self.evaluate(&mut tracer, 0)?;

        let declared_f = self.config.tree.map_or(self.config.gar.f, |tree| tree.composed_max_f());
        let elastic = self.ledger.is_some();
        let wants_selection = self.config.gar.kind.uses_distances()
            && (elastic
                || self.config.byzantine_count > 0
                || matches!(self.config.attack, AttackKind::Adaptive));
        let max_steps = self.config.max_steps;
        let eval_every = self.config.eval_every;
        let evaluates = |step: u64| (step + 1).is_multiple_of(eval_every) || step + 1 == max_steps;

        for step in 0..max_steps {
            let round = tracer.begin("round", step, None);
            let parent = Some(round);
            let mut readmitted_now = vec![false; n];
            let floor_ok = tracer.time("ps.membership", step, parent, || {
                if !elastic {
                    return Ok(true);
                }
                self.membership_transitions(step, declared_f, &mut readmitted_now, &mut counts)
            })?;
            if !floor_ok {
                failed += 1;
                tracer.end(round);
                if evaluates(step) {
                    loss = self.evaluate(&mut tracer, self.server.step())?;
                }
                continue;
            }
            let live: Vec<bool> = (0..n).map(|i| self.membership.health(i).is_live()).collect();
            let mut rounds = self.phase1(&mut tracer, step, parent, &live, &mut counts)?;

            // Phase 2: the omniscient adversary crafts the Byzantine rows,
            // which then travel like any other.
            let attacker_ids: Vec<usize> = self
                .workers
                .iter()
                .filter(|w| w.role == WorkerRole::Attacker && live[w.id])
                .map(|w| w.id)
                .collect();
            let crafted = tracer.time("attacks.craft", step, parent, || {
                if attacker_ids.is_empty() {
                    return Vec::new();
                }
                let honest_views: Vec<&[f32]> = rounds
                    .iter()
                    .filter_map(|r| r.honest_gradient.as_ref().map(Vector::as_slice))
                    .collect();
                self.attack.craft(&AttackContext {
                    honest_gradients: &honest_views,
                    model: self.server.parameters(),
                    byzantine_count: attacker_ids.len(),
                    declared_f,
                    step,
                    seed: self.config.seed,
                    total_workers: n,
                    previous_selection: previous_selection.as_deref(),
                })
            });
            counts.rows_crafted += crafted.len() as u64;
            for (&slot, gradient) in attacker_ids.iter().zip(&crafted) {
                let worker = &mut self.workers[slot];
                let dst = self.pipeline.arena_mut().row_mut(slot);
                let transfer = tracer
                    .time("net.transfer", step, parent, || {
                        worker.transport.transfer_into(slot as u32, step, gradient.as_slice(), dst)
                    })
                    .map_err(err)?;
                counts.row(&transfer);
                rounds[slot].transfer = Some(transfer);
            }

            // Phase 3. Under the `All` quorum every delivered row is kept.
            let keep: Vec<bool> = rounds.iter().map(WorkerRound::delivered).collect();
            let kept_slots: Vec<usize> = (0..n).filter(|&i| keep[i]).collect();
            tracer.time("ps.ledger", step, parent, || {
                self.ledger_fold(
                    step,
                    &rounds,
                    &keep,
                    &readmitted_now,
                    &mut prev_excluded,
                    &mut counts,
                )
            })?;
            let tree_groups: Option<Vec<usize>> =
                tracer.time("core.tree_group", step, parent, || {
                    self.tree_plan
                        .as_ref()
                        .map(|plan| kept_slots.iter().map(|&slot| plan.group_of(slot)).collect())
                });
            tracer.time("tensor.compact", step, parent, || {
                self.pipeline.arena_mut().retain_rows(&keep)
            });
            let outcome = if self.pipeline.arena().is_empty() {
                Err(PsError::Aggregation("no submissions survived the transport".into()))
            } else if let Some(groups) = &tree_groups {
                self.tree_round(&mut tracer, step, parent, groups, &mut counts)
            } else {
                if self.config.gar.kind.uses_distances() {
                    counts.distance_passes += 1;
                }
                let arena = self.pipeline.arena();
                let server = &mut self.server;
                apply_timed(&mut tracer, step, parent, || server.apply_round_batch(arena))
            };
            match outcome {
                Ok(()) => {
                    let selection = tracer.time("core.select", step, parent, || {
                        if !wants_selection {
                            return Ok(None);
                        }
                        let arena = self.pipeline.arena();
                        match &tree_groups {
                            Some(groups) => self.server.tree_selected_rows(arena, groups),
                            None => {
                                counts.distance_passes += 1;
                                self.server.selected_rows(arena, None)
                            }
                        }
                    });
                    if let Some(rows) = selection.map_err(err)? {
                        if self.ledger.is_some() {
                            for &slot in &kept_slots {
                                prev_excluded[slot] = true;
                            }
                            for &r in &rows {
                                prev_excluded[kept_slots[r]] = false;
                            }
                        }
                        previous_selection = Some(rows.iter().map(|&r| kept_slots[r]).collect());
                    }
                }
                Err(PsError::Aggregation(_)) => failed += 1,
                Err(other) => return Err(err(other)),
            }
            tracer.end(round);
            if evaluates(step) {
                loss = self.evaluate(&mut tracer, self.server.step())?;
            }
        }
        Ok(ReplicaRun {
            final_loss: loss,
            failed,
            rounds: max_steps,
            run_sec: started.elapsed().as_secs_f64(),
            spans: tracer.into_spans(),
            counts,
        })
    }

    /// The ledger's readmissions and quarantines, then the round's
    /// membership transitions, epoch stamps and resilience-floor check.
    /// Returns whether the live set can seat the round.
    fn membership_transitions(
        &mut self,
        step: u64,
        declared_f: usize,
        readmitted_now: &mut [bool],
        counts: &mut Counts,
    ) -> Result<bool> {
        let n = self.workers.len();
        let mut plan = FaultPlan::empty();
        if let Some(ledger) = &mut self.ledger {
            for worker in ledger.due_for_readmission(step) {
                plan = plan.with(step, worker, FaultAction::Rejoin);
                ledger.readmit(step, worker);
                readmitted_now[worker] = true;
            }
            let budget = match ledger.config().max_quarantined {
                0 => declared_f,
                cap => cap,
            };
            let mut live_sim: Vec<bool> =
                (0..n).map(|w| self.membership.health(w).is_live() || readmitted_now[w]).collect();
            for candidate in ledger.quarantine_candidates() {
                if ledger.quarantined_count() >= budget {
                    break;
                }
                let was_live = live_sim[candidate];
                live_sim[candidate] = false;
                let floor_ok = match &self.tree_plan {
                    Some(tree_plan) => tree_floor(&self.config, tree_plan, &live_sim),
                    None => {
                        let f_eff =
                            self.config.gar.f.saturating_sub(ledger.quarantined_count() + 1);
                        live_sim.iter().filter(|&&l| l).count()
                            >= resilience::resilience_floor(self.config.gar.kind, f_eff)
                    }
                };
                if !floor_ok {
                    live_sim[candidate] = was_live;
                    continue;
                }
                plan = plan.with(step, candidate, FaultAction::Crash);
                ledger.begin_quarantine(step, candidate);
                counts.quarantines += 1;
            }
        }
        let transitions = self.membership.apply_round(&plan, step);
        // Tree mode fences each worker at its group's epoch, which only the
        // group's own crashes and rejoins bump; the flat tier fences at the
        // view's epoch.
        if let Some(tree_plan) = &self.tree_plan {
            for &w in transitions.crashed.iter().chain(&transitions.rejoined) {
                self.group_epochs[tree_plan.group_of(w)] += 1;
            }
        }
        for worker in &mut self.workers {
            let epoch = match &self.tree_plan {
                Some(tree_plan) => self.group_epochs[tree_plan.group_of(worker.id)],
                None => self.membership.epoch(),
            };
            worker.transport.set_expected_epoch(Some(epoch));
            if self.membership.health(worker.id).is_live()
                && !transitions.rejoined.contains(&worker.id)
            {
                worker.transport.set_epoch(epoch);
            }
        }
        Ok(match &self.tree_plan {
            Some(tree_plan) => {
                let live: Vec<bool> = (0..n).map(|w| self.membership.health(w).is_live()).collect();
                tree_floor(&self.config, tree_plan, &live)
            }
            None => {
                let f_eff = match &self.ledger {
                    Some(ledger) => self.config.gar.f.saturating_sub(ledger.quarantined_count()),
                    None => self.config.gar.f,
                };
                self.membership.satisfies_floor(self.config.gar.kind, f_eff)
            }
        })
    }

    /// Phase 1: honest workers compute and send, fanned out over rayon like
    /// the engine's phase 1, each timing its own calls.
    fn phase1(
        &mut self,
        tracer: &mut Tracer,
        step: u64,
        parent: Option<usize>,
        live: &[bool],
        counts: &mut Counts,
    ) -> Result<Vec<WorkerRound>> {
        let n = self.workers.len();
        let params = self.server.parameters().clone();
        self.pipeline.begin_round(n);
        let phase1 = tracer.begin("phase1", step, parent);
        let clock = tracer.clock();
        let run_worker = |(worker, dst): (&mut ReplicaWorker, &mut [f32])| {
            let mut spans = Vec::with_capacity(4);
            let mut result = || -> Result<WorkerRound> {
                if !live[worker.id] || worker.role == WorkerRole::Attacker {
                    return Ok(WorkerRound::default());
                }
                clock
                    .time_into(&mut spans, "nn.set_params", step, Some(phase1), || {
                        worker.model.set_parameters(&params)
                    })
                    .map_err(err)?;
                let (batch, labels) = clock
                    .time_into(&mut spans, "data.next_batch", step, Some(phase1), || {
                        worker.sampler.next_batch(&worker.dataset)
                    })
                    .map_err(err)?;
                let gradient = clock
                    .time_into(&mut spans, "nn.gradient", step, Some(phase1), || {
                        worker.model.gradient(&batch, &labels)
                    })
                    .map_err(err)?
                    .gradient;
                let transfer = clock
                    .time_into(&mut spans, "net.transfer", step, Some(phase1), || {
                        worker.transport.transfer_into(
                            worker.id as u32,
                            step,
                            gradient.as_slice(),
                            dst,
                        )
                    })
                    .map_err(err)?;
                Ok(WorkerRound { honest_gradient: Some(gradient), transfer: Some(transfer) })
            };
            let result = result();
            (result, spans)
        };
        let jobs: Vec<(&mut ReplicaWorker, &mut [f32])> =
            self.workers.iter_mut().zip(self.pipeline.arena_mut().rows_mut()).collect();
        let results: Vec<_> = jobs.into_par_iter().map(run_worker).collect();
        tracer.end(phase1);
        let mut rounds = Vec::with_capacity(n);
        for (result, spans) in results {
            for span in spans {
                tracer.push(span);
            }
            let round = result?;
            if let Some(transfer) = &round.transfer {
                counts.row(transfer);
            }
            rounds.push(round);
        }
        Ok(rounds)
    }

    /// The reputation fold before aggregation: collusion sketches over the
    /// delivered rows, the round's evidence, and the tree's containment
    /// reshuffle at its epoch boundary.
    fn ledger_fold(
        &mut self,
        step: u64,
        rounds: &[WorkerRound],
        keep: &[bool],
        readmitted_now: &[bool],
        prev_excluded: &mut [bool],
        counts: &mut Counts,
    ) -> Result<()> {
        let Some(ledger) = &mut self.ledger else {
            return Ok(());
        };
        let cfg = *ledger.config();
        let arena = self.pipeline.arena();
        let row_views: Vec<Option<&[f32]>> =
            rounds.iter().enumerate().map(|(w, r)| r.delivered().then(|| arena.row(w))).collect();
        let colluding = reputation::collusion_flags(
            &row_views,
            &self.affinity_sample,
            cfg.affinity_epsilon,
            cfg.affinity_min_cluster,
        );
        let evidence: Vec<RoundEvidence> = rounds
            .iter()
            .enumerate()
            .map(|(w, r)| RoundEvidence {
                corrupt: r.transfer.is_some_and(|t| t.corrupt_rejects > 0),
                stale: r.transfer.is_some_and(|t| t.stale_epoch_rejects > 0) && !readmitted_now[w],
                exhausted: r.transfer.is_some_and(|t| t.retransmit_exhausted),
                straggled: r.delivered() && !keep[w],
                excluded: prev_excluded[w],
                colluding: colluding[w],
            })
            .collect();
        ledger.observe(step, &evidence);
        prev_excluded.fill(false);
        if cfg.reshuffle_every > 0 && step.is_multiple_of(cfg.reshuffle_every) {
            if let Some(plan) = &mut self.tree_plan {
                let n = self.workers.len();
                let sizes: Vec<usize> = plan.sizes().collect();
                let live: Vec<bool> = (0..n).map(|w| self.membership.health(w).is_live()).collect();
                let next = reputation::containment_assignment(
                    ledger.scores(),
                    &live,
                    &sizes,
                    cfg.suspect_cutoff,
                    self.config.seed,
                    step,
                );
                let current: Vec<usize> = (0..n).map(|w| plan.group_of(w)).collect();
                if next != current {
                    plan.set_assignment(next).map_err(err)?;
                    for epoch in &mut self.group_epochs {
                        *epoch += 1;
                    }
                    counts.reshuffles += 1;
                }
            }
        }
        Ok(())
    }

    /// A hierarchical aggregation round: the group stage, the group outputs
    /// shipped root-ward over their own links, then the root rule and the
    /// optimizer step.
    fn tree_round(
        &mut self,
        tracer: &mut Tracer,
        step: u64,
        parent: Option<usize>,
        groups: &[usize],
        counts: &mut Counts,
    ) -> std::result::Result<(), PsError> {
        let arena = self.pipeline.arena();
        let server = &self.server;
        let round = tracer
            .time("core.tree_group", step, parent, || server.tree_group_outputs(arena, groups))?;
        if self.config.tree.is_some_and(|tree| tree.group.kind.uses_distances()) {
            counts.distance_passes += round.outputs.len() as u64;
        }
        let total_workers = self.workers.len();
        let mut delivered = Vec::with_capacity(round.outputs.len());
        for output in &round.outputs {
            let link = &mut self.tree_links[output.group];
            let outcome = tracer
                .time("net.tree_leg", step, parent, || {
                    link.transfer((total_workers + output.group) as u32, step, &output.output)
                })
                .map_err(PsError::from)?;
            counts.packets += outcome.link_stats.sent as u64;
            counts.wire_bytes += outcome.bytes_sent as u64;
            counts.rows_sent += 1;
            counts.rows_delivered += u64::from(outcome.gradient.is_some());
            if let Some(gradient) = outcome.gradient {
                delivered.push(gradient);
            }
        }
        let server = &mut self.server;
        apply_timed(tracer, step, parent, || server.apply_round_tree_outputs(&delivered))
    }
}

/// Times one `apply_round*` call as a `ps.optimizer` span with a
/// `core.aggregate` child covering the aggregation wall time the server
/// measured, so the optimizer step is the span's self time.
fn apply_timed(
    tracer: &mut Tracer,
    step: u64,
    parent: Option<usize>,
    apply: impl FnOnce() -> agg_ps::Result<agg_ps::server::RoundOutcome>,
) -> std::result::Result<(), PsError> {
    let span = tracer.begin("ps.optimizer", step, parent);
    let outcome = apply();
    tracer.end(span);
    let wall_ns = (outcome?.aggregation_wall_sec * 1e9) as u64;
    let mut aggregate = *tracer.span(span);
    aggregate.name = "core.aggregate";
    aggregate.parent = Some(span);
    aggregate.end = aggregate.end.min(aggregate.start + wall_ns);
    tracer.push(aggregate);
    Ok(())
}

/// Whether the live partition can seat the tree's composed bound.
fn tree_floor(config: &RunnerConfig, plan: &GroupPlan, live: &[bool]) -> bool {
    let tree = config.tree.expect("tree plan implies a tree config");
    let mut live_sizes = vec![0usize; plan.group_count()];
    for (w, &is_live) in live.iter().enumerate() {
        if is_live {
            live_sizes[plan.group_of(w)] += 1;
        }
    }
    resilience::check_tree(tree.group.kind, tree.group.f, tree.root.kind, tree.root.f, live_sizes)
        .is_ok()
}

/// One link of the configured wire, built as the engine builds it: a
/// worker↔server link (stream `0..workers`) or a tree leg (stream
/// `workers + gid`).
fn build_link(config: &RunnerConfig, stream: u64, degraded: bool) -> Result<Box<dyn Transport>> {
    let link = if degraded { config.link } else { LinkConfig { drop_rate: 0.0, ..config.link } };
    let codec = GradientCodec::default_mtu();
    match config.transport {
        TransportKind::Lossy { policy } if degraded => {
            let mut transport =
                LossyTransport::new(link, codec, policy, config.seed, stream).map_err(err)?;
            if let Some(chaos) = config.chaos {
                transport.set_chaos(Some(ChaosPlan::new(chaos, config.seed).map_err(err)?));
            }
            if config.retransmit.is_some() {
                transport.set_retransmit(config.retransmit);
            }
            Ok(Box::new(transport))
        }
        _ => Ok(Box::new(ReliableTransport::new(link, codec).map_err(err)?)),
    }
}

/// Spans whose per-round self time is reported, summed over the round's
/// spans of that name (a busy sum over workers for phase-1 spans).
const SELF_TIME_SPANS: [&str; 13] = [
    "data.next_batch",
    "nn.set_params",
    "nn.gradient",
    "net.transfer",
    "attacks.craft",
    "ps.membership",
    "ps.ledger",
    "core.tree_group",
    "tensor.compact",
    "core.aggregate",
    "net.tree_leg",
    "ps.optimizer",
    "core.select",
];

/// The per-layer metrics of the traced runs: p50 and p90 over rounds of each
/// span's self time, the phase-1 wall time, evaluation time, counts per
/// round, trace coverage, and the tracing overhead against the untraced
/// engine's `untraced_round_ms`.
pub fn layer_metrics(runs: &[ReplicaRun], untraced_round_ms: f64) -> Vec<Metric> {
    let mut per_round: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut evals = Vec::new();
    let mut covered_ns = 0u64;
    let mut round_ns = 0u64;
    let mut rounds = 0u64;
    for run in runs {
        let selfs = self_times(&run.spans);
        let mut sums: BTreeMap<(&str, u64), u64> = BTreeMap::new();
        for (span, &self_ns) in run.spans.iter().zip(&selfs) {
            match span.name {
                "round" => {
                    round_ns += span.duration();
                    covered_ns += span.duration() - self_ns;
                }
                "phase1" => {
                    *sums.entry(("phase1.wall", span.round)).or_default() += span.duration()
                }
                "nn.eval" => evals.push(self_ns as f64 / 1e6),
                name => *sums.entry((name, span.round)).or_default() += self_ns,
            }
        }
        for step in 0..run.rounds {
            for name in SELF_TIME_SPANS.iter().copied().chain(["phase1.wall"]) {
                let ns = sums.get(&(name, step)).copied().unwrap_or(0);
                per_round.entry(name).or_default().push(ns as f64 / 1e6);
            }
        }
        rounds += run.rounds;
    }
    let mut metrics = Vec::new();
    for name in SELF_TIME_SPANS.iter().copied().chain(["phase1.wall", "nn.eval"]) {
        let values = if name == "nn.eval" { &evals } else { &per_round[name] };
        metrics.push(Metric::new(format!("{name}_ms.p50"), percentile(values, 0.5), "ms"));
        metrics.push(Metric::new(format!("{name}_ms.p90"), percentile(values, 0.9), "ms"));
    }
    let total = |count: fn(&Counts) -> u64| runs.iter().map(|r| count(&r.counts)).sum::<u64>();
    let mean = |count: fn(&Counts) -> u64| total(count) as f64 / rounds as f64;
    metrics.extend([
        Metric::new("attacks.rows_crafted", mean(|c| c.rows_crafted), "count"),
        Metric::new("core.distance_passes", mean(|c| c.distance_passes), "count"),
        Metric::new("net.packets", mean(|c| c.packets), "count"),
        Metric::new("net.wire_mb", mean(|c| c.wire_bytes) / 1e6, "MB"),
        Metric::new("net.retransmits", mean(|c| c.retransmits), "count"),
        Metric::new("net.corrupt_rejects", mean(|c| c.corrupt_rejects), "count"),
        Metric::new("net.stale_rejects", mean(|c| c.stale_rejects), "count"),
        Metric::new("net.exhausted", mean(|c| c.exhausted), "count"),
        Metric::new(
            "net.delivered_share",
            total(|c| c.rows_delivered) as f64 / total(|c| c.rows_sent).max(1) as f64,
            "ratio",
        ),
        Metric::new("ps.reshuffles", mean(|c| c.reshuffles), "count"),
        Metric::new("ps.quarantines", mean(|c| c.quarantines), "count"),
        Metric::new("trace.coverage", covered_ns as f64 / round_ns.max(1) as f64, "ratio"),
    ]);
    let traced_round_ms: Vec<f64> =
        runs.iter().map(|r| 1e3 * r.run_sec / r.rounds as f64).collect();
    metrics.push(Metric::new(
        "trace.overhead_ms",
        median(&traced_round_ms) - untraced_round_ms,
        "ms",
    ));
    metrics
}
