//! The benchmark's workloads: fixed engine configurations, each generated
//! from the `--seed` argument and chosen to stress a different set of layers.

use agg_attacks::AttackKind;
use agg_core::{GarConfig, GarKind, TreeConfig};
use agg_net::{ChaosConfig, LinkConfig, LossPolicy, RetransmitConfig};
use agg_nn::optim::OptimizerKind;
use agg_nn::schedule::LearningRate;
use agg_ps::{
    CostModel, ExperimentKind, ReputationConfig, RunnerConfig, TransportKind, VirtualModelCost,
};

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// n = 19, all honest, Average, reliable wire, d = 102,538, b = 25: the
    /// paper's non-Byzantine baseline. Worker gradients dominate the round.
    HonestAvgTcp,
    /// n = 19, Multi-Krum f = 4 against four `LittleIsEnough { z: 1.5 }`
    /// attackers, reliable wire, d = 102,538, b = 5: the adversary's crafting
    /// and Multi-Krum's distance passes dominate the round.
    LeewayMkrumTcp,
    /// n = 64, two-level Median tree (g = 16, f_group = 3, f_root = 1), every
    /// link lossy with 5 % drop, moderate chaos and the default retransmit,
    /// reputation ledger reshuffling every 8 rounds, d = 26,698, b = 4: the
    /// recovering wire, the ledger and the tree's coordinate-wise kernels.
    TreeChaosLedger,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] =
        [Workload::HonestAvgTcp, Workload::LeewayMkrumTcp, Workload::TreeChaosLedger];

    /// The name the `--workload` argument takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HonestAvgTcp => "honest-avg-tcp",
            Workload::LeewayMkrumTcp => "leeway-mkrum-tcp",
            Workload::TreeChaosLedger => "tree-chaos-ledger",
        }
    }

    /// Parses a `--workload` argument.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rounds in one run of the engine: enough that every seed tried trains
    /// to full test accuracy (half as many left some `leeway-mkrum-tcp` and
    /// `tree-chaos-ledger` seeds at 0.64 to 0.92), few enough that a
    /// measurement window holds over ten runs, so the median set-up time and
    /// the median run are both taken over many samples.
    pub fn rounds(self) -> u64 {
        match self {
            Workload::HonestAvgTcp | Workload::LeewayMkrumTcp => 40,
            Workload::TreeChaosLedger => 80,
        }
    }

    /// The engine configuration for `seed`. Evaluation runs only at the
    /// start and at the end of the run.
    pub fn config(self, seed: u64) -> RunnerConfig {
        let rounds = self.rounds();
        let mlp = |input_dim, hidden| ExperimentKind::MlpBlobs {
            input_dim,
            hidden,
            classes: 10,
            samples: 4000,
        };
        let base = RunnerConfig {
            experiment: mlp(256, 384),
            gar: GarConfig::new(GarKind::Average, 0),
            workers: 19,
            batch_size: 25,
            max_steps: rounds,
            eval_every: rounds,
            eval_samples: 512,
            optimizer: OptimizerKind::RmsProp,
            learning_rate: LearningRate::Fixed { rate: 5e-3 },
            cost: CostModel::paper_like().with_virtual_model(VirtualModelCost::paper_cnn()),
            seed,
            ..RunnerConfig::quick_default()
        };
        match self {
            Workload::HonestAvgTcp => base,
            Workload::LeewayMkrumTcp => RunnerConfig {
                gar: GarConfig::new(GarKind::MultiKrum, 4),
                byzantine_count: 4,
                attack: AttackKind::LittleIsEnough { z: 1.5 },
                batch_size: 5,
                ..base
            },
            Workload::TreeChaosLedger => {
                let tree = TreeConfig::uniform(GarKind::Median, 3, 1, 16);
                RunnerConfig {
                    experiment: mlp(128, 192),
                    gar: tree.root,
                    tree: Some(tree),
                    workers: 64,
                    batch_size: 4,
                    transport: TransportKind::Lossy { policy: LossPolicy::RandomFill },
                    lossy_links: 64,
                    link: LinkConfig::datacenter().with_drop_rate(0.05),
                    chaos: Some(ChaosConfig::moderate()),
                    retransmit: Some(RetransmitConfig::default()),
                    reputation: Some(ReputationConfig {
                        reshuffle_every: 8,
                        ..ReputationConfig::default()
                    }),
                    ..base
                }
            }
        }
    }
}
