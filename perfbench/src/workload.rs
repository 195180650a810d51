//! The three benchmark workloads and the federation configuration each one
//! hands the program.
//!
//! Every configuration is built the way `photon train` / `photon serve`
//! build theirs from command-line flags (`FederationConfig::quick_demo`
//! plus the flag overrides), so the in-process workloads run exactly what
//! a user of the CLI runs. The benchmark seed is the run's root seed: it
//! drives corpus synthesis, the client partition and model init, and is
//! the only input that varies between runs.

use photon_core::{FederationConfig, HierarchyConfig};
use photon_fedopt::{AggregationKind, GuardConfig, ServerOptKind};
use photon_nn::ModelConfig;
use photon_optim::LrSchedule;
use photon_tensor::Dtype;

/// Which execution path a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `Federation::run_round` in this process.
    InProcess,
    /// `photon serve` plus `photon client` processes over localhost TCP.
    Tcp,
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub path: Path,
    pub model: ModelConfig,
    pub model_flag: &'static str,
    pub clients: usize,
    pub local_steps: u64,
    pub batch: usize,
    /// Peak learning rate (`--lr`; the CLI default is 0.006).
    pub lr: f32,
    /// Rounds in one training run.
    pub rounds: u64,
    /// Evaluate every this many rounds (the CLI default is 1).
    pub eval_every: u64,
    pub shards: Option<usize>,
    pub guard: bool,
    pub aggregation: &'static str,
    pub dtype: Dtype,
    /// Corpus tokens per client (the CLI default).
    pub tokens_per_client: usize,
    /// Median validation perplexity of the final global model over eight
    /// seeds, recorded when the benchmark was defined. A run whose
    /// `val_ppl` exceeds `ref * (1 + VAL_PPL_BOUND)` fails: speed must not
    /// be bought with quality. Each seed synthesizes its own corpus, so
    /// perplexity legitimately varies by about 10% between seeds.
    pub val_ppl_ref: f64,
}

/// Evaluation windows per validation pass (what `photon train` uses).
pub const EVAL_WINDOWS: usize = 48;
/// Bound on `val_ppl` relative to the workload's reference; the same
/// number as the metric's bound in BENCHMARK.json.
pub const VAL_PPL_BOUND: f64 = 0.25;

pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "fl-compute",
            path: Path::InProcess,
            model: ModelConfig::proxy_small(),
            model_flag: "small",
            clients: 4,
            local_steps: 16,
            batch: 8,
            lr: 6e-3,
            rounds: 3,
            eval_every: 1,
            shards: None,
            guard: false,
            aggregation: "mean",
            dtype: Dtype::F32,
            tokens_per_client: 20_000,
            val_ppl_ref: 20.6,
        },
        Workload {
            name: "wide-cohort",
            path: Path::InProcess,
            model: ModelConfig::proxy_medium(),
            model_flag: "medium",
            clients: 16,
            local_steps: 1,
            batch: 1,
            // One-sequence batches diverge at the default rate.
            lr: 1e-3,
            rounds: 8,
            eval_every: 8,
            shards: Some(4),
            guard: true,
            aggregation: "trimmed-mean",
            dtype: Dtype::Bf16,
            tokens_per_client: 20_000,
            val_ppl_ref: 122.7,
        },
        Workload {
            name: "tcp-durable",
            path: Path::Tcp,
            model: ModelConfig::proxy_small(),
            model_flag: "small",
            clients: 2,
            local_steps: 8,
            batch: 8,
            lr: 6e-3,
            rounds: 6,
            eval_every: 0,
            shards: None,
            guard: false,
            aggregation: "mean",
            dtype: Dtype::F32,
            tokens_per_client: 20_000,
            val_ppl_ref: 20.35,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The federation configuration, built as `config_from_args` in the
    /// CLI builds it from this workload's flags.
    pub fn config(&self, seed: u64) -> FederationConfig {
        let mut cfg = FederationConfig::quick_demo(self.model, self.clients);
        cfg.local_steps = self.local_steps;
        cfg.local_batch = self.batch;
        cfg.seed = seed;
        cfg.dtype = self.dtype;
        cfg.aggregation = AggregationKind::parse(self.aggregation).expect("known rule");
        if self.guard {
            cfg.guard = GuardConfig::on();
        }
        if let Some(shards) = self.shards {
            cfg.hierarchy = Some(HierarchyConfig {
                shards,
                ..HierarchyConfig::default()
            });
        }
        // `photon serve` always tolerates partial cohorts.
        cfg.allow_partial_results = self.path == Path::Tcp;
        cfg.schedule =
            LrSchedule::paper_cosine(self.lr, 10, (self.rounds * cfg.local_steps).max(20));
        cfg.server_opt = ServerOptKind::photon_default();
        cfg.validate().expect("benchmark configuration is valid");
        cfg
    }

    /// Training tokens one round consumes.
    pub fn tokens_per_round(&self) -> u64 {
        self.clients as u64 * self.local_steps * (self.batch * self.model.seq_len) as u64
    }

    /// Whether the validation pass runs after round `round`.
    pub fn eval_due(&self, round: u64) -> bool {
        self.eval_every > 0 && (round + 1).is_multiple_of(self.eval_every)
    }

    /// `photon serve` flags for this workload (TCP path only).
    pub fn serve_args(&self, seed: u64) -> Vec<String> {
        [
            "--model",
            self.model_flag,
            "--clients",
            &self.clients.to_string(),
            "--rounds",
            &self.rounds.to_string(),
            "--local-steps",
            &self.local_steps.to_string(),
            "--batch",
            &self.batch.to_string(),
            "--tokens-per-client",
            &self.tokens_per_client.to_string(),
            "--lr",
            &self.lr.to_string(),
            "--seed",
            &seed.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }
}
