//! Pins [`Aggregator::commit_external_round`], the commit entry point of
//! the multi-process deployment, to the round records and parameters it
//! produced before the round tails were folded into shared stages.

use photon_comms::TrainMetrics;
use photon_core::{Aggregator, FederationConfig};
use photon_nn::ModelConfig;

type Results = Vec<(u32, Vec<f32>, f64, TrainMetrics)>;

fn config() -> FederationConfig {
    let model = ModelConfig {
        n_layers: 1,
        d_model: 16,
        n_heads: 2,
        exp_ratio: 2,
        vocab_size: 257,
        seq_len: 16,
    };
    let mut cfg = FederationConfig::quick_demo(model, 6);
    cfg.guard.enabled = true;
    cfg.allow_partial_results = true;
    cfg.seed = 11;
    cfg
}

/// A seeded pseudo-gradient: splitmix64 draws mapped into [-0.01, 0.01).
fn delta(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed;
    (0..len)
        .map(|_| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            ((z >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 0.02
        })
        .collect()
}

fn result(id: u32, len: usize, round: u64, scale: f32) -> (u32, Vec<f32>, f64, TrainMetrics) {
    // A shared direction plus per-client noise, so the cohort agrees and
    // a flipped update stands out.
    let d = delta(len, round)
        .into_iter()
        .zip(delta(len, (round << 32) | u64::from(id + 1)))
        .map(|(common, own)| (common + 0.3 * own) * scale)
        .collect();
    let metrics = TrainMetrics {
        mean_loss: 5.0 - 0.1 * round as f32 + 0.01 * id as f32,
        tokens: 256,
        steps: 2,
    };
    (id, d, 1.0 + f64::from(id), metrics)
}

/// FNV-1a over the parameters' bit patterns.
fn params_hash(params: &[f32]) -> u64 {
    params.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

#[test]
fn external_commit_matches_recorded_rounds() {
    let mut agg = Aggregator::new(config()).unwrap();
    let n = agg.params().len();
    let cohort = [0u32, 1, 2, 3, 4];

    // Round 0: client 2 is delivered twice, client 7 is outside the
    // cohort, and client 4 never reports.
    let mut round0: Results = [0, 1, 2, 3]
        .iter()
        .map(|&id| result(id, n, 0, 1.0))
        .collect();
    round0.push(result(2, n, 0, 1.0));
    round0.push(result(7, n, 0, 1.0));
    let r0 = agg.commit_external_round(round0, &cohort, 4_096).unwrap();

    // Round 1: client 3 sends a sign-flipped update for the guard to
    // reject as an outlier.
    let round1: Results = cohort
        .iter()
        .map(|&id| result(id, n, 1, if id == 3 { -1.0 } else { 1.0 }))
        .collect();
    let r1 = agg.commit_external_round(round1, &cohort, 8_192).unwrap();

    assert_eq!(
        format!("{r0:?}"),
        "RoundRecord { round: 0, cohort: [0, 1, 2, 3, 4], dropouts: 1, stragglers: 0, \
         retransmits: 0, mean_client_loss: 5.0150003, pseudo_grad_norm: 0.46944067, \
         wire_bytes: 4096, eval_ppl: None, guard_rejected: 0, guard_clipped: 0, \
         quarantined: 0, neutralized: false, joined: 0, departed: 0, lease_expired: 0, \
         rejoined: 0, buffered: 0, commit_deferred: false, degraded: false, unreachable: 0, \
         effective_deadline_ms: None, shards: 0, shard_degraded: 0, shard_crashes: 0, \
         shard_hangs: 0, reparented: 0, peak_resident: 0 }"
    );
    assert_eq!(
        format!("{r1:?}"),
        "RoundRecord { round: 1, cohort: [0, 1, 2, 3, 4], dropouts: 0, stragglers: 0, \
         retransmits: 0, mean_client_loss: 4.9175, pseudo_grad_norm: 0.46938363, \
         wire_bytes: 8192, eval_ppl: None, guard_rejected: 1, guard_clipped: 0, \
         quarantined: 0, neutralized: false, joined: 0, departed: 0, lease_expired: 0, \
         rejoined: 0, buffered: 0, commit_deferred: false, degraded: false, unreachable: 0, \
         effective_deadline_ms: None, shards: 0, shard_degraded: 0, shard_crashes: 0, \
         shard_hangs: 0, reparented: 0, peak_resident: 0 }"
    );
    assert_eq!(params_hash(agg.params()), 0x0eb5_9325_e22f_406c);
}

/// A round that fails the partial-results gate commits nothing, leaves
/// the round counter alone and, on the flat path, counts no faults.
#[test]
fn failed_external_commit_counts_no_faults() {
    let mut cfg = config();
    cfg.allow_partial_results = false;
    let mut agg = Aggregator::new(cfg).unwrap();
    let n = agg.params().len();
    let before = params_hash(agg.params());
    let results: Results = [0, 1, 2].iter().map(|&id| result(id, n, 0, 1.0)).collect();
    let err = agg
        .commit_external_round(results, &[0, 1, 2, 3], 1_024)
        .unwrap_err();
    assert!(
        err.to_string().contains("expected 4 results, got 3"),
        "{err}"
    );
    assert_eq!(agg.round(), 0);
    assert_eq!(params_hash(agg.params()), before);
    assert_eq!(agg.telemetry().fault_counters().link_dropouts, 0);
}
