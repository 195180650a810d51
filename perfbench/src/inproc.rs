//! The in-process workloads: whole training runs through
//! `Federation::run_round`, timed from outside around each call.

use crate::report::Report;
use crate::stats::{median, param_hash};
use crate::workload::{Workload, EVAL_WINDOWS};
use photon_core::experiments::build_iid_federation;
use photon_core::RoundRecord;
use photon_data::EvalStream;
use photon_nn::evaluate_perplexity;
use std::time::{Duration, Instant};

/// What one training run produced.
pub struct TrainRun {
    pub setup_s: f64,
    /// Wall time of each `run_round` call.
    pub round_ms: Vec<f64>,
    /// Training time of each round: the `run_round` call plus the
    /// evaluation after it, if one is due.
    pub train_ms: Vec<f64>,
    /// Rounds plus evaluations.
    pub train_s: f64,
    pub tokens: u64,
    pub val_ppl: f64,
    pub wire_bytes: Vec<u64>,
    pub losses: Vec<f32>,
    pub hash: u64,
    /// Peak live heap of the run, in MB.
    pub peak_mb: f64,
    /// Client-round results attempted and lost.
    pub results: u64,
    pub uncommitted: u64,
    /// Updates (client or shard aggregate) the guard screened out.
    pub guard_excluded: u64,
}

/// Client results of `r` that were lost on the way to the committed model.
/// Updates the guard screened out are deliberate exclusions, not losses
/// (the aggregator's partial-results gate treats them the same way); they
/// are tallied separately.
pub fn uncommitted(r: &RoundRecord) -> u64 {
    let cohort = r.cohort.len() as u64;
    if r.degraded || r.neutralized || r.shard_degraded > 0 {
        return cohort;
    }
    ((r.dropouts + r.stragglers) as u64).min(cohort)
}

/// Seconds to build the workload's federation: corpus synthesis,
/// tokenization, partitioning and model init.
fn time_setup(w: &Workload, seed: u64) -> f64 {
    let cfg = w.config(seed);
    let t = Instant::now();
    let built = build_iid_federation(&cfg, w.tokens_per_client);
    let s = t.elapsed().as_secs_f64();
    drop(built);
    s
}

/// One complete training run from a fresh federation. With `setups`, an
/// extra set-up is timed after every round, so set-up samples spread over
/// the whole measurement: set-up time drifts with the host on a scale of
/// seconds, and one burst of samples would catch a single state.
pub fn train_once(
    w: &Workload,
    seed: u64,
    mut setups: Option<&mut Vec<f64>>,
) -> Result<TrainRun, String> {
    let cfg = w.config(seed);
    crate::heap::reset_peak();
    let t0 = Instant::now();
    let (mut fed, val) =
        build_iid_federation(&cfg, w.tokens_per_client).map_err(|e| e.to_string())?;
    let setup_s = t0.elapsed().as_secs_f64();
    let seq = cfg.model.seq_len.clamp(8, 64);
    let mut run = TrainRun {
        setup_s,
        round_ms: Vec::new(),
        train_ms: Vec::new(),
        train_s: 0.0,
        tokens: 0,
        val_ppl: f64::NAN,
        wire_bytes: Vec::new(),
        losses: Vec::new(),
        hash: 0,
        peak_mb: 0.0,
        results: 0,
        uncommitted: 0,
        guard_excluded: 0,
    };
    let mut train = Duration::ZERO;
    for round in 0..w.rounds {
        let t = Instant::now();
        let record = fed.run_round().map_err(|e| format!("round {round}: {e}"))?;
        run.round_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if w.eval_due(round) {
            let model = fed.aggregator.global_model();
            let report = evaluate_perplexity(&model, &mut EvalStream::new(&val, seq), EVAL_WINDOWS);
            run.val_ppl = report.perplexity;
        }
        let dt = t.elapsed();
        train += dt;
        run.train_ms.push(dt.as_secs_f64() * 1e3);
        if let Some(setups) = setups.as_deref_mut() {
            setups.push(time_setup(w, seed));
        }
        run.tokens += w.tokens_per_round();
        run.wire_bytes.push(record.wire_bytes);
        run.losses.push(record.mean_client_loss);
        run.results += record.cohort.len() as u64;
        run.uncommitted += uncommitted(&record);
        run.guard_excluded += (record.guard_rejected + record.quarantined) as u64;
    }
    run.train_s = train.as_secs_f64();
    run.hash = param_hash(fed.aggregator.params());
    run.peak_mb = crate::heap::peak_mb();
    Ok(run)
}

/// Checks one run on its own and folds its tallies into `report`: every
/// round ran and lost no result, every loss is finite, and the final
/// perplexity is within its bound. A run that fails a check counts as one
/// failed item.
pub fn check_run(w: &Workload, run: &TrainRun, report: &mut Report) {
    let before = report.errors.len();
    report.attempted += run.results;
    report.failed += run.uncommitted;
    if run.losses.len() as u64 != w.rounds {
        report.fail(format!("{} of {} rounds ran", run.losses.len(), w.rounds));
    }
    if run.uncommitted > 0 {
        report.fail(format!(
            "{} client results were not committed",
            run.uncommitted
        ));
    }
    if let Some(l) = run.losses.iter().find(|l| !l.is_finite()) {
        report.fail(format!("non-finite client loss {l}"));
    }
    check_ppl(w, run.val_ppl, report);
    if report.errors.len() > before {
        report.failed += 1;
    }
}

/// Fails the run when `ppl` exceeds the workload's reference by more than
/// the metric's bound.
pub fn check_ppl(w: &Workload, ppl: f64, report: &mut Report) {
    let limit = w.val_ppl_ref * (1.0 + crate::workload::VAL_PPL_BOUND);
    if !(ppl.is_finite() && ppl <= limit) {
        report.fail(format!(
            "val_ppl {ppl:.3} above {limit:.2} (reference {})",
            w.val_ppl_ref
        ));
    }
}

/// Runs whole training runs until `seconds` are used (at least two, so the
/// same-seed rerun check always has a pair), then reports the end-to-end
/// metrics.
pub fn measure(w: &Workload, seed: u64, seconds: f64, report: &mut Report) {
    let start = Instant::now();
    let mut runs: Vec<TrainRun> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut attempted_runs = 0u64;
    loop {
        attempted_runs += 1;
        match train_once(w, seed, Some(&mut setups)) {
            Ok(run) => {
                check_run(w, &run, report);
                runs.push(run);
            }
            Err(e) => {
                report.failed += 1;
                report.fail(format!("training run failed: {e}"));
                break;
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let per_run = elapsed / runs.len().max(1) as f64;
        if runs.len() >= 2 && elapsed + per_run > seconds {
            break;
        }
    }
    report.attempted += attempted_runs;
    if runs.is_empty() {
        return;
    }
    if runs.iter().any(|r| r.hash != runs[0].hash) {
        report.failed += 1;
        report.fail("same-seed reruns ended in different global parameters");
    }
    report.notes.push(format!(
        "{} training run(s) of {} round(s), final parameter hash {:016x}, \
         {} update(s) screened out by the guard",
        runs.len(),
        w.rounds,
        runs[0].hash,
        runs.iter().map(|r| r.guard_excluded).sum::<u64>()
    ));

    setups.extend(runs.iter().map(|r| r.setup_s));
    let rounds: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.round_ms.iter().copied())
        .collect();
    let shown: Vec<String> = rounds.iter().map(|ms| format!("{ms:.0}")).collect();
    report
        .notes
        .push(format!("round wall times (ms): {}", shown.join(" ")));
    let shown: Vec<String> = setups.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    report
        .notes
        .push(format!("set-up times (ms): {}", shown.join(" ")));
    // Median over rounds of tokens per training second, so one slow round
    // on a shared host does not move the figure.
    let tps: Vec<f64> = runs
        .iter()
        .flat_map(|r| {
            r.train_ms
                .iter()
                .map(|ms| w.tokens_per_round() as f64 / (ms / 1e3))
        })
        .collect();
    let wire: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.wire_bytes.iter().map(|&b| b as f64 / 1e6))
        .collect();
    report.add("tokens_per_s", median(&tps), "tok/s", tps.len());
    report.add("round_ms_p50", median(&rounds), "ms", rounds.len());
    report.add("setup_s", median(&setups), "s", setups.len());
    report.add("val_ppl", runs[0].val_ppl, "ppl", runs.len());
    report.add("wire_mb_per_round", median(&wire), "MB", wire.len());
    let peaks: Vec<f64> = runs.iter().map(|r| r.peak_mb).collect();
    report.add("peak_mem_mb", median(&peaks), "MB", peaks.len());
}
