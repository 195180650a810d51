//! The traced run: one round's work replayed from the benchmark's own code
//! with a span around every call into a layer, plus per-layer probes at
//! the workload's shapes.
//!
//! End-to-end figures never come from here; the traced run only reports
//! per-layer metrics. Layers a workload bypasses are still probed at its
//! shapes, so every workload reports the same metric set.

use crate::inproc;
use crate::kbench;
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{dir_bytes, median, time_per_call_us};
use crate::tcp;
use crate::workload::{Path as ExecPath, Workload, EVAL_WINDOWS};
use photon_comms::{Message, Topology, TrainMetrics, WallTimeModel};
use photon_core::experiments::build_iid_federation;
use photon_core::{build_federation, save_checkpoint_full, FederationConfig, ShardTree};
use photon_data::{Batch, EvalStream, TokenCorpus};
use photon_fedopt::{delta_from, ClientUpdate, StreamingMerge, UpdateGuard};
use photon_nn::{evaluate_perplexity, Activations, Gpt};
use photon_optim::{clip_global_norm, AdamW, Optimizer};
use photon_tensor::SeedStream;
use std::path::Path;
use std::time::Instant;

/// The untraced figures the traced run compares against.
struct Reference {
    round_ms_p50: f64,
    tokens_per_s: f64,
    losses: Vec<f32>,
    hash: u64,
}

/// Aggregator-side replay of a round's merge: the workload's rule, or the
/// shard tree's per-shard streaming merge followed by the root guard and
/// rule. Returns the averaged delta and the guard's admitted/screened.
fn merge(
    tr: &mut Tracer,
    cfg: &FederationConfig,
    ids: &[u32],
    updates: Vec<ClientUpdate>,
) -> (Vec<f32>, (usize, usize)) {
    let (ids, mut updates): (Vec<u32>, Vec<ClientUpdate>) = match cfg.hierarchy {
        Some(h) => {
            let part = ShardTree::new(h, cfg.seed).partition(ids);
            let mut shard_ids = Vec::new();
            let mut shard_updates = Vec::new();
            for (&shard, members) in &part.shards {
                let s = tr.open("fedopt.merge", "photon-fedopt");
                let expected: Vec<(u64, u32)> = members.iter().map(|&id| (0, id)).collect();
                let mut m = StreamingMerge::new(expected, h.max_resident);
                for &id in members {
                    let pos = ids
                        .iter()
                        .position(|&x| x == id)
                        .expect("member of the cohort");
                    m.push((0, id), updates[pos].clone());
                }
                if let Some((delta, weight)) = m.finish() {
                    shard_ids.push(0x8000_0000 + shard);
                    shard_updates
                        .push(ClientUpdate::new(delta, weight).expect("finite shard fold"));
                }
                tr.close(s);
            }
            (shard_ids, shard_updates)
        }
        None => (ids.to_vec(), updates),
    };
    let mut admitted = (updates.len(), updates.len());
    if cfg.guard.enabled {
        let s = tr.open("fedopt.guard", "photon-fedopt");
        let report = UpdateGuard::new(cfg.guard, cfg.seed).screen_round(0, &ids, &mut updates);
        tr.close(s);
        let mut keep = report.decisions.iter().map(|d| d.admitted());
        updates.retain(|_| keep.next().expect("one decision per update"));
        admitted.0 = updates.len();
    }
    let s = tr.open("fedopt.merge", "photon-fedopt");
    let avg = cfg.aggregation.aggregate(&updates);
    tr.close(s);
    (avg, admitted)
}

/// What `LlmClient::run_round` does for one client, call by call, with a
/// span around each call into a layer. Returns the update and mean loss.
fn client_round(
    tr: &mut Tracer,
    cfg: &FederationConfig,
    global: &[f32],
    params: Vec<f32>,
    client: &photon_core::LlmClient,
) -> (Vec<f32>, f32) {
    let c = tr.open("client.round", "photon-core");
    let mut model = Gpt::from_params(cfg.model, params);
    let mut opt = AdamW::new(cfg.adamw, model.param_count());
    let mut acts = Activations::new(&cfg.model, cfg.local_batch, cfg.model.seq_len);
    let mut grads = model.grad_buffer();
    let mut batch = Batch::zeros(cfg.local_batch, cfg.model.seq_len);
    let mut stream = client
        .data_source()
        .bind_stream(SeedStream::new(cfg.seed).fork(&format!("replay-{}", client.id())));
    let mut loss_sum = 0.0f64;
    for i in 0..cfg.local_steps {
        tr.time("data.next_batch", "photon-data", || {
            stream.next_batch(&mut batch)
        });
        grads.iter_mut().for_each(|g| *g = 0.0);
        let loss = tr.time("nn.forward", "photon-nn", || {
            model.forward(&batch.inputs, Some(&batch.targets), &mut acts)
        });
        loss_sum += f64::from(loss.unwrap_or(f32::NAN));
        tr.time("nn.backward", "photon-nn", || {
            model.backward(&batch.inputs, &batch.targets, &mut acts, &mut grads)
        });
        if let Some(max) = cfg.grad_clip {
            tr.time("optim.clip", "photon-optim", || {
                clip_global_norm(&mut grads, max)
            });
        }
        let lr = cfg.schedule.lr_at(i);
        tr.time("optim.adamw", "photon-optim", || {
            opt.step(model.params_mut(), &grads, lr)
        });
    }
    let delta = delta_from(global, model.params());
    tr.close(c);
    (delta, (loss_sum / cfg.local_steps as f64) as f32)
}

/// What the replayed round leaves for the probes.
struct Replay {
    /// Id of the round's root span.
    root: u64,
    /// Each client's encoded result frame.
    frames: Vec<bytes::Bytes>,
    /// The decoded updates and their client ids.
    updates: Vec<ClientUpdate>,
    ids: Vec<u32>,
}

/// Replays round 0 from `global` over `clients` with spans around every
/// layer call.
#[allow(clippy::too_many_arguments)]
fn replay_round(
    tr: &mut Tracer,
    w: &Workload,
    cfg: &FederationConfig,
    global: &[f32],
    clients: &[photon_core::LlmClient],
    val: &TokenCorpus,
    rtt_link: Option<&photon_net::TcpLink>,
    ckpt_dir: &Path,
    opt_state: &photon_fedopt::ServerOptState,
) -> Result<Replay, String> {
    use photon_comms::Link;
    let wire = cfg.wire_opts();
    tr.next_round();
    let root = tr.open("round", "bench");
    let root_id = tr.spans().len() as u64;
    let broadcast = tr.time("comms.encode", "photon-comms", || {
        Message::ModelBroadcast {
            round: 0,
            params: global.to_vec(),
        }
        .to_frame_opts(wire)
    });
    let mut frames = Vec::new();
    let cohort: Vec<u32> = clients.iter().map(|c| c.id()).collect();
    for client in clients {
        if let Some(link) = rtt_link {
            // The deployed path moves the broadcast down and the result up
            // over a socket; one update-sized round trip stands in.
            let s = tr.open("net.frame_rtt", "photon-net");
            link.send_frame(broadcast.clone())
                .map_err(|e| e.to_string())?;
            link.recv_frame(std::time::Duration::from_secs(30))
                .map_err(|e| e.to_string())?;
            tr.close(s);
        }
        let params = match tr.time("comms.decode", "photon-comms", || {
            Message::from_frame(broadcast.clone())
        }) {
            Ok(Message::ModelBroadcast { params, .. }) => params,
            other => return Err(format!("broadcast did not decode: {other:?}")),
        };
        let (delta, mean_loss) = client_round(tr, cfg, global, params, client);
        let metrics = TrainMetrics {
            mean_loss,
            tokens: cfg.local_steps * (cfg.local_batch * cfg.model.seq_len) as u64,
            steps: cfg.local_steps,
        };
        let frame = tr.time("comms.encode", "photon-comms", || {
            Message::ClientResult {
                round: 0,
                client_id: client.id(),
                delta,
                weight: 1.0,
                metrics,
            }
            .to_frame_opts(wire)
        });
        frames.push(frame);
    }
    let mut updates = Vec::new();
    for f in &frames {
        match tr.time("comms.decode", "photon-comms", || {
            Message::from_frame(f.clone())
        }) {
            Ok(Message::ClientResult { delta, weight, .. }) => {
                updates.push(ClientUpdate::new(delta, weight).map_err(|e| e.to_string())?)
            }
            other => return Err(format!("result did not decode: {other:?}")),
        }
    }
    let (avg, _) = merge(tr, cfg, &cohort, updates.clone());
    let mut params = global.to_vec();
    let mut server = cfg.server_opt.build(params.len());
    tr.time("fedopt.server_opt", "photon-fedopt", || {
        server.apply(&mut params, &avg, 0)
    });
    if w.eval_due(0) {
        let model = Gpt::from_params(cfg.model, params.clone());
        let seq = cfg.model.seq_len.clamp(8, 64);
        tr.time("nn.eval", "photon-nn", || {
            evaluate_perplexity(&model, &mut EvalStream::new(val, seq), EVAL_WINDOWS)
        });
    }
    if w.path == ExecPath::Tcp {
        let saved = tr.time("ckpt.save", "photon-core", || {
            save_checkpoint_full(ckpt_dir, cfg, 1, &params, Some(opt_state), None, None)
        });
        saved.map_err(|e| e.to_string())?;
    }
    tr.close(root);
    Ok(Replay {
        root: root_id,
        frames,
        updates,
        ids: cohort,
    })
}

/// Median of `f`'s run time in ms, with `setup` (untimed) before each call.
fn time_ms<S, R>(reps: usize, mut setup: impl FnMut() -> S, mut f: impl FnMut(S) -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let s = setup();
            let t = Instant::now();
            std::hint::black_box(f(s));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

fn max_loss_gap(a: &[f32], b: &[f32]) -> f64 {
    if a.len() != b.len() || a.is_empty() {
        return f64::NAN;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (f64::from(*x) - f64::from(*y)).abs())
        .fold(0.0, f64::max)
}

/// Recorder-on/recorder-off pairs behind `bench.trace_overhead_pct`.
const OVERHEAD_PAIRS: usize = 3;

/// Sink-on/sink-off pairs behind `trace.sink_overhead_pct`.
const SINK_PAIRS: usize = 2;

/// Training tokens per second and final parameter hash of one untraced
/// run, with the program's `--trace-jsonl` and `--metrics-text` sinks on
/// or off.
fn sink_run(
    w: &Workload,
    seed: u64,
    photon: &Path,
    scratch: &Path,
    sinks: bool,
) -> Result<(f64, u64), String> {
    match w.path {
        ExecPath::InProcess => {
            if sinks {
                photon_trace::init(photon_trace::TraceConfig {
                    jsonl: Some(scratch.join("sink.jsonl")),
                    prometheus: Some(scratch.join("sink.prom")),
                    kernel_events: false,
                    clock: photon_trace::ClockMode::Sim,
                })
                .map_err(|e| e.to_string())?;
            }
            let run = inproc::train_once(w, seed, None);
            if sinks {
                let _ = photon_trace::flush();
                // The recorder is process-global: switch it off again.
                photon_trace::reset_for_tests();
            }
            let run = run?;
            Ok((run.tokens as f64 / run.train_s, run.hash))
        }
        ExecPath::Tcp => {
            let extra: Vec<String> = if sinks {
                [
                    "--trace-jsonl",
                    "{tag}.jsonl",
                    "--metrics-text",
                    "{tag}.prom",
                ]
                .iter()
                .map(|s| s.to_string())
                .collect()
            } else {
                Vec::new()
            };
            let run = tcp::serve_once(w, seed, photon, &scratch.join("sinks"), &extra)?;
            Ok((run.tokens as f64 / run.train_s, run.hash))
        }
    }
}

/// The traced run for one workload.
pub fn run(
    w: &Workload,
    seed: u64,
    photon: &Path,
    out: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let cfg = w.config(seed);
    let scratch = tcp::scratch(out, w, seed);
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;

    // 1. Untraced reference run, checked like every other run.
    report.attempted += 1;
    let reference = match w.path {
        ExecPath::InProcess => {
            let run = inproc::train_once(w, seed, None)?;
            inproc::check_run(w, &run, report);
            Reference {
                round_ms_p50: median(&run.round_ms),
                tokens_per_s: run.tokens as f64 / run.train_s,
                losses: run.losses,
                hash: run.hash,
            }
        }
        ExecPath::Tcp => {
            let run = tcp::serve_once(w, seed, photon, &scratch.join("reference"), &[])?;
            tcp::check_run(w, &run, report);
            Reference {
                round_ms_p50: median(&run.round_ms),
                tokens_per_s: run.tokens as f64 / run.train_s,
                losses: run.losses,
                hash: run.hash,
            }
        }
    };

    // 2. A fresh federation at round 0 for the replays and probes.
    let (mut fed, val) =
        build_iid_federation(&cfg, w.tokens_per_client).map_err(|e| e.to_string())?;
    let global = fed.aggregator.params().to_vec();
    let opt_state = fed.aggregator.server_opt_state();
    let cohort: Vec<u32> = fed.clients.iter().map(|c| c.id()).collect();
    let mut tr = Tracer::new();

    // 3. client.round_ms: LlmClient::run_round, one client at a time.
    tr.next_round();
    let serial_root = tr.open("clients.serial", "bench");
    let mut serial_ms = Vec::new();
    for client in fed.clients.iter_mut() {
        let s = tr.open("client.run_round", "photon-core");
        client
            .run_round(&global, 0, &cohort, &cfg)
            .map_err(|e| e.to_string())?;
        serial_ms.push(tr.close(s) / 1e3);
    }
    tr.close(serial_root);

    // 4. The traced replay of one round.
    let echo = if w.path == ExecPath::Tcp {
        Some(tcp::EchoLink::start()?)
    } else {
        None
    };
    let ckpt_dir = scratch.join("ckpt-replay");
    let t_replay = Instant::now();
    let Replay {
        root,
        frames,
        updates,
        ids,
    } = replay_round(
        &mut tr,
        w,
        &cfg,
        &global,
        &fed.clients,
        &val,
        echo.as_ref().map(|e| &e.link),
        &ckpt_dir,
        &opt_state,
    )?;
    let replay_s = t_replay.elapsed().as_secs_f64();
    drop(echo);

    // The benchmark's own tracing overhead: one client's round with the
    // span recorder on and off, alternated.
    let (mut on_ms, mut off_ms) = (Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_PAIRS {
        for traced in [false, true] {
            let mut t = if traced {
                Tracer::new()
            } else {
                Tracer::disabled()
            };
            let params = global.clone();
            let start = Instant::now();
            std::hint::black_box(client_round(&mut t, &cfg, &global, params, &fed.clients[0]));
            let ms = start.elapsed().as_secs_f64() * 1e3;
            if traced {
                on_ms.push(ms)
            } else {
                off_ms.push(ms)
            }
        }
    }
    let round_us = tr.spans()[root as usize - 1].dur_us;
    let table = tr.layer_table(root);
    let covered: f64 = table.values().map(|(_, us)| us).sum();

    // 5. Per-layer probes at the workload's shapes.
    let eval_ms = match tr.durations("nn.eval").first() {
        Some(us) => us / 1e3,
        None => {
            let model = Gpt::from_params(cfg.model, global.clone());
            let seq = cfg.model.seq_len.clamp(8, 64);
            tr.time("nn.eval", "photon-nn", || {
                evaluate_perplexity(&model, &mut EvalStream::new(&val, seq), EVAL_WINDOWS)
            });
            tr.durations("nn.eval")[0] / 1e3
        }
    };
    let frame = frames[0].clone();
    let encode_ms = {
        let msg = Message::from_frame(frame.clone()).map_err(|e| e.to_string())?;
        time_per_call_us(5, 20.0, || {
            std::hint::black_box(msg.to_frame_opts(cfg.wire_opts()));
        }) / 1e3
    };
    let decode_ms = time_per_call_us(5, 20.0, || {
        std::hint::black_box(Message::from_frame(frame.clone()).ok());
    }) / 1e3;
    let frame_mb = frame.len() as f64 / 1e6;

    let mut guard_cfg = cfg.guard;
    guard_cfg.enabled = true;
    let mut accept = (0usize, 0usize);
    let guard_ms = time_ms(
        7,
        || updates.clone(),
        |mut u| {
            let r = UpdateGuard::new(guard_cfg, cfg.seed).screen_round(0, &ids, &mut u);
            accept = (
                r.decisions.iter().filter(|d| d.admitted()).count(),
                r.decisions.len(),
            );
        },
    );
    let merge_ms = time_ms(
        7,
        || updates.clone(),
        |u| {
            let mut scratch = Tracer::new();
            merge(&mut scratch, &cfg, &ids, u).0
        },
    );
    let avg = cfg.aggregation.aggregate(&updates);
    let server_ms = time_ms(
        7,
        || (global.clone(), cfg.server_opt.build(global.len())),
        |(mut p, mut s)| s.apply(&mut p, &avg, 0),
    );
    let ckpt_dir = scratch.join("ckpt-probe");
    let mut ckpt_err = None;
    let ckpt_ms = time_ms(
        5,
        || (),
        |_| {
            if let Err(e) =
                save_checkpoint_full(&ckpt_dir, &cfg, 1, &global, Some(&opt_state), None, None)
            {
                ckpt_err = Some(e.to_string());
            }
        },
    );
    if let Some(e) = ckpt_err {
        report.fail(format!("checkpoint save failed: {e}"));
    }
    let ckpt_mb = dir_bytes(&ckpt_dir) as f64 / 1e6;
    let connect_ms = median(&tcp::connect_probe(
        w,
        seed,
        photon,
        &scratch.join("probe"),
    )?);
    let rtt_ms = tcp::frame_rtt_ms(frame.clone(), 10)?;

    let alibi = cfg.positions == photon_nn::PosEncoding::Alibi;
    let kernels = kbench::kernel_costs(&cfg.model, cfg.local_batch, alibi);
    let gemm_peak = kbench::gemm_peak_gflops(256);

    // 6. Determinism: the same seed with one kernel thread (in-process),
    // or the in-process twin of the TCP run.
    let twin_losses = match w.path {
        ExecPath::InProcess => {
            let threads = photon_tensor::ops::pool::max_threads();
            photon_tensor::ops::pool::set_max_threads(1);
            let run = inproc::train_once(w, seed, None);
            photon_tensor::ops::pool::set_max_threads(threads);
            run?.losses
        }
        ExecPath::Tcp => {
            let mut twin =
                build_federation(&cfg, w.tokens_per_client).map_err(|e| e.to_string())?;
            let mut losses = Vec::new();
            for _ in 0..w.rounds {
                losses.push(
                    twin.run_round()
                        .map_err(|e| e.to_string())?
                        .mean_client_loss,
                );
            }
            losses
        }
    };
    let divergence = max_loss_gap(&reference.losses, &twin_losses);

    // 7. The program's own trace sinks on against off, in interleaved
    // pairs; the reference run is the first "off" run. Every one of these
    // same-seed runs must end in the reference's parameters.
    let mut off = vec![reference.tokens_per_s];
    let mut on = Vec::new();
    let mut hashes = Vec::new();
    for pair in 0..SINK_PAIRS {
        let (tps, hash) = sink_run(w, seed, photon, &scratch, true)?;
        on.push(tps);
        hashes.push(hash);
        if pair + 1 < SINK_PAIRS {
            let (tps, hash) = sink_run(w, seed, photon, &scratch, false)?;
            off.push(tps);
            hashes.push(hash);
        }
    }
    report.attempted += hashes.len() as u64;
    if hashes.iter().any(|&h| h != reference.hash) {
        report.failed += 1;
        report.fail("same-seed reruns ended in different global parameters");
    }
    let sink_overhead = 100.0 * (median(&off) - median(&on)) / median(&off);

    // Spans go to disk once, at the end.
    let trace_path = out.join(format!("{}-seed{seed}.trace.jsonl", w.name));
    std::fs::write(&trace_path, tr.to_jsonl()).map_err(|e| e.to_string())?;
    report.notes.push(format!(
        "spans of the traced replay written to {} ({} spans; replayed round took {:.1} ms)",
        trace_path.display(),
        tr.spans().len(),
        replay_s * 1e3
    ));
    report.notes.push(format!(
        "{:<22} {:>6} {:>12} {:>7}",
        "layer span", "calls", "self ms", "share"
    ));
    for (name, (calls, us)) in &table {
        report.notes.push(format!(
            "{name:<22} {calls:>6} {:>12.3} {:>6.1}%",
            us / 1e3,
            100.0 * us / round_us
        ));
    }

    // Metrics.
    let per_call = |name: &str| median(&tr.durations(name));
    let step_ms = per_call("nn.forward") / 1e3 + per_call("nn.backward") / 1e3;
    report.add(
        "data.next_batch_us",
        per_call("data.next_batch"),
        "us",
        tr.durations("data.next_batch").len(),
    );
    report.add(
        "nn.forward_ms",
        per_call("nn.forward") / 1e3,
        "ms",
        tr.durations("nn.forward").len(),
    );
    report.add(
        "nn.backward_ms",
        per_call("nn.backward") / 1e3,
        "ms",
        tr.durations("nn.backward").len(),
    );
    report.add("nn.eval_ms", eval_ms, "ms", 1);
    let mut kernel_us = 0.0;
    for kc in &kernels {
        report.add(format!("nn.kernel.{}.fwd_us", kc.name), kc.fwd_us, "us", 5);
        report.add(format!("nn.kernel.{}.bwd_us", kc.name), kc.bwd_us, "us", 5);
        kernel_us += kc.fwd_us + kc.bwd_us;
    }
    for kc in &kernels {
        if let Some(fl) = kc.flops {
            report.add(
                format!("nn.kernel.{}.gflops", kc.name),
                fl / ((kc.fwd_us + kc.bwd_us) * 1e3),
                "GFLOP/s",
                5,
            );
        }
    }
    report.add("nn.gemm_peak_gflops", gemm_peak, "GFLOP/s", 5);
    report.add("nn.kernel_coverage", kernel_us / 1e3 / step_ms, "ratio", 1);
    report.add(
        "optim.adamw_ms",
        per_call("optim.adamw") / 1e3,
        "ms",
        tr.durations("optim.adamw").len(),
    );
    report.add(
        "optim.clip_ms",
        per_call("optim.clip") / 1e3,
        "ms",
        tr.durations("optim.clip").len(),
    );
    report.add("client.round_ms", median(&serial_ms), "ms", serial_ms.len());
    let serial_sum: f64 = serial_ms.iter().sum();
    report.add(
        "sched.speedup",
        serial_sum / reference.round_ms_p50,
        "ratio",
        serial_ms.len(),
    );
    report.add("comms.encode_ms", encode_ms, "ms", 5);
    report.add("comms.decode_ms", decode_ms, "ms", 5);
    report.add("comms.frame_mb", frame_mb, "MB", 1);
    report.add("fedopt.guard_ms", guard_ms, "ms", 7);
    report.add(
        "fedopt.guard_accept_ratio",
        accept.0 as f64 / accept.1.max(1) as f64,
        "ratio",
        accept.1,
    );
    report.add("fedopt.merge_ms", merge_ms, "ms", 7);
    report.add("fedopt.server_opt_ms", server_ms, "ms", 7);
    report.add("ckpt.save_ms", ckpt_ms, "ms", 5);
    report.add("ckpt.mb", ckpt_mb, "MB", 1);
    report.add("net.connect_ms", connect_ms, "ms", 7);
    report.add("net.frame_rtt_ms", rtt_ms, "ms", 10);
    report.add("layers.coverage", covered / round_us, "ratio", 1);
    let calls: u64 = table.values().map(|(n, _)| n).sum();
    report.add("layers.calls", calls as f64, "count", 1);
    report.add(
        "determinism.thread_divergence",
        divergence,
        "loss",
        reference.losses.len(),
    );

    // The Appendix B.1 wall-time model fed with the measured per-client
    // throughput and the measured link.
    let nus: Vec<f64> = serial_ms
        .iter()
        .map(|ms| cfg.local_steps as f64 / (ms / 1e3))
        .collect();
    let link_s = match w.path {
        ExecPath::InProcess => (encode_ms + decode_ms) / 1e3,
        ExecPath::Tcp => rtt_ms / 2.0 / 1e3,
    };
    let model = WallTimeModel::new(
        median(&nus),
        cfg.local_steps,
        frame_mb,
        frame_mb / link_s,
        Topology::ParameterServer,
    );
    let predicted_s = model.round_time(cfg.cohort_size()).total();
    report.add(
        "walltime.pred_ratio",
        predicted_s / (reference.round_ms_p50 / 1e3),
        "ratio",
        1,
    );

    report.add(
        "trace.sink_overhead_pct",
        sink_overhead,
        "%",
        on.len() + off.len(),
    );
    let (on, off) = (median(&on_ms), median(&off_ms));
    report.add(
        "bench.trace_overhead_pct",
        100.0 * (on - off) / on,
        "%",
        on_ms.len() + off_ms.len(),
    );
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(())
}
