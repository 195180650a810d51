//! The `tcp-durable` workload: `photon serve` plus `photon client`
//! processes on localhost, observed from outside.
//!
//! Commit times come from the coordinator's atomic per-commit
//! `--metrics-json` rewrite, and admission times from the clients'
//! session files, both polled every millisecond. Bytes on the wire
//! are the loopback interface's receive counter over the run. Peak memory
//! is the sum of each process's `VmHWM`, polled while it runs.

use crate::inproc::check_ppl;
use crate::report::Report;
use crate::stats::{loopback_rx_bytes, median, param_hash, peak_rss_mb};
use crate::workload::{Workload, EVAL_WINDOWS};
use photon_comms::{Link, Message, WireOpts};
use photon_core::experiments::build_iid_federation;
use photon_core::load_checkpoint;
use photon_data::EvalStream;
use photon_net::TcpLink;
use photon_nn::{evaluate_perplexity, Gpt};
use std::fs;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Settle delay before round 0 and grace window after the last round.
/// Both are excluded from every timing.
const WARMUP_MS: u64 = 50;
const COOLDOWN_MS: u64 = 50;
/// Set-up-only launches after every serve run.
const SETUP_PROBES: usize = 2;
/// A run that has not finished by then is killed and counted as failed.
const RUN_TIMEOUT: Duration = Duration::from_secs(90);

/// What one serve-plus-clients run produced.
pub struct TcpRun {
    pub setup_s: f64,
    /// Intervals between consecutive observed commits.
    pub round_ms: Vec<f64>,
    /// Training seconds from the first to the last observed commit, and
    /// the tokens those rounds consumed.
    pub train_s: f64,
    pub tokens: u64,
    pub wire_bytes_per_round: f64,
    pub rss_mb: f64,
    pub losses: Vec<f32>,
    pub params: Vec<f32>,
    pub hash: u64,
    pub results: u64,
    pub uncommitted: u64,
}

/// An unused localhost port (bound, then released for the child).
pub fn free_port() -> Result<u16, String> {
    let l = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    Ok(l.local_addr().map_err(|e| e.to_string())?.port())
}

fn spawn(photon: &Path, args: &[String], log: &Path) -> Result<Child, String> {
    let out = fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
    Command::new(photon)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", photon.display()))
}

/// Child processes that are killed (if still running) and reaped when
/// dropped, also when the benchmark unwinds from a panic.
struct Procs(Vec<Child>);

impl Procs {
    fn reap(&mut self) {
        for c in self.0.iter_mut() {
            if matches!(c.try_wait(), Ok(None)) {
                let _ = c.kill();
            }
            let _ = c.wait();
        }
    }
}

impl Drop for Procs {
    fn drop(&mut self) {
        self.reap();
    }
}

fn json_u64(text: &str, key: &str) -> Option<u64> {
    let at = text.find(&format!("\"{key}\": "))? + key.len() + 4;
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// `(received, cohort)` of every round in the snapshot's ring.
fn ring_slots(text: &str) -> Vec<(u64, u64)> {
    let Some(start) = text.find("\"recent_rounds\": [") else {
        return Vec::new();
    };
    let ring = &text[start..text[start..].find(']').map_or(text.len(), |e| start + e)];
    ring.split('{')
        .skip(1)
        .filter_map(|slot| Some((json_u64(slot, "received")?, json_u64(slot, "cohort")?)))
        .collect()
}

/// Waits until a socket listens on `addr` (read from `/proc/net/tcp`,
/// so no probe connection reaches the coordinator).
fn wait_listening(addr: &str, serve: &mut Child) -> Result<(), String> {
    let port = addr
        .rsplit(':')
        .next()
        .and_then(|p| p.parse::<u16>().ok())
        .ok_or("bad address")?;
    let needle = format!(":{port:04X} 00000000:0000 0A");
    let started = Instant::now();
    loop {
        let table =
            fs::read_to_string("/proc/net/tcp").map_err(|e| format!("/proc/net/tcp: {e}"))?;
        if table.lines().any(|l| l.contains(&needle)) {
            return Ok(());
        }
        if !matches!(serve.try_wait(), Ok(None)) {
            return Err("photon serve exited before listening".into());
        }
        if started.elapsed() > Duration::from_secs(20) {
            return Err(format!("nothing listens on {addr}"));
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// A coordinator and its clients, just spawned.
struct Launch {
    procs: Procs,
    spawned: Instant,
    metrics: PathBuf,
    ckpt: PathBuf,
    sessions: Vec<PathBuf>,
}

impl Launch {
    /// Whether every client has been admitted: a client writes its
    /// session file the moment the coordinator grants it a session.
    fn all_admitted(&self) -> bool {
        self.sessions.iter().all(|p| p.exists())
    }
}

/// Spawns `photon serve` for the workload in a fresh `dir`, waits until
/// it listens, then spawns the clients. `extra` flags go to every process,
/// with `{tag}` replaced by a per-process path in `dir`.
fn launch(
    w: &Workload,
    seed: u64,
    photon: &Path,
    dir: &Path,
    extra: &[String],
) -> Result<Launch, String> {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let addr = format!("127.0.0.1:{}", free_port()?);
    let ckpt = dir.join("ckpt");
    let metrics = dir.join("metrics.json");
    let mut serve_args: Vec<String> = vec!["serve".into(), "--addr".into(), addr.clone()];
    serve_args.extend(w.serve_args(seed));
    for (k, v) in [
        ("--checkpoint-dir", ckpt.display().to_string()),
        ("--metrics-json", metrics.display().to_string()),
        ("--warmup-ms", WARMUP_MS.to_string()),
        ("--cooldown-ms", COOLDOWN_MS.to_string()),
    ] {
        serve_args.push(k.into());
        serve_args.push(v);
    }
    let with_extra = |args: &mut Vec<String>, tag: &str| {
        for a in extra {
            args.push(a.replace("{tag}", &dir.join(tag).display().to_string()));
        }
    };
    with_extra(&mut serve_args, "serve");

    let spawned = Instant::now();
    let mut procs = Procs(vec![spawn(photon, &serve_args, &dir.join("serve.log"))?]);
    // Clients start once the coordinator listens, so their first connect
    // attempt never races the bind into a reconnect backoff.
    wait_listening(&addr, &mut procs.0[0])?;
    let mut sessions = Vec::new();
    for i in 0..w.clients {
        let session = dir.join(format!("session-{i}"));
        let mut args: Vec<String> = [
            "client",
            "--addr",
            &addr,
            "--max-attempts",
            "400",
            "--session-file",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        args.push(session.display().to_string());
        with_extra(&mut args, &format!("client-{i}"));
        procs
            .0
            .push(spawn(photon, &args, &dir.join(format!("client-{i}.log")))?);
        sessions.push(session);
    }
    Ok(Launch {
        procs,
        spawned,
        metrics,
        ckpt,
        sessions,
    })
}

/// Set-up time alone: spawn to the last client's admission. The processes
/// are killed right after.
pub fn setup_probe(w: &Workload, seed: u64, photon: &Path, dir: &Path) -> Result<f64, String> {
    let run = launch(w, seed, photon, dir, &[])?;
    while !run.all_admitted() {
        if run.spawned.elapsed() > Duration::from_secs(20) {
            return Err("clients were not admitted".into());
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    Ok(run.spawned.elapsed().as_secs_f64())
}

/// One complete run: spawn the coordinator and its clients, watch the
/// commits, reap every process, and read the final checkpoint back.
pub fn serve_once(
    w: &Workload,
    seed: u64,
    photon: &Path,
    dir: &Path,
    extra: &[String],
) -> Result<TcpRun, String> {
    let lo_before = loopback_rx_bytes();
    let mut run = launch(w, seed, photon, dir, extra)?;
    let spawned = run.spawned;
    let pids: Vec<String> = run.procs.0.iter().map(|c| c.id().to_string()).collect();
    let mut peak = vec![0.0f64; pids.len()];
    let mut admitted: Option<Instant> = None;
    let mut commits: Vec<(u64, Instant)> = Vec::new();
    let mut last_modified = None;
    let mut committed = 0u64;
    let mut polls = 0u64;
    let serve_status = loop {
        if let Ok(Some(status)) = run.procs.0[0].try_wait() {
            break Some(status);
        }
        if spawned.elapsed() > RUN_TIMEOUT {
            break None;
        }
        if admitted.is_none() && run.all_admitted() {
            admitted = Some(Instant::now());
        }
        let modified = fs::metadata(&run.metrics).and_then(|m| m.modified()).ok();
        if modified.is_some() && modified != last_modified {
            last_modified = modified;
            let seen = Instant::now();
            if let Some(n) = fs::read_to_string(&run.metrics)
                .ok()
                .and_then(|t| json_u64(&t, "rounds_committed"))
            {
                if n > committed {
                    commits.push((n, seen));
                    committed = n;
                }
            }
        }
        if polls.is_multiple_of(20) {
            for (p, pid) in peak.iter_mut().zip(&pids) {
                *p = p.max(peak_rss_mb(pid).unwrap_or(0.0));
            }
        }
        polls += 1;
        std::thread::sleep(Duration::from_millis(1));
    };
    // Clients leave once they see the coordinator's shutdown.
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline
        && run.procs.0[1..]
            .iter_mut()
            .any(|c| matches!(c.try_wait(), Ok(None)))
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    let client_ok: Vec<bool> = run.procs.0[1..]
        .iter_mut()
        .map(|c| matches!(c.try_wait(), Ok(Some(s)) if s.success()))
        .collect();
    run.procs.reap();
    let lo_after = loopback_rx_bytes();

    match serve_status {
        Some(s) if s.success() => {}
        Some(s) => return Err(format!("photon serve exited with {s}")),
        None => return Err("photon serve did not finish in time".into()),
    }
    for (i, ok) in client_ok.iter().enumerate() {
        let log = fs::read_to_string(dir.join(format!("client-{i}.log"))).unwrap_or_default();
        if !ok || !log.contains("clean shutdown: true") {
            return Err(format!("client {i} did not shut down cleanly"));
        }
    }
    let serve_log = fs::read_to_string(dir.join("serve.log")).unwrap_or_default();
    let losses: Vec<f32> = serve_log
        .lines()
        .filter(|l| l.starts_with("round") && l.contains("mean client loss"))
        .filter_map(|l| l.split_whitespace().last()?.parse().ok())
        .collect();
    let snapshot = fs::read_to_string(&run.metrics).unwrap_or_default();
    let rounds_committed = json_u64(&snapshot, "rounds_committed").unwrap_or(0);
    let slots = ring_slots(&snapshot);
    let results = w.rounds * w.clients as u64;
    let received: u64 = slots.iter().map(|s| s.0).sum();
    let uncommitted = results.saturating_sub(received);

    // Round k's wall time is the gap between commits k-1 and k; only gaps
    // between consecutively observed commits count.
    let round_ms: Vec<f64> = commits
        .windows(2)
        .filter(|p| p[1].0 == p[0].0 + 1)
        .map(|p| (p[1].1 - p[0].1).as_secs_f64() * 1e3)
        .collect();
    let (first, last) = match (commits.first(), commits.last()) {
        (Some(f), Some(l)) if round_ms.len() >= 2 => (*f, *l),
        _ => {
            return Err(format!(
                "observed {} commit(s), too few to time rounds",
                commits.len()
            ))
        }
    };
    let setup_s = admitted
        .ok_or("no client was admitted")?
        .duration_since(spawned)
        .as_secs_f64();

    let (manifest, params) =
        load_checkpoint(&run.ckpt).map_err(|e| format!("cannot read the final checkpoint: {e}"))?;
    if manifest.round != w.rounds || rounds_committed != w.rounds {
        return Err(format!(
            "{rounds_committed} of {} rounds committed (checkpoint at round {})",
            w.rounds, manifest.round
        ));
    }
    let wire = match (lo_before, lo_after) {
        (Some(a), Some(b)) => (b - a) as f64 / w.rounds as f64,
        _ => f64::NAN,
    };
    Ok(TcpRun {
        setup_s,
        round_ms,
        train_s: (last.1 - first.1).as_secs_f64(),
        tokens: (last.0 - first.0) * w.tokens_per_round(),
        wire_bytes_per_round: wire,
        rss_mb: peak.iter().sum(),
        losses,
        hash: param_hash(&params),
        params,
        results,
        uncommitted,
    })
}

/// Validation perplexity of `params` on the workload's held-out corpus.
pub fn val_ppl(w: &Workload, seed: u64, params: Vec<f32>) -> Result<f64, String> {
    let cfg = w.config(seed);
    let (_, val) = build_iid_federation(&cfg, w.tokens_per_client).map_err(|e| e.to_string())?;
    let model = Gpt::from_params(cfg.model, params);
    let seq = cfg.model.seq_len.clamp(8, 64);
    Ok(evaluate_perplexity(&model, &mut EvalStream::new(&val, seq), EVAL_WINDOWS).perplexity)
}

/// Checks one run and folds its tallies into `report`: every result was
/// committed and every loss is finite. A run that fails a check counts as
/// one failed item.
pub fn check_run(w: &Workload, run: &TcpRun, report: &mut Report) {
    let before = report.errors.len();
    report.attempted += run.results;
    report.failed += run.uncommitted;
    if run.uncommitted > 0 {
        report.fail(format!(
            "{} client results were not committed",
            run.uncommitted
        ));
    }
    if run.losses.len() as u64 != w.rounds || run.losses.iter().any(|l| !l.is_finite()) {
        report.fail(format!("serve reported losses {:?}", run.losses));
    }
    if report.errors.len() > before {
        report.failed += 1;
    }
}

/// Serve runs until `seconds` are used (at least two), then the
/// end-to-end metrics.
pub fn measure(
    w: &Workload,
    seed: u64,
    seconds: f64,
    photon: &Path,
    out: &Path,
    report: &mut Report,
) {
    let start = Instant::now();
    let mut runs: Vec<TcpRun> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut attempted_runs = 0u64;
    loop {
        attempted_runs += 1;
        let dir = out.join(format!("run-{attempted_runs}"));
        let result = serve_once(w, seed, photon, &dir, &[]);
        let _ = fs::remove_dir_all(&dir);
        match result {
            Ok(run) => {
                check_run(w, &run, report);
                runs.push(run);
            }
            Err(e) => {
                report.failed += 1;
                report.fail(format!("serve run failed: {e}"));
                break;
            }
        }
        // Set-up is short; extra set-up-only launches between runs give
        // its median more samples.
        for probe in 0..SETUP_PROBES {
            let dir = out.join(format!("setup-{attempted_runs}-{probe}"));
            let result = setup_probe(w, seed, photon, &dir);
            let _ = fs::remove_dir_all(&dir);
            match result {
                Ok(s) => setups.push(s),
                Err(e) => report.fail(format!("set-up probe failed: {e}")),
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        if runs.len() >= 2 && elapsed + elapsed / runs.len() as f64 > seconds {
            break;
        }
    }
    report.attempted += attempted_runs;
    let Some(first) = runs.first() else {
        return;
    };
    if runs.iter().any(|r| r.hash != first.hash) {
        report.failed += 1;
        report.fail("same-seed reruns ended in different global parameters");
    }
    let ppl = val_ppl(w, seed, first.params.clone()).unwrap_or(f64::NAN);
    let before = report.errors.len();
    check_ppl(w, ppl, report);
    if report.errors.len() > before {
        report.failed += runs.len() as u64;
    }
    report.notes.push(format!(
        "{} serve run(s) of {} round(s), final parameter hash {:016x}",
        runs.len(),
        w.rounds,
        first.hash
    ));
    let rounds: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.round_ms.iter().copied())
        .collect();
    setups.extend(runs.iter().map(|r| r.setup_s));
    let tps: Vec<f64> = rounds
        .iter()
        .map(|ms| w.tokens_per_round() as f64 / (ms / 1e3))
        .collect();
    let wire: Vec<f64> = runs.iter().map(|r| r.wire_bytes_per_round / 1e6).collect();
    let rss: Vec<f64> = runs.iter().map(|r| r.rss_mb).collect();
    report.add("tokens_per_s", median(&tps), "tok/s", tps.len());
    report.add("round_ms_p50", median(&rounds), "ms", rounds.len());
    report.add("setup_s", median(&setups), "s", setups.len());
    report.add("val_ppl", ppl, "ppl", 1);
    report.add("wire_mb_per_round", median(&wire), "MB", wire.len());
    report.add("peak_mem_mb", median(&rss), "MB", rss.len());
}

/// Connect plus admission against a live coordinator, in milliseconds:
/// one fresh admission, then timed session resumes with the granted
/// token. The coordinator sits in a long warmup, so no round starts.
pub fn connect_probe(
    w: &Workload,
    seed: u64,
    photon: &Path,
    dir: &Path,
) -> Result<Vec<f64>, String> {
    fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let addr = format!("127.0.0.1:{}", free_port()?);
    let mut args: Vec<String> = vec!["serve".into(), "--addr".into(), addr.clone()];
    args.extend(w.serve_args(seed));
    for (k, v) in [("--min-clients", "1"), ("--warmup-ms", "600000")] {
        args.push(k.into());
        args.push(v.into());
    }
    let mut child = Procs(vec![spawn(photon, &args, &dir.join("probe.log"))?]);
    let result = (|| {
        let handshake = |id: u32, token: u64| -> Result<(u32, u64, f64), String> {
            let t = Instant::now();
            let link = TcpLink::connect(&addr).map_err(|e| e.to_string())?;
            let hello = Message::SessionHello {
                client_id: id,
                token,
                last_acked_round: u64::MAX,
            };
            link.send_message(&hello, WireOpts::default())
                .map_err(|e| e.to_string())?;
            let granted = match link.recv_message(Duration::from_secs(5)) {
                Ok(Message::SessionGrant {
                    client_id, token, ..
                }) => (client_id, token),
                other => return Err(format!("expected a session grant, got {other:?}")),
            };
            match link.recv_message(Duration::from_secs(5)) {
                Ok(Message::RunSync { .. }) => {}
                other => return Err(format!("expected the run plan, got {other:?}")),
            }
            let ms = t.elapsed().as_secs_f64() * 1e3;
            link.sever();
            Ok((granted.0, granted.1, ms))
        };
        // The coordinator needs a moment to bind; the first admission is
        // not timed.
        let started = Instant::now();
        let (id, token, _) = loop {
            match handshake(u32::MAX, 0) {
                Ok(g) => break g,
                Err(e) if started.elapsed() > Duration::from_secs(20) => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        };
        let mut times = Vec::new();
        for _ in 0..7 {
            // Let the coordinator retire the previous connection first.
            std::thread::sleep(Duration::from_millis(20));
            times.push(handshake(id, token)?.2);
        }
        Ok(times)
    })();
    child.reap();
    result
}

/// Median round trip of `frame` over a loopback [`TcpLink`] to an echo
/// thread, in milliseconds.
pub fn frame_rtt_ms(frame: bytes::Bytes, reps: usize) -> Result<f64, String> {
    let echo = EchoLink::start()?;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps + 1 {
        let t = Instant::now();
        echo.link
            .send_frame(frame.clone())
            .map_err(|e| e.to_string())?;
        let back = echo
            .link
            .recv_frame(Duration::from_secs(30))
            .map_err(|e| e.to_string())?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
        if back.len() != frame.len() {
            return Err("echoed frame changed size".into());
        }
    }
    // The first trip warms the connection up.
    Ok(median(&times[1..]))
}

/// A loopback [`photon_net::TcpLink`] whose peer echoes every frame back.
pub struct EchoLink {
    pub link: TcpLink,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl EchoLink {
    pub fn start() -> Result<EchoLink, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        let thread = std::thread::spawn(move || {
            if let Ok((stream, _)) = listener.accept() {
                if let Ok(peer) = TcpLink::from_stream(stream) {
                    while let Ok(f) = peer.recv_frame(Duration::from_secs(60)) {
                        if peer.send_frame(f).is_err() {
                            break;
                        }
                    }
                }
            }
        });
        let link = TcpLink::connect(&addr).map_err(|e| e.to_string())?;
        Ok(EchoLink {
            link,
            thread: Some(thread),
        })
    }
}

impl Drop for EchoLink {
    fn drop(&mut self) {
        self.link.sever();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Scratch directory for one workload and seed.
pub fn scratch(out: &Path, w: &Workload, seed: u64) -> PathBuf {
    out.join(format!("{}-{seed}", w.name))
}
