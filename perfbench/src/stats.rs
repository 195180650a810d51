//! Small measurement helpers: medians, parameter hashes, process memory
//! and loopback byte counters.

use std::time::Instant;

/// Median of `xs` (mean of the two middle values for even lengths).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// FNV-1a over the bit patterns of `params`: equal hashes mean
/// bit-identical parameters.
pub fn param_hash(params: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in params {
        for b in p.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Peak resident set (`VmHWM`) of process `pid` in MB, if readable.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Bytes received on the loopback interface so far, if readable.
pub fn loopback_rx_bytes() -> Option<u64> {
    let dev = std::fs::read_to_string("/proc/net/dev").ok()?;
    let line = dev.lines().find(|l| l.trim_start().starts_with("lo:"))?;
    line.split(':')
        .nth(1)?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Median per-call time of `f` in microseconds: calls are batched so each
/// batch lasts at least about `batch_ms`, and the median over `batches`
/// batches is reported.
pub fn time_per_call_us(batches: usize, batch_ms: f64, mut f: impl FnMut()) -> f64 {
    // Calibrate the batch size on one warm call.
    let t = Instant::now();
    f();
    let one_us = t.elapsed().as_secs_f64() * 1e6;
    let reps = ((batch_ms * 1e3 / one_us.max(0.01)).ceil() as usize).clamp(1, 100_000);
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / reps as f64
        })
        .collect();
    median(&samples)
}

/// Total size in bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
