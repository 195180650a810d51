//! Per-kernel timings at a workload's shapes: each `photon_nn::kernels`
//! entry point is called on its own, and its per-call time is scaled by
//! how often one training step calls it.

use crate::stats::time_per_call_us;
use photon_nn::kernels as k;
use photon_nn::ModelConfig;
use photon_tensor::ops::{gemm_auto, Gemm};
use std::hint::black_box;

/// One kernel's cost per training step.
pub struct KernelCost {
    pub name: &'static str,
    pub fwd_us: f64,
    pub bwd_us: f64,
    /// FLOPs per step computed from shapes, for the GEMMs and attention.
    pub flops: Option<f64>,
}

/// Deterministic values in `[-0.5, 0.5)`.
fn filled(n: usize, salt: u64) -> Vec<f32> {
    let mut x = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        })
        .collect()
}

const BATCHES: usize = 5;
const BATCH_MS: f64 = 3.0;

fn t(f: impl FnMut()) -> f64 {
    time_per_call_us(BATCHES, BATCH_MS, f)
}

/// Costs per step of every kernel for `model` at local batch `b`, in the
/// order the forward pass first calls them.
pub fn kernel_costs(model: &ModelConfig, b: usize, alibi: bool) -> Vec<KernelCost> {
    let (t_, c, nh, v, l) = (
        model.seq_len,
        model.d_model,
        model.n_heads,
        model.vocab_size,
        model.n_layers as f64,
    );
    let bt = b * t_;
    let rc = model.mlp_dim();
    let tokens: Vec<u32> = (0..bt).map(|i| (i * 31 % v) as u32).collect();
    let mut out = Vec::new();

    // Embedding.
    {
        let wte = filled(v * c, 1);
        let mut enc = vec![0.0; bt * c];
        let mut dwte = vec![0.0; v * c];
        let dout = filled(bt * c, 2);
        let f = t(|| k::encoder_forward(black_box(&mut enc), &tokens, &wte, bt, c, v));
        let g = t(|| k::encoder_backward(black_box(&mut dwte), &dout, &tokens, bt, c));
        out.push(KernelCost {
            name: "encoder",
            fwd_us: f,
            bwd_us: g,
            flops: None,
        });
    }
    // LayerNorm: two per block plus the final one.
    {
        let inp = filled(bt * c, 3);
        let (w, bias) = (filled(c, 4), filled(c, 5));
        let (mut o, mut mean, mut rstd) = (vec![0.0; bt * c], vec![0.0; bt], vec![0.0; bt]);
        let f = t(|| {
            k::layernorm_forward(
                black_box(&mut o),
                &mut mean,
                &mut rstd,
                &inp,
                &w,
                &bias,
                bt,
                c,
            )
        });
        let (mut dinp, mut dw, mut db) = (vec![0.0; bt * c], vec![0.0; c], vec![0.0; c]);
        let dout = filled(bt * c, 6);
        let g = t(|| {
            k::layernorm_backward(
                black_box(&mut dinp),
                &mut dw,
                &mut db,
                &dout,
                &inp,
                &w,
                &mean,
                &rstd,
                bt,
                c,
            )
        });
        let n = 2.0 * l + 1.0;
        out.push(KernelCost {
            name: "layernorm",
            fwd_us: f * n,
            bwd_us: g * n,
            flops: None,
        });
    }
    let matmul = |name: &'static str, ic: usize, oc: usize, bias: bool, calls: f64| {
        let inp = filled(bt * ic, 7);
        let w = filled(oc * ic, 8);
        let bvec = if bias { filled(oc, 9) } else { Vec::new() };
        let mut o = vec![0.0; bt * oc];
        let f = t(|| k::matmul_forward(black_box(&mut o), &inp, &w, &bvec, bt, ic, oc));
        let (mut dinp, mut dw) = (vec![0.0; bt * ic], vec![0.0; oc * ic]);
        let mut db = if bias { vec![0.0; oc] } else { Vec::new() };
        let dout = filled(bt * oc, 10);
        let g = t(|| {
            k::matmul_backward(
                black_box(&mut dinp),
                &mut dw,
                &mut db,
                &dout,
                &inp,
                &w,
                bt,
                ic,
                oc,
            )
        });
        let fl = 2.0 * (bt * ic * oc) as f64;
        KernelCost {
            name,
            fwd_us: f * calls,
            bwd_us: g * calls,
            flops: Some(3.0 * fl * calls),
        }
    };
    out.push(matmul("qkv", c, 3 * c, true, l));
    // Attention.
    {
        let qkv = filled(bt * 3 * c, 11);
        let (mut o, mut pre, mut att) = (
            vec![0.0; bt * c],
            vec![0.0; b * nh * t_ * t_],
            vec![0.0; b * nh * t_ * t_],
        );
        let f = t(|| {
            k::attention_forward(
                black_box(&mut o),
                &mut pre,
                &mut att,
                &qkv,
                b,
                t_,
                c,
                nh,
                alibi,
            )
        });
        let (mut dqkv, mut dpre, mut datt) = (
            vec![0.0; bt * 3 * c],
            vec![0.0; b * nh * t_ * t_],
            vec![0.0; b * nh * t_ * t_],
        );
        let dout = filled(bt * c, 12);
        let g = t(|| {
            k::attention_backward(
                black_box(&mut dqkv),
                &mut dpre,
                &mut datt,
                &dout,
                &qkv,
                &att,
                b,
                t_,
                c,
                nh,
            )
        });
        // Causal QK^T and att@V: 2 * B*C*T(T+1) forward, twice that back.
        let fwd = 2.0 * (b * c * t_ * (t_ + 1)) as f64;
        out.push(KernelCost {
            name: "attention",
            fwd_us: f * l,
            bwd_us: g * l,
            flops: Some(3.0 * fwd * l),
        });
    }
    out.push(matmul("attn_proj", c, c, true, l));
    out.push(matmul("fc", c, rc, true, l));
    // GELU.
    {
        let inp = filled(bt * rc, 13);
        let mut o = vec![0.0; bt * rc];
        let f = t(|| k::gelu_forward(black_box(&mut o), &inp));
        let (mut dinp, dout) = (vec![0.0; bt * rc], filled(bt * rc, 14));
        let g = t(|| k::gelu_backward(black_box(&mut dinp), &inp, &dout));
        out.push(KernelCost {
            name: "gelu",
            fwd_us: f * l,
            bwd_us: g * l,
            flops: None,
        });
    }
    out.push(matmul("fc_proj", rc, c, true, l));
    // Residual adds: two per block.
    {
        let (a, bb) = (filled(bt * c, 15), filled(bt * c, 16));
        let mut o = vec![0.0; bt * c];
        let f = t(|| k::residual_forward(black_box(&mut o), &a, &bb));
        let (mut da, mut db) = (vec![0.0; bt * c], vec![0.0; bt * c]);
        let g = t(|| k::residual_backward(black_box(&mut da), &mut db, &a));
        out.push(KernelCost {
            name: "residual",
            fwd_us: f * 2.0 * l,
            bwd_us: g * 2.0 * l,
            flops: None,
        });
    }
    out.push(matmul("lm_head", c, v, false, 1.0));
    // Softmax + cross-entropy.
    {
        let logits = filled(bt * v, 17);
        let targets: Vec<u32> = (0..bt).map(|i| (i * 7 % v) as u32).collect();
        let (mut probs, mut losses) = (vec![0.0; bt * v], vec![0.0; bt]);
        let f = t(|| {
            black_box(k::cross_entropy_forward(
                &mut probs,
                &mut losses,
                &logits,
                &targets,
                bt,
                v,
            ));
        });
        let mut dlogits = vec![0.0; bt * v];
        let g = t(|| k::cross_entropy_backward(black_box(&mut dlogits), &probs, &targets, bt, v));
        out.push(KernelCost {
            name: "xent",
            fwd_us: f,
            bwd_us: g,
            flops: None,
        });
    }
    out
}

/// Achieved GFLOP/s of a square `n`-sized GEMM through `gemm_auto`.
pub fn gemm_peak_gflops(n: usize) -> f64 {
    let (a, b) = (filled(n * n, 21), filled(n * n, 22));
    let mut c = vec![0.0; n * n];
    let us = time_per_call_us(BATCHES, 20.0, || {
        gemm_auto(Gemm::new(n, n, n), &a, &b, black_box(&mut c))
    });
    2.0 * (n * n * n) as f64 / (us * 1e3)
}
