//! The benchmark's workloads, written against the public APIs of the `dense`
//! and `sparse` libraries and `diffuse::Context`, with every `DiffuseConfig`
//! field pinned.
//!
//! A run is a sequence of *phases*. A phase is a fixed number of iterations
//! started from a flushed window and ended by a flush and a read-back, so
//! every phase sees the same window structure and its host time covers whole
//! windows (windows straddle iterations, so single iterations are bimodal).
//! Phase `i`'s inputs depend only on the seed and `i`, which lets a reference
//! run in another process recompute any phase.

use std::time::Instant;

use dense::{DArray, DenseContext};
use diffuse::{
    AnalyzeMode, BackendKind, Context, DiffuseConfig, ExecutionStats, ExecutorKind, RecoveryPolicy,
    StoreHandle, TaskKind, TaskSignature,
};
use ir::{Domain, Partition};
use kernel::{BufferId, BufferRole, KernelModule, LoopBuilder};
use machine::MachineConfig;
use runtime::Profile;
use sparse::{CsrMatrix, SparseContext};

use crate::inputs;
use crate::trace::Tracer;

/// Memo capacity of every configuration: far above what the repeating
/// workloads need, and small enough that the drifting stream evicts.
pub const MEMO_CAPACITY: usize = 64;

/// Independent pricing chains per `batch-drift` iteration.
const DRIFT_BATCHES: u64 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Natural CG (SpMV + dense vector ops), functional, 8 GPUs x 2^16 rows.
    CgFunc,
    /// Black-Scholes, simulation only, 1024 GPUs x 2^18 options.
    Bs1024,
    /// Batched Black-Scholes whose array length changes every iteration.
    BatchDrift,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cg-func" => Some(Workload::CgFunc),
            "bs-1024" => Some(Workload::Bs1024),
            "batch-drift" => Some(Workload::BatchDrift),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::CgFunc => "cg-func",
            Workload::Bs1024 => "bs-1024",
            Workload::BatchDrift => "batch-drift",
        }
    }

    /// Iterations per phase.
    pub fn iters_per_phase(self) -> u64 {
        match self {
            Workload::CgFunc => 10,
            Workload::Bs1024 => 4,
            // One length from each band per phase.
            Workload::BatchDrift => inputs::DRIFT_BANDS,
        }
    }

    /// Initial and maximum window size. The batched stream's window holds a
    /// whole iteration so the horizontal pass sees every batch.
    fn window(self) -> (usize, usize) {
        match self {
            Workload::BatchDrift => (816, 816),
            _ => (5, 70),
        }
    }

    /// The configuration whose metrics the benchmark reports.
    pub fn measured(self) -> Variant {
        let (gpus, functional) = match self {
            Workload::CgFunc => (8, true),
            Workload::Bs1024 => (1024, false),
            Workload::BatchDrift => (8, true),
        };
        Variant {
            gpus,
            fused: true,
            functional,
            backend: BackendKind::Simd,
            executor: ExecutorKind::WorkStealing { workers: Some(2) },
        }
    }

    /// The configuration the measured outputs are checked against: the
    /// unfused interpreter for the functional workloads; for `bs-1024`, the
    /// same program at 8 GPUs, since the fusion plan and the per-GPU
    /// simulated time must not depend on machine size.
    pub fn reference(self) -> Variant {
        let m = self.measured();
        match self {
            Workload::Bs1024 => Variant { gpus: 8, ..m },
            _ => Variant {
                fused: false,
                backend: BackendKind::Interp,
                executor: ExecutorKind::Serial,
                ..m
            },
        }
    }
}

/// The axes a workload runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    pub gpus: usize,
    pub fused: bool,
    pub functional: bool,
    pub backend: BackendKind,
    pub executor: ExecutorKind,
}

impl Variant {
    /// Every `DiffuseConfig` field set explicitly, so `DIFFUSE_*` variables
    /// in the caller's environment cannot change what is measured.
    pub fn config(self, workload: Workload) -> DiffuseConfig {
        let (initial, max) = workload.window();
        let mut c = DiffuseConfig::fused(MachineConfig::with_gpus(self.gpus));
        c.materialize_data = self.functional;
        c.enable_task_fusion = self.fused;
        c.enable_kernel_fusion = self.fused;
        c.enable_temp_elimination = self.fused;
        c.enable_memoization = self.fused;
        c.enable_horizontal_fusion = self.fused && workload == Workload::BatchDrift;
        c.memo_capacity = MEMO_CAPACITY;
        c.initial_window_size = initial;
        c.max_window_size = max;
        c.executor = self.executor;
        c.backend = self.backend;
        c.enable_verification = false;
        c.verify_fail_fast = false;
        c.fault_plan = None;
        c.recovery = RecoveryPolicy::default();
        c.analyze = AnalyzeMode::Declared;
        c
    }
}

/// What one phase did, on both clocks.
#[derive(Debug, Clone)]
pub struct Phase {
    pub index: u64,
    pub iters: u64,
    pub host_s: f64,
    pub sim_s: f64,
    pub stats: ExecutionStats,
    pub profile: Profile,
    /// Launches reported by `Context::take_failures`.
    pub failures: u64,
    /// FNV-1a over the bits of the phase's read-back results (functional
    /// runs only).
    pub digest: Option<u64>,
}

impl Phase {
    pub fn host_ms_per_iter(&self) -> f64 {
        self.host_s * 1e3 / self.iters as f64
    }

    pub fn sim_ms_per_iter(&self) -> f64 {
        self.sim_s * 1e3 / self.iters as f64
    }
}

enum Inputs {
    Cg {
        a: CsrMatrix,
        b: DArray,
    },
    Bs {
        s: DArray,
        k: DArray,
        t: DArray,
    },
    Drift {
        combine: TaskKind,
        lengths: Vec<u64>,
    },
}

/// A context with its libraries registered and its inputs generated.
pub struct Session {
    workload: Workload,
    functional: bool,
    seed: u64,
    np: DenseContext,
    inputs: Inputs,
}

impl Session {
    pub fn new(workload: Workload, variant: Variant, seed: u64) -> Session {
        let ctx = Context::new(variant.config(workload));
        let np = DenseContext::new(ctx.clone());
        let gpus = variant.gpus as u64;
        let inputs = match workload {
            Workload::CgFunc => {
                let sp = SparseContext::new(&ctx);
                // Weak scaling: 2^16 rows per GPU on a square grid.
                let grid = ((gpus << 16) as f64).sqrt() as u64;
                let rows = grid * grid;
                if variant.functional {
                    let a = CsrMatrix::poisson_2d(&sp, grid);
                    let b = np.from_vec(&[rows], inputs::cg_rhs(seed, rows));
                    Inputs::Cg { a, b }
                } else {
                    let a = CsrMatrix::poisson_2d_symbolic(&sp, grid);
                    Inputs::Cg {
                        a,
                        b: np.ones(&[rows]),
                    }
                }
            }
            Workload::Bs1024 => {
                let n = gpus << 18;
                let [s, k, t] = inputs::bs_params(seed).map(|v| np.full(&[n], v));
                Inputs::Bs { s, k, t }
            }
            Workload::BatchDrift => {
                let combine = ctx
                    .library("drift")
                    .op(
                        "combine",
                        TaskSignature::new().read().read().write(),
                        |_| {
                            let mut m = KernelModule::new(3);
                            m.set_role(BufferId(2), BufferRole::Output);
                            let mut b = LoopBuilder::new("combine", BufferId(2));
                            let (x, y) = (b.load(BufferId(0)), b.load(BufferId(1)));
                            let s = b.add(x, y);
                            b.store(BufferId(2), s);
                            m.push_loop(b.finish());
                            m
                        },
                    )
                    .build()
                    .kind("combine")
                    .expect("combine was just registered");
                Inputs::Drift {
                    combine,
                    lengths: inputs::drift_lengths(seed),
                }
            }
        };
        ctx.flush();
        Session {
            workload,
            functional: variant.functional,
            seed,
            np,
            inputs,
        }
    }

    pub fn context(&self) -> &Context {
        self.np.context()
    }

    /// Whether phase `index` has fresh inputs (the drifting stream runs out
    /// of unused lengths eventually).
    pub fn has_phase(&self, index: u64) -> bool {
        match &self.inputs {
            Inputs::Drift { lengths, .. } => {
                (index + 1) * self.workload.iters_per_phase() <= lengths.len() as u64
            }
            _ => true,
        }
    }

    /// Runs phase `index` and reports it. Host time covers the iterations,
    /// the final flush and the read-back; input generation and hashing stay
    /// outside it.
    pub fn run_phase(&self, index: u64, tr: &mut Tracer) -> Phase {
        let ctx = self.context();
        let iters = self.workload.iters_per_phase();
        let first_iter = index * iters;
        let drift_data = match &self.inputs {
            Inputs::Drift { lengths, .. } => (first_iter..first_iter + iters)
                .map(|g| {
                    let len = lengths[g as usize];
                    (0..DRIFT_BATCHES)
                        .map(|b| inputs::drift_batch(self.seed, g, b, len))
                        .collect()
                })
                .collect(),
            _ => Vec::new(),
        };
        tr.attach(ctx);
        let stats0 = ctx.stats();
        let profile0 = ctx.profile();
        let sim0 = ctx.elapsed();
        let start = Instant::now();
        let out = tr.phase(|tr| match &self.inputs {
            Inputs::Cg { a, b } => self.cg_phase(tr, first_iter, a, b),
            Inputs::Bs { s, k, t } => {
                let mut last = None;
                for i in 0..iters {
                    last = Some(tr.iteration(first_iter + i, |tr| price(tr, s, k, t)));
                }
                tr.flush(ctx);
                drop(last);
                None
            }
            Inputs::Drift { combine, .. } => {
                let mut resps = Vec::new();
                for (i, data) in drift_data.into_iter().enumerate() {
                    tr.iteration(first_iter + i as u64, |tr| {
                        resps.extend(self.drift_iteration(tr, *combine, data))
                    });
                }
                self.functional.then(|| {
                    resps
                        .iter()
                        .map(|r| tr.readback(|| ctx.read_scalar(r)).expect("functional run"))
                        .collect()
                })
            }
        });
        let host_s = start.elapsed().as_secs_f64();
        let failures = ctx.take_failures().len() as u64;
        Phase {
            index,
            iters,
            host_s,
            sim_s: ctx.elapsed() - sim0,
            stats: ctx.stats().since(&stats0),
            profile: ctx.profile().since(&profile0),
            failures,
            digest: out.map(|v: Vec<f64>| fnv1a(&v)),
        }
    }

    /// CG from `x = 0` for one phase, then reads back `x` and `r.r`.
    fn cg_phase(
        &self,
        tr: &mut Tracer,
        first_iter: u64,
        a: &CsrMatrix,
        b: &DArray,
    ) -> Option<Vec<f64>> {
        let np = &self.np;
        let ctx = np.context();
        let x = np.zeros(&[a.rows()]);
        let r = tr.lib("dense.copy", || b.copy());
        let p = tr.lib("dense.copy", || r.copy());
        let rs_old = tr.lib("dense.dot", || r.dot(&r));
        let mut st = CgState { x, r, p, rs_old };
        for i in 0..self.workload.iters_per_phase() {
            tr.iteration(first_iter + i, |tr| cg_iteration(tr, np, a, &mut st));
        }
        tr.flush(ctx);
        if !self.functional {
            return None;
        }
        let mut out = tr
            .readback(|| ctx.read_store(st.x.handle()))
            .expect("functional run");
        out.push(
            tr.readback(|| st.rs_old.scalar_value())
                .expect("functional run"),
        );
        Some(out)
    }

    /// Uploads every batch's arrays, prices all batches, combines each
    /// batch's sums into a fresh response store, and flushes.
    fn drift_iteration(
        &self,
        tr: &mut Tracer,
        combine: TaskKind,
        data: Vec<[Vec<f64>; 3]>,
    ) -> Vec<StoreHandle> {
        let np = &self.np;
        let ctx = np.context();
        // Uploads first: `from_vec` flushes the window, which would split the
        // batches apart if it ran between them.
        let arrays: Vec<[DArray; 3]> = data
            .into_iter()
            .map(|batch| {
                batch.map(|v| {
                    let len = v.len() as u64;
                    tr.lib("dense.from_vec", || np.from_vec(&[len], v))
                })
            })
            .collect();
        let mut resps = Vec::with_capacity(arrays.len());
        for [s, k, t] in &arrays {
            let (call, put) = price(tr, s, k, t);
            let call_sum = tr.lib("dense.sum", || call.sum());
            let put_sum = tr.lib("dense.sum", || put.sum());
            drop((call, put));
            let resp = ctx.create_store(vec![1], "drift_resp");
            tr.lib("drift.combine", || {
                ctx.task(combine)
                    .domain(Domain::linear(1))
                    .read(call_sum.handle(), Partition::Replicate)
                    .read(put_sum.handle(), Partition::Replicate)
                    .write(&resp, Partition::Replicate)
                    .launch()
            });
            resps.push(resp);
        }
        drop(arrays);
        tr.flush(ctx);
        resps
    }
}

struct CgState {
    x: DArray,
    r: DArray,
    p: DArray,
    rs_old: DArray,
}

/// One natural CG iteration, as `apps::cg` writes it.
fn cg_iteration(tr: &mut Tracer, np: &DenseContext, a: &CsrMatrix, st: &mut CgState) {
    let q = tr.lib("sparse.spmv", || np.wrap(a.spmv(st.p.handle())));
    let p_ap = tr.lib("dense.dot", || st.p.dot(&q));
    let alpha = tr.lib("dense.divide", || st.rs_old.div(&p_ap));
    st.x = tr.lib("dense.axpy", || st.x.axpy(&alpha, &st.p, 1.0));
    st.r = tr.lib("dense.axpy", || st.r.axpy(&alpha, &q, -1.0));
    let rs_new = tr.lib("dense.dot", || st.r.dot(&st.r));
    let beta = tr.lib("dense.divide", || rs_new.div(&st.rs_old));
    st.p = tr.lib("dense.axpy", || st.r.axpy(&beta, &st.p, 1.0));
    st.rs_old = rs_new;
}

const RISK_FREE_RATE: f64 = 0.02;
const VOLATILITY: f64 = 0.3;

/// `0.5 * (1 + erf(x / sqrt(2)))`, four elementwise calls.
fn cdf(tr: &mut Tracer, x: &DArray) -> DArray {
    let a = tr.lib("dense.scalar_mul", || {
        x.scalar_mul(std::f64::consts::FRAC_1_SQRT_2)
    });
    let b = tr.lib("dense.erf", || a.erf());
    let c = tr.lib("dense.scalar_add", || b.scalar_add(1.0));
    tr.lib("dense.scalar_mul", || c.scalar_mul(0.5))
}

/// One Black-Scholes pricing pass, as `apps::black_scholes` writes it: 35
/// elementwise calls returning (call, put).
fn price(tr: &mut Tracer, s: &DArray, k: &DArray, t: &DArray) -> (DArray, DArray) {
    let sk = tr.lib("dense.divide", || s.div(k));
    let log_moneyness = tr.lib("dense.log", || sk.ln());
    let drift = tr.lib("dense.scalar_mul", || {
        t.scalar_mul(RISK_FREE_RATE + 0.5 * VOLATILITY * VOLATILITY)
    });
    let numerator = tr.lib("dense.add", || log_moneyness.add(&drift));
    let sqrt_t = tr.lib("dense.sqrt", || t.sqrt());
    let denom = tr.lib("dense.scalar_mul", || sqrt_t.scalar_mul(VOLATILITY));
    let d1 = tr.lib("dense.divide", || numerator.div(&denom));
    let d2 = tr.lib("dense.subtract", || d1.sub(&denom));
    let rt = tr.lib("dense.scalar_mul", || t.scalar_mul(-RISK_FREE_RATE));
    let discount = tr.lib("dense.exp", || rt.exp());
    let kd = tr.lib("dense.multiply", || k.mul(&discount));
    let nd1 = cdf(tr, &d1);
    let nd2 = cdf(tr, &d2);
    let s_nd1 = tr.lib("dense.multiply", || s.mul(&nd1));
    let kd_nd2 = tr.lib("dense.multiply", || kd.mul(&nd2));
    let call = tr.lib("dense.subtract", || s_nd1.sub(&kd_nd2));
    let neg_d2 = tr.lib("dense.negative", || d2.neg());
    let n_neg_d2 = cdf(tr, &neg_d2);
    let kd_n_neg_d2 = tr.lib("dense.multiply", || kd.mul(&n_neg_d2));
    let neg_d1 = tr.lib("dense.negative", || d1.neg());
    let n_neg_d1 = cdf(tr, &neg_d1);
    let s_n_neg_d1 = tr.lib("dense.multiply", || s.mul(&n_neg_d1));
    let put = tr.lib("dense.subtract", || kd_n_neg_d2.sub(&s_n_neg_d1));
    (call, put)
}

/// FNV-1a over the bit patterns of `values`.
pub fn fnv1a(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in [Workload::CgFunc, Workload::Bs1024, Workload::BatchDrift] {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("cg"), None);
    }

    #[test]
    fn config_pins_the_measured_axes() {
        let v = Workload::CgFunc.measured();
        let c = v.config(Workload::CgFunc);
        assert_eq!(c.backend, BackendKind::Simd);
        assert_eq!(c.executor, ExecutorKind::WorkStealing { workers: Some(2) });
        assert!(c.enable_task_fusion && !c.enable_horizontal_fusion && c.fault_plan.is_none());
        let d = Workload::BatchDrift.measured().config(Workload::BatchDrift);
        assert!(d.enable_horizontal_fusion);
        let r = Workload::BatchDrift
            .reference()
            .config(Workload::BatchDrift);
        assert!(!r.enable_task_fusion && !r.enable_horizontal_fusion);
        assert_eq!(r.backend, BackendKind::Interp);
    }

    #[test]
    fn fnv_distinguishes_bit_patterns() {
        assert_ne!(fnv1a(&[0.0]), fnv1a(&[-0.0]));
        assert_eq!(fnv1a(&[1.5, 2.5]), fnv1a(&[1.5, 2.5]));
    }
}
