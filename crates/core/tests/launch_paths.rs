//! Every task-window launch — memo hit, memo miss and unfused task — goes
//! through one launch path. These tests run the same multi-iteration stream
//! with memoization on, with memoization off and with task fusion off, and
//! require:
//!
//! - bitwise-equal results across all three;
//! - memo on and memo off to agree on the simulated clock, the runtime
//!   profile and the launch counters (`tasks_launched`, `fused_tasks`,
//!   `temporaries_eliminated`): a memo hit must relaunch exactly what the
//!   miss launched.
//!
//! The stream covers a chain whose middle store is dropped (a temporary), an
//! iteration that keeps that store live (a liveness drift that recompiles a
//! cached artifact), domain-changing singleton prefixes (unfused launches
//! when kernel fusion is off) and a batch that horizontal fusion packs. A
//! second stream fuses a task whose generator adds a local loop domain
//! smaller than the window's largest argument, which a hit must size like
//! the miss did.
//!
//! Executor and backend follow `DIFFUSE_EXECUTOR`/`DIFFUSE_BACKEND`, and the
//! horizontal pass additionally follows `DIFFUSE_HORIZONTAL`.

use diffuse::{Context, DiffuseConfig, ExecutionStats, StoreHandle};
use ir::{Domain, Partition};
use kernel::{BufferId, BufferRole, KernelModule, LoopBuilder, TaskKind, TaskSignature};
use machine::MachineConfig;
use runtime::Profile;

const GPUS: u64 = 4;
const N: u64 = 64;
const ITERATIONS: usize = 5;
/// The iteration that keeps the chain's middle store live across the flush.
const DRIFT_ITERATION: usize = 2;
const BATCH: usize = 3;

struct Ops {
    add: TaskKind,
    scale: TaskKind,
}

/// `out = x + y` and `out = x * s`.
fn register_ops(ctx: &Context) -> Ops {
    let lib = ctx.register_library("paths");
    let add = lib.register("add", TaskSignature::new().read().read().write(), |_| {
        let mut m = KernelModule::new(3);
        m.set_role(BufferId(2), BufferRole::Output);
        let mut b = LoopBuilder::new("add", BufferId(2));
        let (x, y) = (b.load(BufferId(0)), b.load(BufferId(1)));
        let s = b.add(x, y);
        b.store(BufferId(2), s);
        m.push_loop(b.finish());
        m
    });
    let scale = lib.register(
        "scale",
        TaskSignature::new().read().write().scalars(1),
        |_| {
            let mut m = KernelModule::new(2);
            m.set_role(BufferId(1), BufferRole::Output);
            let mut b = LoopBuilder::new("scale", BufferId(1));
            let x = b.load(BufferId(0));
            let s = b.param(0);
            let v = b.mul(x, s);
            b.store(BufferId(1), v);
            m.push_loop(b.finish());
            m
        },
    );
    Ops { add, scale }
}

struct Run {
    results: Vec<Vec<f64>>,
    elapsed: f64,
    profile: Profile,
    stats: ExecutionStats,
}

fn finish(ctx: &Context, outputs: &[&StoreHandle]) -> Run {
    let results = outputs.iter().map(|s| ctx.read_store(s).unwrap()).collect();
    assert!(ctx.take_failures().is_empty());
    Run {
        results,
        elapsed: ctx.elapsed(),
        profile: ctx.profile(),
        stats: ctx.stats(),
    }
}

/// The mixed stream: per iteration a chain `t = a + b; out = s_i * t` with
/// `t` dropped (kept live on [`DRIFT_ITERATION`]), then a batch of
/// `bo_k = bi_k + out` followed by a single-point `br_k = 0.5 * bo_k` over
/// replicated partitions.
fn run_stream(config: DiffuseConfig) -> Run {
    let ctx = Context::new(config);
    let ops = register_ops(&ctx);
    let p = Partition::block(vec![N / GPUS]);
    let store = |name: &str| ctx.create_store(vec![N], name);
    let (a, b, out) = (store("a"), store("b"), store("out"));
    ctx.write_store(&a, (0..N).map(|i| i as f64 * 0.25).collect());
    ctx.fill(&b, 1.5);
    let batch: Vec<_> = (0..BATCH)
        .map(|k| {
            let bi = store("bi");
            ctx.fill(&bi, k as f64);
            (bi, store("bo"), store("br"))
        })
        .collect();
    for it in 0..ITERATIONS {
        let t = store("t");
        ctx.task(ops.add)
            .read(&a, p.clone())
            .read(&b, p.clone())
            .write(&t, p.clone())
            .launch();
        ctx.task(ops.scale)
            .read(&t, p.clone())
            .write(&out, p.clone())
            .scalar(1.0 + it as f64)
            .launch();
        let live = (it == DRIFT_ITERATION).then_some(t);
        for (bi, bo, br) in &batch {
            ctx.task(ops.add)
                .read(bi, p.clone())
                .read(&out, p.clone())
                .write(bo, p.clone())
                .launch();
            ctx.task(ops.scale)
                .domain(Domain::linear(1))
                .read(bo, Partition::Replicate)
                .write(br, Partition::Replicate)
                .scalar(0.5)
                .launch();
        }
        ctx.flush();
        drop(live);
    }
    let mut outputs = vec![&out];
    outputs.extend(batch.iter().flat_map(|(_, bo, br)| [bo, br]));
    finish(&ctx, &outputs)
}

/// Base configurations: kernel fusion on and off, each with the horizontal
/// pass as the environment sets it and forced on. The window is fixed and
/// larger than an iteration, so every iteration is one window.
fn base_configs() -> Vec<DiffuseConfig> {
    let mut configs = Vec::new();
    for kernel_fusion in [true, false] {
        for horizontal in [DiffuseConfig::horizontal_fusion_from_env(), true] {
            let base = DiffuseConfig {
                enable_kernel_fusion: kernel_fusion,
                ..DiffuseConfig::fused(MachineConfig::with_gpus(GPUS as usize))
            };
            configs.push(base.with_window(64, 64).with_horizontal_fusion(horizontal));
        }
    }
    configs
}

/// Runs `stream` memo on, memo off and task fusion off over `base`, checks
/// the three agree, and returns the memo-on run.
fn assert_paths_agree(base: DiffuseConfig, stream: fn(DiffuseConfig) -> Run) -> Run {
    let label = format!(
        "kernel fusion {}, horizontal {}",
        base.enable_kernel_fusion, base.enable_horizontal_fusion
    );
    let memo_on = stream(base.clone());
    let memo_off = stream(base.clone().without_memoization());
    let unfused = stream(DiffuseConfig {
        enable_task_fusion: false,
        ..base
    });
    assert_eq!(
        memo_on.results, unfused.results,
        "memo on vs task fusion off ({label})"
    );
    assert_eq!(
        memo_off.results, unfused.results,
        "memo off vs task fusion off ({label})"
    );
    assert!(
        memo_on.elapsed.to_bits() == memo_off.elapsed.to_bits(),
        "simulated clock differs: memo on {} vs off {} ({label})",
        memo_on.elapsed,
        memo_off.elapsed
    );
    assert_eq!(memo_on.profile, memo_off.profile, "profile ({label})");
    let counters = |s: &ExecutionStats| (s.tasks_launched, s.fused_tasks, s.temporaries_eliminated);
    assert_eq!(
        counters(&memo_on.stats),
        counters(&memo_off.stats),
        "launch counters ({label})"
    );
    assert!(
        memo_on.stats.memo_hits > 0,
        "the stream must replay memoized artifacts ({label})"
    );
    assert_eq!(memo_off.stats.memo_hits, 0);
    memo_on
}

#[test]
fn memo_hits_misses_and_unfused_launches_agree() {
    for base in base_configs() {
        let horizontal = base.enable_horizontal_fusion;
        let memo_on = assert_paths_agree(base, run_stream);
        let stats = &memo_on.stats;
        // `t` is a temporary on every iteration but the live one; the memo
        // hits into and out of that iteration see a layout drift and
        // recompile.
        assert_eq!(stats.temporaries_eliminated, ITERATIONS as u64 - 1);
        assert!(stats.fused_tasks > 0);
        if horizontal {
            assert!(
                stats.horizontally_fused_tasks > 0,
                "the batch packs horizontally"
            );
        }
    }
}

/// `big`: `x += s` over a long store. `local`: fills a generator-introduced
/// local of the task's own largest argument length with `s`, then
/// `y = x * local[0]`. The local is the first loop's domain, so its length
/// is priced.
fn register_local_ops(ctx: &Context) -> (TaskKind, TaskKind) {
    let lib = ctx.register_library("locals");
    let big = lib.register("big", TaskSignature::new().read_write().scalars(1), |_| {
        let mut m = KernelModule::new(1);
        m.set_role(BufferId(0), BufferRole::InOut);
        let mut b = LoopBuilder::new("big", BufferId(0));
        let x = b.load(BufferId(0));
        let s = b.param(0);
        let v = b.add(x, s);
        b.store(BufferId(0), v);
        m.push_loop(b.finish());
        m
    });
    let local = lib.register(
        "local",
        TaskSignature::new().read().write().scalars(1),
        |_| {
            let mut m = KernelModule::new(2);
            m.set_role(BufferId(1), BufferRole::Output);
            let tmp = m.add_local();
            let mut fill = LoopBuilder::new("fill_local", tmp);
            let s = fill.param(0);
            fill.store(tmp, s);
            m.push_loop(fill.finish());
            let mut b = LoopBuilder::new("local", BufferId(1));
            let x = b.load(BufferId(0));
            let k = b.load_scalar(tmp);
            let v = b.mul(x, k);
            b.store(BufferId(1), v);
            m.push_loop(b.finish());
            m
        },
    );
    (big, local)
}

/// Per iteration, `big` over a store 8x longer than the vectors `local`
/// touches, then `local`: the two are independent and fuse into one launch
/// whose largest argument is the long store.
fn run_local_stream(config: DiffuseConfig) -> Run {
    let ctx = Context::new(config);
    let (big, local) = register_local_ops(&ctx);
    let long = ctx.create_store(vec![8 * N], "long");
    let (x, y) = (
        ctx.create_store(vec![N], "x"),
        ctx.create_store(vec![N], "y"),
    );
    ctx.fill(&long, 1.0);
    ctx.write_store(&x, (0..N).map(|i| i as f64).collect());
    for it in 0..ITERATIONS {
        let s = 2.0 + it as f64;
        ctx.task(big)
            .read_write(&long, Partition::block(vec![8 * N / GPUS]))
            .scalar(s)
            .launch();
        let p = Partition::block(vec![N / GPUS]);
        ctx.task(local)
            .read(&x, p.clone())
            .write(&y, p)
            .scalar(s)
            .launch();
        ctx.flush();
    }
    finish(&ctx, &[&long, &y])
}

#[test]
fn generator_locals_price_the_same_on_memo_hits_as_on_misses() {
    for base in base_configs() {
        let memo_on = assert_paths_agree(base, run_local_stream);
        assert_eq!(
            memo_on.stats.tasks_launched, ITERATIONS as u64,
            "big and local fuse"
        );
        assert_eq!(memo_on.stats.memo_hits, ITERATIONS as u64 - 1);
    }
}
