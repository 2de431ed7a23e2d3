//! Turns phases and spans into metrics and prints them as JSON. Lines before
//! the final JSON object start with `#` and are for people.

use std::io::Write as _;

use diffuse::ExecutionStats;

use crate::stats::{median, quartiles};
use crate::trace::{Kind, Span, Tracer};
use crate::workloads::{Phase, Variant, Workload};
use crate::Args;

/// Prints the run header: the workload and the resolved configuration.
pub fn header(w: Workload, v: Variant, args: &Args) {
    println!(
        "# perfbench {} seed={} seconds={} trace={} gpus={} iters_per_phase={} host_parallelism={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        v.gpus,
        w.iters_per_phase(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!("# config: {:?}", v.config(w));
}

/// A metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Full-precision JSON number (non-finite values become `null`).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn record(index: u64, digest: Option<u64>, plan: Option<&Phase>) -> String {
    let digest = digest.map_or("null".into(), |d| format!("\"{d:016x}\""));
    let (submitted, launched, sim) =
        plan.map_or(("null".into(), "null".into(), "null".into()), |p| {
            (
                p.stats.tasks_submitted.to_string(),
                p.stats.tasks_launched.to_string(),
                num(p.sim_ms_per_iter()),
            )
        });
    format!(
        "{{\"index\":{index},\"digest\":{digest},\"submitted\":{submitted},\"launched\":{launched},\"sim_ms_per_iter\":{sim}}}"
    )
}

/// The output-check part of a measured run: every timed phase's record plus
/// the launch and failure counts.
fn checks_json(phases: &[&Phase]) -> String {
    let records: Vec<String> = phases
        .iter()
        .map(|p| record(p.index, p.digest, Some(p)))
        .collect();
    let launches: u64 = phases.iter().map(|p| p.stats.tasks_launched).sum();
    let failures: u64 = phases.iter().map(|p| p.failures).sum();
    format!(
        "\"launches\":{launches},\"launch_failures\":{failures},\"phases\":[{}]",
        records.join(",")
    )
}

fn print_spread(name: &str, values: &[f64]) {
    if let Some([q1, q2, q3]) = quartiles(values) {
        println!(
            "# {name}: n={} q1={q1:.4} median={q2:.4} q3={q3:.4}",
            values.len()
        );
    }
}

fn med(values: impl IntoIterator<Item = f64>) -> f64 {
    median(&values.into_iter().collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// End-to-end metrics of an untraced run (`ok_frac` is added by `run.py`,
/// which makes the output checks).
pub fn end_to_end(phases: &[Phase], setup_s: &[f64], peak_rss_mb: f64) -> String {
    let host: Vec<f64> = phases.iter().map(Phase::host_ms_per_iter).collect();
    print_spread("host_ms_per_iter over phases", &host);
    print_spread("setup_s over set-ups", setup_s);
    let metrics = [
        ("host_ms_per_iter", med(host), "ms"),
        (
            "sim_ms_per_iter",
            med(phases.iter().map(Phase::sim_ms_per_iter)),
            "sim_ms",
        ),
        ("setup_s", med(setup_s.iter().copied()), "s"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    let phases: Vec<&Phase> = phases.iter().collect();
    format!(
        "{{\"metrics\":{},{}}}",
        metrics_json(&metrics),
        checks_json(&phases)
    )
}

/// What a traced run measured.
pub struct Traced<'a> {
    /// Timed phases of the measured configuration, `true` when traced.
    pub phases: &'a [(bool, Phase)],
    /// Spans of the traced phases.
    pub spans: &'a [Span],
    /// Counters of the kept session after set-up (warm-up included).
    pub setup_stats: &'a ExecutionStats,
    /// Simulated compile seconds of the kept session, set-up included.
    pub session_compile_s: f64,
    /// The same program unfused, same executor and backend.
    pub unfused: &'a [Phase],
    /// The same program simulation-only (functional workloads).
    pub sim_only: Option<&'a [Phase]>,
    /// The same program at 8 GPUs (workloads measured at another size).
    pub at_8: Option<&'a [Phase]>,
}

fn host_median(phases: &[Phase]) -> f64 {
    med(phases.iter().map(Phase::host_ms_per_iter))
}

/// Per-layer metrics of a traced run.
pub fn per_layer(t: Traced<'_>) -> String {
    let (traced, untraced): (Vec<&Phase>, Vec<&Phase>) = {
        let (on, off): (Vec<_>, Vec<_>) = t.phases.iter().partition(|(on, _)| *on);
        (
            on.into_iter().map(|(_, p)| p).collect(),
            off.into_iter().map(|(_, p)| p).collect(),
        )
    };
    let host_on = med(traced.iter().map(|p| p.host_ms_per_iter()));
    let host_off = med(untraced.iter().map(|p| p.host_ms_per_iter()));
    let iters = traced.iter().map(|p| p.iters).sum::<u64>() as f64;
    let stat =
        |f: fn(&ExecutionStats) -> u64| traced.iter().map(|p| f(&p.stats)).sum::<u64>() as f64;
    let prof = |f: fn(&runtime::Profile) -> f64| traced.iter().map(|p| f(&p.profile)).sum::<f64>();
    let per_iter = |x: f64| x / iters;

    let lib: Vec<&Span> = t.spans.iter().filter(|s| s.kind == Kind::Lib).collect();
    let submit_us: Vec<f64> = lib
        .iter()
        .filter(|s| s.window.is_none())
        .map(|s| s.duration() as f64 / 1e3)
        .collect();
    let window_ms = |miss: bool| -> Vec<f64> {
        t.spans
            .iter()
            .filter(|s| s.window == Some(miss))
            .map(|s| s.duration() as f64 / 1e6)
            .collect()
    };
    let (hits, misses) = (window_ms(false), window_ms(true));
    let readback_ms = t
        .spans
        .iter()
        .filter(|s| s.kind == Kind::Readback)
        .fold(0.0, |ms, s| ms + s.duration() as f64 / 1e6);
    // Medians over no samples (no hit windows on the drifting stream, no
    // miss windows once a repeating stream is warm) read 0; the span counts
    // next to them say so.
    let or_zero = |v: &[f64]| median(v).unwrap_or(0.0);

    let memo_hits = stat(|s| s.memo_hits);
    let lookups = memo_hits + stat(|s| s.memo_misses);
    let kernel_bytes = prof(|p| p.kernel_bytes as f64);
    let unfused_host = host_median(t.unfused);
    let unfused_sim = med(t.unfused.iter().map(Phase::sim_ms_per_iter));
    let scale_ratio = t.at_8.map_or(1.0, |p| host_off / host_median(p));
    let exec_ms = t.sim_only.map_or(0.0, |p| host_off - host_median(p));
    let rejections = stat(|s| {
        s.rejections_carried
            + s.rejections_unknown
            + s.rejections_domain_mismatch
            + s.rejections_reduction
    });

    print_spread(
        "untraced host_ms_per_iter",
        &untraced
            .iter()
            .map(|p| p.host_ms_per_iter())
            .collect::<Vec<_>>(),
    );
    print_spread(
        "traced host_ms_per_iter",
        &traced
            .iter()
            .map(|p| p.host_ms_per_iter())
            .collect::<Vec<_>>(),
    );
    print_spread("lib.submit_us", &submit_us);
    print_spread("diffuse.window_hit_ms", &hits);
    print_spread("diffuse.window_miss_ms", &misses);
    let metrics: Vec<Metric> = vec![
        ("lib.calls_per_iter", per_iter(lib.len() as f64), "count"),
        ("lib.submit_us", or_zero(&submit_us), "us"),
        (
            "diffuse.tasks_submitted_per_iter",
            per_iter(stat(|s| s.tasks_submitted)),
            "count",
        ),
        (
            "diffuse.windows_per_iter",
            per_iter(stat(|s| s.windows_flushed)),
            "count",
        ),
        ("diffuse.window_hit_ms", or_zero(&hits), "ms"),
        ("diffuse.window_hit_spans", hits.len() as f64, "count"),
        ("diffuse.window_miss_ms", or_zero(&misses), "ms"),
        ("diffuse.window_miss_spans", misses.len() as f64, "count"),
        ("diffuse.readback_ms_per_iter", per_iter(readback_ms), "ms"),
        ("diffuse.scale_ratio", scale_ratio, "ratio"),
        (
            "fusion.memo_hit_ratio",
            if lookups > 0.0 {
                memo_hits / lookups
            } else {
                0.0
            },
            "ratio",
        ),
        ("fusion.memo_lookups", lookups, "count"),
        ("fusion.memo_evictions", stat(|s| s.memo_evictions), "count"),
        (
            "fusion.launches_per_iter",
            per_iter(stat(|s| s.tasks_launched)),
            "count",
        ),
        (
            "fusion.fused_tasks_per_iter",
            per_iter(stat(|s| s.fused_tasks)),
            "count",
        ),
        (
            "fusion.horizontal_tasks_per_iter",
            per_iter(stat(|s| s.horizontally_fused_tasks)),
            "count",
        ),
        (
            "fusion.temporaries_per_iter",
            per_iter(stat(|s| s.temporaries_eliminated)),
            "count",
        ),
        ("fusion.rejections_per_iter", per_iter(rejections), "count"),
        (
            "kernel.compilations_per_iter",
            per_iter(stat(|s| s.compilations)),
            "count",
        ),
        (
            "kernel.setup_compilations",
            t.setup_stats.compilations as f64,
            "count",
        ),
        ("kernel.sim_compile_ms", t.session_compile_s * 1e3, "sim_ms"),
        (
            "kernel.bytes_per_iter",
            per_iter(kernel_bytes),
            "B_computed",
        ),
        (
            "kernel.flops_per_byte",
            if kernel_bytes > 0.0 {
                prof(|p| p.kernel_flops as f64) / kernel_bytes
            } else {
                0.0
            },
            "flop/B_computed",
        ),
        ("runtime.exec_ms_per_iter", exec_ms, "ms"),
        (
            "runtime.index_tasks_per_iter",
            per_iter(prof(|p| p.index_tasks as f64)),
            "count",
        ),
        (
            "runtime.kernel_launches_per_iter",
            per_iter(prof(|p| p.kernel_launches as f64)),
            "count",
        ),
        (
            "runtime.comm_bytes_per_iter",
            per_iter(prof(|p| p.comm_bytes as f64)),
            "B",
        ),
        (
            "runtime.allocations_per_iter",
            per_iter(prof(|p| p.distributed_allocations as f64)),
            "count",
        ),
        ("runtime.retries", stat(|s| s.retries), "count"),
        (
            "machine.sim_comm_ms_per_iter",
            per_iter(prof(|p| p.comm_time)) * 1e3,
            "sim_ms",
        ),
        (
            "machine.sim_kernel_ms_per_iter",
            per_iter(prof(|p| p.kernel_time)) * 1e3,
            "sim_ms",
        ),
        (
            "machine.sim_overhead_ms_per_iter",
            per_iter(prof(|p| p.overhead_time)) * 1e3,
            "sim_ms",
        ),
        ("baseline.unfused_host_ms_per_iter", unfused_host, "ms"),
        ("baseline.unfused_sim_ms_per_iter", unfused_sim, "sim_ms"),
        (
            "trace.overhead_pct",
            (host_on - host_off) / host_off * 100.0,
            "%",
        ),
    ];
    // Unfused phases are checked too where they have outputs to compare.
    let unfused_outputs = t.unfused.iter().filter(|p| p.digest.is_some());
    let all: Vec<&Phase> = t
        .phases
        .iter()
        .map(|(_, p)| p)
        .chain(unfused_outputs)
        .collect();
    format!(
        "{{\"metrics\":{},{}}}",
        metrics_json(&metrics),
        checks_json(&all)
    )
}

/// Records of a reference run: digests for the functional workloads, the
/// launch plan and simulated time for the simulation-only one.
pub fn reference(w: Workload, records: &[(u64, Phase)]) -> String {
    let functional = w.measured().functional;
    let records: Vec<String> = records
        .iter()
        .map(|(index, p)| record(*index, p.digest, (!functional).then_some(p)))
        .collect();
    format!("{{\"phases\":[{}]}}", records.join(","))
}

/// Writes the recorded spans, one JSON object per line.
pub fn write_spans(path: &str, tr: &Tracer) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    tr.write_jsonl(&mut out)?;
    out.flush()
}
