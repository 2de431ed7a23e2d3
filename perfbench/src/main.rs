//! `perfbench`: the measuring half of the benchmark (`run.py` builds it,
//! runs it and checks its outputs).
//!
//! ```text
//! perfbench measure   --workload <w> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//! perfbench reference --workload <w> --seed <n> --phases <i,j,...>
//! ```
//!
//! `measure` sets the workload up several times (reporting the median set-up
//! time), then runs phases until `--seconds` have passed and prints one JSON
//! object: the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`), and a record per timed phase for the output check.
//! `reference` recomputes the requested phases under the reference
//! configuration and prints their records.

mod inputs;
mod report;
mod rss;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use trace::Tracer;
use workloads::{Phase, Session, Variant, Workload};

/// Set-ups per measured run; `setup_s` is their median. One precedes the
/// timed phases, the others follow them.
const SETUPS: usize = 3;
/// Phases each set-up runs before timing: the adaptive window grows during
/// the first, and the second starts at its final size, so memo entries for
/// the steady-state windows exist before the timed phases.
const WARMUP_PHASES: u64 = 2;
/// A timed measurement runs at least this many phases.
const MIN_PHASES: usize = 5;

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    phases: Vec<u64>,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command (measure | reference)")?;
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    let (mut phases, mut spans) = (Vec::new(), None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value != "0",
            "--phases" => {
                phases = value
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.parse().map_err(|e| bad(&e)))
                    .collect::<Result<_, _>>()?
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        command,
        workload,
        seed,
        seconds,
        trace,
        phases,
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let json = match args.command.as_str() {
        "measure" => measure(&args),
        "reference" => reference(&args),
        other => {
            eprintln!("perfbench: unknown command {other:?}");
            return ExitCode::from(2);
        }
    };
    println!("{json}");
    ExitCode::SUCCESS
}

/// A kept session, the next unused phase index and the set-up times.
struct Prepared {
    session: Session,
    next_phase: u64,
    setup_s: Vec<f64>,
}

/// Sets `workload` up `setups` times under `variant`, each time with
/// `warmup` phases, and keeps the last session. Phase indices continue across
/// set-ups, so the drifting stream never reuses a shape within a process.
fn prepare(
    workload: Workload,
    variant: Variant,
    seed: u64,
    setups: usize,
    warmup: u64,
    first_phase: u64,
) -> Prepared {
    let mut tr = Tracer::new(false);
    let mut next_phase = first_phase;
    let mut setup_s = Vec::new();
    let mut session = None;
    for _ in 0..setups {
        drop(session.take());
        let start = Instant::now();
        let s = Session::new(workload, variant, seed);
        for _ in 0..warmup {
            s.run_phase(next_phase, &mut tr);
            next_phase += 1;
        }
        setup_s.push(start.elapsed().as_secs_f64());
        session = Some(s);
    }
    Prepared {
        session: session.expect("at least one set-up"),
        next_phase,
        setup_s,
    }
}

/// Runs phases until `deadline` has passed and at least `min_phases` ran (or
/// the inputs run out). `traced(i)` says whether the `i`-th is recorded.
fn timed_phases(
    p: &mut Prepared,
    tr: &mut Tracer,
    deadline: Instant,
    min_phases: usize,
    traced: impl Fn(usize) -> bool,
) -> Vec<(bool, Phase)> {
    let mut out = Vec::new();
    while (Instant::now() < deadline || out.len() < min_phases) && p.session.has_phase(p.next_phase)
    {
        let on = traced(out.len());
        tr.set_enabled(on);
        out.push((on, p.session.run_phase(p.next_phase, tr)));
        p.next_phase += 1;
    }
    tr.set_enabled(false);
    out
}

fn measure(args: &Args) -> String {
    let w = args.workload;
    let variant = w.measured();
    report::header(w, variant, args);
    let budget = Duration::from_secs_f64(args.seconds);
    let mut p = prepare(w, variant, args.seed, 1, WARMUP_PHASES, 0);
    let setup_stats = p.session.context().stats();
    let mut tr = Tracer::new(false);
    let deadline = Instant::now() + budget;
    if !args.trace {
        let phases: Vec<Phase> = timed_phases(&mut p, &mut tr, deadline, MIN_PHASES, |_| false)
            .into_iter()
            .map(|(_, ph)| ph)
            .collect();
        let peak_rss_mb = rss::peak_rss_mb();
        // The remaining set-ups run after the measurement: each one raised
        // the peak by a varying 20-90 MB (state a dropped session leaves in
        // the allocator and in process-wide caches), which would otherwise
        // drown `peak_rss_mb`.
        let Prepared {
            session,
            next_phase,
            mut setup_s,
        } = p;
        drop(session);
        let more = prepare(w, variant, args.seed, SETUPS - 1, WARMUP_PHASES, next_phase);
        setup_s.extend(more.setup_s);
        return report::end_to_end(&phases, &setup_s, peak_rss_mb);
    }
    // Traced run: alternate untraced and traced phases so both see the same
    // machine conditions; their difference is the tracing overhead.
    let phases = timed_phases(&mut p, &mut tr, deadline, 2 * MIN_PHASES, |i| i % 2 == 1);
    let session_compile_s = p.session.context().stats().compile_time;
    let next = p.next_phase;
    drop(p);
    // Comparison runs, each with one set-up and a quarter of the budget.
    let aux = |v: Variant, first: u64| {
        let mut q = prepare(w, v, args.seed, 1, WARMUP_PHASES, first);
        let deadline = Instant::now() + budget / 4;
        let ph = timed_phases(&mut q, &mut Tracer::new(false), deadline, 2, |_| false);
        (
            ph.into_iter().map(|(_, ph)| ph).collect::<Vec<_>>(),
            q.next_phase,
        )
    };
    let (unfused, next) = aux(
        Variant {
            fused: false,
            ..variant
        },
        next,
    );
    let (sim_only, next) = if variant.functional {
        let (ph, next) = aux(
            Variant {
                functional: false,
                ..variant
            },
            next,
        );
        (Some(ph), next)
    } else {
        (None, next)
    };
    let at_8 = (variant.gpus != 8).then(|| aux(Variant { gpus: 8, ..variant }, next).0);
    if let Some(path) = &args.spans {
        if let Err(e) = report::write_spans(path, &tr) {
            eprintln!("perfbench: cannot write spans to {path}: {e}");
        }
    }
    report::per_layer(report::Traced {
        phases: &phases,
        spans: tr.spans(),
        setup_stats: &setup_stats,
        session_compile_s,
        unfused: &unfused,
        sim_only: sim_only.as_deref(),
        at_8: at_8.as_deref(),
    })
}

/// Reference records for the requested phases. Phases of `cg-func` and
/// `bs-1024` all see the same inputs, so one reference phase answers every
/// index (`bs-1024` compares a steady-state plan, so it warms up first);
/// `batch-drift` recomputes a spread-out sample of them.
fn reference(args: &Args) -> String {
    let w = args.workload;
    let variant = w.reference();
    let mut tr = Tracer::new(false);
    let records: Vec<(u64, Phase)> = match w {
        Workload::BatchDrift => {
            let session = Session::new(w, variant, args.seed);
            sample(&args.phases, 4)
                .into_iter()
                .map(|i| (i, session.run_phase(i, &mut tr)))
                .collect()
        }
        _ => {
            let warmup = if w == Workload::Bs1024 {
                WARMUP_PHASES
            } else {
                0
            };
            let p = prepare(w, variant, args.seed, 1, warmup, 0);
            let ph = p.session.run_phase(p.next_phase, &mut tr);
            args.phases.iter().map(|&i| (i, ph.clone())).collect()
        }
    };
    report::reference(w, &records)
}

/// Up to `n` entries of `phases` spread from first to last.
fn sample(phases: &[u64], n: usize) -> Vec<u64> {
    let mut v: Vec<u64> = phases.to_vec();
    v.sort_unstable();
    v.dedup();
    if v.len() <= n {
        return v;
    }
    let mut out: Vec<u64> = (0..n).map(|k| v[k * (v.len() - 1) / (n - 1)]).collect();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_spreads_from_first_to_last() {
        assert_eq!(sample(&[5, 3, 4], 4), vec![3, 4, 5]);
        assert_eq!(
            sample(&(10..20).collect::<Vec<_>>(), 4),
            vec![10, 13, 16, 19]
        );
    }
}
