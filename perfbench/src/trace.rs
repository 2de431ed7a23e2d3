//! Span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around its calls into the
//! libraries and `diffuse::Context`; spans inside the program are out of
//! scope. Each span has a name, start, end, parent and iteration. A library
//! call or explicit flush during which `ExecutionStats::windows_flushed`
//! moved processed a task window; it is classed a memo miss when
//! `memo_misses` moved too. Spans are kept in memory and written out at exit.
//! When recording is off every entry point is one branch around the call.

use std::io::Write;
use std::time::Instant;

use diffuse::Context;

/// What a span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One timed phase (iterations, final flush and readback).
    Phase,
    /// One iteration of the workload.
    Iter,
    /// A library call (`dense`, `sparse`, or a library the workload registered).
    Lib,
    /// An explicit `Context::flush`.
    Flush,
    /// `Context::read_store` / `read_scalar`.
    Readback,
}

/// One recorded span. Times are nanoseconds since the recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub kind: Kind,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub iter: u64,
    /// `Some(miss)` when a task window was processed during the span.
    pub window: Option<bool>,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iter: u64,
    ctx: Option<Context>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iter: 0,
            ctx: None,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// The context whose counters classify window spans.
    pub fn attach(&mut self, ctx: &Context) {
        self.ctx = Some(ctx.clone());
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs one timed phase inside a `Phase` span.
    pub fn phase<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.open("phase", Kind::Phase);
        let r = f(self);
        self.close(id);
        r
    }

    /// Runs iteration `iter` inside an `Iter` span.
    pub fn iteration<R>(&mut self, iter: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        self.iter = iter;
        let id = self.open("iteration", Kind::Iter);
        let r = f(self);
        self.close(id);
        r
    }

    /// Runs a library call inside a `Lib` span.
    pub fn lib<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.windowed(name, Kind::Lib, f)
    }

    /// Flushes the attached context inside a `Flush` span.
    pub fn flush(&mut self, ctx: &Context) {
        self.windowed("diffuse.flush", Kind::Flush, || ctx.flush())
    }

    /// Runs a read-back inside a `Readback` span.
    pub fn readback<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let id = self.open("diffuse.read_store", Kind::Readback);
        let r = f();
        self.close(id);
        r
    }

    fn windowed<R>(&mut self, name: &'static str, kind: Kind, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let before = self.counters();
        let id = self.open(name, kind);
        let r = f();
        let end = self.now();
        let after = self.counters();
        let window = (after.0 > before.0).then_some(after.1 > before.1);
        self.finish(id, end, window);
        r
    }

    /// `(windows_flushed, memo_misses)` of the attached context.
    fn counters(&self) -> (u64, u64) {
        self.ctx.as_ref().map_or((0, 0), |ctx| {
            let s = ctx.stats();
            (s.windows_flushed, s.memo_misses)
        })
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, kind: Kind) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            kind,
            start,
            end: start,
            parent: self.open.last().copied(),
            iter: self.iter,
            window: None,
        });
        self.open.push(id);
        Some(id)
    }

    fn close(&mut self, id: Option<usize>) {
        if id.is_some() {
            let end = self.now();
            self.finish(id, end, None);
        }
    }

    fn finish(&mut self, id: Option<usize>, end: u64, window: Option<bool>) {
        let Some(id) = id else { return };
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        let span = &mut self.spans[id];
        span.end = end;
        span.window = window;
    }

    /// Writes every span as one JSON line, with its self time.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, (s, own)) in self.spans.iter().zip(self_times(&self.spans)).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let window = match s.window {
                None => "null",
                Some(true) => "\"miss\"",
                Some(false) => "\"hit\"",
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"kind\":\"{:?}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent},\"iter\":{},\"window\":{window}}}",
                s.name, s.kind, s.start, s.end, s.iter
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (clipped to the parent, overlaps merged).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for &(lo, hi) in kids.iter() {
                let (lo, hi) = (lo.max(cursor), hi.min(s.end));
                if hi > lo {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            s.duration() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            kind: Kind::Lib,
            start,
            end,
            parent,
            iter: 0,
            window: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(0, 100, None),    // root
            span(10, 30, Some(0)), // child
            span(40, 90, Some(0)), // child
            span(50, 60, Some(2)), // grandchild
        ];
        assert_eq!(self_times(&spans), vec![100 - 20 - 50, 20, 50 - 10, 10]);
    }

    #[test]
    fn self_time_merges_overlaps_and_clips_to_the_parent() {
        let spans = [
            span(10, 50, None),
            span(5, 20, Some(0)),  // starts before the parent: 10..20 counts
            span(15, 30, Some(0)), // overlaps the previous: 20..30 counts
            span(45, 70, Some(0)), // ends after the parent: 45..50 counts
        ];
        assert_eq!(self_times(&spans)[0], 40 - 10 - 10 - 5);
        assert_eq!(self_times(&[span(3, 3, None)]), vec![0]);
    }

    #[test]
    fn recorder_nests_spans_and_tags_iterations() {
        let mut t = Tracer::new(true);
        t.phase(|t| {
            t.iteration(4, |t| {
                t.lib("dense.add", || ());
                t.readback(|| ());
            })
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[0].kind, s[0].parent), (Kind::Phase, None));
        assert_eq!(
            (s[1].kind, s[1].parent, s[1].iter),
            (Kind::Iter, Some(0), 4)
        );
        assert_eq!(
            (s[2].name, s[2].parent, s[2].window),
            ("dense.add", Some(1), None)
        );
        assert_eq!((s[3].kind, s[3].parent), (Kind::Readback, Some(1)));
        assert!(s.iter().all(|x| x.end >= x.start));
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 4);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.phase(|t| t.lib("dense.add", || 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
