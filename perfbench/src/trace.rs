//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing here reaches inside the program: a span is the wall time
//! of one public call (or of a request as the client sees it), and a
//! layer's self time is its span minus the part its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
}

/// One thread's spans; logs from several threads are merged at the end.
#[derive(Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// Records a finished span and returns its id for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span { name, start, end, parent });
        self.spans.len() - 1
    }

    /// Opens a span whose end is filled in by [`SpanLog::close`]; used for
    /// parents, which must exist before their children.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = Instant::now();
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let r = f();
        self.record(name, start, Instant::now(), parent);
        r
    }

    /// Appends `other`, re-basing its parent ids.
    pub fn merge(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_nanos() as f64)
            .collect()
    }

    /// Per span name: count, total and self time (ns).
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut table: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = (s.end - s.start).as_nanos() as f64;
            // Union of the children's intervals, clipped to the parent.
            let mut iv: Vec<(Instant, Instant)> = children[i]
                .iter()
                .map(|&c| (self.spans[c].start.max(s.start), self.spans[c].end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort();
            let mut covered = 0.0;
            let mut cur: Option<(Instant, Instant)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    _ => {
                        if let Some((ca, cb)) = cur {
                            covered += (cb - ca).as_nanos() as f64;
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((ca, cb)) = cur {
                covered += (cb - ca).as_nanos() as f64;
            }
            let e = table.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += total;
            e.2 += total - covered;
        }
        table
    }
}

/// Runs `f` inside a span when there is a log, and plainly otherwise.
pub fn time_in<R>(
    log: &mut Option<&mut SpanLog>,
    name: &'static str,
    parent: Option<usize>,
    f: impl FnOnce() -> R,
) -> R {
    match log {
        Some(l) => l.time(name, parent, f),
        None => f(),
    }
}
