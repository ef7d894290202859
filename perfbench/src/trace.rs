//! Spans for the traced run: kept in memory, written at exit, and read
//! back into per-layer self times.
//!
//! A span's layer is its name up to the first `.` (`mechanism.install`
//! belongs to `mechanism`). Its self time is its duration minus the
//! union of its children's intervals clipped to it, so overlapping
//! children are not subtracted twice.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::host::now_ns;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name.
    pub name: String,
    /// `CLOCK_MONOTONIC` start, ns.
    pub start: u64,
    /// `CLOCK_MONOTONIC` end, ns.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation id: spans of one round (or one set-up) share it.
    pub op: u64,
}

/// The in-memory span log. Disabled tracers record nothing and cost one
/// branch per call.
#[derive(Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            ..Tracer::default()
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &str, parent: Option<usize>, op: u64) -> Option<usize> {
        self.enabled.then(|| {
            let t = now_ns();
            self.push(name, t, u64::MAX, parent, op)
        })
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end = now_ns();
        }
    }

    /// Records a span measured elsewhere (e.g. inside a child process,
    /// on the shared monotonic clock).
    pub fn record(&mut self, name: &str, start: u64, end: u64, parent: Option<usize>, op: u64) {
        if self.enabled {
            self.push(name, start, end, parent, op);
        }
    }

    fn push(&mut self, name: &str, start: u64, end: u64, parent: Option<usize>, op: u64) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated `id parent op start end name`
    /// lines.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = String::from("# id\tparent\top\tstart_ns\tend_ns\tname\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.start, s.end, s.name
            );
        }
        std::fs::write(path, out)
    }
}

/// Parses a file written by [`Tracer::write`].
pub fn read(path: &Path) -> io::Result<Vec<Span>> {
    let bad = |l: &str| io::Error::new(io::ErrorKind::InvalidData, format!("bad span line {l:?}"));
    let mut spans = Vec::new();
    for line in std::fs::read_to_string(path)?.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let f: Vec<&str> = line.splitn(6, '\t').collect();
        if f.len() != 6 {
            return Err(bad(line));
        }
        let num = |s: &str| s.parse::<i64>().map_err(|_| bad(line));
        let parent = num(f[1])?;
        spans.push(Span {
            parent: usize::try_from(parent).ok(),
            op: num(f[2])? as u64,
            start: num(f[3])? as u64,
            end: num(f[4])? as u64,
            name: f[5].to_string(),
        });
    }
    Ok(spans)
}

/// Length of `[lo, hi)` covered by the union of `intervals`, each
/// clipped to `[lo, hi)`.
pub fn covered(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    v.sort_unstable();
    let (mut total, mut cur) = (0, None::<(u64, u64)>);
    for (s, e) in v {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part its children
/// cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, c)| s.end.saturating_sub(s.start) - covered(s.start, s.end, c))
        .collect()
}

/// The layer a span name belongs to.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Per-layer `(self ns, span count)`, summed over `spans`.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<String, (u64, u64)> {
    let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(layer(&s.name).to_string()).or_default();
        e.0 += t;
        e.1 += 1;
    }
    out
}

/// The reader's table: one line per layer, self time and count.
pub fn render(spans: &[Span]) -> String {
    let mut out = String::from("layer                 self_ms      spans\n");
    for (layer, (ns, n)) in layer_self_times(spans) {
        let _ = writeln!(out, "{layer:<20} {:>9.3} {n:>10}", ns as f64 / 1e6);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered(0, 100, &[]), 0);
        assert_eq!(covered(0, 100, &[(10, 30), (20, 40)]), 30);
        assert_eq!(covered(0, 100, &[(10, 20), (30, 40)]), 20);
        assert_eq!(covered(0, 100, &[(90, 150), (0, 5)]), 15);
        assert_eq!(covered(50, 60, &[(0, 100)]), 10);
        assert_eq!(covered(0, 100, &[(10, 20), (20, 30)]), 20, "touching");
    }

    #[test]
    fn self_time_subtracts_union_of_overlapping_children() {
        let spans = vec![
            span("round", 0, 100, None),
            span("mix.a", 10, 50, Some(0)),
            span("mix.b", 30, 70, Some(0)), // overlaps mix.a by 20
            span("mechanism.install", 40, 45, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t, vec![40, 35, 40, 5]);
        let layers = layer_self_times(&spans);
        assert_eq!(layers["mix"], (75, 2));
        assert_eq!(layers["round"], (40, 1));
        assert_eq!(layers["mechanism"], (5, 1));
    }

    #[test]
    fn spans_round_trip_through_a_file() {
        let mut t = Tracer::new(true);
        let root = t.begin("setup", None, 7);
        t.record("mechanism.install", 5, 9, root, 7);
        t.end(root);
        let path = std::env::temp_dir().join(format!("perfbench-spans-{}.tsv", std::process::id()));
        t.write(&path).unwrap();
        let back = read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(back, t.spans());
        assert!(!Tracer::new(false).enabled());
    }
}
