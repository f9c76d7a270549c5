//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), a start and an end, the span that
//! caused it and the op it belongs to. Spans stay in memory until the run
//! ends, when [`Tracer::write_jsonl`] writes them out. A layer's self time is
//! its span's duration minus the part of that interval its child spans
//! cover; over one op's span tree the self times add up to the op's wall.
//! The benchmark checks that sum against a clock read outside the tracer.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span; [`Tracer::begin`] of a disabled tracer returns
/// [`NO_SPAN`].
pub type SpanId = usize;
pub const NO_SPAN: SpanId = usize::MAX;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    pub parent: Option<SpanId>,
    pub op: u64,
    /// Calls into the layer this span covers (a probe loop over an op's
    /// lineages is one span of many calls).
    pub calls: u32,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder. A disabled tracer records nothing and reads no clock, so
/// untraced runs share the traced code path at the cost of a branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now, as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let start = self.nanos(Instant::now());
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start, end: start, parent, op, calls: 1 });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span `id` now, recording `calls` calls, and
    /// returns its duration in ns (0 for a disabled tracer).
    pub fn end(&mut self, id: SpanId, calls: u32) -> u64 {
        if id == NO_SPAN {
            return 0;
        }
        let end = self.nanos(Instant::now());
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end = end;
        span.calls = calls;
        span.duration()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"calls\":{}}}",
                s.name, s.start, s.end, s.op, s.calls
            )?;
        }
        out.flush()
    }
}

/// Whether a traced run traces op `op`: about every other op, chosen by a
/// hash of its number so the choice shares no period with a workload's own
/// op patterns (every fourth hard-tail op repeats a shape, an explain pass
/// is 16 ops), and traced and untraced ops see the same mix.
pub fn traces_op(op: u64) -> bool {
    op.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 1
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, each clipped to the span's own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Per-layer self time of the trees rooted at spans named `root`, summed
/// over all of them, plus the roots' total wall. The layer totals add up to
/// the wall whenever children lie inside their parents and siblings do not
/// overlap.
pub fn layer_self_times(spans: &[Span], root: &str) -> (Vec<(&'static str, u64)>, u64) {
    let selfs = self_times(spans);
    // The root each span descends from; parents precede children.
    let mut root_of: Vec<Option<SpanId>> = vec![None; spans.len()];
    for (id, s) in spans.iter().enumerate() {
        root_of[id] = match s.parent {
            None => (s.name == root).then_some(id),
            Some(p) => root_of[p],
        };
    }
    let mut layers: Vec<(&'static str, u64)> = Vec::new();
    let mut wall = 0;
    for (id, s) in spans.iter().enumerate() {
        if root_of[id].is_none() {
            continue;
        }
        if s.parent.is_none() {
            wall += s.duration();
        }
        match layers.iter_mut().find(|(layer, _)| *layer == s.layer()) {
            Some((_, total)) => *total += selfs[id],
            None => layers.push((s.layer(), selfs[id])),
        }
    }
    (layers, wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span { name, start, end, parent, op: 0, calls: 1 }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // op [0,100] ⊃ query [10,30], engine [40,90] ⊃ dtree [50,80].
        let spans = vec![
            span("op", 0, 100, None),
            span("query.evaluate", 10, 30, Some(0)),
            span("engine.session", 40, 90, Some(0)),
            span("dtree.compile", 50, 80, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 20, 30]);
        let (layers, wall) = layer_self_times(&spans, "op");
        assert_eq!(wall, 100);
        assert_eq!(layers, vec![("op", 30), ("query", 20), ("engine", 20), ("dtree", 30)]);
        assert_eq!(layers.iter().map(|(_, t)| t).sum::<u64>(), wall);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span("op", 0, 100, None),
            span("serve.a", 10, 50, Some(0)),
            span("serve.b", 30, 60, Some(0)),
            // Runs past its parent's end: only [90, 100] is covered.
            span("serve.c", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn only_trees_under_the_named_root_are_summed() {
        let spans = vec![
            span("op", 0, 10, None),
            span("engine.session", 2, 8, Some(0)),
            span("shadow", 10, 50, None),
            span("dtree.compile", 12, 40, Some(2)),
            span("op", 50, 60, None),
        ];
        let (layers, wall) = layer_self_times(&spans, "op");
        assert_eq!(wall, 20);
        assert_eq!(layers, vec![("op", 14), ("engine", 6)]);
    }

    #[test]
    fn about_half_the_ops_of_every_residue_are_traced() {
        for period in [2, 4, 16] {
            for residue in 0..period {
                let ops: Vec<u64> = (0..4000).filter(|op| op % period == residue).collect();
                let traced = ops.iter().filter(|&&op| traces_op(op)).count();
                let share = traced as f64 / ops.len() as f64;
                assert!((0.4..0.6).contains(&share), "period {period} residue {residue}: {share}");
            }
        }
    }

    #[test]
    fn tracer_nests_spans_and_a_disabled_one_records_nothing() {
        let mut tracer = Tracer::new(true);
        let op = tracer.begin("op", 7);
        let child = tracer.begin("engine.session", 7);
        tracer.end(child, 3);
        tracer.end(op, 1);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].calls, 3);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);

        let mut off = Tracer::new(false);
        let id = off.begin("op", 0);
        off.end(id, 1);
        assert!(off.spans().is_empty());
    }
}
