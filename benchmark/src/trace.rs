//! In-memory spans around the benchmark's calls into each `bwfl` layer.
//!
//! Spans are recorded from the benchmark's own files only (the library has no
//! tracing hooks yet), kept in memory while the traced run measures, and
//! written to `benchmark/out/<workload>.trace.jsonl` when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval. `parent` is the index of the span that was open when
/// this one started; spans of one round share `round`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub round: usize,
    pub client: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans against one monotonic origin. Single-threaded by design: the
/// traced run uses one worker thread, so the open-span stack is the call
/// stack.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; close it with
    /// [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, round: usize, client: Option<usize>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            round,
            client,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) -> u64 {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        self.spans[id].end_ns = end_ns;
        self.spans[id].duration_ns()
    }

    /// Time `work` as a childless span and return its result and duration.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        round: usize,
        client: Option<usize>,
        work: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.open(name, round, client);
        let result = work();
        let ns = self.close(id);
        (result, ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            children[p].push((s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-name totals of a trace: how many spans, their summed duration and
/// their summed self time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotal {
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let self_ns = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += own;
    }
    out
}

/// The self-time table printed after a traced run, one row per span name,
/// largest self time first.
pub fn self_time_table(spans: &[Span], rounds: usize) -> String {
    let totals = totals_by_name(spans);
    let mut rows: Vec<(&str, NameTotal)> = totals.into_iter().collect();
    rows.sort_by_key(|row| std::cmp::Reverse(row.1.self_ns));
    let mut out = format!(
        "# {:<28} {:>8} {:>14} {:>14}\n",
        "span", "count", "self ms/round", "total ms/round"
    );
    for (name, t) in rows {
        out.push_str(&format!(
            "# {:<28} {:>8} {:>14.4} {:>14.4}\n",
            name,
            t.count,
            t.self_ns as f64 / 1e6 / rounds as f64,
            t.total_ns as f64 / 1e6 / rounds as f64
        ));
    }
    out
}

/// Write one JSON object per span: `id, name, start_ns, end_ns, parent,
/// round, client`.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
    for (id, s) in spans.iter().enumerate() {
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"round\":{},\"client\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent),
            s.round,
            opt(s.client)
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: 0,
            client: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // round [0,100] > replay [10,90] > train [20,50], encode [50,70]
        let spans = vec![
            span("round", 0, 100, None),
            span("replay", 10, 90, Some(0)),
            span("train", 20, 50, Some(1)),
            span("encode", 50, 70, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 30, 30, 20]);
        // Self times partition the root's interval.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("parent", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("c", 45, 50, Some(0)),
        ];
        // Children cover [10,80] = 70 of the parent's 100.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_by_open_order() {
        let mut t = Tracer::new();
        let outer = t.open("outer", 3, None);
        let ((), _) = t.leaf("inner", 3, Some(7), || {});
        t.close(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].client, Some(7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span("round", 0, 100, None),
            span("train", 0, 30, Some(0)),
            span("train", 30, 70, Some(0)),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["train"],
            NameTotal {
                count: 2,
                total_ns: 70,
                self_ns: 70
            }
        );
        assert_eq!(totals["round"].self_ns, 30);
    }
}
