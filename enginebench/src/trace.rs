//! In-memory spans for the traced replica: each call into a layer gets one
//! (name, start, end, parent, round, thread), kept in a vector and written
//! out as JSON lines when the run ends.

use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same trace, if any.
    pub parent: Option<usize>,
    /// The training step the span belongs to.
    pub round: u64,
    /// A small per-process number of the thread that ran the call.
    pub thread: u32,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// The clock every span of one trace is measured against. `Copy`, so the
/// parallel workers of phase 1 can time their own calls.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn now(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).expect("a trace lasts under 584 years")
    }

    /// Runs `f` and appends a span named `name` around it to `spans`.
    pub fn time_into<T>(
        &self,
        spans: &mut Vec<Span>,
        name: &'static str,
        round: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        spans.push(Span { name, start, end: self.now(), parent, round, thread: thread_number() });
        out
    }
}

/// The spans of one run, in the order they were closed or merged.
#[derive(Debug)]
pub struct Tracer {
    clock: Clock,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { clock: Clock(Instant::now()), spans: Vec::new() }
    }

    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Opens a span on the calling thread and returns its index; its end is
    /// set by [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, round: u64, parent: Option<usize>) -> usize {
        let start = self.clock.now();
        self.push(Span { name, start, end: start, parent, round, thread: thread_number() })
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.clock.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        round: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        self.clock.time_into(&mut self.spans, name, round, parent, f)
    }

    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Adds a span measured elsewhere and returns its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// A small number naming the calling thread, stable for its lifetime.
fn thread_number() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local!(static NUMBER: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    NUMBER.with(|n| *n)
}

/// Each span's self time: its duration minus the part of its interval that
/// its children cover. Children may run on other threads and overlap each
/// other; the covered part is the union of their intervals, clipped to the
/// parent's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            for (start, end) in &mut intervals {
                *start = (*start).max(span.start);
                *end = (*end).min(span.end);
            }
            intervals.retain(|(start, end)| start < end);
            intervals.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for (start, end) in intervals {
                run = match run {
                    Some((run_start, run_end)) if start <= run_end => {
                        Some((run_start, run_end.max(end)))
                    }
                    Some((run_start, run_end)) => {
                        covered += run_end - run_start;
                        Some((start, end))
                    }
                    None => Some((start, end)),
                };
            }
            if let Some((run_start, run_end)) = run {
                covered += run_end - run_start;
            }
            span.duration() - covered
        })
        .collect()
}

/// Writes `spans` as JSON lines to `trace-out/<workload>-seed<seed>.jsonl`
/// in the benchmark's directory and returns the path.
pub fn write_spans(workload: &str, seed: u64, spans: &[Span]) -> Result<String, String> {
    let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/trace-out"));
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    let write = || -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"round\": {}, \"thread\": {}}}",
                s.name, s.start, s.end, s.round, s.thread
            )?;
        }
        out.flush()
    };
    write().map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>, thread: u32) -> Span {
        Span { name: "s", start, end, parent, round: 0, thread }
    }

    #[test]
    fn a_span_without_children_is_all_self_time() {
        assert_eq!(self_times(&[span(10, 25, None, 0)]), vec![15]);
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root [0, 100) ⊃ a [10, 40) ⊃ b [20, 30); root ⊃ c [50, 60).
        let spans = [
            span(0, 100, None, 0),
            span(10, 40, Some(0), 0),
            span(20, 30, Some(1), 0),
            span(50, 60, Some(0), 0),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn overlapping_children_on_other_threads_count_their_union() {
        // A parallel fan-out [0, 100): thread 1 runs [5, 50) and [50, 70),
        // thread 2 runs [10, 80). Their union is [5, 80).
        let spans = [
            span(0, 100, None, 0),
            span(5, 50, Some(0), 1),
            span(50, 70, Some(0), 1),
            span(10, 80, Some(0), 2),
        ];
        assert_eq!(self_times(&spans), vec![25, 45, 20, 70]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        // A child that started before and ended after its parent covers
        // the parent entirely, never more.
        let spans = [span(10, 20, None, 0), span(5, 30, Some(0), 1), span(0, 1, None, 0)];
        assert_eq!(self_times(&spans), vec![0, 25, 1]);
    }

    #[test]
    fn disjoint_and_touching_children_are_summed() {
        let spans = [
            span(0, 100, None, 0),
            span(0, 10, Some(0), 0),
            span(10, 20, Some(0), 0),
            span(90, 100, Some(0), 0),
        ];
        assert_eq!(self_times(&spans)[0], 70);
    }

    #[test]
    fn the_tracer_links_parents_and_children() {
        let mut tracer = Tracer::new();
        let root = tracer.begin("root", 3, None);
        let value = tracer.time("child", 3, Some(root), || 7);
        tracer.end(root);
        let spans = tracer.into_spans();
        assert_eq!(value, 7);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert_eq!(spans[1].round, 3);
    }
}
