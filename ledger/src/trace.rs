//! The traced run's span recorder.
//!
//! Every call the harness makes into a layer is wrapped in its own
//! span: name, start, end, parent and a request id shared by all spans
//! of one call. The spans the database itself emits through
//! `set_trace_sink` (query stages, WAL group commits, checkpoints,
//! maintenance actions) carry a duration but no clock reading; they
//! are drained after each call and nested under it. Spans live in
//! memory and are written out once, when the run ends.
//!
//! Gated numbers never pass through here: a run either records
//! everything or nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use micronn::{CollectingSink, TraceSink};

/// One recorded span. Times are nanoseconds since the recorder's
/// epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub id: u32,
    pub parent: Option<u32>,
    /// Shared by every span of one harness call.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What one traced call cost, and the database spans it produced.
#[derive(Debug, Clone, Default)]
pub struct Call {
    /// Wall-clock seconds of the call.
    pub secs: f64,
    /// `(name, nanoseconds)` of every database span drained after it.
    pub stages: Vec<(&'static str, u64)>,
}

impl Call {
    /// Total nanoseconds of the drained spans named `name`.
    pub fn stage_ns(&self, name: &str) -> u64 {
        self.stages
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, ns)| ns)
            .sum()
    }
}

/// Times `f`; with a recorder, as a span under `name`.
pub fn call<T>(rec: &mut Option<Recorder>, name: &'static str, f: impl FnOnce() -> T) -> (T, Call) {
    match rec {
        Some(r) => r.call(name, f),
        None => {
            let t0 = Instant::now();
            let out = f();
            let secs = t0.elapsed().as_secs_f64();
            (
                out,
                Call {
                    secs,
                    stages: Vec::new(),
                },
            )
        }
    }
}

/// Database spans that enclose the spans recorded just before them
/// (inner work finishes, and is recorded, first).
fn encloses(outer: &str, inner: &str) -> bool {
    match outer {
        "query" | "batch" => matches!(inner, "probe_select" | "partition_scan" | "rerank"),
        o if o.starts_with("maintain_") => inner == "wal_group_commit",
        _ => false,
    }
}

/// The in-memory span store; see the module docs.
pub struct Recorder {
    epoch: Instant,
    sink: Arc<CollectingSink>,
    spans: Vec<SpanRec>,
    next_request: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            sink: Arc::new(CollectingSink::new()),
            spans: Vec::new(),
            next_request: 0,
        }
    }

    /// The sink to install with `MicroNN::set_trace_sink`.
    pub fn sink(&self) -> Arc<dyn TraceSink> {
        Arc::clone(&self.sink) as Arc<dyn TraceSink>
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    fn push(
        &mut self,
        parent: Option<u32>,
        request: u64,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(SpanRec {
            id,
            parent,
            request,
            name,
            start_ns: start,
            end_ns: end,
        });
        id
    }

    /// Runs `f` as one harness span and nests the database spans it
    /// produced under it.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Call) {
        // Spans recorded outside any harness call (a background
        // readahead has none today) would otherwise be misattributed.
        self.sink.take();
        let request = self.next_request;
        self.next_request += 1;
        let t0 = Instant::now();
        let out = f();
        let elapsed = t0.elapsed();
        let start = (t0 - self.epoch).as_nanos() as u64;
        let end = start + elapsed.as_nanos() as u64;
        let root = self.push(None, request, name, start, end);

        let drained = self.sink.take();
        let stages = drained
            .iter()
            .map(|s| (s.name, s.duration.as_nanos() as u64))
            .collect();
        // Database spans have no clock reading. An enclosing span is
        // recorded after the spans it encloses, so each arrival adopts
        // the still-unparented spans it encloses; siblings are then
        // laid end to end from their parent's start, clipped to it, in
        // arrival order — exact for the sequential query stages.
        let mut pending: Vec<u32> = Vec::new();
        for s in &drained {
            let ns = s.duration.as_nanos() as u64;
            let id = self.push(Some(root), request, s.name, 0, ns);
            if s.name == "filter_join" {
                // Measured inside the partition scan it belongs to.
                let scan = pending
                    .iter()
                    .rev()
                    .find(|&&p| self.spans[p as usize].name == "partition_scan");
                if let Some(&scan) = scan {
                    self.spans[id as usize].parent = Some(scan);
                    continue;
                }
            }
            let (adopted, rest): (Vec<u32>, Vec<u32>) = pending
                .iter()
                .partition(|&&p| encloses(s.name, self.spans[p as usize].name));
            for p in adopted {
                self.spans[p as usize].parent = Some(id);
            }
            pending = rest;
            pending.push(id);
        }
        self.lay_out(root, root);
        (
            out,
            Call {
                secs: elapsed.as_secs_f64(),
                stages,
            },
        )
    }

    /// Positions the children of `parent` end to end from its start.
    /// All spans of the call sit after `root`, children possibly
    /// before their adopted parent.
    fn lay_out(&mut self, root: u32, parent: u32) {
        let (p_start, p_end) = {
            let p = &self.spans[parent as usize];
            (p.start_ns, p.end_ns)
        };
        let children: Vec<u32> = (root + 1..self.spans.len() as u32)
            .filter(|&c| self.spans[c as usize].parent == Some(parent))
            .collect();
        let mut cursor = p_start;
        for c in children {
            let s = &mut self.spans[c as usize];
            let ns = s.end_ns - s.start_ns;
            s.start_ns = cursor.min(p_end);
            s.end_ns = (cursor + ns).min(p_end);
            cursor = s.end_ns;
            self.lay_out(root, c);
        }
    }

    /// Self time per span name: a span's duration minus the part its
    /// children cover. Returns `(name, spans, total_ns, self_ns)`,
    /// largest self time first.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.duration_ns();
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration_ns();
            e.2 += s.duration_ns().saturating_sub(child_ns[s.id as usize]);
        }
        let mut out: Vec<_> = by_name
            .into_iter()
            .map(|(name, (n, total, own))| (name, n, total, own))
            .collect();
        out.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
        out
    }

    /// Writes every span and the self-time summary as JSON.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"self_time\": ["
        )?;
        let summary = self.self_times();
        for (i, (name, n, total, own)) in summary.iter().enumerate() {
            let comma = if i + 1 < summary.len() { "," } else { "" };
            writeln!(
                w,
                "  {{\"name\": \"{name}\", \"spans\": {n}, \"total_ns\": {total}, \"self_ns\": {own}}}{comma}"
            )?;
        }
        writeln!(w, "], \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "  {{\"id\": {}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{comma}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]}}")?;
        // Dropping a BufWriter swallows write errors; surface them.
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micronn::Span;
    use std::time::Duration;

    fn emit(sink: &Arc<dyn TraceSink>, name: &'static str, us: u64) {
        sink.record(&Span::new(name, Duration::from_micros(us)));
    }

    #[test]
    fn database_spans_nest_under_the_call_that_caused_them() {
        let mut rec = Recorder::new();
        let sink = rec.sink();
        let (_, call) = rec.call("core.search_with", || {
            emit(&sink, "probe_select", 10);
            emit(&sink, "partition_scan", 50);
            emit(&sink, "filter_join", 20);
            emit(&sink, "query", 70);
            std::thread::sleep(Duration::from_micros(200));
        });
        assert_eq!(call.stage_ns("partition_scan"), 50_000);
        assert_eq!(call.stage_ns("rerank"), 0);
        let spans = rec.spans();
        assert_eq!(spans.len(), 5);
        let by = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        let (root, query) = (by("core.search_with"), by("query"));
        assert_eq!(root.parent, None);
        assert_eq!(query.parent, Some(root.id));
        for stage in ["probe_select", "partition_scan"] {
            assert_eq!(by(stage).parent, Some(query.id), "{stage}");
            assert_eq!(by(stage).request, root.request);
        }
        assert_eq!(by("filter_join").parent, Some(by("partition_scan").id));
        assert_eq!(by("filter_join").start_ns, by("partition_scan").start_ns);
        // Sequential stages are laid end to end from the query start.
        assert_eq!(query.start_ns, root.start_ns);
        assert_eq!(by("probe_select").start_ns, query.start_ns);
        assert_eq!(by("partition_scan").start_ns, by("probe_select").end_ns);
        assert!(root.duration_ns() >= 200_000);

        // Self time: query = 70 - (10 + 50), the scan = 50 - 20 of
        // filter; the harness span keeps what the query does not cover.
        let own: BTreeMap<_, _> = rec.self_times().into_iter().map(|t| (t.0, t.3)).collect();
        assert_eq!(own["query"], 10_000);
        assert_eq!(own["partition_scan"], 30_000);
        assert_eq!(own["filter_join"], 20_000);
        assert_eq!(own["core.search_with"], root.duration_ns() - 70_000);
    }

    #[test]
    fn maintenance_adopts_its_commits_and_requests_differ() {
        let mut rec = Recorder::new();
        let sink = rec.sink();
        emit(&sink, "wal_group_commit", 5); // outside any call: dropped
        rec.call("core.maybe_maintain", || {
            emit(&sink, "wal_group_commit", 30);
            emit(&sink, "maintain_flush", 100);
            emit(&sink, "wal_group_commit", 40);
            emit(&sink, "maintain_split", 90);
        });
        rec.call("core.checkpoint", || emit(&sink, "checkpoint", 10));
        let spans = rec.spans();
        assert_eq!(spans.len(), 7);
        let flush = spans.iter().find(|s| s.name == "maintain_flush").unwrap();
        let split = spans.iter().find(|s| s.name == "maintain_split").unwrap();
        let commits: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "wal_group_commit")
            .collect();
        assert_eq!(commits[0].parent, Some(flush.id));
        assert_eq!(commits[1].parent, Some(split.id));
        assert_ne!(spans[0].request, spans.last().unwrap().request);

        let dir = crate::scratch_dir("trace-test");
        let path = dir.join("trace.json");
        rec.write_json(&path, "w", 1).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"name\": \"maintain_flush\""));
        assert_eq!(text.matches("\"request\"").count(), 7);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn untraced_calls_only_time() {
        let (v, c) = call(&mut None, "core.search_with", || 7);
        assert_eq!(v, 7);
        assert!(c.stages.is_empty() && c.secs >= 0.0);
    }
}
