//! In-memory span recorder for the traced mirror run.
//!
//! The program under test carries no tracing of its own yet, so spans are
//! recorded here, around the mirror's calls into each layer's public
//! functions. Spans live in a preallocated `Vec` and are written out as TSV
//! only when the run has ended.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layer boundary a span was recorded at. `name()` is the module-based
/// label used in `trace_*.tsv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Parent span: one wire request, from client encode to client decode.
    Request,
    /// `Request::encode` (client side).
    ClientEncode,
    /// `Request::decode` (server side).
    RequestDecode,
    /// `StreamMonitor::encode_raw`: interning + validation.
    EncodeRaw,
    /// `WindowRecord` build + `ArrivalLog::append` (write, no fsync).
    WalAppend,
    /// `Table::append` / `Table::append_batch_slice`.
    TableAppend,
    /// `Discovery::discover_at`.
    Discover,
    /// `ContextCounter::observe`.
    CounterObserve,
    /// `ContextCounter::cardinality`, once per discovered fact.
    CounterCardinality,
    /// `Discovery::skyline_cardinality_at`, once per discovered fact.
    RankSkyline,
    /// `RankedFact::ranking_cmp` sort, prominent prefix, `keep_top` cut.
    RankSort,
    /// `Table::compact_postings` at the batch boundary.
    CompactPostings,
    /// `Table::retract_prefix` + amortised `Table::compact_retracted`.
    TableRetract,
    /// `ContextCounter::forget`, once per expired row.
    CounterForget,
    /// `Discovery::retract`, once per expired row.
    Retract,
    /// `Table::posting_index_stats` + the `ServerStats` record the owner
    /// rebuilds after every ingest.
    StatsExport,
    /// `SnapshotCell::publish` of the read-side snapshot.
    SnapshotPublish,
    /// `Response::encode` (server side).
    ReplyEncode,
    /// `Response::decode` (client side).
    ClientDecode,
}

impl Stage {
    /// The label written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::ClientEncode => "serve.client_encode",
            Stage::RequestDecode => "serve.request_decode",
            Stage::EncodeRaw => "prominence.encode_raw",
            Stage::WalAppend => "wal.append",
            Stage::TableAppend => "table.append",
            Stage::Discover => "algos.discover",
            Stage::CounterObserve => "counter.observe",
            Stage::CounterCardinality => "counter.cardinality",
            Stage::RankSkyline => "algos.rank_skyline",
            Stage::RankSort => "prominence.sort",
            Stage::CompactPostings => "table.compact_postings",
            Stage::TableRetract => "table.retract",
            Stage::CounterForget => "counter.forget",
            Stage::Retract => "algos.retract",
            Stage::StatsExport => "serve.stats_export",
            Stage::SnapshotPublish => "core.snapshot_publish",
            Stage::ReplyEncode => "serve.reply_encode",
            Stage::ClientDecode => "serve.client_decode",
        }
    }
}

/// Index of a span in its tracer.
pub type SpanId = u32;

/// One timed interval. Spans of one wire request share `request`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Where it was recorded.
    pub stage: Stage,
    /// The request it belongs to.
    pub request: u32,
    /// The span that caused it (`None` for a request's parent span).
    pub parent: Option<SpanId>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans against one monotonic clock.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer with room for `capacity` spans, so recording never
    /// reallocates inside a timed region when the estimate holds.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, stage: Stage, request: u32, parent: Option<SpanId>) -> SpanId {
        let id = self.spans.len() as SpanId;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            stage,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Times `work` as a child span of `parent`.
    pub fn span<T>(
        &mut self,
        stage: Stage,
        request: u32,
        parent: SpanId,
        work: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(stage, request, Some(parent));
        let out = work();
        self.close(id);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The cost of recording one empty span, in nanoseconds: the median over
    /// `rounds` back-to-back open/close pairs on a scratch tracer.
    pub fn empty_span_cost_ns(rounds: usize) -> f64 {
        let mut scratch = Tracer::with_capacity(rounds + 1);
        let root = scratch.open(Stage::Request, 0, None);
        for _ in 0..rounds {
            scratch.span(Stage::Discover, 0, root, || {});
        }
        scratch.close(root);
        // Start-to-start distance of neighbouring spans = one full record.
        let mut costs: Vec<u64> = scratch.spans[1..]
            .windows(2)
            .map(|pair| pair[1].start_ns - pair[0].start_ns)
            .collect();
        costs.sort_unstable();
        crate::stats::percentile(&costs, 0.5) as f64
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Overlapping or touching children are
/// merged before subtracting, and children are clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Writes the spans as tab-separated text, one span per line:
/// `span parent request stage start_ns end_ns`, `-` for a missing parent.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "span\tparent\trequest\tstage\tstart_ns\tend_ns")?;
    for (id, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{id}\t{parent}\t{}\t{}\t{}\t{}",
            span.request,
            span.stage.name(),
            span.start_ns,
            span.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            stage: Stage::Discover,
            request: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = [
            span(None, 0, 100),    // 0: root
            span(Some(0), 10, 30), // 1: child
            span(Some(0), 30, 50), // 2: adjacent to 1
            span(Some(2), 35, 45), // 3: grandchild, must not count against root
            span(Some(0), 70, 90), // 4: child after a gap
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 10, 10, 20]);
    }

    #[test]
    fn self_time_merges_overlap_and_clips_to_the_parent() {
        let spans = [
            span(None, 100, 200),    // root
            span(Some(0), 110, 150), // child
            span(Some(0), 140, 160), // overlaps the first by 10
            span(Some(0), 190, 230), // runs past the parent's end
        ];
        // Covered: [110,160) = 50 and [190,200) = 10.
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn tracer_records_parent_links_in_opening_order() {
        let mut tracer = Tracer::with_capacity(4);
        let root = tracer.open(Stage::Request, 7, None);
        let answer = tracer.span(Stage::Discover, 7, root, || 42);
        tracer.close(root);
        assert_eq!(answer, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].request, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert!(Tracer::empty_span_cost_ns(100) >= 0.0);
    }
}
