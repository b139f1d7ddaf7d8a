//! The traced mirror run: the arrival path replayed by hand through each
//! layer's public functions, every call wrapped in a span.
//!
//! The mirror owns a `Table`, a `ContextCounter` and a `Box<dyn Discovery>`
//! and follows the monitors step for step — `FactMonitor::ingest` for
//! single-row `INGEST`, `FactMonitor::ingest_batch_slice` for `INGEST_BATCH`
//! and for anything durable (`DurableMonitor` logs, then ingests a window of
//! one), `WindowedMonitor`'s batch-boundary enforcement for windowed
//! tenants — between the same codec calls the client and server make. It is
//! hand-written, so it is only trusted because its encoded replies must hash
//! to the served run's.

use crate::served::ReplyHash;
use crate::stats;
use crate::trace::{SpanId, Stage, Tracer};
use crate::workload::{monitor_parts, Spec, Stream};
use sitfact_algos::{Discovery, STopDown};
use sitfact_core::{ActorPool, Result, SitFactError, SkylinePair, SnapshotCell, Tuple, TupleId};
use sitfact_prominence::{
    replay_log, ArrivalReport, FactMonitor, MonitorConfig, RankedFact, WalOptions,
};
use sitfact_serve::{RawRow, Request, Response, ServerStats};
use sitfact_storage::wal::scan_log;
use sitfact_storage::{
    ArrivalLog, ContextCounter, LoggedRow, SyncPolicy, Table, WindowRecord, WorkStats,
};
use std::path::Path;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Instant;

/// No-op actor round trips behind `core.actor_hop_us`.
const ACTOR_PROBES: usize = 2_000;

/// Fsynced appends behind `wal.fsync_us`.
const FSYNC_PROBES: usize = 300;

/// Exact work counts of one mirror run. They depend only on the stream, so
/// they repeat to the unit for a fixed `(seed, seconds)`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Wire requests replayed.
    pub requests: u64,
    /// Rows ingested.
    pub rows: u64,
    /// `WorkStats` spent inside `discover_at`.
    pub discover: WorkStats,
    /// `WorkStats` spent inside `skyline_cardinality_at`.
    pub rank: WorkStats,
    /// `skyline_cardinality_at` calls = facts ranked before `keep_top`.
    pub rank_calls: u64,
    /// `WorkStats` spent inside `retract`.
    pub retract: WorkStats,
    /// Rows that fell out of the window.
    pub expired: u64,
    /// Expired rows whose `retract` wrote at least one store cell.
    pub expired_useful: u64,
    /// Encoded request payload bytes.
    pub request_bytes: u64,
    /// Encoded reply payload bytes.
    pub reply_bytes: u64,
    /// Bytes appended to the arrival log.
    pub wal_bytes: u64,
}

/// Everything the mirror run produced.
pub struct Mirror {
    /// Fingerprint of every encoded reply; must equal the served run's.
    pub reply_hash: u64,
    /// The recorded spans.
    pub tracer: Tracer,
    /// Exact work counts.
    pub counts: Counts,
    /// The `STATS` record after the last request; must equal the served
    /// run's.
    pub final_stats: ServerStats,
    /// `Table::approx_heap_bytes` at the end.
    pub table_heap_bytes: u64,
    /// `ContextCounter::approx_heap_bytes` at the end.
    pub counter_heap_bytes: u64,
    /// `StoreStats::approx_bytes` at the end.
    pub store_bytes: u64,
    /// `StoreStats::stored_entries` at the end.
    pub store_entries: u64,
    /// Seconds `scan_log` took over the mirror's log (0 unless durable).
    pub wal_scan_s: f64,
    /// Seconds `replay_log` took into a fresh monitor (0 unless durable).
    pub replay_s: f64,
    /// Whether the replayed log reproduced the last report.
    pub replay_matches: bool,
    /// No-op `ActorPool::send` round trips, ascending.
    pub actor_hop_ns: Vec<u64>,
    /// Durable only: `ArrivalLog::append` under `SyncPolicy::Always` on a
    /// scratch log, ascending — what an fsync per acknowledged window costs
    /// on this disk.
    pub fsync_ns: Vec<u64>,
}

fn work_delta(after: WorkStats, before: WorkStats) -> WorkStats {
    WorkStats {
        comparisons: after.comparisons - before.comparisons,
        traversed_constraints: after.traversed_constraints - before.traversed_constraints,
        store_reads: after.store_reads - before.store_reads,
        store_writes: after.store_writes - before.store_writes,
    }
}

/// The read-side value the owner republishes after every ingest (nothing
/// reads it here; the fields exist to be built and dropped as the server's
/// are).
struct Snapshot {
    _report: Option<ArrivalReport>,
    _stats: ServerStats,
}

struct State {
    table: Table,
    counter: ContextCounter,
    algo: Box<dyn Discovery>,
    config: MonitorConfig,
    window: Option<usize>,
    log: Option<ArrivalLog>,
    last_report: Option<ArrivalReport>,
    cell: SnapshotCell<Option<Snapshot>>,
    tracer: Tracer,
    counts: Counts,
}

impl State {
    /// `StreamMonitor::encode_raw` for every row of the request.
    fn encode_raw(&mut self, rows: &[RawRow]) -> Result<Vec<Tuple>> {
        rows.iter()
            .map(|row| {
                let dims: Vec<&str> = row.dims.iter().map(String::as_str).collect();
                let ids = self.table.schema_mut().intern_dims(&dims)?;
                Tuple::validated(ids, row.measures.clone(), self.table.schema())
            })
            .collect()
    }

    /// `DurableMonitor::log_and_ingest` up to the ack barrier: render the
    /// raw rows back out of the dictionaries and append the window.
    fn wal_append(&mut self, tuples: &[Tuple]) -> Result<()> {
        let Some(log) = self.log.as_mut() else {
            return Ok(());
        };
        let schema = self.table.schema();
        let mut rows = Vec::with_capacity(tuples.len());
        for tuple in tuples {
            tuple.validate(schema)?;
            let dims = tuple
                .dims()
                .iter()
                .enumerate()
                .map(|(d, &id)| {
                    schema
                        .resolve_dim(d, id)
                        .map(str::to_string)
                        .ok_or_else(|| {
                            SitFactError::InvalidTuple(format!("dimension {d} has no value {id}"))
                        })
                })
                .collect::<Result<Vec<_>>>()?;
            rows.push(LoggedRow {
                dims,
                measures: tuple.measures().to_vec(),
            });
        }
        log.append(&WindowRecord {
            first_id: self.table.len() as u64,
            rows,
        })
    }

    /// `FactMonitor::rank_arrival`, with the two cardinality lookups the
    /// monitor interleaves per fact split into one pass each so they can be
    /// timed apart (neither writes anything the other reads).
    fn rank(
        &mut self,
        request: u32,
        root: SpanId,
        tuple_id: TupleId,
        pairs: Vec<SkylinePair>,
    ) -> ArrivalReport {
        let limit = tuple_id + 1;
        self.counts.rank_calls += pairs.len() as u64;
        let counter = &self.counter;
        let contexts: Vec<u64> = self
            .tracer
            .span(Stage::CounterCardinality, request, root, || {
                pairs
                    .iter()
                    .map(|p| counter.cardinality(&p.constraint))
                    .collect()
            });
        let before = self.algo.work_stats();
        let (algo, table) = (&mut self.algo, &self.table);
        let skylines: Vec<u64> = self.tracer.span(Stage::RankSkyline, request, root, || {
            pairs
                .iter()
                .map(|p| {
                    algo.skyline_cardinality_at(table, &p.constraint, p.subspace, limit) as u64
                })
                .collect()
        });
        let spent = work_delta(self.algo.work_stats(), before);
        self.counts.rank.merge(&spent);
        let config = self.config;
        self.tracer.span(Stage::RankSort, request, root, || {
            let mut facts: Vec<RankedFact> = pairs
                .into_iter()
                .zip(contexts.into_iter().zip(skylines))
                .map(|(pair, (context_size, skyline_size))| RankedFact {
                    pair,
                    context_size,
                    skyline_size,
                })
                .collect();
            facts.sort_by(RankedFact::ranking_cmp);
            let max = facts.first().map(RankedFact::prominence).unwrap_or(0.0);
            let prominent_count = if max >= config.tau {
                facts
                    .iter()
                    .take_while(|f| (f.prominence() - max).abs() < f64::EPSILON)
                    .count()
            } else {
                0
            };
            if let Some(keep) = config.keep_top {
                facts.truncate(keep.max(prominent_count));
            }
            ArrivalReport {
                tuple_id,
                facts,
                prominent_count,
            }
        })
    }

    fn discover(
        &mut self,
        request: u32,
        root: SpanId,
        tuple: &Tuple,
        id: TupleId,
    ) -> Vec<SkylinePair> {
        let before = self.algo.work_stats();
        let (algo, table) = (&mut self.algo, &self.table);
        let pairs = self.tracer.span(Stage::Discover, request, root, || {
            algo.discover_at(table, tuple, id)
        });
        let spent = work_delta(self.algo.work_stats(), before);
        self.counts.discover.merge(&spent);
        pairs
    }

    fn observe(&mut self, request: u32, root: SpanId, id: TupleId) {
        let (counter, table) = (&mut self.counter, &self.table);
        self.tracer.span(Stage::CounterObserve, request, root, || {
            counter.observe(table.tuple(id))
        });
    }

    /// `FactMonitor::ingest`: discover against history, append, observe,
    /// rank.
    fn ingest_one(&mut self, request: u32, root: SpanId, tuple: Tuple) -> Result<ArrivalReport> {
        tuple.validate(self.table.schema())?;
        let next = self.table.next_id();
        let pairs = self.discover(request, root, &tuple, next);
        let table = &mut self.table;
        let id = self
            .tracer
            .span(Stage::TableAppend, request, root, || table.append(tuple))?;
        self.observe(request, root, id);
        Ok(self.rank(request, root, id, pairs))
    }

    /// `FactMonitor::ingest_batch_slice`: append the window once, then
    /// discover and rank each arrival against its time-ordered prefix.
    fn ingest_batch(
        &mut self,
        request: u32,
        root: SpanId,
        tuples: &[Tuple],
    ) -> Result<Vec<ArrivalReport>> {
        let first = self.table.next_id();
        let table = &mut self.table;
        self.tracer.span(Stage::TableAppend, request, root, || {
            table.append_batch_slice(tuples)
        })?;
        self.algo.begin_batch(tuples.len());
        let mut reports = Vec::with_capacity(tuples.len());
        for (i, tuple) in tuples.iter().enumerate() {
            let id = first + i as TupleId;
            let pairs = self.discover(request, root, tuple, id);
            self.observe(request, root, id);
            reports.push(self.rank(request, root, id, pairs));
        }
        self.algo.end_batch();
        let table = &mut self.table;
        self.tracer.span(Stage::CompactPostings, request, root, || {
            table.compact_postings()
        });
        Ok(reports)
    }

    /// `WindowedMonitor::enforce` over `FactMonitor::evict_prefix`. The
    /// monitor forgets and retracts row by row in one loop; the two loops
    /// here touch disjoint state (counter vs. store), so the split changes
    /// nothing but lets each be timed as one span.
    fn enforce_window(&mut self, request: u32, root: SpanId) -> Result<()> {
        let Some(limit) = self.window else {
            return Ok(());
        };
        let total = self.table.len();
        if total <= limit {
            return Ok(());
        }
        let start = self.table.watermark();
        let table = &mut self.table;
        let newly = self.tracer.span(Stage::TableRetract, request, root, || {
            table.retract_prefix(total - limit)
        });
        let expired = start..start + newly as TupleId;
        let (counter, table) = (&mut self.counter, &self.table);
        let ids = expired.clone();
        self.tracer.span(Stage::CounterForget, request, root, || {
            for id in ids {
                counter.forget(table.tuple(id));
            }
        });
        let (algo, table, counts) = (&mut self.algo, &self.table, &mut self.counts);
        self.tracer
            .span(Stage::Retract, request, root, || -> Result<()> {
                for id in expired {
                    let before = algo.work_stats();
                    algo.retract(table, id)?;
                    let spent = work_delta(algo.work_stats(), before);
                    counts.retract.merge(&spent);
                    counts.expired += 1;
                    counts.expired_useful += u64::from(spent.store_writes > 0);
                }
                Ok(())
            })?;
        if newly > 0 && self.table.tombstone_rows() >= self.table.live_rows() {
            let table = &mut self.table;
            self.tracer.span(Stage::TableRetract, request, root, || {
                table.compact_retracted()
            });
        }
        Ok(())
    }

    /// The `ServerStats` record the owner rebuilds from
    /// `StreamMonitor::export_snapshot` after every ingest.
    fn stats(&self) -> ServerStats {
        let postings = self.table.posting_index_stats();
        let wal = self.log.as_ref().map(ArrivalLog::stats).unwrap_or_default();
        ServerStats {
            len: self.table.len() as u64,
            tau: self.config.tau,
            keep_top: self.config.keep_top.map(|k| k as u64),
            anchor_dim: None,
            sealed_blocks: postings.sealed_blocks as u64,
            tail_ids: postings.tail_ids as u64,
            compressed_bytes: postings.compressed_bytes as u64,
            uncompressed_bytes: postings.uncompressed_bytes as u64,
            wal_segments: wal.segments,
            wal_bytes: wal.bytes,
            wal_synced: wal.durable_rows,
            wal_retired: wal.retired_segments,
            live_rows: self.table.live_rows() as u64,
            tombstones: self.table.tombstone_rows() as u64,
            evicted: self.table.evicted_rows() as u64,
            schema: self.table.schema().name().to_string(),
        }
    }

    /// One wire request, client encode to client decode. Returns the
    /// encoded reply.
    fn request(&mut self, index: usize, stream: &Stream) -> Result<String> {
        let durable = self.log.is_some();
        let request = index as u32;
        let root = self.tracer.open(Stage::Request, request, None);
        let wire = |e: sitfact_serve::ServeError| SitFactError::Parse(e.to_string());

        let payload = self
            .tracer
            .span(Stage::ClientEncode, request, root, || {
                stream.request(index).encode()
            })
            .map_err(wire)?;
        self.counts.request_bytes += payload.len() as u64;
        let decoded = self
            .tracer
            .span(Stage::RequestDecode, request, root, || {
                Request::decode(&payload)
            })
            .map_err(wire)?;
        let (rows, batched) = match decoded {
            Request::Ingest(row) => (vec![row], false),
            Request::IngestBatch(rows) => (rows, true),
            other => return Err(SitFactError::Parse(format!("not an ingest: {other:?}"))),
        };
        let id = self.tracer.open(Stage::EncodeRaw, request, Some(root));
        let tuples = self.encode_raw(&rows)?;
        self.tracer.close(id);

        if durable {
            let id = self.tracer.open(Stage::WalAppend, request, Some(root));
            self.wal_append(&tuples)?;
            self.tracer.close(id);
        }
        // The durable wrapper always ingests a window (of one, for INGEST).
        let mut reports = if batched || durable {
            self.ingest_batch(request, root, &tuples)?
        } else {
            let tuple = tuples.into_iter().next().expect("INGEST carries one row");
            vec![self.ingest_one(request, root, tuple)?]
        };
        self.enforce_window(request, root)?;
        self.counts.requests += 1;
        self.counts.rows += reports.len() as u64;

        let id = self.tracer.open(Stage::StatsExport, request, Some(root));
        let stats = self.stats();
        self.tracer.close(id);
        // The owner keeps the last report and publishes a copy of it.
        let id = self
            .tracer
            .open(Stage::SnapshotPublish, request, Some(root));
        self.last_report = reports.last().cloned();
        self.cell.publish(Arc::new(Some(Snapshot {
            _report: self.last_report.clone(),
            _stats: stats,
        })));
        self.tracer.close(id);

        let response = if batched {
            Response::Reports(reports)
        } else {
            Response::Report(reports.pop().expect("INGEST yields one report"))
        };
        let reply = self
            .tracer
            .span(Stage::ReplyEncode, request, root, || response.encode());
        self.counts.reply_bytes += reply.len() as u64;
        self.tracer
            .span(Stage::ClientDecode, request, root, || {
                Response::decode(&reply)
            })
            .map_err(wire)?;
        self.tracer.close(root);
        Ok(reply)
    }
}

/// Round trips of a no-op job through a one-worker `ActorPool`, with the
/// per-request reply channel the serving engine allocates.
fn actor_hops() -> Vec<u64> {
    let pool = ActorPool::new(vec![()]);
    let hops = (0..ACTOR_PROBES)
        .map(|_| {
            let sent = Instant::now();
            let (reply_tx, reply_rx) = channel();
            pool.send(0, move |_: &mut ()| {
                let _ = reply_tx.send(());
            });
            let _ = reply_rx.recv();
            sent.elapsed().as_nanos() as u64
        })
        .collect();
    stats::sorted(hops)
}

/// Appends the stream's first windows to a scratch log that fsyncs every
/// window, timing each append.
fn fsync_probe(dir: &Path, stream: &Stream) -> Result<Vec<u64>> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    let segment_bytes = WalOptions::default().segment_bytes;
    let (mut log, _) = ArrivalLog::open(dir, SyncPolicy::Always, segment_bytes)?;
    let mut first_id = 0u64;
    let mut appends = Vec::with_capacity(FSYNC_PROBES);
    for window in stream.windows.iter().take(FSYNC_PROBES) {
        let record = WindowRecord {
            first_id,
            rows: window
                .iter()
                .map(|row| LoggedRow {
                    dims: row.dims.clone(),
                    measures: row.measures.clone(),
                })
                .collect(),
        };
        first_id += window.len() as u64;
        let sent = Instant::now();
        log.append(&record)?;
        appends.push(sent.elapsed().as_nanos() as u64);
    }
    drop(log);
    let _ = std::fs::remove_dir_all(dir);
    Ok(stats::sorted(appends))
}

/// Replays `stream` through the hand-written mirror of the serving path.
pub fn run(spec: &Spec, stream: &Stream, out_dir: &Path) -> Result<Mirror> {
    let (schema, config) = monitor_parts(&stream.tenant)?;
    let wal_dir = out_dir.join(format!("{}-mirror-wal", spec.name));
    let log = if spec.durable {
        let _ = std::fs::remove_dir_all(&wal_dir);
        std::fs::create_dir_all(&wal_dir)?;
        let segment_bytes = WalOptions::default().segment_bytes;
        Some(ArrivalLog::open(&wal_dir, SyncPolicy::Os, segment_bytes)?.0)
    } else {
        None
    };
    let d_hat = config.discovery.effective_d_hat(&schema);
    let mut state = State {
        counter: ContextCounter::new(schema.num_dimensions(), d_hat),
        algo: Box::new(STopDown::new(&schema, config.discovery)),
        table: Table::new(schema),
        config,
        window: stream.tenant.window.map(|w| w as usize),
        log,
        last_report: None,
        cell: SnapshotCell::new(Arc::new(None)),
        // Per request: the parent, ten request-level stages, five stages
        // per arrival, and four of window enforcement.
        tracer: Tracer::with_capacity(
            stream.windows.len()
                * (11 + 5 * spec.batch + if spec.window.is_some() { 4 } else { 0 }),
        ),
        counts: Counts::default(),
    };

    let mut hash = ReplyHash::default();
    for index in 0..stream.windows.len() {
        hash.record(&state.request(index, stream)?);
    }

    let final_stats = state.stats();
    let store = state.algo.store_stats();
    let mut mirror = Mirror {
        reply_hash: hash.finish(),
        counts: Counts {
            wal_bytes: final_stats.wal_bytes,
            ..state.counts
        },
        final_stats,
        table_heap_bytes: state.table.approx_heap_bytes() as u64,
        counter_heap_bytes: state.counter.approx_heap_bytes() as u64,
        store_bytes: store.approx_bytes,
        store_entries: store.stored_entries,
        wal_scan_s: 0.0,
        replay_s: 0.0,
        replay_matches: true,
        actor_hop_ns: actor_hops(),
        fsync_ns: Vec::new(),
        tracer: state.tracer,
    };

    if spec.durable {
        drop(state.log.take());
        let start = Instant::now();
        let scanned = scan_log(&wal_dir)?;
        mirror.wal_scan_s = start.elapsed().as_secs_f64();
        // A fresh schema: the replay must re-intern the logged strings.
        let (schema, _) = monitor_parts(&stream.tenant)?;
        let mut fresh = FactMonitor::new(
            schema.clone(),
            STopDown::new(&schema, config.discovery),
            config,
        );
        let start = Instant::now();
        let replayed = replay_log(&wal_dir, &mut fresh)?;
        mirror.replay_s = start.elapsed().as_secs_f64();
        mirror.replay_matches = scanned.windows.len() == stream.windows.len()
            && replayed.rows == mirror.counts.rows
            && replayed.reports.last() == state.last_report.as_ref();
        let _ = std::fs::remove_dir_all(&wal_dir);
        mirror.fsync_ns = fsync_probe(&wal_dir, stream)?;
    }
    Ok(mirror)
}
