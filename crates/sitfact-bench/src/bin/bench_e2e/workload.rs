//! The fixed workload matrix and its seeded input streams.
//!
//! Every workload runs `STopDown` at `τ = 100` over a `d = 5`, `m = 4`
//! relation; what differs is which layers the arrival spends its time in.
//! The matrix is fixed on purpose: a later change is judged on all four
//! rows, and each row names the layers that should and should not move.

use sitfact_core::hash::FxHasher;
use sitfact_core::{DiscoveryConfig, Schema, SchemaBuilder, SitFactError};
use sitfact_datagen::nba::{NbaConfig, NbaGenerator};
use sitfact_datagen::zipf::{ZipfConfig, ZipfGenerator};
use sitfact_datagen::DataGenerator;
use sitfact_prominence::MonitorConfig;
use sitfact_serve::{RawRow, Request, TenantSpec};
use std::hash::Hasher;

/// Prominence threshold shared by every workload.
pub const TAU: f64 = 100.0;

/// The run length the nominal request counts below are sized for: at this
/// `--seconds` value each ingest phase takes about that long on the 2-core
/// reference box. Other values scale the request counts linearly, so the
/// work for one `(seed, seconds)` pair is identical on every commit — which
/// is what lets the per-layer counts repeat to the unit.
pub const NOMINAL_SECONDS: f64 = 10.0;

/// Which generator feeds the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// Synthetic NBA box scores: 600 players, 29 teams, 8 seasons.
    Nba,
    /// Zipf-skewed dimensions with cardinalities 5000/500/32/8/2000,
    /// exponent 1.2: long posting-list tails and many one-off contexts.
    Zipf,
}

/// Fixed send schedule of an open-loop workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pacing {
    /// `INGEST` requests due per second on the first connection.
    pub ingest_hz: u64,
    /// `TOPK 8` requests due per second on the second connection.
    pub topk_hz: u64,
}

/// One row of the workload matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Name, as given to `--workload`.
    pub name: &'static str,
    /// Why the workload exists (one line, repeated in `BENCHMARK.json`).
    pub why: &'static str,
    /// Input generator.
    pub stream: StreamKind,
    /// Discovery cap `d̂`.
    pub d_hat: u64,
    /// Discovery cap `m̂`.
    pub m_hat: u64,
    /// Per-arrival fact retention cap (`None` = full reports).
    pub keep_top: Option<u64>,
    /// Sliding-window row limit (`None` = unbounded).
    pub window: Option<u64>,
    /// Whether the server runs with a data directory (write-ahead log on).
    pub durable: bool,
    /// Rows per request: 1 sends `INGEST`, more sends `INGEST_BATCH`.
    pub batch: usize,
    /// Requests at [`NOMINAL_SECONDS`]; ignored when `pacing` fixes the rate.
    pub requests: usize,
    /// `Some` makes the workload open-loop on a fixed schedule; `None` is a
    /// closed loop of one client.
    pub pacing: Option<Pacing>,
}

/// The matrix. Order is the order of every report.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "nba_batch",
        why: "discover + rank dominate (wire/table/WAL about 1 %): lattice or ranking changes must show here, serve/WAL changes must not; memory grows",
        stream: StreamKind::Nba,
        d_hat: 3,
        m_hat: 3,
        keep_top: Some(8),
        window: None,
        durable: false,
        batch: 32,
        requests: 960,
        pacing: None,
    },
    Spec {
        name: "nba_window",
        why: "same schema under window=400: most time goes to Discovery::retract and Table::retract_prefix, so discover and retract trade off here; memory must plateau",
        stream: StreamKind::Nba,
        d_hat: 3,
        m_hat: 3,
        keep_top: Some(8),
        window: Some(400),
        durable: false,
        batch: 8,
        requests: 600,
        pacing: None,
    },
    Spec {
        name: "thin_durable",
        why: "d_hat=m_hat=1 makes the monitor a few us: wire round trip and actor hops do the work; the WAL is written but not fsynced (fsync cost is per-layer only); restart replays the log; algos must not move it",
        stream: StreamKind::Nba,
        d_hat: 1,
        m_hat: 1,
        keep_top: Some(8),
        window: None,
        durable: true,
        batch: 1,
        requests: 64_000,
        pacing: None,
    },
    Spec {
        name: "zipf_paced",
        why: "open loop at a fixed 500 rows/s (rows_per_s is that schedule) plus 200 TOPK/s: high-cardinality skew, full reports (KBs per reply), snapshot reads racing ingest; latency counted from due time",
        stream: StreamKind::Zipf,
        d_hat: 3,
        m_hat: 3,
        keep_top: None,
        window: None,
        durable: false,
        batch: 1,
        requests: 0,
        pacing: Some(Pacing {
            ingest_hz: 500,
            topk_hz: 200,
        }),
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|spec| spec.name == name)
}

impl Spec {
    /// Ingest requests of one run lasting `seconds` at `scale` (1.0 for a
    /// full run, 1/40 for `--smoke`). Never zero.
    pub fn request_count(&self, seconds: f64, scale: f64) -> usize {
        let nominal = match self.pacing {
            Some(pacing) => pacing.ingest_hz as f64 * NOMINAL_SECONDS,
            None => self.requests as f64,
        };
        ((nominal * seconds / NOMINAL_SECONDS * scale).round() as usize).max(1)
    }

    /// The sliding-window limit at `scale`: a `--smoke` stream is far
    /// shorter than the full window, so the window shrinks with it and rows
    /// still expire.
    pub fn window_rows(&self, scale: f64) -> Option<u64> {
        self.window
            .map(|rows| ((rows as f64 * scale).round() as u64).max(1))
    }
}

/// A generated input: the tenant to `OPEN` and the request windows to send.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// Schema + config, sent over the wire so the server builds the tenant
    /// exactly as it does in production.
    pub tenant: TenantSpec,
    /// One entry per request, `spec.batch` rows each.
    pub windows: Vec<Vec<RawRow>>,
}

impl Stream {
    /// Generates the stream of `spec` for `seed`: same seed, same stream.
    /// `scale` only shrinks the tenant's window (see [`Spec::window_rows`]).
    pub fn generate(spec: &Spec, seed: u64, requests: usize, scale: f64) -> Stream {
        let n = requests * spec.batch;
        let (schema, rows) = match spec.stream {
            StreamKind::Nba => {
                let mut gen = NbaGenerator::new(NbaConfig {
                    dimensions: 5,
                    measures: 4,
                    players: 600,
                    teams: 29,
                    seasons: 8,
                    games_per_season: (n / 8).max(1),
                    seed,
                });
                (gen.schema().clone(), gen.take_rows(n))
            }
            StreamKind::Zipf => {
                let mut gen = ZipfGenerator::new(ZipfConfig {
                    dim_cardinalities: vec![5_000, 500, 32, 8, 2_000],
                    exponent: 1.2,
                    measures: 4,
                    seed,
                });
                (gen.schema().clone(), gen.take_rows(n))
            }
        };
        let tenant = TenantSpec {
            name: spec.name.to_string(),
            tau: TAU,
            keep_top: spec.keep_top,
            d_hat: Some(spec.d_hat),
            m_hat: Some(spec.m_hat),
            window: spec.window_rows(scale),
            dims: schema.dimension_names().to_vec(),
            measures: schema
                .measures()
                .iter()
                .map(|m| (m.name.clone(), m.direction))
                .collect(),
        };
        let mut rows = rows.into_iter().map(|row| RawRow {
            dims: row.dims,
            measures: row.measures,
        });
        let windows = (0..requests)
            .map(|_| rows.by_ref().take(spec.batch).collect())
            .collect();
        Stream { tenant, windows }
    }

    /// Total rows across all requests.
    pub fn rows(&self) -> usize {
        self.windows.iter().map(Vec::len).sum()
    }

    /// The wire request for window `i`.
    pub fn request(&self, i: usize) -> Request {
        let window = &self.windows[i];
        if window.len() == 1 {
            Request::Ingest(window[0].clone())
        } else {
            Request::IngestBatch(window.clone())
        }
    }

    /// Fingerprint of every generated value, for the same-seed test and the
    /// run record.
    pub fn fingerprint(&self) -> u64 {
        let mut hasher = FxHasher::default();
        for row in self.windows.iter().flatten() {
            for dim in &row.dims {
                hasher.write(dim.as_bytes());
                hasher.write_u8(b'\t');
            }
            for measure in &row.measures {
                hasher.write_u64(measure.to_bits());
            }
        }
        hasher.finish()
    }
}

/// The schema and monitor configuration the server derives from a tenant
/// spec on `OPEN` (same relation name, attribute order and caps), for the
/// in-process reference monitor and the traced mirror.
pub fn monitor_parts(tenant: &TenantSpec) -> Result<(Schema, MonitorConfig), SitFactError> {
    let mut builder = SchemaBuilder::new(&tenant.name);
    for dim in &tenant.dims {
        builder = builder.dimension(dim);
    }
    for (measure, direction) in &tenant.measures {
        builder = builder.measure(measure, *direction);
    }
    let schema = builder.build()?;
    let config = MonitorConfig {
        discovery: DiscoveryConfig::capped(
            tenant.d_hat.map_or(tenant.dims.len(), |d| d as usize),
            tenant.m_hat.map_or(tenant.measures.len(), |m| m as usize),
        ),
        tau: tenant.tau,
        keep_top: tenant.keep_top.map(|k| k as usize),
    };
    Ok((schema, config))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for spec in &WORKLOADS {
            let a = Stream::generate(spec, 42, 20, 1.0);
            let b = Stream::generate(spec, 42, 20, 1.0);
            let c = Stream::generate(spec, 43, 20, 1.0);
            assert_eq!(a, b, "{}", spec.name);
            assert_eq!(a.fingerprint(), b.fingerprint());
            assert_ne!(a.fingerprint(), c.fingerprint(), "{}", spec.name);
            assert_eq!(a.rows(), 20 * spec.batch);
        }
    }

    #[test]
    fn request_counts_scale_with_seconds_and_never_reach_zero() {
        let batch = find("nba_batch").unwrap();
        assert_eq!(batch.request_count(10.0, 1.0), 960);
        assert_eq!(batch.request_count(5.0, 1.0), 480);
        assert_eq!(batch.request_count(10.0, 1.0 / 40.0), 24);
        let paced = find("zipf_paced").unwrap();
        assert_eq!(paced.request_count(10.0, 1.0), 5_000);
        assert_eq!(paced.request_count(1.0, 1e-9), 1);
        assert!(find("nope").is_none());
        let window = find("nba_window").unwrap();
        assert_eq!(window.window_rows(1.0), Some(400));
        assert_eq!(window.window_rows(1.0 / 40.0), Some(10));
        assert_eq!(batch.window_rows(1.0), None);
    }

    #[test]
    fn single_row_windows_become_ingest_requests() {
        let thin = Stream::generate(find("thin_durable").unwrap(), 1, 3, 1.0);
        assert!(matches!(thin.request(0), Request::Ingest(_)));
        let batch = Stream::generate(find("nba_batch").unwrap(), 1, 3, 1.0);
        match batch.request(2) {
            Request::IngestBatch(rows) => assert_eq!(rows.len(), 32),
            other => panic!("expected INGEST_BATCH, got {other:?}"),
        }
    }
}
