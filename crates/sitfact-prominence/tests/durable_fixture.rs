//! Golden on-disk state: a durable tenant written by an earlier build must
//! recover, byte for byte, under this one.
//!
//! `tests/fixtures/durable-v1/` is a windowed, snapshotted NBA tenant as the
//! build before id-only skyline cells left it: its newest snapshot stores
//! every cell entry with the entry's measures (the old cell layout), the
//! log segments that snapshot covers are retired — so the snapshot is the
//! only copy of that state — and the active segment holds a suffix of
//! windows behind it plus a torn frame. Its snapshot also stores the posting
//! lists in their old compressed layout, which recovery parses past and
//! rebuilds from the table's columns. `expected.txt` is the fingerprint
//! (recovery report, last report, stats) the writing build recovered, except
//! for its `postings` field: those counters describe the index of the build
//! that reads the fixture, so they equal a never-crashed tenant's.
//!
//! The fixture was generated by the ignored `generate_fixture` below, run at
//! that build; a fixture is never regenerated by a later one.
#![allow(
    clippy::unwrap_used,
    reason = "test code: a failed unwrap is a failed test"
)]

use sitfact_algos::STopDown;
use sitfact_core::{DiscoveryConfig, SitFactError, Tuple};
use sitfact_datagen::nba::{nba_schema, NbaConfig, NbaGenerator};
use sitfact_datagen::{DataGenerator, Row};
use sitfact_prominence::{
    ArrivalPipeline, ArrivalReport, FactMonitor, MonitorConfig, RecoveryReport, WalOptions,
    WindowPolicy,
};
use sitfact_storage::wal::{self, ByteCursor};
use sitfact_storage::SyncPolicy;
use std::path::{Path, PathBuf};

/// Rows the fixture's tenant ingested before it was left on disk.
const WRITTEN: usize = 200;
/// Rows per ingest window.
const BATCH: usize = 8;
/// The tenant's sliding window.
const WINDOW: usize = 32;

type Tenant = ArrivalPipeline;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/durable-v1")
}

fn options() -> WalOptions {
    WalOptions::default()
        .with_sync(SyncPolicy::Os)
        .with_snapshot_every(64)
        .with_segment_bytes(4096)
}

fn monitor() -> FactMonitor<STopDown> {
    let schema = nba_schema(4, 2);
    let config = MonitorConfig::default()
        .with_tau(2.0)
        .with_keep_top(4)
        .with_discovery(DiscoveryConfig::capped(2, 2));
    let algo = STopDown::new(&schema, config.discovery);
    FactMonitor::new(schema, algo, config)
}

/// The fixture's tenant, unlogged.
fn tenant() -> Tenant {
    ArrivalPipeline::new(monitor(), WindowPolicy::count(WINDOW).unwrap())
}

/// The fixture's tenant, logged under `dir` and recovered from it.
fn open(dir: &Path) -> sitfact_core::Result<(Tenant, RecoveryReport)> {
    tenant().open_log(dir, options())
}

/// The seeded stream the fixture's tenant was fed, and its continuation.
fn stream(rows: usize) -> Vec<Row> {
    NbaGenerator::new(NbaConfig {
        dimensions: 4,
        measures: 2,
        players: 30,
        teams: 6,
        seasons: 2,
        games_per_season: 150,
        seed: 2014,
    })
    .take_rows(rows)
}

/// Ingests `rows` window by window; the reports, in arrival order.
fn ingest(monitor: &mut Tenant, rows: &[Row]) -> Vec<ArrivalReport> {
    let mut reports = Vec::new();
    for window in rows.chunks(BATCH) {
        let tuples: Vec<Tuple> = window
            .iter()
            .map(|row| {
                let dims: Vec<&str> = row.dims.iter().map(String::as_str).collect();
                monitor.encode_raw(&dims, row.measures.clone()).unwrap()
            })
            .collect();
        reports.extend(monitor.ingest_batch_slice(&tuples).unwrap());
    }
    reports
}

fn fingerprint(recovery: &RecoveryReport, monitor: &Tenant) -> String {
    format!(
        "{recovery:?}\n{:?}\n{:?}\n",
        monitor.last_report(),
        monitor.stats()
    )
}

/// Copies a tenant directory's log segments and snapshot into a fresh `to`.
fn copy_tenant(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        if path.file_name().unwrap() != "expected.txt" {
            std::fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
        }
    }
}

/// A private copy of the fixture: recovery truncates the torn tail.
fn copy_fixture(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sitfact-durable-v1-{tag}-{}", std::process::id()));
    copy_tenant(&fixture_dir(), &dir);
    dir
}

/// The one snapshot file of a tenant directory.
fn snapshot_path(dir: &Path) -> PathBuf {
    let mut snapshots: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "snap"))
        .collect();
    assert_eq!(snapshots.len(), 1, "{snapshots:?}");
    snapshots.pop().unwrap()
}

#[test]
fn v1_fixture_recovers_to_its_fingerprint() {
    let dir = copy_fixture("recover");
    let (mut recovered, recovery) = open(&dir).unwrap();
    assert!(recovery.snapshot_rows > 0, "{recovery:?}");
    assert!(recovery.dropped_bytes > 0, "{recovery:?}");
    let expected = std::fs::read_to_string(fixture_dir().join("expected.txt")).unwrap();
    assert_eq!(fingerprint(&recovery, &recovered), expected);

    // The restored store is the store: the recovered tenant keeps reporting
    // exactly what a tenant that never stopped reports.
    let rows = stream(WRITTEN + 48);
    let mut reference = tenant();
    ingest(&mut reference, &rows[..WRITTEN]);
    assert_eq!(recovered.stats().postings, reference.stats().postings);
    assert_eq!(
        ingest(&mut recovered, &rows[WRITTEN..]),
        ingest(&mut reference, &rows[WRITTEN..])
    );
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_measure_in_an_old_layout_cell_is_a_typed_error() {
    let dir = copy_fixture("flip");
    let path = snapshot_path(&dir);
    let bytes = std::fs::read(&path).unwrap();
    let (frames, _) = wal::scan_frames(&bytes);
    let mut payload = frames[0].to_vec();

    // payload := covered:u64 1:u8 report blob_len:u32 blob, where
    // report := tuple_id:u64 prominent:u32 nfacts:u32 fact* and
    // fact := nvalues:u32 value:u32* subspace:u32 context:u64 skyline:u64.
    let mut cur = ByteCursor::new(&payload);
    cur.get_u64().unwrap();
    assert_eq!(
        cur.get_u8().unwrap(),
        1,
        "the fixture snapshot carries a report"
    );
    cur.get_u64().unwrap();
    cur.get_u32().unwrap();
    for _ in 0..cur.get_u32().unwrap() {
        for _ in 0..cur.get_u32().unwrap() {
            cur.get_u32().unwrap();
        }
        cur.get_u32().unwrap();
        cur.get_u64().unwrap();
        cur.get_u64().unwrap();
    }
    cur.get_u32().unwrap();
    // blob := table cells.
    let blob_at = payload.len() - cur.remaining();
    wal::decode_table(&mut cur).unwrap();
    let cells_at = payload.len() - cur.remaining();
    // Old layout: ncells, then the first cell's nvalues, values, subspace,
    // nentries, and its first entry's id and nmeasures.
    let ncells = cur.get_u32().unwrap();
    assert_ne!(ncells, u32::MAX, "the fixture holds old-layout cells");
    let nvalues = cur.get_u32().unwrap() as usize;
    let measure_at = cells_at + 4 * (1 + 1 + nvalues + 1 + 1 + 1 + 1);

    let mut blob = payload[blob_at..].to_vec();
    blob[measure_at - blob_at] ^= 0x01;
    let mut restored = monitor();
    match restored.restore_durable(&blob) {
        Err(SitFactError::Parse(message)) => assert!(message.contains("measures"), "{message}"),
        other => panic!("expected a typed parse error, got {other:?}"),
    }

    // Through recovery: the snapshot is refused and the retired log cannot
    // stand in for it, so opening the tenant fails — typed, not a panic.
    payload[measure_at] ^= 0x01;
    let mut framed = Vec::new();
    wal::write_frame(&mut framed, &payload).unwrap();
    std::fs::write(&path, framed).unwrap();
    match open(&dir) {
        Err(SitFactError::Parse(_)) => {}
        Err(other) => panic!("expected a typed parse error, got {other:?}"),
        Ok((_, recovery)) => panic!("recovered from a corrupt snapshot: {recovery:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes a fresh fixture generation to a temporary directory and prints
/// where. Run at the build whose on-disk layout the generation records:
/// `cargo test -p sitfact-prominence --test durable_fixture -- --ignored`.
#[test]
#[ignore = "generates a fixture generation; never rerun for an existing one"]
fn generate_fixture() {
    let dir = std::env::temp_dir().join("sitfact-durable-fixture");
    let _ = std::fs::remove_dir_all(&dir);
    {
        let (mut monitor, _) = open(&dir).unwrap();
        ingest(&mut monitor, &stream(WRITTEN));
    }
    // A torn frame behind the last acknowledged window: a length and half a
    // checksum, as a crash mid-append leaves them.
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "log"))
        .collect();
    segments.sort();
    let active = segments.last().unwrap();
    let mut log = std::fs::read(active).unwrap();
    log.extend_from_slice(&[40, 0, 0, 0, 0xAB, 0xCD]);
    std::fs::write(active, log).unwrap();

    let recovered = dir.with_extension("recovered");
    copy_tenant(&dir, &recovered);
    let (monitor, recovery) = open(&recovered).unwrap();
    std::fs::write(dir.join("expected.txt"), fingerprint(&recovery, &monitor)).unwrap();
    drop(monitor);
    let _ = std::fs::remove_dir_all(&recovered);
    println!("fixture written to {}", dir.display());
}
