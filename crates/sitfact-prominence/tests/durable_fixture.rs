//! Golden on-disk state: a durable tenant written by an earlier build must
//! recover, byte for byte, under this one.
//!
//! Each `tests/fixtures/durable-v*/` is the same windowed, snapshotted NBA
//! tenant as one generation of the on-disk layout left it: its newest
//! snapshot covers log segments that are retired — so the snapshot is the
//! only copy of that state — and the active segment holds a suffix of
//! windows behind it plus a torn frame. The log layout is the same in every
//! generation; the snapshots differ:
//!
//! * `durable-v1/` stores every cell entry with the entry's measures (the
//!   cell layout before id-only cells) and the posting lists compressed;
//! * `durable-v2/` stores id-only cells and the posting lists compressed;
//! * `durable-v3/` stores id-only cells and an empty list count per
//!   dimension (the index is rebuilt from the table's columns);
//! * `durable-v4/` is `durable-v3/` with each cell's ids in ascending order,
//!   the cell order of the store that keeps a tuple once per row — what
//!   this build writes. Its other files are `durable-v3/`'s, byte for byte.
//!
//! Recovery parses past stored posting lists and rebuilds the index.
//! `expected.txt` is the fingerprint (recovery report, last report, stats)
//! the writing build recovered, except for its `postings` field: those
//! counters describe the index of the build that reads the fixture, so they
//! equal a never-crashed tenant's.
//!
//! Each generation was written by the ignored `generate_fixture` below, run
//! at the build whose layout it records; a fixture is never regenerated by a
//! later one, and `this_build_writes_the_newest_generation` pins that the
//! current build still writes the newest one byte for byte.
#![allow(
    clippy::unwrap_used,
    clippy::panic,
    reason = "test code: a failed unwrap is a failed test"
)]

use sitfact_algos::STopDown;
use sitfact_core::{DiscoveryConfig, RawRow, SitFactError};
use sitfact_datagen::nba::{nba_schema, NbaConfig, NbaGenerator};
use sitfact_datagen::DataGenerator;
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

/// The fixture generation `durable-v{version}/`.
fn fixture_dir(version: u32) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/fixtures/durable-v{version}"))
}

/// Every fixture generation, oldest first.
fn generations() -> Vec<u32> {
    let mut found: Vec<u32> = std::fs::read_dir(fixture_dir(1).parent().unwrap())
        .unwrap()
        .filter_map(|entry| {
            let name = entry.unwrap().file_name().into_string().unwrap();
            name.strip_prefix("durable-v")?.parse().ok()
        })
        .collect();
    found.sort_unstable();
    found
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
fn stream(rows: usize) -> Vec<RawRow> {
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
fn ingest(monitor: &mut Tenant, rows: &[RawRow]) -> Vec<ArrivalReport> {
    let mut reports = Vec::new();
    for window in rows.chunks(BATCH) {
        reports.extend(monitor.ingest_rows(window).unwrap());
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

/// A private copy of a fixture generation: recovery truncates the torn
/// tail.
fn copy_fixture(version: u32, tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sitfact-durable-v{version}-{tag}-{}",
        std::process::id()
    ));
    copy_tenant(&fixture_dir(version), &dir);
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
fn every_fixture_recovers_to_its_fingerprint() {
    let versions = generations();
    assert_eq!(versions, [1, 2, 3, 4]);
    let rows = stream(WRITTEN + 48);
    let mut reference = tenant();
    ingest(&mut reference, &rows[..WRITTEN]);
    let continued = ingest(&mut reference, &rows[WRITTEN..]);
    for version in versions {
        let dir = copy_fixture(version, "recover");
        let (mut recovered, recovery) = open(&dir).unwrap();
        assert!(recovery.snapshot_rows > 0, "v{version}: {recovery:?}");
        assert!(recovery.dropped_bytes > 0, "v{version}: {recovery:?}");
        let expected = std::fs::read_to_string(fixture_dir(version).join("expected.txt")).unwrap();
        assert_eq!(fingerprint(&recovery, &recovered), expected, "v{version}");

        // The restored store is the store: the recovered tenant keeps
        // reporting exactly what a tenant that never stopped reports.
        let mut never_stopped = tenant();
        ingest(&mut never_stopped, &rows[..WRITTEN]);
        assert_eq!(
            recovered.stats().postings,
            never_stopped.stats().postings,
            "v{version}"
        );
        assert_eq!(
            ingest(&mut recovered, &rows[WRITTEN..]),
            continued,
            "v{version}"
        );
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The newest generation is what this build writes: the same files, byte
/// for byte, fingerprint included.
#[test]
fn this_build_writes_the_newest_generation() {
    let newest = *generations().last().unwrap();
    let dir = std::env::temp_dir().join(format!("sitfact-durable-write-{}", std::process::id()));
    write_fixture(&dir);
    let names = |dir: &Path| {
        let mut names: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        names.sort();
        names
    };
    let golden = fixture_dir(newest);
    assert_eq!(names(&dir), names(&golden));
    for name in names(&golden) {
        let (written, pinned) = (
            std::fs::read(dir.join(&name)).unwrap(),
            std::fs::read(golden.join(&name)).unwrap(),
        );
        assert!(
            written == pinned,
            "{name:?} differs from durable-v{newest}/"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Where the fields of the fixture snapshot sit in its frame payload.
struct Layout {
    payload: Vec<u8>,
    /// The state blob: `table cells`.
    blob_at: usize,
    /// The table's dims and measures columns.
    dims_at: usize,
    measures_at: usize,
    /// The old-layout cells: `ncells cell*`.
    cells_at: usize,
    /// The id of the first row the columns hold, and the measures per row.
    first_row: usize,
    n_measures: usize,
}

fn layout(path: &Path) -> Layout {
    let bytes = std::fs::read(path).unwrap();
    let payload = ByteCursor::new(&bytes).frame(bytes.len()).unwrap().to_vec();

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
    // blob := table cells, and table := schema len evicted watermark dims
    // measures postings. Re-encoding the decoded table writes the same
    // schema and columns, then one empty list count per dimension.
    let blob_at = payload.len() - cur.remaining();
    let table = wal::decode_table(&mut cur).unwrap();
    let cells_at = payload.len() - cur.remaining();
    let mut reencoded = Vec::new();
    wal::encode_table(&table, &mut reencoded).unwrap();
    let (n_dims, n_measures) = (
        table.schema().num_dimensions(),
        table.schema().num_measures(),
    );
    let physical = table.len() - table.evicted_rows();
    let measures_at = blob_at + reencoded.len() - 4 * n_dims - 8 * physical * n_measures;
    Layout {
        payload,
        blob_at,
        dims_at: measures_at - 4 * physical * n_dims,
        measures_at,
        cells_at,
        first_row: table.evicted_rows(),
        n_measures,
    }
}

/// `(at, value)` of each field of the first old-layout cell with an entry
/// and a bound constraint value — its `nvalues`, that bound value and its
/// `subspace` — and every id the cells store.
fn walk_cells(layout: &Layout) -> ([(usize, u32); 3], Vec<u32>) {
    let payload = &layout.payload;
    let mut cur = ByteCursor::new(&payload[layout.cells_at..]);
    let at = |cur: &ByteCursor<'_>| payload.len() - cur.remaining();
    let ncells = cur.get_u32().unwrap();
    assert_ne!(ncells, u32::MAX, "the fixture holds old-layout cells");
    let (mut found, mut stored) = (None, Vec::new());
    for _ in 0..ncells {
        let nvalues = (at(&cur), cur.get_u32().unwrap());
        let mut bound = None;
        for _ in 0..nvalues.1 {
            let value = (at(&cur), cur.get_u32().unwrap());
            bound = bound.or((value.1 != sitfact_core::UNBOUND).then_some(value));
        }
        let subspace = (at(&cur), cur.get_u32().unwrap());
        let before = stored.len();
        for _ in 0..cur.get_u32().unwrap() {
            stored.push(cur.get_u32().unwrap());
            for _ in 0..cur.get_u32().unwrap() {
                cur.get_f64().unwrap();
            }
        }
        if let (None, Some(bound), true) = (found, bound, stored.len() > before) {
            found = Some([nvalues, bound, subspace]);
        }
    }
    (found.unwrap(), stored)
}

/// Writes `bytes` over the fixture snapshot's payload at `at` and checks the
/// snapshot is refused twice with a typed parse error naming `what`: by
/// `restore_durable` on its blob, and by recovery once framed again (the
/// retired log cannot stand in for it).
fn refused(tag: &str, at: usize, bytes: &[u8], what: &str) {
    let dir = copy_fixture(1, tag);
    let path = snapshot_path(&dir);
    let mut layout = layout(&path);
    layout.payload[at..at + bytes.len()].copy_from_slice(bytes);

    let mut restored = monitor();
    match restored.restore_durable(&layout.payload[layout.blob_at..]) {
        Err(SitFactError::Parse(message)) => assert!(message.contains(what), "{message}"),
        other => panic!("{tag}: expected a typed parse error, got {other:?}"),
    }
    let mut framed = Vec::new();
    wal::write_frame(&mut framed, &layout.payload, wal::MAX_WAL_FRAME).unwrap();
    std::fs::write(&path, framed).unwrap();
    match open(&dir) {
        Err(SitFactError::Parse(_)) => {}
        Err(other) => panic!("{tag}: expected a typed parse error, got {other:?}"),
        Ok((_, recovery)) => panic!("{tag}: recovered from a corrupt snapshot: {recovery:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_measure_in_an_old_layout_cell_is_a_typed_error() {
    let layout = layout(&snapshot_path(&fixture_dir(1)));
    // Old layout: ncells, then the first cell's nvalues, values, subspace,
    // nentries, and its first entry's id and nmeasures.
    let mut cur = ByteCursor::new(&layout.payload[layout.cells_at..]);
    assert_ne!(cur.get_u32().unwrap(), u32::MAX, "old-layout cells");
    let nvalues = cur.get_u32().unwrap() as usize;
    let measure_at = layout.cells_at + 4 * (1 + 1 + nvalues + 1 + 1 + 1 + 1);
    let flipped = layout.payload[measure_at] ^ 0x01;
    refused("flip", measure_at, &[flipped], "measures");
}

/// A snapshot restores only a state an append could have built: each field
/// below, tampered alone in a validly framed snapshot, is refused.
#[test]
fn a_cell_append_could_not_have_built_is_a_typed_error() {
    let layout = layout(&snapshot_path(&fixture_dir(1)));
    let ([(nvalues_at, nvalues), (bound_at, bound), (subspace_at, _)], _) = walk_cells(&layout);
    refused(
        "arity",
        nvalues_at,
        &(nvalues + 1).to_le_bytes(),
        "dimensions",
    );
    refused("member", bound_at, &(bound ^ 1).to_le_bytes(), "member");
    refused(
        "subspace-empty",
        subspace_at,
        &0u32.to_le_bytes(),
        "subspace",
    );
    // The fixture's schema has two measures: bit 2 names none.
    refused(
        "subspace-past",
        subspace_at,
        &0b100u32.to_le_bytes(),
        "subspace",
    );
}

#[test]
fn a_table_append_could_not_have_built_is_a_typed_error() {
    let layout = layout(&snapshot_path(&fixture_dir(1)));
    // A row no cell stores: an old-layout cell entry repeats its row's
    // measures, and would refuse a changed one on its own.
    let (_, stored) = walk_cells(&layout);
    let row = (layout.first_row..)
        .find(|id| !stored.contains(&u32::try_from(*id).unwrap()))
        .unwrap();
    let measure_at = layout.measures_at + 8 * layout.n_measures * (row - layout.first_row);
    refused("nan", measure_at, &f64::NAN.to_le_bytes(), "non-finite");
    refused(
        "infinite",
        measure_at,
        &f64::INFINITY.to_le_bytes(),
        "non-finite",
    );
    refused(
        "dictionary",
        layout.dims_at,
        &u32::MAX.to_le_bytes(),
        "dictionary",
    );
}

/// Writes the fixture tenant to a fresh `dir`: the stream, left with a torn
/// frame behind the last acknowledged window, and the fingerprint a
/// recovery of a copy of it reads.
fn write_fixture(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    {
        let (mut monitor, _) = open(dir).unwrap();
        ingest(&mut monitor, &stream(WRITTEN));
    }
    // A torn frame behind the last acknowledged window: a length and half a
    // checksum, as a crash mid-append leaves them.
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
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
    copy_tenant(dir, &recovered);
    let (monitor, recovery) = open(&recovered).unwrap();
    std::fs::write(dir.join("expected.txt"), fingerprint(&recovery, &monitor)).unwrap();
    drop(monitor);
    let _ = std::fs::remove_dir_all(&recovered);
}

/// Writes a fresh fixture generation to a temporary directory and prints
/// where. Run at the build whose on-disk layout the generation records:
/// `cargo test -p sitfact-prominence --test durable_fixture -- --ignored`.
#[test]
#[ignore = "generates a fixture generation; never rerun for an existing one"]
fn generate_fixture() {
    let dir = std::env::temp_dir().join("sitfact-durable-fixture");
    write_fixture(&dir);
    println!("fixture written to {}", dir.display());
}
