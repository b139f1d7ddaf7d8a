//! A seeded mutation test of every decoder behind the codec headers: bytes
//! that a real durable tenant and a real client wrote, cut at every length
//! and flipped at a fixed seeded set of positions, must decode to `Ok` or to
//! a typed `Err`. A panic anywhere fails the test, naming the input, the
//! mutation and the seed.
//!
//! The inputs come from one seeded NBA stream (200 rows, `STopDown`, a
//! 48-row window, one snapshot): a WAL segment, an `export_durable` blob, a
//! snapshot file, and one encoded payload of each `Request` and `Response`
//! variant. Where a frame guards a payload, the mutated payload is framed
//! again with a valid checksum, so the flips reach the decoders behind the
//! frame check.
#![allow(
    clippy::unwrap_used,
    clippy::panic,
    reason = "test code: a failed unwrap is a failed test"
)]

use rand::prelude::*;
use situational_facts::algos::STopDown;
use situational_facts::core::{Constraint, Direction, DiscoveryConfig, SkylinePair, SubspaceMask};
use situational_facts::datagen::nba::{nba_schema, NbaConfig, NbaGenerator};
use situational_facts::datagen::DataGenerator;
use situational_facts::prominence::{
    ArrivalPipeline, ArrivalReport, FactMonitor, MonitorConfig, RankedFact, Served, WalOptions,
    WindowPolicy,
};
use situational_facts::serve::{RawRow, Request, Response, ServerStats, TenantSpec};
use situational_facts::storage::wal::{self, WindowRecord};
use situational_facts::storage::SyncPolicy;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// The seed of the stream and of the flip positions.
const SEED: u64 = 2014;
/// Rows the tenant ingests, in windows of `BATCH`.
const ROWS: usize = 200;
const BATCH: usize = 8;
/// The tenant's sliding window.
const WINDOW: usize = 48;
/// Byte flips per input.
const FLIPS: usize = 200;

fn monitor() -> FactMonitor<STopDown> {
    let schema = nba_schema(4, 2);
    let config = MonitorConfig::default()
        .with_tau(2.0)
        .with_keep_top(4)
        .with_discovery(DiscoveryConfig::capped(2, 2));
    let algo = STopDown::new(&schema, config.discovery);
    FactMonitor::new(schema, algo, config)
}

/// The tenant's sliding window: the snapshot carries retraction bounds.
fn window() -> WindowPolicy {
    WindowPolicy::count(WINDOW).unwrap()
}

fn options() -> WalOptions {
    WalOptions::default()
        .with_sync(SyncPolicy::Os)
        .with_snapshot_every(128)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sitfact-decoder-mutations-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The one file of `dir` with extension `ext`.
fn only_file(dir: &Path, ext: &str) -> PathBuf {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|e| e == ext))
        .collect();
    assert_eq!(found.len(), 1, "{found:?}");
    found.pop().unwrap()
}

/// Writes the durable tenant: `(WAL segment, export_durable blob, snapshot
/// file name, snapshot file)`.
fn durable_inputs(dir: &Path) -> (Vec<u8>, Vec<u8>, PathBuf, Vec<u8>) {
    let (mut tenant, _) = ArrivalPipeline::new(monitor(), window())
        .open_log(dir, options())
        .unwrap();
    let rows = NbaGenerator::new(NbaConfig {
        dimensions: 4,
        measures: 2,
        players: 30,
        teams: 6,
        seasons: 2,
        games_per_season: 150,
        seed: SEED,
    })
    .take_rows(ROWS);
    for window in rows.chunks(BATCH) {
        tenant.ingest_rows(window).unwrap();
    }
    let Served::Plain(plain) = tenant.inner() else {
        panic!("the tenant is unsharded");
    };
    let blob = plain.export_durable().unwrap().unwrap();
    drop(tenant);
    let segment = std::fs::read(only_file(dir, "log")).unwrap();
    let snapshot = only_file(dir, "snap");
    let bytes = std::fs::read(&snapshot).unwrap();
    (segment, blob, snapshot.file_name().unwrap().into(), bytes)
}

/// Runs `decode` on `input`, failing the test with the mutation's name if
/// it panics; whatever it returns is fine.
fn no_panic<T>(input: &str, mutation: &str, decode: impl FnOnce() -> T) {
    let outcome = catch_unwind(AssertUnwindSafe(decode));
    assert!(
        outcome.is_ok(),
        "{input}: decoding after {mutation} panicked (seed {SEED})"
    );
}

/// `FLIPS` seeded `(position, mask)` flips of a `len`-byte input; a mask
/// below `0x80` keeps an ASCII byte ASCII.
fn flips(rng: &mut StdRng, len: usize) -> Vec<(usize, u8)> {
    (0..FLIPS)
        .map(|_| (rng.gen_range(0..len), rng.gen_range(1..0x80u8)))
        .collect()
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut framed = Vec::new();
    wal::write_frame(&mut framed, payload, usize::MAX).unwrap();
    framed
}

/// The log segment: every truncation of each window payload reaches
/// `WindowRecord::decode`, and every flip reaches `scan_log` with the
/// flipped window framed again.
fn mutate_segment(rng: &mut StdRng, segment: &[u8]) {
    let (payloads, end) = wal::scan_frames(segment);
    assert_eq!(end, segment.len());
    assert_eq!(payloads.len(), ROWS / BATCH);
    for (at, payload) in payloads.iter().enumerate() {
        for cut in 0..payload.len() {
            no_panic(
                "WAL window",
                &format!("cutting window {at} to {cut}"),
                || WindowRecord::decode(&payload[..cut]),
            );
        }
    }
    let dir = temp_dir("segment");
    let path = dir.join("wal-0000000000.log");
    for _ in 0..FLIPS {
        let window = rng.gen_range(0..payloads.len());
        let at = rng.gen_range(0..payloads[window].len());
        let mask = rng.gen_range(1..0x80u8);
        let mut framed = Vec::new();
        for (i, payload) in payloads.iter().enumerate() {
            let mut payload = payload.to_vec();
            if i == window {
                payload[at] ^= mask;
            }
            framed.extend(frame(&payload));
        }
        std::fs::write(&path, &framed).unwrap();
        let mutation = format!("flipping byte {at} of window {window} by {mask:#x}");
        no_panic("WAL segment", &mutation, || wal::scan_log(&dir));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `export_durable` blob, through `FactMonitor::restore_durable`.
fn mutate_blob(rng: &mut StdRng, blob: &[u8]) {
    monitor().restore_durable(blob).unwrap();
    let mut target = monitor();
    for cut in 0..blob.len() {
        no_panic("state blob", &format!("cutting it to {cut}"), || {
            target.restore_durable(&blob[..cut])
        });
    }
    for (at, mask) in flips(rng, blob.len()) {
        let mut bad = blob.to_vec();
        bad[at] ^= mask;
        no_panic(
            "state blob",
            &format!("flipping byte {at} by {mask:#x}"),
            || monitor().restore_durable(&bad),
        );
    }
}

/// The snapshot file, through `ArrivalPipeline::open_log` over a directory
/// that holds it alone: its payload cut at every length and flipped, each
/// framed again, and its frame header flipped as written.
fn mutate_snapshot(rng: &mut StdRng, name: &Path, file: &[u8]) {
    let mut cursor = wal::ByteCursor::new(file);
    let payload = cursor.frame(file.len()).unwrap();
    let dir = temp_dir("snapshot");
    let open = |bytes: &[u8]| {
        std::fs::write(dir.join(name), bytes).unwrap();
        ArrivalPipeline::new(monitor(), window()).open_log(&dir, options())
    };
    let (recovered, report) = open(file).unwrap();
    assert_eq!(report.snapshot_rows, 128, "{report:?}");
    drop(recovered);
    for cut in 0..payload.len() {
        no_panic("snapshot", &format!("cutting its payload to {cut}"), || {
            open(&frame(&payload[..cut])).map(|(_, report)| report)
        });
    }
    for (at, mask) in flips(rng, file.len()) {
        let mut bad = file.to_vec();
        bad[at] ^= mask;
        // A flip in the 8-byte `len | crc` header stays as written.
        let framed = if at < 8 { bad } else { frame(&bad[8..]) };
        no_panic(
            "snapshot",
            &format!("flipping byte {at} by {mask:#x}"),
            || open(&framed).map(|(_, report)| report),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn requests() -> Vec<Request> {
    let mut spec = TenantSpec::new(
        "league",
        &["player", "team"],
        &[
            ("points", Direction::HigherIsBetter),
            ("fouls", Direction::LowerIsBetter),
        ],
        2.0,
    );
    spec.keep_top = Some(16);
    spec.window = Some(4096);
    vec![
        Request::Ping,
        Request::Stats,
        Request::Shutdown,
        Request::TopK(3),
        Request::Ingest(RawRow::new(&["ann", "east"], &[31.5, 2.0])),
        Request::IngestBatch(vec![
            RawRow::new(&["ann", "east"], &[31.5, 2.0]),
            RawRow::new(&["bo", "west"], &[-0.25, 1e-7]),
        ]),
        Request::Open(spec),
        Request::Use("league".into()),
        Request::Close("league".into()),
    ]
}

fn responses() -> Vec<Response> {
    let fact = |values: Vec<u32>, subspace, context, skyline| RankedFact {
        pair: SkylinePair::new(Constraint::from_values(values), SubspaceMask(subspace)),
        context_size: context,
        skyline_size: skyline,
    };
    let report = ArrivalReport {
        tuple_id: 41,
        facts: vec![
            fact(vec![3, u32::MAX, 7], 0b101, 1200, 2),
            fact(vec![u32::MAX, u32::MAX, 7], 0b001, 9000, 30),
        ],
        prominent_count: 1,
    };
    let stats = ServerStats {
        len: 12,
        tau: 2.5,
        keep_top: Some(8),
        anchor_dim: None,
        sealed_blocks: 0,
        tail_ids: 17,
        compressed_bytes: 68,
        uncompressed_bytes: 68,
        wal_segments: 2,
        wal_bytes: 4096,
        wal_synced: 12,
        wal_retired: 1,
        live_rows: 9,
        tombstones: 1,
        evicted: 2,
        schema: "nba_gamelog".into(),
    };
    vec![
        Response::Pong,
        Response::Bye,
        Response::Ok,
        Response::Stats(stats),
        Response::Report(report.clone()),
        Response::Reports(vec![report.clone(), report]),
        Response::Error {
            kind: "Parse".into(),
            message: "bad row".into(),
        },
    ]
}

/// One wire payload: every cut and `FLIPS` flips through `decode` (a frame
/// carries UTF-8 only, so a flip that breaks it never reaches a decoder).
fn mutate_payload<T>(
    rng: &mut StdRng,
    input: &str,
    payload: &str,
    decode: impl Fn(&str) -> Result<T, situational_facts::serve::ServeError>,
) {
    decode(payload).unwrap();
    for cut in 0..payload.len() {
        no_panic(input, &format!("cutting it to {cut}"), || {
            decode(&payload[..cut])
        });
    }
    for (at, mask) in flips(rng, payload.len()) {
        let mut bad = payload.as_bytes().to_vec();
        bad[at] ^= mask;
        if let Ok(bad) = String::from_utf8(bad) {
            no_panic(input, &format!("flipping byte {at} by {mask:#x}"), || {
                decode(&bad)
            });
        }
    }
}

#[test]
fn every_decoder_survives_cuts_and_seeded_flips() {
    println!("decoder mutation seed: {SEED}");
    let mut rng = StdRng::seed_from_u64(SEED);
    let dir = temp_dir("tenant");
    let (segment, blob, snapshot_name, snapshot) = durable_inputs(&dir);
    mutate_segment(&mut rng, &segment);
    mutate_blob(&mut rng, &blob);
    mutate_snapshot(&mut rng, &snapshot_name, &snapshot);
    for request in requests() {
        let payload = request.encode().unwrap();
        mutate_payload(&mut rng, &format!("{request:?}"), &payload, Request::decode);
    }
    for response in responses() {
        let payload = response.encode();
        mutate_payload(
            &mut rng,
            &format!("{response:?}"),
            &payload,
            Response::decode,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
