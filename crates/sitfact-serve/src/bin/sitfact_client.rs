//! Demo / smoke-test client: stream synthetic NBA box scores into a running
//! `sitfact_serve` and print what comes back.
//!
//! ```text
//! sitfact_client (--addr HOST:PORT | --port-file PATH) [--wait-secs 30]
//!                [--n 48] [--batch 16] [--dims 5] [--measures 4] [--seed 7]
//!                [--topk 3] [--tenant NAME] [--tau 100]
//!                [--assert-facts] [--state-out PATH] [--state-expect PATH]
//!                [--shutdown]
//! ```
//!
//! Any other `--flag` is refused with this list. With `--port-file` the client polls for the file the server writes after
//! binding (see `sitfact_serve --port-file`), so scripts need no fixed port.
//! With `--tenant NAME` the client first `OPEN`s a private tenant monitor of
//! that name (NBA demo schema at this client's `--dims`/`--measures` arity,
//! threshold `--tau`) and `USE`s it, so several clients can stream into one
//! server without sharing state. `--assert-facts` exits non-zero unless at
//! least one report carried facts — the CI smoke step's success criterion.
//! `--n 0` streams nothing and only queries, for inspecting a server's
//! existing state. `--state-out PATH` writes a fingerprint of the current
//! tenant's `TOPK` + `STATS` after streaming; `--state-expect PATH` exits
//! non-zero unless the live state matches a previously written fingerprint —
//! together they are how the CI `wal-smoke` step asserts a SIGKILLed durable
//! server recovers exactly the state it acknowledged. `--shutdown` asks the
//! server to exit afterwards.

use sitfact_datagen::nba::{nba_dimension_names, nba_measure_names, NbaConfig, NbaGenerator};
use sitfact_datagen::DataGenerator;
use sitfact_serve::cli::{flag_value, has_flag, parsed, reject_unknown};
use sitfact_serve::{Client, RawRow, TenantSpec};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Every flag this binary reads.
const FLAGS: &[&str] = &[
    "--addr",
    "--port-file",
    "--wait-secs",
    "--n",
    "--batch",
    "--dims",
    "--measures",
    "--seed",
    "--topk",
    "--tenant",
    "--tau",
    "--assert-facts",
    "--state-out",
    "--state-expect",
    "--shutdown",
];

/// Resolves the server address: `--addr` directly, or by polling the
/// `--port-file` the server writes once bound.
fn resolve_addr(args: &[String]) -> Result<String, Box<dyn std::error::Error>> {
    if let Some(addr) = flag_value(args, "--addr") {
        return Ok(addr.to_string());
    }
    let path = flag_value(args, "--port-file")
        .ok_or("pass --addr HOST:PORT or --port-file PATH (see --help in the source)")?;
    let wait_secs: u64 = parsed(args, "--wait-secs", 30)?;
    let deadline = Instant::now() + Duration::from_secs(wait_secs);
    loop {
        match std::fs::read_to_string(path) {
            Ok(addr) if !addr.trim().is_empty() => return Ok(addr.trim().to_string()),
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            _ => return Err(format!("server never wrote {path} within {wait_secs}s").into()),
        }
    }
}

/// Runs the binary; a startup or run failure prints through `Display` and
/// exits 1.
fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("sitfact_client: {err}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    reject_unknown(&args, FLAGS)?;
    let n: usize = parsed(&args, "--n", 48)?;
    let batch: usize = parsed(&args, "--batch", 16)?.max(1);
    let dims: usize = parsed(&args, "--dims", 5)?;
    let measures: usize = parsed(&args, "--measures", 4)?;
    let seed: u64 = parsed(&args, "--seed", 7)?;
    let topk: usize = parsed(&args, "--topk", 3)?;

    let addr = resolve_addr(&args)?;
    let mut client = Client::connect(addr.as_str())?;
    client.ping()?;
    println!("connected to sitfact-serve at {addr}");

    if let Some(tenant) = flag_value(&args, "--tenant") {
        // A private monitor for this client: the NBA demo schema at our
        // arity, named after the tenant so STATS shows who answered.
        let tau: f64 = parsed(&args, "--tau", 100.0)?;
        let spec = TenantSpec::new(
            tenant,
            &nba_dimension_names(dims),
            &nba_measure_names(measures),
            tau,
        );
        client.open(&spec)?;
        client.use_tenant(tenant)?;
        println!("opened and switched to tenant {tenant:?}");
    }

    let mut reports = Vec::with_capacity(n);
    if n > 0 {
        // Rows only need to match the server's schema *arity*; the server
        // interns the strings. Same generator family as the server's demo
        // schema.
        let mut generator = NbaGenerator::new(NbaConfig {
            dimensions: dims,
            measures,
            players: 60,
            teams: 8,
            seasons: 2,
            games_per_season: n,
            seed,
        });
        // First row through the per-arrival path, the rest through batched
        // windows — exercising both wire verbs.
        let first = generator.next_row();
        reports.push(client.ingest(&first.dims, &first.measures)?);
        let mut pending: Vec<RawRow> = Vec::with_capacity(batch);
        for _ in 1..n {
            pending.push(generator.next_row());
            if pending.len() == batch {
                reports.extend(client.ingest_batch(std::mem::take(&mut pending))?);
            }
        }
        if !pending.is_empty() {
            reports.extend(client.ingest_batch(pending)?);
        }
    }

    let total_facts: usize = reports.iter().map(|r| r.facts.len()).sum();
    let prominent_arrivals = reports.iter().filter(|r| r.prominent_count > 0).count();
    let max_prominence = reports
        .iter()
        .filter_map(|r| r.max_prominence())
        .fold(0.0f64, f64::max);
    let stats = client.stats()?;
    println!(
        "streamed {} rows → {} reports, {total_facts} facts, \
         {prominent_arrivals} prominent arrivals, max prominence {max_prominence:.1}",
        n,
        reports.len()
    );
    println!(
        "server stats: len={} schema={} τ={} keep_top={:?} anchor={:?}",
        stats.len, stats.schema, stats.tau, stats.keep_top, stats.anchor_dim
    );
    let top = client.top_k(topk)?;
    println!("top-{topk} of the last arrival: {} facts", top.facts.len());

    if has_flag(&args, "--assert-facts") && total_facts == 0 {
        return Err("smoke assertion failed: no report carried any fact".into());
    }
    if n > 0 && (reports.len() != n || stats.len as usize != n) {
        return Err(format!(
            "smoke assertion failed: sent {n} rows but got {} reports / server len {}",
            reports.len(),
            stats.len
        )
        .into());
    }
    // The fingerprint is the Debug rendering of the top-k report + the full
    // server stats — any drift in recovered state (facts, counters, WAL
    // accounting) changes it.
    let fingerprint = format!("{top:?}\n{stats:?}\n");
    if let Some(path) = flag_value(&args, "--state-out") {
        std::fs::write(path, &fingerprint)?;
        println!("wrote state fingerprint to {path}");
    }
    if let Some(path) = flag_value(&args, "--state-expect") {
        let expected = std::fs::read_to_string(path)?;
        if expected != fingerprint {
            return Err(format!(
                "state drift against {path}:\nexpected: {expected}got:      {fingerprint}"
            )
            .into());
        }
        println!("server state matches the fingerprint in {path}");
    }
    if has_flag(&args, "--shutdown") {
        client.shutdown()?;
        println!("asked the server to shut down");
    }
    Ok(())
}
