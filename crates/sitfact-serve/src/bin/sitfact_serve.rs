//! Demo / smoke-test server: a synthetic-NBA fact monitor behind the framed
//! TCP protocol.
//!
//! ```text
//! sitfact_serve [--addr 127.0.0.1:0] [--port-file PATH] [--shards N]
//!               [--route team] [--tau 100] [--keep-top 16]
//!               [--dims 5] [--measures 4] [--d-hat 3] [--m-hat 3]
//!               [--workers 4] [--owners 4] [--timeout-secs 30]
//!               [--data-dir PATH] [--sync always|os] [--snapshot-every N]
//! ```
//!
//! Any other `--flag` is refused with this list.
//!
//! `--shards 0` (the default) serves an unsharded [`FactMonitor`];
//! `--shards N` serves a [`ShardedMonitor`] routed on `--route`. Both sit
//! behind the same `Box<dyn StreamMonitor>`, which is the whole point: the
//! server code never branches on the deployment shape.
//!
//! `--workers` sizes the connection-handler pool, `--owners` (default: the
//! same) the monitor-owning workers tenants are hashed across.
//! `--timeout-secs` sets both socket timeouts (0 = wait forever).
//!
//! `--data-dir PATH` makes every tenant durable: accepted windows are
//! appended to a per-tenant write-ahead log before they are acknowledged,
//! and restarting against the same directory recovers the default tenant's
//! state (the CI `wal-smoke` step SIGKILLs the process and asserts exactly
//! that). `--sync always` (default) fsyncs each append; `--sync os` leaves
//! flushing to the OS. `--snapshot-every N` takes a full-state snapshot
//! every N rows to bound recovery replay (0 = log-only, the default).
//!
//! The bound address is printed to stdout and, with `--port-file`, written
//! atomically to a file a client can poll — that is how the CI smoke step
//! finds the ephemeral port. The process exits when a client sends
//! `SHUTDOWN`.

use sitfact_algos::STopDown;
use sitfact_core::DiscoveryConfig;
use sitfact_datagen::nba::nba_schema;
use sitfact_prominence::{FactMonitor, MonitorConfig, ShardedMonitor, StreamMonitor};
use sitfact_serve::cli::{flag_value, parsed, reject_unknown};
use sitfact_serve::{FactServer, SyncPolicy, WalOptions};
use std::time::Duration;

/// Every flag this binary reads.
const FLAGS: &[&str] = &[
    "--addr",
    "--port-file",
    "--shards",
    "--route",
    "--tau",
    "--keep-top",
    "--dims",
    "--measures",
    "--d-hat",
    "--m-hat",
    "--workers",
    "--owners",
    "--timeout-secs",
    "--data-dir",
    "--sync",
    "--snapshot-every",
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    reject_unknown(&args, FLAGS)?;
    let addr = flag_value(&args, "--addr")
        .unwrap_or("127.0.0.1:0")
        .to_string();
    let port_file = flag_value(&args, "--port-file").map(str::to_string);
    let shards: usize = parsed(&args, "--shards", 0);
    let route = flag_value(&args, "--route").unwrap_or("team").to_string();
    let tau: f64 = parsed(&args, "--tau", 100.0);
    let keep_top: usize = parsed(&args, "--keep-top", 16);
    let dims: usize = parsed(&args, "--dims", 5);
    let measures: usize = parsed(&args, "--measures", 4);
    let d_hat: usize = parsed(&args, "--d-hat", 3);
    let m_hat: usize = parsed(&args, "--m-hat", 3);
    let workers: usize = parsed(&args, "--workers", FactServer::DEFAULT_WORKERS);
    let owners: usize = parsed(&args, "--owners", workers);
    let timeout_secs: u64 = parsed(&args, "--timeout-secs", 30);
    let timeout = (timeout_secs > 0).then(|| Duration::from_secs(timeout_secs));
    let data_dir = flag_value(&args, "--data-dir").map(str::to_string);
    let sync = match flag_value(&args, "--sync").unwrap_or("always") {
        "always" => SyncPolicy::Always,
        "os" => SyncPolicy::Os,
        other => return Err(format!("--sync: expected always|os, got {other:?}").into()),
    };
    let snapshot_every: u64 = parsed(&args, "--snapshot-every", 0);

    let schema = nba_schema(dims, measures);
    let discovery = DiscoveryConfig::capped(d_hat, m_hat);
    let config = MonitorConfig::default()
        .with_discovery(discovery)
        .with_tau(tau)
        .with_keep_top(keep_top);

    // The one place the deployment shape is decided; everything downstream
    // of this Box is shape-agnostic.
    let monitor: Box<dyn StreamMonitor + Send> = if shards == 0 {
        Box::new(FactMonitor::new(
            schema.clone(),
            STopDown::new(&schema, discovery),
            config,
        ))
    } else {
        Box::new(ShardedMonitor::by_attribute(
            schema,
            &route,
            shards,
            config,
            STopDown::new,
        )?)
    };

    let mut wal = WalOptions::default().with_sync(sync);
    wal = if snapshot_every > 0 {
        wal.with_snapshot_every(snapshot_every)
    } else {
        wal.without_snapshots()
    };
    let mut options = FactServer::builder()
        .with_workers(workers)
        .with_owners(owners)
        .with_read_timeout(timeout)
        .with_write_timeout(timeout)
        .with_wal(wal);
    if let Some(root) = &data_dir {
        options = options.with_data_dir(root);
    }
    let server = options.bind(addr.as_str(), monitor)?;
    let bound = server.local_addr();
    let shape = if shards == 0 {
        "unsharded".to_string()
    } else {
        format!("sharded×{shards} by {route}")
    };
    let durable = match &data_dir {
        Some(root) => format!("wal@{root} sync={}", sync.name()),
        None => "ephemeral".to_string(),
    };
    println!(
        "sitfact-serve listening on {bound} ({shape}, τ={tau}, keep_top={keep_top}, {durable})"
    );
    if let Some(path) = port_file {
        // Write-then-rename so a polling client never reads a torn address.
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, bound.to_string())?;
        std::fs::rename(&tmp, &path)?;
    }
    server.run()?;
    println!("sitfact-serve: shutdown requested, exiting");
    Ok(())
}
