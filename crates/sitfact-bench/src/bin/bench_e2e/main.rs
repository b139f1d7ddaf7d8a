//! `bench_e2e` — the repository's benchmark: one wire row in → one ranked
//! report out, on a fixed four-workload matrix, with a traced per-layer
//! mirror. See `README.md` next to this file for the tables and how to read
//! the output.
//!
//! ```text
//! bench_e2e [--workload NAME] [--seed S] [--seconds N] [--trace 0|1]
//!           [--out-dir DIR] [--smoke] [--repeat K]
//! ```
//!
//! With `--workload` the named workload runs in this process: an untraced
//! served run through a real `FactServer`, then (unless `--trace 0`) a traced
//! mirror run over the same stream. Every metric is printed as
//! `workload metric value unit`, and the last line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end metrics
//! for `--trace 0`, the per-layer metrics for `--trace 1`, both without
//! `--trace`. Without `--workload` the whole matrix runs, one re-executed
//! child process per workload so that `peak_rss_mb` is per workload.
//! `--repeat K` runs the matrix `K` times and fails when the repeats
//! disagree by more than the benchmark's own bounds.
//!
//! The exit code is non-zero when any operation failed, any output check
//! mismatched, or a repeat disagreed.

mod loadgen;
mod metrics;
mod mirror;
mod served;
mod stats;
mod trace;
mod workload;

use metrics::{END_TO_END, PER_LAYER};
use served::{RunConfig, Tally};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workload::{Spec, NOMINAL_SECONDS, WORKLOADS};

/// `--smoke` shrinks every workload to this share of its size.
const SMOKE_SCALE: f64 = 1.0 / 40.0;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out_dir: PathBuf,
    smoke: bool,
    repeat: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            workload: None,
            seed: 42,
            seconds: NOMINAL_SECONDS,
            trace: None,
            out_dir: PathBuf::from("target/bench_e2e"),
            smoke: false,
            repeat: 1,
        }
    }
}

const USAGE: &str = "usage: bench_e2e [--workload NAME] [--seed S] [--seconds N] \
[--trace 0|1] [--out-dir DIR] [--smoke] [--repeat K]";

/// Strict parsing: an unknown flag or an unparsable value is an error, never
/// a silent fall-back to the default.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            options.smoke = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                workload::find(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?;
                options.workload = Some(value.clone());
            }
            "--seed" => options.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                options.seconds = value.parse().map_err(|_| bad())?;
                if !(options.seconds > 0.0 && options.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                options.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--out-dir" => options.out_dir = PathBuf::from(value),
            "--repeat" => {
                options.repeat = value.parse().map_err(|_| bad())?;
                if options.repeat == 0 {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    Ok(options)
}

/// What one workload run produced.
struct Report {
    /// One value per [`END_TO_END`] entry, in that order.
    end_to_end: Vec<f64>,
    /// One value per [`PER_LAYER`] entry, in that order (traced runs).
    per_layer: Option<Vec<f64>>,
    tally: Tally,
    /// `# key=value` context lines: sample counts, fingerprints, the
    /// quantile the p99 columns really stand for.
    notes: Vec<String>,
}

/// Runs one workload in this process.
fn run_workload(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    scale: f64,
    traced: bool,
    out_dir: &Path,
) -> Result<Report, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let config = RunConfig {
        spec,
        seed,
        requests: spec.request_count(seconds, scale),
        scale,
        out_dir,
        probes: traced,
    };
    let (mut served, stream) = served::run(&config).map_err(|e| format!("served run: {e}"))?;
    let mut tally = std::mem::take(&mut served.tally);
    served::check_prefix(&stream, &served.prefix, &mut tally);

    let samples = served.timeline.latency_ns.len();
    let (_, p99_quantile) =
        stats::tail_percentile(&stats::sorted(served.timeline.latency_ns.clone()), 0.99);
    let p95_quantile = metrics::steady(&served.timeline).p95_quantile;
    let mut notes = vec![
        format!("seed={seed}"),
        format!("seconds={seconds}"),
        format!("nproc={}", nproc()),
        format!("requests={}", stream.windows.len()),
        format!("rows={}", stream.rows()),
        format!("stream_fingerprint={:016x}", stream.fingerprint()),
        format!("latency_samples={samples}"),
        format!("segments={}", metrics::SEGMENTS.min(samples)),
        format!("latency_p95_quantile={p95_quantile:.4}"),
        format!("latency_p99_quantile={p99_quantile:.4}"),
        format!("prefix_reports_checked={}", served.prefix.len()),
        format!("served_reply_hash={:016x}", served.reply_hash),
    ];
    if !served.topk_latency_ns.is_empty() {
        notes.push(format!("topk_samples={}", served.topk_latency_ns.len()));
    }

    let mut per_layer = None;
    if traced {
        let mirror = mirror::run(spec, &stream, out_dir).map_err(|e| format!("mirror run: {e}"))?;
        tally.check(mirror.reply_hash == served.reply_hash, || {
            format!(
                "mirror reply hash {:016x} != served reply hash {:016x}",
                mirror.reply_hash, served.reply_hash
            )
        });
        tally.check(
            served.final_stats.as_ref() == Some(&mirror.final_stats),
            || {
                format!(
                    "final STATS differ: served {:?}, mirror {:?}",
                    served.final_stats, mirror.final_stats
                )
            },
        );
        tally.check(mirror.replay_matches, || {
            "replaying the mirror's arrival log did not reproduce its last report".to_string()
        });
        let path = out_dir.join(format!("trace_{}.tsv", spec.name));
        trace::write_tsv(&path, mirror.tracer.spans())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!("mirror_reply_hash={:016x}", mirror.reply_hash));
        notes.push(format!("trace_file={}", path.display()));
        per_layer = Some(metrics::per_layer(&served, &mirror));
    }
    Ok(Report {
        end_to_end: metrics::end_to_end(&served),
        per_layer,
        tally,
        notes,
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `{"name": {"value": v, "unit": "u"}, ...}` for the given metrics.
fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

/// Every metric of the report as `(name, value, unit)`, in catalogue order.
fn rows(report: &Report, trace: Option<bool>) -> Vec<(&'static str, f64, &'static str)> {
    let mut rows = Vec::new();
    if trace != Some(true) {
        for (metric, value) in END_TO_END.iter().zip(&report.end_to_end) {
            rows.push((metric.name, *value, metric.unit));
        }
    }
    if let (Some(values), true) = (&report.per_layer, trace != Some(false)) {
        for (metric, value) in PER_LAYER.iter().zip(values) {
            rows.push((metric.name, *value, metric.unit));
        }
    }
    rows
}

/// Prints one workload's report; returns whether it was correct.
fn print_report(spec: &Spec, report: &Report, trace: Option<bool>) -> bool {
    for note in &report.notes {
        println!("# {} {note}", spec.name);
    }
    for note in &report.tally.notes {
        println!("# {} FAILED {note}", spec.name);
    }
    // Human-readable lines always show everything that was measured.
    for (name, value, unit) in rows(report, None) {
        println!("{} {name} {value} {unit}", spec.name);
    }
    let failed_share = report.tally.failed as f64 / report.tally.attempted.max(1) as f64;
    println!("{} failed_ops_share {failed_share} ratio", spec.name);
    let correct = report.tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.tally.attempted.max(1),
        report.tally.failed,
        metrics_json(&rows(report, trace))
    );
    correct
}

/// One workload's parsed child output.
struct ChildResult {
    name: &'static str,
    /// `(metric, value)` from the `workload metric value unit` lines.
    values: Vec<(String, f64)>,
    json: String,
    ok: bool,
}

/// Runs the whole matrix, one child process per workload, echoing each
/// child's output as it completes.
fn run_matrix(options: &Options) -> Result<Vec<ChildResult>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut results = Vec::new();
    for spec in &WORKLOADS {
        let mut command = Command::new(&exe);
        command
            .args(["--workload", spec.name])
            .args(["--seed", &options.seed.to_string()])
            .args(["--seconds", &options.seconds.to_string()])
            .arg("--out-dir")
            .arg(&options.out_dir)
            .stderr(Stdio::inherit());
        if options.smoke {
            command.arg("--smoke");
        }
        if let Some(trace) = options.trace {
            command.args(["--trace", if trace { "1" } else { "0" }]);
        }
        let output = command
            .output()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut values = Vec::new();
        let mut json = String::new();
        for line in stdout.lines() {
            if line.starts_with('{') {
                json = line.to_string();
                continue;
            }
            println!("{line}");
            let fields: Vec<&str> = line.split(' ').collect();
            if let [name, metric, value, _unit] = fields[..] {
                if name == spec.name {
                    if let Ok(value) = value.parse() {
                        values.push((metric.to_string(), value));
                    }
                }
            }
        }
        results.push(ChildResult {
            name: spec.name,
            values,
            ok: output.status.success() && !json.is_empty(),
            json,
        });
    }
    Ok(results)
}

/// Compares repeats of the matrix: every end-to-end metric must agree within
/// its bound and every exact per-layer count to the last digit. Prints each
/// difference; returns whether all held.
fn compare_repeats(repeats: &[Vec<ChildResult>]) -> bool {
    let mut ok = true;
    for (w, spec) in WORKLOADS.iter().enumerate() {
        let series = |metric: &str| -> Vec<f64> {
            repeats
                .iter()
                .filter_map(|run| {
                    let child = &run[w];
                    child.values.iter().find(|(m, _)| m == metric).map(|v| v.1)
                })
                .collect()
        };
        for metric in &END_TO_END {
            let values = series(metric.name);
            let low = values.iter().copied().fold(f64::INFINITY, f64::min);
            let high = values.iter().copied().fold(0.0, f64::max);
            let difference = if low > 0.0 { (high - low) / low } else { 0.0 };
            let within = values.len() == repeats.len() && difference <= metric.bound;
            ok &= within;
            println!(
                "{} {}.repeat_difference {difference} ratio # bound {} {}",
                spec.name,
                metric.name,
                metric.bound,
                if within { "ok" } else { "EXCEEDED" }
            );
        }
        for metric in PER_LAYER.iter().filter(|m| m.exact) {
            let values = series(metric.name);
            if values.windows(2).any(|pair| pair[0] != pair[1]) {
                ok = false;
                println!(
                    "# {} {} is an exact count but differs between repeats: {values:?}",
                    spec.name, metric.name
                );
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(problem) => {
            eprintln!("bench_e2e: {problem}");
            return ExitCode::from(2);
        }
    };
    let scale = if options.smoke { SMOKE_SCALE } else { 1.0 };

    if let Some(name) = &options.workload {
        let spec = workload::find(name).expect("validated by parse_args");
        let out_dir = options.out_dir.join(name);
        let traced = options.trace != Some(false);
        return match run_workload(spec, options.seed, options.seconds, scale, traced, &out_dir) {
            Ok(report) if print_report(spec, &report, options.trace) => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(problem) => {
                eprintln!("bench_e2e: {name}: {problem}");
                ExitCode::FAILURE
            }
        };
    }

    let mut repeats = Vec::with_capacity(options.repeat);
    let mut ok = true;
    for _ in 0..options.repeat {
        match run_matrix(&options) {
            Ok(results) => {
                ok &= results.iter().all(|child| child.ok);
                repeats.push(results);
            }
            Err(problem) => {
                eprintln!("bench_e2e: {problem}");
                return ExitCode::FAILURE;
            }
        }
    }
    if repeats.len() > 1 {
        ok &= compare_repeats(&repeats);
    }
    let last = repeats.last().expect("--repeat is at least 1");
    let workloads: Vec<String> = last
        .iter()
        .map(|child| {
            let json = if child.json.is_empty() {
                "null"
            } else {
                &child.json
            };
            format!("\"{}\": {json}", child.name)
        })
        .collect();
    println!(
        "{{\"seed\": {}, \"seconds\": {}, \"nproc\": {}, \"repeats\": {}, \"ok\": {ok}, \"workloads\": {{{}}}}}",
        options.seed,
        options.seconds,
        nproc(),
        options.repeat,
        workloads.join(", ")
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Stage;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_are_parsed_strictly() {
        let options = parse_args(&strings(&[
            "--workload",
            "zipf_paced",
            "--seed",
            "43",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(options.workload.as_deref(), Some("zipf_paced"));
        assert_eq!((options.seed, options.seconds), (43, 10.0));
        assert_eq!(options.trace, Some(true));
        assert_eq!(parse_args(&[]).unwrap(), Options::default());
        for bad in [
            &["--seed", "x"][..],
            &["--seed"],
            &["--sede", "1"],
            &["--workload", "nope"],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--repeat", "0"],
        ] {
            assert!(
                parse_args(&strings(bad)).is_err(),
                "{bad:?} must be refused"
            );
        }
    }

    /// The whole matrix at 1/40 size, in process. Skipped when loopback
    /// cannot be bound (sandboxes without a network namespace).
    #[test]
    fn smoke_matrix_checks_outputs_and_layer_attribution() {
        if let Err(error) = std::net::TcpListener::bind("127.0.0.1:0") {
            eprintln!("skipping: cannot bind loopback: {error}");
            return;
        }
        let out_dir = std::env::temp_dir().join(format!("bench_e2e-smoke-{}", std::process::id()));
        for spec in &WORKLOADS {
            let report = run_workload(spec, 42, NOMINAL_SECONDS, SMOKE_SCALE, true, &out_dir)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(report.tally.failed, 0, "{}: {:?}", spec.name, report.tally);
            assert!(report.tally.attempted > 0);

            // One value per catalogue entry (the names are checked against
            // BENCHMARK.json in metrics.rs), all finite, end-to-end never 0.
            let layers = report.per_layer.as_ref().expect("traced run");
            assert_eq!(report.end_to_end.len(), END_TO_END.len());
            assert_eq!(layers.len(), PER_LAYER.len());
            assert_eq!(rows(&report, Some(false)).len(), END_TO_END.len());
            assert_eq!(rows(&report, Some(true)).len(), PER_LAYER.len());
            for (name, value, _) in rows(&report, None) {
                assert!(value.is_finite(), "{} {name} = {value}", spec.name);
            }
            for (name, value, _) in rows(&report, Some(false)) {
                assert!(value > 0.0, "{} {name} must never read 0", spec.name);
            }

            // Layer attribution: retract spans only under a window, WAL
            // spans only when durable.
            let trace = std::fs::read_to_string(out_dir.join(format!("trace_{}.tsv", spec.name)))
                .expect("trace file written");
            let has = |stage: Stage| trace.contains(&format!("\t{}\t", stage.name()));
            assert_eq!(has(Stage::Retract), spec.window.is_some(), "{}", spec.name);
            assert_eq!(has(Stage::CounterForget), spec.window.is_some());
            assert_eq!(has(Stage::WalAppend), spec.durable, "{}", spec.name);
            assert!(has(Stage::Discover) && has(Stage::RankSkyline));
            let all = rows(&report, Some(true));
            let get = |name: &str| all.iter().find(|row| row.0 == name).expect(name).1;
            assert_eq!(get("retract.us") > 0.0, spec.window.is_some());
            assert_eq!(get("wal.append_us") > 0.0, spec.durable);
            assert_eq!(get("serve.sync_latency_p50_us") > 0.0, spec.durable);
            assert_eq!(
                get("serve.topk_latency_p50_us") > 0.0,
                spec.pacing.is_some()
            );
        }
        let _ = std::fs::remove_dir_all(&out_dir);
    }

    /// Same seed → identical work counts; the times around them may differ.
    #[test]
    fn same_seed_gives_identical_discover_counts() {
        let spec = workload::find("nba_batch").unwrap();
        let out_dir = std::env::temp_dir().join(format!("bench_e2e-counts-{}", std::process::id()));
        std::fs::create_dir_all(&out_dir).unwrap();
        let run = |seed| {
            let stream = workload::Stream::generate(spec, seed, 6, 1.0);
            mirror::run(spec, &stream, &out_dir).unwrap().counts
        };
        let first = run(7);
        assert_eq!(first, run(7));
        assert!(first.discover.comparisons > 0 && first.rank_calls > 0);
        assert_ne!(first.discover.comparisons, run(8).discover.comparisons);
        let _ = std::fs::remove_dir_all(&out_dir);
    }
}
