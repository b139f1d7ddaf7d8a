//! The metric catalogue — names, units, directions, regression bounds, and
//! how each value is worked out from a served run and a mirror run.
//!
//! `BENCHMARK.json` at the repository root repeats the names; a unit test
//! fails when the two drift apart, in either direction.

use crate::mirror::Mirror;
use crate::served::{Served, Timeline};
use crate::stats::{percentile, sorted, tail_percentile, us};
use crate::trace::{self_times_ns, Stage, Tracer};
use std::collections::HashMap;

/// A metric a user of the service would see, with the share of the parent
/// commit's median by which it may worsen before a change is rejected.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`; only the `BENCHMARK.json` guard reads it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
    /// Allowed worsening as a share of the parent's median.
    pub bound: f64,
    value: fn(&Served, &Steady) -> f64,
}

/// End-to-end metrics, all from the untraced served run. The bounds sit just
/// above the widest run-to-run spread and drift measured on the 2-core
/// reference box (see the README); `setup_s` is a handful of milliseconds and
/// gets the widest one.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        value: |served, _| served.setup_s,
    },
    // On the open-loop workload this is the send schedule: it cannot move
    // until the server saturates. Latency is what moves there.
    EndToEnd {
        name: "rows_per_s",
        unit: "rows/s",
        better: "higher",
        bound: 0.20,
        value: |_, steady| steady.rows_per_s,
    },
    EndToEnd {
        name: "report_latency_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.20,
        value: |_, steady| steady.p50_us,
    },
    EndToEnd {
        name: "report_latency_p95_us",
        unit: "us",
        better: "lower",
        bound: 0.24,
        value: |_, steady| steady.p95_us,
    },
    EndToEnd {
        name: "recovery_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        value: |served, _| served.recovery_s,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.10,
        value: |served, _| served.peak_rss_mb,
    },
];

/// The end-to-end metrics of a served run, in catalogue order.
pub fn end_to_end(served: &Served) -> Vec<f64> {
    let steady = steady(&served.timeline);
    END_TO_END
        .iter()
        .map(|metric| (metric.value)(served, &steady))
        .collect()
}

/// A run is cut into this many equal segments of consecutive requests.
pub const SEGMENTS: usize = 10;

/// Throughput and latency of the steady part of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Steady {
    /// Rows acknowledged ÷ wall-clock of the kept segments.
    pub rows_per_s: f64,
    /// Nearest-rank median of the kept segments' latencies.
    pub p50_us: f64,
    /// Their p95, under the "ten samples beyond" rule.
    pub p95_us: f64,
    /// The quantile `p95_us` really stands for (0.95 unless the run is too
    /// short for ten samples beyond it).
    pub p95_quantile: f64,
}

/// Statistics over the *middle* segments of a run.
///
/// The run is cut into [`SEGMENTS`] equal slices of consecutive requests,
/// the slices are ranked by the latency they accumulated, a fifth of them is
/// dropped at each end, and the rest are pooled. On the shared 2-vCPU
/// reference VM the hypervisor pauses a run for 10–1000 ms a few times per
/// 10 s; a whole-run mean or tail percentile is decided by whether one of
/// those pauses happened. A pause (or a skyline-store rehash) lands in one or
/// two slices, which rank last and are dropped, while the pooled rest still
/// leaves well over ten samples beyond the p95. The whole-run p99 is still
/// reported, unbounded, as `serve.report_latency_p99_us`.
pub fn steady(timeline: &Timeline) -> Steady {
    let n = timeline.latency_ns.len();
    let segments = SEGMENTS.min(n);
    let mut slices: Vec<(u64, usize, usize)> = (0..segments)
        .map(|segment| {
            let (from, to) = (segment * n / segments, (segment + 1) * n / segments);
            (timeline.latency_ns[from..to].iter().sum(), from, to)
        })
        .collect();
    slices.sort_unstable();
    let trim = segments / 5;
    let (mut rows, mut wall_ns, mut pooled) = (0, 0, Vec::with_capacity(n));
    for &(_, from, to) in &slices[trim..segments - trim] {
        let began = match from {
            0 => timeline.start_ns,
            _ => timeline.done_ns[from - 1],
        };
        wall_ns += timeline.done_ns[to - 1] - began;
        rows += (to - from) * timeline.rows_per_request;
        pooled.extend_from_slice(&timeline.latency_ns[from..to]);
    }
    let pooled = sorted(pooled);
    let (p95_ns, p95_quantile) = tail_percentile(&pooled, 0.95);
    Steady {
        rows_per_s: if wall_ns == 0 {
            0.0
        } else {
            rows as f64 * 1e9 / wall_ns as f64
        },
        p50_us: us(percentile(&pooled, 0.5)),
        p95_us: us(p95_ns),
        p95_quantile,
    }
}

/// A metric of one layer, from the traced mirror run or a layer probe.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, prefixed with the module it measures.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`; only the `BENCHMARK.json` guard reads it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
    /// Whether the value is a pure function of `(seed, seconds)` and must
    /// repeat to the last digit between runs.
    pub exact: bool,
    value: fn(&Layers<'_>) -> f64,
}

const fn time(name: &'static str, value: fn(&Layers<'_>) -> f64) -> PerLayer {
    PerLayer {
        name,
        unit: "us",
        better: "lower",
        exact: false,
        value,
    }
}

const fn count(name: &'static str, unit: &'static str, value: fn(&Layers<'_>) -> f64) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
        exact: true,
        value,
    }
}

/// Per-layer metrics. Times are means per arrival unless the name says
/// otherwise; counts are exact. A metric of a layer the workload never
/// enters reads 0.
pub const PER_LAYER: [PerLayer; 51] = [
    time("serve.request_decode_us", |l| {
        l.stage_us(Stage::RequestDecode)
    }),
    time("serve.reply_encode_us", |l| l.stage_us(Stage::ReplyEncode)),
    time("serve.client_codec_us", |l| {
        l.stage_us(Stage::ClientEncode) + l.stage_us(Stage::ClientDecode)
    }),
    count("serve.request_bytes", "bytes", |l| {
        l.per_row(l.mirror.counts.request_bytes)
    }),
    count("serve.reply_bytes", "bytes", |l| {
        l.per_row(l.mirror.counts.reply_bytes)
    }),
    time("serve.stats_export_us", |l| l.stage_us(Stage::StatsExport)),
    time("serve.ping_rtt_us", |l| {
        us(percentile(&l.served.ping_rtt_ns, 0.5))
    }),
    time("serve.overhead_us", |l| {
        us(percentile(&l.served_ns, 0.5)) - us(percentile(&l.request_ns, 0.5))
    }),
    time("serve.report_latency_p99_us", |l| {
        us(tail_percentile(&l.served_ns, 0.99).0)
    }),
    time("serve.sync_latency_p50_us", |l| {
        us(percentile(&l.served.sync_latency_ns, 0.5))
    }),
    time("serve.topk_latency_p50_us", |l| {
        us(percentile(&l.served.topk_latency_ns, 0.5))
    }),
    time("serve.topk_latency_p99_us", |l| {
        us(tail_percentile(&l.served.topk_latency_ns, 0.99).0)
    }),
    time("core.actor_hop_us", |l| {
        us(percentile(&l.mirror.actor_hop_ns, 0.5))
    }),
    time("core.snapshot_publish_us", |l| {
        l.stage_us(Stage::SnapshotPublish)
    }),
    time("wal.append_us", |l| {
        per(l.stage_ns(Stage::WalAppend) / 1e3, l.mirror.counts.requests)
    }),
    time("wal.fsync_us", |l| us(percentile(&l.mirror.fsync_ns, 0.5))),
    count("wal.bytes_per_row", "bytes", |l| {
        l.per_row(l.mirror.counts.wal_bytes)
    }),
    time("wal.scan_us_per_row", |l| {
        per(l.mirror.wal_scan_s * 1e6, l.mirror.counts.rows)
    }),
    time("durable.replay_us_per_row", |l| {
        per(l.mirror.replay_s * 1e6, l.mirror.counts.rows)
    }),
    time("table.append_us", |l| l.stage_us(Stage::TableAppend)),
    time("table.compact_postings_us", |l| {
        l.stage_us(Stage::CompactPostings)
    }),
    time("table.retract_us", |l| l.expired_us(Stage::TableRetract)),
    count("table.heap_bytes", "bytes", |l| {
        l.mirror.table_heap_bytes as f64
    }),
    time("counter.observe_us", |l| l.stage_us(Stage::CounterObserve)),
    time("counter.cardinality_us", |l| {
        l.stage_us(Stage::CounterCardinality)
    }),
    time("counter.forget_us", |l| l.expired_us(Stage::CounterForget)),
    count("counter.heap_bytes", "bytes", |l| {
        l.mirror.counter_heap_bytes as f64
    }),
    time("discover.us", |l| l.stage_us(Stage::Discover)),
    count("discover.comparisons", "count", |l| {
        l.per_row(l.mirror.counts.discover.comparisons)
    }),
    count("discover.traversed", "count", |l| {
        l.per_row(l.mirror.counts.discover.traversed_constraints)
    }),
    count("discover.store_reads", "count", |l| {
        l.per_row(l.mirror.counts.discover.store_reads)
    }),
    count("discover.store_writes", "count", |l| {
        l.per_row(l.mirror.counts.discover.store_writes)
    }),
    time("rank.skyline_us", |l| l.stage_us(Stage::RankSkyline)),
    count("rank.calls", "count", |l| {
        l.per_row(l.mirror.counts.rank_calls)
    }),
    count("rank.store_reads", "count", |l| {
        l.per_row(l.mirror.counts.rank.store_reads)
    }),
    time("retract.us", |l| l.expired_us(Stage::Retract)),
    count("retract.comparisons", "count", |l| {
        l.per_expired(l.mirror.counts.retract.comparisons)
    }),
    count("retract.store_reads", "count", |l| {
        l.per_expired(l.mirror.counts.retract.store_reads)
    }),
    count("retract.store_writes", "count", |l| {
        l.per_expired(l.mirror.counts.retract.store_writes)
    }),
    PerLayer {
        name: "retract.useful_share",
        unit: "ratio",
        better: "higher",
        exact: true,
        value: |l| l.per_expired(l.mirror.counts.expired_useful),
    },
    count("algos.store_bytes", "bytes", |l| {
        l.mirror.store_bytes as f64
    }),
    count("algos.store_entries", "count", |l| {
        l.mirror.store_entries as f64
    }),
    time("prominence.encode_raw_us", |l| l.stage_us(Stage::EncodeRaw)),
    time("prominence.sort_us", |l| l.stage_us(Stage::RankSort)),
    time("arrival.total_us", |l| {
        per(l.traced_ns / 1e3, l.mirror.counts.rows)
    }),
    time("arrival.self_us", |l| {
        per(l.request_self_ns / 1e3, l.mirror.counts.rows)
    }),
    time("request.total_p50_us", |l| {
        us(percentile(&l.request_ns, 0.5))
    }),
    time("request.total_p99_us", |l| {
        us(tail_percentile(&l.request_ns, 0.99).0)
    }),
    time("loadgen.late_p99_us", |l| {
        us(tail_percentile(&l.served.late_ns, 0.99).0)
    }),
    count("trace.spans", "count", |l| {
        l.mirror.tracer.spans().len() as f64
    }),
    PerLayer {
        name: "trace.overhead_share",
        unit: "ratio",
        better: "lower",
        exact: false,
        value: |l| {
            if l.traced_ns == 0.0 {
                return 0.0;
            }
            let spans = l.mirror.tracer.spans().len() as f64;
            spans * Tracer::empty_span_cost_ns(10_000) / l.traced_ns
        },
    },
];

/// `numerator / denominator`, 0 when the layer was never entered.
fn per(numerator: f64, denominator: u64) -> f64 {
    if denominator == 0 || numerator == 0.0 {
        0.0
    } else {
        numerator / denominator as f64
    }
}

/// What the per-layer metrics are worked out from: the two runs plus the
/// sums over the trace that several metrics share.
pub struct Layers<'a> {
    served: &'a Served,
    mirror: &'a Mirror,
    /// Total nanoseconds of the spans recorded at each stage.
    stage_totals_ns: HashMap<Stage, f64>,
    /// Duration of every request span, ascending.
    request_ns: Vec<u64>,
    /// Their sum: everything that was traced.
    traced_ns: f64,
    /// Self time of the request spans: the mirror's own glue.
    request_self_ns: f64,
    /// Every served ingest latency, ascending.
    served_ns: Vec<u64>,
}

impl<'a> Layers<'a> {
    fn new(served: &'a Served, mirror: &'a Mirror) -> Self {
        let spans = mirror.tracer.spans();
        let mut stage_totals_ns = HashMap::new();
        let mut request_ns = Vec::with_capacity(mirror.counts.requests as usize);
        let mut request_self_ns = 0.0;
        for (span, own) in spans.iter().zip(self_times_ns(spans)) {
            *stage_totals_ns.entry(span.stage).or_insert(0.0) += span.duration_ns() as f64;
            if span.stage == Stage::Request {
                request_ns.push(span.duration_ns());
                request_self_ns += own as f64;
            }
        }
        Layers {
            served,
            mirror,
            stage_totals_ns,
            traced_ns: request_ns.iter().map(|&ns| ns as f64).sum(),
            request_ns: sorted(request_ns),
            request_self_ns,
            served_ns: sorted(served.timeline.latency_ns.clone()),
        }
    }

    fn stage_ns(&self, stage: Stage) -> f64 {
        self.stage_totals_ns.get(&stage).copied().unwrap_or(0.0)
    }

    /// Mean microseconds per arrival spent at `stage`.
    fn stage_us(&self, stage: Stage) -> f64 {
        per(self.stage_ns(stage) / 1e3, self.mirror.counts.rows)
    }

    /// Mean microseconds per expired row spent at `stage`.
    fn expired_us(&self, stage: Stage) -> f64 {
        per(self.stage_ns(stage) / 1e3, self.mirror.counts.expired)
    }

    fn per_row(&self, total: u64) -> f64 {
        per(total as f64, self.mirror.counts.rows)
    }

    fn per_expired(&self, total: u64) -> f64 {
        per(total as f64, self.mirror.counts.expired)
    }
}

/// The per-layer metrics of a traced run, in catalogue order.
pub fn per_layer(served: &Served, mirror: &Mirror) -> Vec<f64> {
    let layers = Layers::new(served, mirror);
    PER_LAYER
        .iter()
        .map(|metric| (metric.value)(&layers))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// The `"key": "value"` string pairs of every object in the array that
    /// follows `"section": [` in `BENCHMARK.json`.
    fn section(json: &str, section: &str) -> Vec<Vec<(String, String)>> {
        let start = json
            .find(&format!("\"{section}\": ["))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} array"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split('{')
            .skip(1)
            .map(|object| {
                let object = &object[..object.find('}').expect("object closes")];
                object
                    .split(", \"")
                    .filter_map(|pair| {
                        let (key, value) = pair.split_once(':')?;
                        let clean = |s: &str| s.trim().trim_matches('"').to_string();
                        Some((clean(key), clean(value)))
                    })
                    .collect()
            })
            .collect()
    }

    fn field<'a>(object: &'a [(String, String)], key: &str) -> &'a str {
        &object
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("object {object:?} has no {key}"))
            .1
    }

    /// Whether a metric or workload name is safe everywhere it is printed.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    #[test]
    fn a_stall_inside_one_segment_does_not_move_the_steady_statistics() {
        // 400 single-row requests, 1 ms each, back to back: the six kept
        // segments hold 240, twelve of them beyond the p95.
        let even = Timeline {
            start_ns: 0,
            rows_per_request: 1,
            latency_ns: vec![1_000_000; 400],
            done_ns: (1..=400).map(|i| i * 1_000_000).collect(),
        };
        let expected = Steady {
            rows_per_s: 1_000.0,
            p50_us: 1_000.0,
            p95_us: 1_000.0,
            p95_quantile: 0.95,
        };
        assert_eq!(steady(&even), expected);
        // Request 42 stalls for 500 ms: everything behind it finishes later,
        // and the segment it fell into ranks last and is dropped.
        let mut stalled = even.clone();
        stalled.latency_ns[42] = 500_000_000;
        for done in &mut stalled.done_ns[42..] {
            *done += 499_000_000;
        }
        assert_eq!(steady(&stalled), expected);
        // Fewer requests than would fill five segments: nothing is dropped,
        // and the tail falls back to the rank the ten-beyond rule allows.
        let tiny = Timeline {
            start_ns: 0,
            rows_per_request: 8,
            latency_ns: vec![2_000_000, 4_000_000, 6_000_000],
            done_ns: vec![2_000_000, 6_000_000, 12_000_000],
        };
        let tiny = steady(&tiny);
        assert_eq!((tiny.rows_per_s, tiny.p50_us), (2_000.0, 4_000.0));
        assert!(tiny.p95_quantile < 0.95);
    }

    #[test]
    fn every_emitted_name_is_printable() {
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
        {
            assert!(valid_name(name), "{name:?} is not [A-Za-z0-9_.-]+");
        }
        assert!(!valid_name("has space") && !valid_name("") && !valid_name(".dot"));
    }

    #[test]
    fn benchmark_json_declares_exactly_this_catalogue() {
        let declared = section(BENCHMARK_JSON, "end_to_end");
        assert_eq!(declared.len(), END_TO_END.len());
        for (object, metric) in declared.iter().zip(&END_TO_END) {
            assert_eq!(field(object, "name"), metric.name);
            assert_eq!(field(object, "unit"), metric.unit);
            assert_eq!(field(object, "better"), metric.better);
            assert_eq!(field(object, "bound").parse::<f64>().unwrap(), metric.bound);
        }
        let declared = section(BENCHMARK_JSON, "per_layer");
        assert_eq!(declared.len(), PER_LAYER.len());
        for (object, metric) in declared.iter().zip(&PER_LAYER) {
            assert_eq!(field(object, "name"), metric.name);
            assert_eq!(field(object, "unit"), metric.unit);
            assert_eq!(field(object, "better"), metric.better);
        }
        let declared = section(BENCHMARK_JSON, "workloads");
        assert_eq!(declared.len(), WORKLOADS.len());
        for (object, spec) in declared.iter().zip(&WORKLOADS) {
            assert_eq!(field(object, "name"), spec.name);
            assert_eq!(field(object, "why"), spec.why);
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
    }
}
