//! The treenum benchmark: four seeded workloads driven through the crates'
//! public APIs, each checking its answers and reporting its end-to-end
//! metrics (`--trace 0`) or its per-layer metrics (`--trace 1`).
//!
//! ```text
//! perfbench --workload <edit_stream|serve_mixed|page_drain|durable_commit>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.  See `README.md` next to
//! this package for the workloads, the metrics and what each should move.

mod durable_commit;
mod edit_stream;
mod page_drain;
mod run;
mod serve_mixed;
mod stats;
mod trace;

use run::{Args, Outcome};
use stats::Metrics;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// The workloads `--workload` accepts.  `BENCHMARK.json` names all but
/// `serve_mixed` (see that module for why).
pub const WORKLOADS: [&str; 4] = ["edit_stream", "serve_mixed", "page_drain", "durable_commit"];

/// End-to-end metrics: every untraced run reports all of them.  Each
/// workload maps its own user-facing request onto the generic names (see
/// `README.md`, "End-to-end metrics").
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_us.quiet_p50", "us"),
    ("latency_us.tail", "us"),
    ("throughput_per_s", "1/s"),
    ("restart_s", "s"),
];

/// Per-layer metrics: every traced run reports all of them; a layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("core.apply_us.p50", "us"),
    ("core.apply_us.p99", "us"),
    ("core.allocs_per_edit", "count"),
    ("core.repair_us_est.p50", "us"),
    ("balance.apply_edit_us.p50", "us"),
    ("balance.apply_edit_us.p99", "us"),
    ("balance.dirty_per_edit", "count"),
    ("enumeration.index.box_rebuilds_per_edit", "count"),
    ("enumeration.index.relations_stored_per_edit", "count"),
    ("enumeration.index.walk_fallbacks_per_edit", "count"),
    ("enumeration.first10_us.p50", "us"),
    ("enumeration.first10_us.p99", "us"),
    ("enumeration.per_answer_allocs", "count"),
    ("enumeration.delay_ns.p50", "ns"),
    ("enumeration.delay_ns.p99", "ns"),
    ("enumeration.count_ms.p50", "ms"),
    ("balance.term_height", "count"),
    ("circuits.boxes", "count"),
    ("circuits.width", "count"),
    ("automata.states", "count"),
    ("automata.translate_ms", "ms"),
    ("automata.compile_ms", "ms"),
    ("balance.build_term_ms", "ms"),
    ("core.build_ms", "ms"),
    ("serve.register_ms", "ms"),
    ("serve.ingest_call_us.p50", "us"),
    ("serve.ingest_call_us.p99", "us"),
    ("serve.gen_late_us.p99", "us"),
    ("serve.queue_depth_max", "count"),
    ("serve.flush_us.p50", "us"),
    ("serve.flush_us.p95", "us"),
    ("serve.writer_busy_frac", "ratio"),
    ("serve.ops_per_flush", "count"),
    ("serve.publications_per_op", "ratio"),
    ("serve.sharing_ratio", "ratio"),
    ("serve.reclaim_waits", "count"),
    ("serve.rebuild_fallbacks", "count"),
    ("serve.snapshot_us.p50", "us"),
    ("serve.snapshot_us.p99", "us"),
    ("serve.page_us.p50", "us"),
    ("serve.page_us.p95", "us"),
    ("serve.page_us.first.p50", "us"),
    ("serve.page_us.deep.p50", "us"),
    ("serve.answers_walked_per_returned", "ratio"),
    ("serve.backpressure", "count"),
    ("serve.load_shed", "count"),
    ("wal.bytes_per_op", "B"),
    ("wal.disk_bytes_per_op", "B"),
    ("wal.snapshots_persisted", "count"),
    ("wal.plain_commit_us.p50", "us"),
    ("wal.snapshot_commit_us.p50", "us"),
    ("wal.log_us_est.p50", "us"),
    ("wal.ops_replayed", "count"),
    ("ops_failed_frac", "ratio"),
    ("self_us.bench", "us"),
    ("self_us.automata", "us"),
    ("self_us.balance", "us"),
    ("self_us.core", "us"),
    ("self_us.enumeration", "us"),
    ("self_us.serve", "us"),
    ("self_us.wal", "us"),
    ("trace.overhead_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("trace.accounted_frac", "ratio"),
];

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "edit_stream" => edit_stream::run(&args),
        "serve_mixed" => serve_mixed::run(&args),
        "page_drain" => page_drain::run(&args),
        "durable_commit" => durable_commit::run(&args),
        _ => unreachable!("workload names are checked by Args::parse"),
    };
    match result.and_then(|outcome| finish(&args, outcome)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

/// Prints the human-readable report and the result line; a wrong answer
/// still prints its result line (with `"correct": false`) but fails the run.
fn finish(args: &Args, mut outcome: Outcome) -> Result<ExitCode, String> {
    outcome.metrics.set(
        "peak_rss_mb",
        run::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
        "MB",
    );
    outcome.metrics.set(
        "ops_failed_frac",
        stats::failure_share(outcome.failed, outcome.attempted),
        "ratio",
    );
    for (name, value, unit) in outcome.metrics.entries() {
        println!("metric {name} = {value} {unit}");
    }
    for note in &outcome.notes {
        println!("note {note}");
    }
    let reported: Metrics = if args.trace {
        for &(name, unit) in &PER_LAYER {
            if outcome.metrics.get(name).is_none() {
                outcome.metrics.set(name, 0.0, unit);
            }
        }
        outcome.metrics.select(&PER_LAYER)?
    } else {
        outcome.metrics.select(&END_TO_END)?
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        reported.to_json()
    );
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in `BENCHMARK.json` must agree name for
    /// name and unit for unit, in order.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let pairs = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let end = text[start..].find(']').unwrap() + start;
            text[start..end]
                .split('{')
                .skip(1)
                .map(|obj| {
                    let field = |f: &str| {
                        let at = obj.find(&format!("\"{f}\"")).expect(f) + f.len() + 2;
                        let rest = &obj[at..];
                        let open = rest.find('"').unwrap() + 1;
                        let close = rest[open..].find('"').unwrap() + open;
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs("end_to_end"), own(&END_TO_END));
        assert_eq!(pairs("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = text
            .match_indices("\"name\": \"")
            .map(|(i, m)| {
                let rest = &text[i + m.len()..];
                rest[..rest.find('"').unwrap()].to_string()
            })
            .take(3)
            .collect();
        assert_eq!(workloads, ["edit_stream", "page_drain", "durable_commit"]);
    }

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|p| p.0).collect();
        for name in &all {
            assert!(stats::valid_metric_name(name), "{name}");
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate metric name");
    }
}
