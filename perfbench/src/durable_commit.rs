//! `durable_commit`: the write-ahead log, snapshot persistence and
//! recovery.  A closed loop commits small batches of skewed edits to a
//! durable one-shard server (each commit is durable and visible when
//! `flush` returns); each segment ends by dropping the server and timing
//! recovery from its directory.

use crate::run::{
    compile_plan, quiet_restart, secs, segment_seed, us, work_dir, Args, Outcome, SetupCost,
    SetupLayers, RESTARTS, SEGMENTS,
};
use crate::stats::{Samples, Windows};
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use treenum_balance::build_balanced_term;
use treenum_bench::{bench_alphabet, bench_tree, select_b_query};
use treenum_serve::{DurabilityConfig, ServeConfig, SyncPolicy, TreeServer};
use treenum_trees::generate::TreeShape;
use treenum_trees::{Assignment, EditFeed, EditOp, EditStream};
use treenum_wal::DiskFs;

const TREE_SIZE: usize = 50_000;
/// Edits per commit.
const BATCH: usize = 16;
/// Commits pregenerated per measured second: several times today's rate.
const COMMITS_PER_SECOND_POOL: f64 = 4_000.0;
/// Commits per window of `latency_us.quiet_p50`: about 60 ms today.
const WINDOW: usize = 50;

fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig {
        sync: SyncPolicy::OnFlush,
        ..DurabilityConfig::new(dir)
    }
}

fn remove(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("{}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

/// Samples and counters pooled over all segments.
#[derive(Default)]
struct Acc {
    setup: Samples,
    restart: Samples,
    layers: SetupLayers,
    commit_us: Samples,
    commit_windows: Windows<WINDOW>,
    traced_commit: Samples,
    untraced_commit: Samples,
    plain_us: Samples,
    snapshot_commit_us: Samples,
    log_est_us: Samples,
    flush_us: Samples,
    commits: u64,
    phase_s: f64,
    wal_bytes: u64,
    wal_records: u64,
    disk_bytes: u64,
    snapshots: u64,
    replayed: usize,
    reclaim_waits: u64,
    rebuild_fallbacks: u64,
    backpressure: u64,
    load_shed: u64,
    ingest_call_us: Samples,
    flushes: u64,
    busy_ns: u64,
    deduped: u64,
    dirty: u64,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let base: PathBuf = work_dir()?.join(format!("durable-{}", std::process::id()));
    remove(&base)?;
    let result = run_in(args, &base);
    remove(&base)?;
    result
}

fn run_in(args: &Args, base: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tree = bench_tree(TREE_SIZE, TreeShape::Random, args.seed);
    let (query, alphabet_len) = select_b_query();

    // Every segment's op stream, one batch per commit, generated before
    // anything is timed.
    let segment = args.seconds / SEGMENTS as u32;
    let commits = (secs(segment) * COMMITS_PER_SECOND_POOL) as usize;
    let labels: Vec<_> = bench_alphabet().labels().collect();
    let streams: Vec<Vec<Vec<EditOp>>> = (0..SEGMENTS)
        .map(|seg| {
            let stream = EditStream::skewed(labels.clone(), segment_seed(args.seed ^ 0xD0AB, seg));
            let mut feed = EditFeed::new(&tree, stream);
            (0..commits).map(|_| feed.next_batch(BATCH)).collect()
        })
        .collect();

    let mut acc = Acc::default();
    let mut tracer = Tracer::new(false);
    let mut gauges = None;
    out.correct = true;
    for (seg, batches) in streams.iter().enumerate() {
        let dir = base.join(format!("segment-{seg}"));

        // Set-up: a fresh durable lineage, initial snapshot included.
        let start = Instant::now();
        let (plan, translate_ns, compile_ns) = compile_plan(&query, alphabet_len);
        let t = Instant::now();
        let server = TreeServer::with_durability_on(
            vec![tree.clone()],
            plan,
            ServeConfig::default(),
            &durability(&dir),
            Arc::new(DiskFs),
        )
        .map_err(|e| format!("create durable server: {e}"))?;
        let build_ns = t.elapsed().as_nanos() as u64;
        let setup_s = secs(start.elapsed());
        acc.setup.push(setup_s);
        acc.layers.push(SetupCost {
            translate_ns,
            compile_ns,
            build_ns,
            register_ns: 0,
        });

        let ops = commit_loop(
            args,
            &server,
            batches,
            segment,
            &mut tracer,
            &mut acc,
            &mut out,
        ) * BATCH;

        // State before the "crash".
        let stats = server.shard_stats(0);
        for r in server.flush_log(0).iter().filter(|r| r.size > 0) {
            acc.flushes += 1;
            acc.busy_ns += r.nanos;
            acc.deduped += r.spine_deduped;
            acc.dirty += r.spine_dirty;
        }
        let snap = server.snapshot(0);
        let mut live: Vec<Assignment> = snap.assignments();
        live.sort();
        gauges = Some(snap.stats());
        drop(snap);
        drop(server);
        acc.wal_bytes += stats.wal_bytes;
        acc.wal_records += stats.wal_records;
        acc.snapshots += stats.snapshots_persisted;
        acc.disk_bytes += dir_bytes(&dir);
        acc.reclaim_waits += stats.reclaim_waits;
        acc.rebuild_fallbacks += stats.rebuild_fallbacks;
        acc.backpressure += stats.backpressure_timeouts;
        acc.load_shed += stats.load_shed;
        if stats.edits_applied != ops as u64 {
            out.correct = false;
            out.notes.push(format!(
                "segment {seg}: {} ops applied of {ops} committed",
                stats.edits_applied
            ));
        }

        // Restart: recover from the directory, compiling the plan afresh,
        // and again once that server is dropped.
        let mut times = Vec::with_capacity(RESTARTS);
        for _ in 0..RESTARTS {
            let start = Instant::now();
            let (plan, _, _) = compile_plan(&query, alphabet_len);
            let (recovered, outcome) = TreeServer::recover_with_storage(
                plan,
                ServeConfig::default(),
                &durability(&dir),
                Arc::new(DiskFs),
            )
            .map_err(|e| format!("recover: {e}"))?;
            times.push(secs(start.elapsed()));
            acc.restart.push(secs(start.elapsed()));
            let shard = &outcome.shards[0];
            if times.len() == 1 {
                acc.replayed += shard.ops_replayed;
            }
            let mut answers = recovered.snapshot(0).assignments();
            answers.sort();
            if shard.ops_recovered != ops as u64 || shard.quarantined.is_some() || answers != live {
                out.correct = false;
                out.notes.push(format!(
                    "segment {seg}: {} ops recovered of {ops}, quarantined {:?}, answers equal: {}",
                    shard.ops_recovered,
                    shard.quarantined,
                    answers == live
                ));
            }
        }
        out.notes.push(format!(
            "segment: {} commits, set-up {setup_s:.3} s, restart {times:.3?} s",
            ops / BATCH
        ));
        remove(&dir)?;
    }

    let ops = acc.commits as f64 * BATCH as f64;
    out.metrics.set("setup_s", acc.setup.median().unwrap(), "s");
    out.metrics
        .set("restart_s", quiet_restart(&mut acc.restart), "s");
    out.quiet(&acc.commit_windows)?;
    out.quiet_tail(&acc.commit_windows, 95.0)?;
    out.percentile("commit_us.p50", &mut acc.commit_us, 50.0, "us")?;
    out.percentile("commit_us.p95", &mut acc.commit_us, 95.0, "us")?;
    out.metrics.set("ops_per_s", ops / acc.phase_s, "1/s");
    out.alias("recover_s", "restart_s", 1.0, "s");
    out.notes.push(format!(
        "{} commits of {BATCH} ops; {} WAL bytes, {} bytes on disk",
        acc.commits, acc.wal_bytes, acc.disk_bytes
    ));

    out.gauges(&gauges.expect("at least one segment"));
    acc.layers.report(&mut out);
    if args.trace {
        let start = Instant::now();
        drop(build_balanced_term(&tree));
        out.metrics
            .set("balance.build_term_ms", secs(start.elapsed()) * 1e3, "ms");
        let ops = ops.max(1.0);
        out.metrics.set(
            "wal.bytes_per_op",
            acc.wal_bytes as f64 / acc.wal_records.max(1) as f64,
            "B",
        );
        out.metrics
            .set("wal.disk_bytes_per_op", acc.disk_bytes as f64 / ops, "B");
        out.metrics
            .set("wal.snapshots_persisted", acc.snapshots as f64, "count");
        out.metrics
            .set("wal.ops_replayed", acc.replayed as f64, "count");
        out.percentile("wal.plain_commit_us.p50", &mut acc.plain_us, 50.0, "us")?;
        out.percentile(
            "wal.snapshot_commit_us.p50",
            &mut acc.snapshot_commit_us,
            50.0,
            "us",
        )?;
        out.percentile("wal.log_us_est.p50", &mut acc.log_est_us, 50.0, "us")?;
        out.percentile("serve.flush_us.p50", &mut acc.flush_us, 50.0, "us")?;
        out.percentile("serve.flush_us.p95", &mut acc.flush_us, 95.0, "us")?;
        out.percentile(
            "serve.ingest_call_us.p50",
            &mut acc.ingest_call_us,
            50.0,
            "us",
        )?;
        out.percentile(
            "serve.ingest_call_us.p99",
            &mut acc.ingest_call_us,
            99.0,
            "us",
        )?;
        let flushes = acc.flushes.max(1) as f64;
        out.metrics.set(
            "serve.writer_busy_frac",
            acc.busy_ns as f64 / 1e9 / acc.phase_s,
            "ratio",
        );
        out.metrics
            .set("serve.ops_per_flush", ops / flushes, "count");
        out.metrics
            .set("serve.publications_per_op", flushes / ops, "ratio");
        out.metrics.set(
            "serve.sharing_ratio",
            acc.deduped as f64 / (acc.deduped + acc.dirty).max(1) as f64,
            "ratio",
        );
        out.metrics
            .set("serve.reclaim_waits", acc.reclaim_waits as f64, "count");
        out.metrics.set(
            "serve.rebuild_fallbacks",
            acc.rebuild_fallbacks as f64,
            "count",
        );
        out.metrics
            .set("serve.backpressure", acc.backpressure as f64, "count");
        out.metrics
            .set("serve.load_shed", acc.load_shed as f64, "count");
        out.trace_report(
            args,
            &tracer,
            &mut acc.traced_commit,
            &mut acc.untraced_commit,
        )?;
    }
    Ok(out)
}

/// Commits `batches` in order for `segment`; returns how many committed.
fn commit_loop(
    args: &Args,
    server: &TreeServer,
    batches: &[Vec<EditOp>],
    segment: Duration,
    tracer: &mut Tracer,
    acc: &mut Acc,
    out: &mut Outcome,
) -> usize {
    let mut committed = 0usize;
    let mut stats = server.shard_stats(0);
    let start = Instant::now();
    for batch in batches {
        if start.elapsed() >= segment {
            break;
        }
        let id = acc.commits;
        let traced = args.traces(id);
        tracer.set_enabled(traced);
        tracer.begin_request(id);
        let log_len = if args.trace {
            server.flush_log_len(0)
        } else {
            0
        };
        let t = Instant::now();
        let (r, _) = tracer.span("bench", "commit", |tr| {
            let (r, ns) = tr.span("serve", "ingest_batch", |_| server.ingest_batch(0, batch));
            if tr.enabled() {
                acc.ingest_call_us.push(ns as f64 / 1e3 / BATCH as f64);
            }
            r?;
            // The barrier waits for the WAL append and sync, the apply and
            // publication (the writer reports their time, recorded as a
            // child span) and any snapshot persistence: what is left of it
            // is attributed to the WAL.
            tr.span("wal", "flush", |tr| {
                let g = server.flush(0);
                if tr.enabled() {
                    let nanos = server
                        .flush_log_since(0, log_len)
                        .iter()
                        .map(|r| r.nanos)
                        .sum();
                    tr.record("serve", "apply_publish", nanos);
                }
                g
            })
            .0
        });
        let dt = us(t.elapsed());
        out.attempted += batch.len() as u64;
        if let Err(e) = r {
            out.failed += batch.len() as u64;
            out.notes.push(format!("commit failed: {e}"));
            break;
        }
        committed += 1;
        acc.commits += 1;
        acc.commit_us.push(dt);
        acc.commit_windows.push(dt, BATCH as f64);

        if !args.trace {
            continue;
        }
        let now = server.shard_stats(0);
        let persisted = now.snapshots_persisted > stats.snapshots_persisted;
        stats = now;
        if !traced {
            acc.untraced_commit.push(dt);
            continue;
        }
        acc.traced_commit.push(dt);
        let nanos: u64 = server
            .flush_log_since(0, log_len)
            .iter()
            .map(|r| r.nanos)
            .sum();
        acc.flush_us.push(nanos as f64 / 1e3);
        if persisted {
            acc.snapshot_commit_us.push(dt);
        } else {
            acc.plain_us.push(dt);
            acc.log_est_us.push(dt - nanos as f64 / 1e3);
        }
    }
    acc.phase_s += secs(start.elapsed());
    tracer.set_enabled(false);
    committed
}
