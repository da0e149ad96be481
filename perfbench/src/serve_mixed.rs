//! `serve_mixed`: the full serving path under writes beside reads.  One
//! shard serves four registered queries; an open-loop generator ingests
//! skewed edits on a fixed schedule and reads the first page of every query
//! every few milliseconds (phase 1), then ingests back to back until the
//! segment's time is up (phase 2).
//!
//! Its tails swing with rare writer stalls (scapegoat rebuilds near the
//! root under `skewed` edits, reclaim fallbacks), by 20–90 % between runs
//! on a 2-vCPU machine, so it is not one of the workloads `BENCHMARK.json`
//! gates on; run it by name for the open-loop view of the serving layer.

use crate::run::{
    build_server, quiet_restart, secs, segment_seed, us, warm_server, Args, Outcome, SetupLayers,
    SEGMENTS,
};
use crate::stats::{Samples, Windows};
use crate::trace::Tracer;
use std::time::{Duration, Instant};
use treenum_balance::build_balanced_term;
use treenum_bench::{bench_alphabet, bench_tree, distinct_queries, select_b_query};
use treenum_serve::{FlushRecord, QueryId, RetryPolicy, ServeError, ShardStats, TreeServer};
use treenum_trees::generate::TreeShape;
use treenum_trees::{Assignment, EditFeed, EditOp, EditStream};

const TREE_SIZE: usize = 50_000;
/// Open-loop ingest rate of phase 1.
const RATE_PER_S: f64 = 3_000.0;
/// A read round every this long in phase 1.
const READ_EVERY: Duration = Duration::from_millis(5);
const PAGE: usize = 50;
/// Share of each segment spent in phase 1.
const PHASE1_SHARE: f64 = 0.75;
/// Ops pregenerated per second of phase 2: several times the saturation
/// rate measured today.
const PHASE2_POOL_PER_S: f64 = 60_000.0;
/// Skewed streams decide their hot subtree once per generated batch.
const GEN_BATCH: usize = 16;
/// How long an ingest keeps retrying backpressure.  A writer stall (a
/// scapegoat rebuild near the root, or a reclaim that falls back to a full
/// rebuild) can outlast the default budget; the client waits it out rather
/// than dropping an op, which would also fork the op stream from the
/// server's state.
const RETRY_BUDGET: Duration = Duration::from_secs(5);
/// Between sends, the generator looks at the published generation this
/// often.  Each look holds a snapshot for a moment; polling back to back
/// would hold one most of the time and make the writer wait to reclaim it.
const POLL_EVERY: Duration = Duration::from_micros(20);
/// How long to wait for the last phase-1 op to become visible.
const SETTLE: Duration = Duration::from_secs(5);
/// Set-up ends with this many single-op flushes (see `warm_server`).
const WARM_UP: usize = 2;
/// Ops per window of `latency_us.quiet_p50`: about 17 ms of schedule.
const WINDOW: usize = 50;

/// Every query's answers, each sorted.
fn answers(server: &TreeServer, ids: &[QueryId]) -> Result<Vec<Vec<Assignment>>, String> {
    let snap = server.snapshot(0);
    ids.iter()
        .map(|&id| {
            let mut a = snap
                .query(id)
                .map_err(|e| format!("query {id}: {e}"))?
                .assignments();
            a.sort();
            Ok(a)
        })
        .collect()
}

/// Samples and counters pooled over all segments.
#[derive(Default)]
struct Acc {
    setup: Samples,
    restart: Samples,
    layers: SetupLayers,
    visible_us: Samples,
    /// Visibility in windows of [`WINDOW`] ops, in schedule order.
    visible_windows: Windows<WINDOW>,
    read_us: Samples,
    traced_read: Samples,
    untraced_read: Samples,
    snapshot_us: Samples,
    page_us: Samples,
    ingest_us: Samples,
    late_us: Samples,
    flush_us: Samples,
    phase1_s: f64,
    phase1_ops: usize,
    phase1_flushes: usize,
    busy_ns: u64,
    deduped: u64,
    dirty: u64,
    queue_max: u64,
    reclaim_waits: u64,
    rebuild_fallbacks: u64,
    backpressure: u64,
    load_shed: u64,
    saturation_ops: usize,
    saturation_s: f64,
    reads: u64,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tree = bench_tree(TREE_SIZE, TreeShape::Random, args.seed);
    let primary = select_b_query();
    let extra = distinct_queries(3);

    // Every segment's op stream, generated before anything is timed.  Each
    // segment starts a fresh server on the seed's tree and runs its own
    // stream, so one run samples ten independent stretches of edits.
    let segment = args.seconds / SEGMENTS as u32;
    let phase1 = segment.mul_f64(PHASE1_SHARE);
    let phases = [phase1, segment.saturating_sub(phase1)];
    let len = WARM_UP
        + (secs(phases[0]) * RATE_PER_S) as usize
        + (secs(phases[1]) * PHASE2_POOL_PER_S) as usize;
    let labels: Vec<_> = bench_alphabet().labels().collect();
    let streams: Vec<Vec<EditOp>> = (0..SEGMENTS)
        .map(|seg| {
            let mut feed = EditFeed::new(
                &tree,
                EditStream::skewed(labels.clone(), segment_seed(args.seed ^ 0x5E7E, seg)),
            );
            let mut ops = Vec::with_capacity(len + GEN_BATCH);
            while ops.len() < len {
                ops.extend(feed.next_batch(GEN_BATCH));
            }
            ops
        })
        .collect();

    let mut acc = Acc::default();
    let mut tracer = Tracer::new(false);
    let mut gauges = None;
    out.correct = true;
    for stream in &streams {
        let (warm_up, ops) = stream.split_at(WARM_UP);
        let start = Instant::now();
        let s = build_server(&tree, &primary, &extra)?;
        warm_server(&s.server, warm_up)?;
        acc.setup.push(secs(start.elapsed()));
        acc.layers.push(s.cost);
        let accepted = run_segment(
            args,
            &s.server,
            &s.ids,
            ops,
            phases,
            &mut tracer,
            &mut acc,
            &mut out,
        )?;

        // Correctness: the counters, and the served tree against the
        // shadow (the initial tree with every accepted op applied) ...
        let stats = s.server.shard_stats(0);
        let mut shadow = tree.clone();
        for op in &stream[..WARM_UP + accepted] {
            shadow.apply(op);
        }
        let snap = s.server.snapshot(0);
        if stats.generation != stats.flushes
            || stats.edits_applied != (WARM_UP + accepted) as u64
            || !snap.tree().structurally_equal(&shadow)
        {
            out.correct = false;
            out.notes.push(format!(
                "generation {} flushes {} applied {} accepted {accepted}, or the served tree differs",
                stats.generation, stats.flushes, stats.edits_applied
            ));
        }
        gauges = Some(snap.stats());
        drop(snap);
        let live = answers(&s.server, &s.ids)?;
        drop(s);

        // ... and every query's answers against the restarted server: a
        // non-durable server restarts by rebuilding from its tree, then
        // warms up on the stream's next ops.
        let next = &stream[WARM_UP + accepted..];
        let restart_warm_up = next.get(..WARM_UP).ok_or("op pool exhausted")?;
        let start = Instant::now();
        let fresh = build_server(&shadow, &primary, &extra)?;
        let mut restart = secs(start.elapsed());
        if answers(&fresh.server, &fresh.ids)? != live {
            out.correct = false;
            out.notes
                .push("answers differ from a server rebuilt on the shadow tree".into());
        }
        let start = Instant::now();
        warm_server(&fresh.server, restart_warm_up)?;
        restart += secs(start.elapsed());
        acc.restart.push(restart);
    }

    out.metrics.set("setup_s", acc.setup.median().unwrap(), "s");
    out.metrics
        .set("restart_s", quiet_restart(&mut acc.restart), "s");
    // Its throughput is the saturation phase's, set below, not the
    // visibility windows' rate.
    out.quiet(&acc.visible_windows)?;
    out.percentile("visible_us.p50", &mut acc.visible_us, 50.0, "us")?;
    out.percentile("latency_us.tail", &mut acc.visible_us, 95.0, "us")?;
    out.metrics.set(
        "throughput_per_s",
        acc.saturation_ops as f64 / acc.saturation_s,
        "1/s",
    );
    out.alias("visible_us.p95", "latency_us.tail", 1.0, "us");
    out.alias("max_ops_per_s", "throughput_per_s", 1.0, "1/s");
    out.percentile("read_us.p50", &mut acc.read_us, 50.0, "us")?;
    out.percentile("read_us.p95", &mut acc.read_us, 95.0, "us")?;
    out.notes.push(format!(
        "phase 1: {} ops at {RATE_PER_S}/s over {:.2} s, {} read rounds; phase 2: {} ops in {:.2} s",
        acc.phase1_ops, acc.phase1_s, acc.reads, acc.saturation_ops, acc.saturation_s
    ));

    out.gauges(&gauges.expect("at least one segment"));
    acc.layers.report(&mut out);
    if args.trace {
        let start = Instant::now();
        drop(build_balanced_term(&tree));
        out.metrics
            .set("balance.build_term_ms", secs(start.elapsed()) * 1e3, "ms");
        out.percentile("serve.flush_us.p50", &mut acc.flush_us, 50.0, "us")?;
        out.percentile("serve.flush_us.p95", &mut acc.flush_us, 95.0, "us")?;
        let flushes = acc.phase1_flushes.max(1) as f64;
        out.metrics.set(
            "serve.writer_busy_frac",
            acc.busy_ns as f64 / 1e9 / acc.phase1_s,
            "ratio",
        );
        out.metrics.set(
            "serve.ops_per_flush",
            acc.phase1_ops as f64 / flushes,
            "count",
        );
        out.metrics.set(
            "serve.publications_per_op",
            flushes / acc.phase1_ops.max(1) as f64,
            "ratio",
        );
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
        out.metrics
            .set("serve.queue_depth_max", acc.queue_max as f64, "count");
        out.percentile("serve.ingest_call_us.p50", &mut acc.ingest_us, 50.0, "us")?;
        out.percentile("serve.ingest_call_us.p99", &mut acc.ingest_us, 99.0, "us")?;
        out.percentile("serve.gen_late_us.p99", &mut acc.late_us, 99.0, "us")?;
        out.percentile("serve.snapshot_us.p50", &mut acc.snapshot_us, 50.0, "us")?;
        out.percentile("serve.snapshot_us.p99", &mut acc.snapshot_us, 99.0, "us")?;
        out.percentile("serve.page_us.p50", &mut acc.page_us, 50.0, "us")?;
        out.percentile("serve.page_us.p95", &mut acc.page_us, 95.0, "us")?;
        out.trace_report(args, &tracer, &mut acc.traced_read, &mut acc.untraced_read)?;
    }
    Ok(out)
}

/// One segment's two phases on a ready server; returns how many of `ops`
/// the server accepted.
#[allow(clippy::too_many_arguments)]
fn run_segment(
    args: &Args,
    server: &TreeServer,
    ids: &[QueryId],
    ops: &[EditOp],
    [phase1, phase2]: [Duration; 2],
    tracer: &mut Tracer,
    acc: &mut Acc,
    out: &mut Outcome,
) -> Result<usize, String> {
    let n1 = (secs(phase1) * RATE_PER_S) as usize;
    let log0 = server.flush_log_len(0);
    // (generation, first time it was observed, in µs since phase start)
    let mut seen: Vec<(u64, f64)> = vec![(server.snapshot(0).generation(), 0.0)];
    let mut observe = |g: u64, t: Duration| {
        if seen.last().is_some_and(|&(last, _)| last != g) {
            seen.push((g, us(t)));
        }
    };
    let retry = RetryPolicy {
        budget: RETRY_BUDGET,
        ..RetryPolicy::default()
    };
    let mut next_read = Duration::ZERO;
    let mut next_poll = Duration::ZERO;
    let mut sent = 0usize;
    let mut failed = false;
    let rate_period = Duration::from_secs_f64(1.0 / RATE_PER_S);

    // Phase 1: open loop.
    let start = Instant::now();
    loop {
        let now = start.elapsed();
        if now >= phase1 {
            break;
        }
        if now >= next_read {
            let traced = args.traces(acc.reads);
            tracer.set_enabled(traced);
            tracer.begin_request(acc.reads);
            let t = Instant::now();
            let (r, _) = tracer.span("bench", "read_round", |tr| -> Result<u64, ServeError> {
                let (snap, ns) = tr.span("serve", "snapshot", |_| server.snapshot(0));
                if tr.enabled() {
                    acc.snapshot_us.push(ns as f64 / 1e3);
                }
                for &id in ids {
                    let reader = snap.query(id)?;
                    let (page, ns) = tr.span("serve", "page", |_| reader.page(None, PAGE));
                    std::hint::black_box(page?);
                    if tr.enabled() {
                        acc.page_us.push(ns as f64 / 1e3);
                    }
                }
                Ok(snap.generation())
            });
            let dt = us(t.elapsed());
            out.attempted += ids.len() as u64;
            match r {
                Ok(g) => observe(g, now),
                Err(e) => {
                    out.failed += 1;
                    out.notes.push(format!("read failed: {e}"));
                }
            }
            acc.read_us.push(dt);
            if args.trace {
                if traced {
                    acc.traced_read.push(dt)
                } else {
                    acc.untraced_read.push(dt)
                }
            }
            acc.queue_max = acc.queue_max.max(server.shard_stats(0).queue_depth);
            acc.reads += 1;
            next_read += READ_EVERY;
        } else if sent < n1 && now >= rate_period.mul_f64(sent as f64) {
            acc.late_us
                .push(us(now.saturating_sub(rate_period.mul_f64(sent as f64))));
            let (r, ns) = tracer.span("serve", "ingest", |_| {
                retry.run(|| server.ingest(0, ops[sent]))
            });
            out.attempted += 1;
            if let Err(e) = r {
                out.failed += 1;
                out.notes.push(format!("phase-1 ingest failed: {e}"));
                failed = true;
                break;
            }
            if tracer.enabled() {
                acc.ingest_us.push(ns as f64 / 1e3);
            }
            sent += 1;
        } else if now >= next_poll {
            observe(server.snapshot(0).generation(), now);
            next_poll = now + POLL_EVERY;
        }
    }
    tracer.set_enabled(false);
    // Let the tail of phase 1 become visible, still polling.  The applied
    // counter moves only after the covering generation is published.
    let settle = Instant::now();
    while server.shard_stats(0).edits_applied < (WARM_UP + sent) as u64 {
        if settle.elapsed() > SETTLE {
            return Err("phase-1 ops did not become visible".into());
        }
        std::thread::sleep(POLL_EVERY);
        observe(server.snapshot(0).generation(), start.elapsed());
    }
    observe(server.snapshot(0).generation(), start.elapsed());
    let phase1_s = secs(start.elapsed());
    let phase1_stats = server.shard_stats(0);
    let phase1_log = server.flush_log_since(0, log0);

    let mut accepted = sent;
    // Phase 2: saturation, back to back with retries.
    let before = accepted;
    let start2 = Instant::now();
    while !failed && accepted < ops.len() && start2.elapsed() < phase2 {
        out.attempted += 1;
        if let Err(e) = retry.run(|| server.ingest(0, ops[accepted])) {
            out.failed += 1;
            out.notes.push(format!("phase-2 ingest failed: {e}"));
            break;
        }
        accepted += 1;
    }
    if let Err(e) = server.flush(0) {
        out.failed += 1;
        out.notes.push(format!("final flush failed: {e}"));
    }
    acc.saturation_s += secs(start2.elapsed());
    acc.saturation_ops += accepted - before;
    if accepted == ops.len() {
        out.notes
            .push("phase-2 op pool exhausted before the time was up".into());
    }

    // Visibility: op i is visible at the first observed generation whose
    // op prefix (from the flush log) covers it.
    let log = server.flush_log(0);
    let mut prefix = vec![0usize; log.len() + 1];
    for (g, rec) in log.iter().enumerate() {
        prefix[g + 1] = prefix[g] + rec.size;
    }
    let mut obs = seen.iter().peekable();
    for i in 0..sent {
        while let Some(&&(g, _)) = obs.peek() {
            if prefix[g as usize] > WARM_UP + i {
                break;
            }
            obs.next();
        }
        let &(_, t) = obs.peek().ok_or("an op was never observed visible")?;
        let visible = t - us(rate_period.mul_f64(i as f64));
        acc.visible_us.push(visible);
        acc.visible_windows.push(visible, 1.0);
    }

    acc.phase1_s += phase1_s;
    acc.phase1_ops += sent;
    note_phase1(acc, &phase1_log, &phase1_stats, &server.shard_stats(0));
    Ok(accepted)
}

/// Writer-side figures of phase 1 from its flush records and counters.
fn note_phase1(acc: &mut Acc, log: &[FlushRecord], phase1: &ShardStats, end: &ShardStats) {
    for r in log.iter().filter(|r| r.size > 0) {
        acc.flush_us.push(r.nanos as f64 / 1e3);
        acc.busy_ns += r.nanos;
        acc.deduped += r.spine_deduped;
        acc.dirty += r.spine_dirty;
        acc.phase1_flushes += 1;
    }
    acc.reclaim_waits += phase1.reclaim_waits;
    acc.rebuild_fallbacks += phase1.rebuild_fallbacks;
    acc.backpressure += end.backpressure_timeouts;
    acc.load_shed += end.load_shed;
}
