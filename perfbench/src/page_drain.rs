//! `page_drain`: enumeration and pagination do the work.  At one pinned
//! snapshot, every registered query is drained completely in small pages;
//! then a handful of edits is committed so that the next cycle reads a new
//! generation.  The tree's labels are split evenly (see [`even_label_tree`]),
//! so every seed starts from the same answer counts.

use crate::run::{
    build_server, mix64, quiet_restart, secs, segment_seed, us, warm_server, Args, Outcome,
    SetupLayers, RESTARTS, SEGMENTS,
};
use crate::stats::{Samples, Windows};
use crate::trace::Tracer;
use std::ops::ControlFlow;
use std::time::Instant;
use treenum_balance::build_balanced_term;
use treenum_bench::{bench_alphabet, bench_tree, marked_ancestor_query, select_b_query};
use treenum_serve::{PageCursor, QueryId, ServeError, TreeServer};
use treenum_trees::generate::TreeShape;
use treenum_trees::{Assignment, EditFeed, EditOp, EditStream, UnrankedTree};

const TREE_SIZE: usize = 10_000;
const PAGE: usize = 25;
/// Edits committed between two drain cycles.
const CYCLE_OPS: usize = 8;
/// Cycles pregenerated per measured second: many times today's rate.
const CYCLES_PER_SECOND_POOL: f64 = 200.0;
/// A segment goes on past its time (up to three times as long) until it
/// has this many cycles, so that the run's p90 has ten samples beyond it.
const MIN_CYCLES_PER_SEGMENT: usize = 11;
/// Set-up ends with this many single-op flushes (see `warm_server`).
const WARM_UP: usize = 2;

/// A random tree whose labels are an exact even split of the alphabet,
/// dealt over the nodes in a seeded random order, with the root marked
/// `m`.  A drain costs Θ(N²/k) in the answer count N, so leaving N to
/// chance would make the seed, not the code, set the figures: this way
/// `select_b` and `marked_ancestor` both start with exactly n/4 answers,
/// and an edit moves either count by at most one.  (Under a random `m`
/// placement, relabelling one `m` near the root moves hundreds of
/// `marked_ancestor` answers at once.)
fn even_label_tree(seed: u64) -> UnrankedTree {
    let mut tree = bench_tree(TREE_SIZE, TreeShape::Random, seed);
    let labels: Vec<_> = bench_alphabet().labels().collect();
    let m = bench_alphabet().get("m").expect("the marked label");
    let mut nodes = tree.preorder();
    for i in (1..nodes.len()).rev() {
        let r = mix64(seed ^ 0x1AB3_15ED ^ ((i as u64) << 32));
        nodes.swap(i, (r % (i as u64 + 1)) as usize);
    }
    let root = nodes.iter().position(|&n| n == tree.root()).unwrap();
    let m_slot = labels.iter().position(|&l| l == m).unwrap();
    nodes.swap(root, m_slot);
    for (i, node) in nodes.into_iter().enumerate() {
        tree.relabel(node, labels[i % labels.len()]);
    }
    tree
}

/// One query drained page by page at a pinned generation.
struct Drain {
    answers: Vec<Assignment>,
    pages: usize,
    /// Σ (cursor position + page length): answers the pages enumerated.
    walked: usize,
}

/// Samples and counters pooled over all segments.
#[derive(Default)]
struct Acc {
    setup: Samples,
    restart: Samples,
    layers: SetupLayers,
    drain_us: Samples,
    cycle_us: Samples,
    /// Cycles one to a window: a cycle is already a stretch of ~0.2 s.
    cycle_windows: Windows<1>,
    traced_drain: Samples,
    untraced_drain: Samples,
    snapshot_us: Samples,
    page_us: Samples,
    first_us: Samples,
    deep_us: Samples,
    count_ms: Samples,
    delay_ns: Samples,
    flush_us: Samples,
    returned: usize,
    walked: usize,
    reclaim_waits: u64,
    rebuild_fallbacks: u64,
    backpressure: u64,
    load_shed: u64,
    drain_s: f64,
    cycles: u64,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tree = even_label_tree(args.seed);
    let primary = select_b_query();
    let extra = [marked_ancestor_query().0];

    // Every segment's op stream, generated before anything is timed: a
    // warm-up, then one batch per drain cycle.
    let segment = args.seconds / SEGMENTS as u32;
    let cycles = (3.0 * secs(segment) * CYCLES_PER_SECOND_POOL) as usize;
    let labels: Vec<_> = bench_alphabet().labels().collect();
    let streams: Vec<(Vec<EditOp>, Vec<Vec<EditOp>>)> = (0..SEGMENTS)
        .map(|seg| {
            let stream = EditStream::skewed(labels.clone(), segment_seed(args.seed ^ 0xD4A1, seg));
            let mut feed = EditFeed::new(&tree, stream);
            let warm_up = feed.next_batch(WARM_UP);
            (
                warm_up,
                (0..cycles).map(|_| feed.next_batch(CYCLE_OPS)).collect(),
            )
        })
        .collect();

    let mut acc = Acc::default();
    let mut tracer = Tracer::new(false);
    let mut gauges = None;
    out.correct = true;
    for (warm_up, batches) in &streams {
        let start = Instant::now();
        let s = build_server(&tree, &primary, &extra)?;
        warm_server(&s.server, warm_up)?;
        let setup_s = secs(start.elapsed());
        acc.setup.push(setup_s);
        acc.layers.push(s.cost);

        let committed = run_segment(
            args,
            &s.server,
            &s.ids,
            batches,
            segment,
            &mut tracer,
            &mut acc,
            &mut out,
        )?;

        // The served tree is the initial tree with every committed op
        // applied, and the counters agree.
        let mut shadow = tree.clone();
        for op in warm_up.iter().chain(batches[..committed].iter().flatten()) {
            shadow.apply(op);
        }
        let st = s.server.shard_stats(0);
        let snap = s.server.snapshot(0);
        if !snap.tree().structurally_equal(&shadow)
            || st.edits_applied != (WARM_UP + committed * CYCLE_OPS) as u64
            || st.generation != st.flushes
        {
            out.correct = false;
            out.notes
                .push("served tree or counters differ from the committed ops".into());
        }
        gauges = Some(snap.stats());
        acc.reclaim_waits += st.reclaim_waits;
        acc.rebuild_fallbacks += st.rebuild_fallbacks;
        acc.backpressure += st.backpressure_timeouts;
        acc.load_shed += st.load_shed;
        drop(snap);
        drop(s);

        // Restart: rebuild the server on the final tree and warm it up on
        // the stream's next ops.
        let next = batches.get(committed).ok_or("op pool exhausted")?;
        let mut times = Vec::with_capacity(RESTARTS);
        for _ in 0..RESTARTS {
            let start = Instant::now();
            let fresh = build_server(&shadow, &primary, &extra)?;
            warm_server(&fresh.server, &next[..WARM_UP])?;
            times.push(secs(start.elapsed()));
            acc.restart.push(secs(start.elapsed()));
        }
        out.notes.push(format!(
            "segment: {committed} cycles, set-up {setup_s:.3} s, restart {times:.3?} s"
        ));
    }

    out.metrics.set("setup_s", acc.setup.median().unwrap(), "s");
    out.metrics
        .set("restart_s", quiet_restart(&mut acc.restart), "s");
    // The end-to-end latency is a whole cycle's reading: every query
    // drained at one pinned generation.  Single drains are bimodal (the
    // marked-ancestor drain takes about 1.4 times the select-b drain), so
    // their pooled percentiles fall on the edge of a mode.
    out.quiet(&acc.cycle_windows)?;
    out.percentile("cycle_us.p50", &mut acc.cycle_us, 50.0, "us")?;
    out.percentile("latency_us.tail", &mut acc.cycle_us, 90.0, "us")?;
    out.metrics
        .set("answers_per_s", acc.returned as f64 / acc.drain_s, "1/s");
    out.percentile("drain_us.p50", &mut acc.drain_us, 50.0, "us")?;
    out.percentile("drain_us.p90", &mut acc.drain_us, 90.0, "us")?;
    out.notes.push(format!(
        "{} cycles, {} answers returned, {} enumerated by the pages",
        acc.cycles, acc.returned, acc.walked
    ));

    out.gauges(&gauges.expect("at least one segment"));
    acc.layers.report(&mut out);
    if args.trace {
        let start = Instant::now();
        drop(build_balanced_term(&tree));
        out.metrics
            .set("balance.build_term_ms", secs(start.elapsed()) * 1e3, "ms");
        out.metrics.set(
            "serve.answers_walked_per_returned",
            acc.walked as f64 / acc.returned.max(1) as f64,
            "ratio",
        );
        out.percentile("serve.snapshot_us.p50", &mut acc.snapshot_us, 50.0, "us")?;
        out.percentile("serve.snapshot_us.p99", &mut acc.snapshot_us, 99.0, "us")?;
        out.percentile("serve.page_us.p50", &mut acc.page_us, 50.0, "us")?;
        out.percentile("serve.page_us.p95", &mut acc.page_us, 95.0, "us")?;
        out.percentile("serve.page_us.first.p50", &mut acc.first_us, 50.0, "us")?;
        out.percentile("serve.page_us.deep.p50", &mut acc.deep_us, 50.0, "us")?;
        out.percentile("serve.flush_us.p50", &mut acc.flush_us, 50.0, "us")?;
        out.percentile("serve.flush_us.p95", &mut acc.flush_us, 95.0, "us")?;
        out.percentile("enumeration.count_ms.p50", &mut acc.count_ms, 50.0, "ms")?;
        out.percentile("enumeration.delay_ns.p50", &mut acc.delay_ns, 50.0, "ns")?;
        out.percentile("enumeration.delay_ns.p99", &mut acc.delay_ns, 99.0, "ns")?;
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
            &mut acc.traced_drain,
            &mut acc.untraced_drain,
        )?;
    }
    Ok(out)
}

/// One segment of drain cycles on a ready server; returns how many of
/// `batches` it committed.
#[allow(clippy::too_many_arguments)]
fn run_segment(
    args: &Args,
    server: &TreeServer,
    ids: &[QueryId],
    batches: &[Vec<EditOp>],
    segment: std::time::Duration,
    tracer: &mut Tracer,
    acc: &mut Acc,
    out: &mut Outcome,
) -> Result<usize, String> {
    let mut committed = 0usize;
    let start = Instant::now();
    for batch in batches {
        let elapsed = start.elapsed();
        if elapsed >= segment && (committed >= MIN_CYCLES_PER_SEGMENT || elapsed >= segment * 3) {
            break;
        }
        let (mut cycle_us, mut cycle_answers) = (0.0, 0);
        let cycle = acc.cycles;
        let traced = args.traces(cycle);
        tracer.set_enabled(traced);
        tracer.begin_request(cycle);
        let (snap, ns) = tracer.span("serve", "snapshot", |_| server.snapshot(0));
        if traced {
            acc.snapshot_us.push(ns as f64 / 1e3);
        }
        for &id in ids {
            let reader = snap.query(id).map_err(|e| format!("query {id}: {e}"))?;
            let t = Instant::now();
            let (drain, _) = tracer.span("bench", "drain", |tr| -> Result<Drain, ServeError> {
                let mut d = Drain {
                    answers: Vec::new(),
                    pages: 0,
                    walked: 0,
                };
                let mut cursor: Option<PageCursor> = None;
                loop {
                    let position = cursor.map_or(0, |c| c.position());
                    let (page, ns) = tr.span("serve", "page", |_| reader.page(cursor, PAGE));
                    let page = page?;
                    if tr.enabled() {
                        let page_time = ns as f64 / 1e3;
                        acc.page_us.push(page_time);
                        if d.pages == 0 {
                            acc.first_us.push(page_time);
                        }
                        if page.next.is_none() {
                            acc.deep_us.push(page_time);
                        }
                    }
                    d.pages += 1;
                    d.walked += position + page.answers.len();
                    d.answers.extend(page.answers);
                    match page.next {
                        Some(next) => cursor = Some(next),
                        None => return Ok(d),
                    }
                }
            });
            let dt = t.elapsed();
            out.attempted += 1;
            let drain = match drain {
                Ok(d) => d,
                Err(e) => {
                    out.failed += 1;
                    out.notes.push(format!("query {id}: page failed: {e}"));
                    continue;
                }
            };
            cycle_us += us(dt);
            acc.drain_us.push(us(dt));
            acc.drain_s += secs(dt);
            acc.returned += drain.answers.len();
            cycle_answers += drain.answers.len();
            acc.walked += drain.walked;

            // Outside the timed drain: the pages must be the snapshot's
            // answers, in enumeration order.
            if drain.answers != reader.assignments() {
                out.correct = false;
                out.notes.push(format!(
                    "query {id}: pages differ from assignments() at generation {}",
                    snap.generation()
                ));
            }
            if traced {
                let (_, ns) = tracer.span("serve", "count", |_| reader.count());
                acc.count_ms.push(ns as f64 / 1e6);
                let mut last = Instant::now();
                reader.for_each(&mut |_| {
                    let now = Instant::now();
                    acc.delay_ns
                        .push(now.duration_since(last).as_nanos() as f64);
                    last = now;
                    ControlFlow::Continue(())
                });
            }
        }
        drop(snap);
        acc.cycle_us.push(cycle_us);
        acc.cycle_windows.push(cycle_us, cycle_answers as f64);
        if args.trace {
            if traced {
                acc.traced_drain.push(cycle_us)
            } else {
                acc.untraced_drain.push(cycle_us)
            }
        }
        let before = server.flush_log_len(0);
        let (r, _) = tracer.span("serve", "ingest_batch", |_| server.ingest_batch(0, batch));
        out.attempted += batch.len() as u64;
        if let Err(e) = r.and_then(|()| tracer.span("serve", "flush", |_| server.flush(0)).0) {
            out.failed += batch.len() as u64;
            out.notes.push(format!("commit failed: {e}"));
            break;
        }
        if traced {
            for rec in server.flush_log_since(0, before) {
                acc.flush_us.push(rec.nanos as f64 / 1e3);
            }
        }
        committed += 1;
        acc.cycles += 1;
    }
    tracer.set_enabled(false);
    Ok(committed)
}
