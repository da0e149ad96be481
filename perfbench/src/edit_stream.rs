//! `edit_stream`: the engine alone, single-threaded, closed loop.  Each
//! round applies one edit to three independent engines and then reads the
//! first ten answers of each — the paper's log-time update followed by a
//! restart of enumeration.

use crate::run::{
    compile_plan, quiet_restart, secs, segment_seed, us, Args, Outcome, SetupCost, SetupLayers,
    RESTARTS, SEGMENTS,
};
use crate::stats::{Samples, Windows};
use crate::trace::{allocations, count_allocations, Tracer};
use std::hint::black_box;
use std::time::Instant;
use treenum_automata::StepwiseTva;
use treenum_balance::build_balanced_term;
use treenum_balance::update::apply_edit;
use treenum_bench::{
    bench_alphabet, bench_tree, marked_ancestor_query, pair_query, select_b_query,
};
use treenum_core::TreeEnumerator;
use treenum_trees::generate::TreeShape;
use treenum_trees::{Assignment, EditFeed, EditOp, EditStream, UnrankedTree};

const TREE_SIZE: usize = 50_000;
const FIRST_K: usize = 10;
/// Rounds per window of `latency_us.quiet_p50`: about 25 ms today.
const WINDOW: usize = 250;
/// Ops pregenerated per measured second of a segment: several times the
/// rate the rounds run at today, so a faster engine still finds ops waiting.
const OPS_PER_SECOND_POOL: f64 = 40_000.0;

/// Compiles every query from scratch and builds its engine on `tree`.
fn build(
    tree: &UnrankedTree,
    queries: &[(StepwiseTva, usize)],
) -> (Vec<TreeEnumerator>, SetupCost) {
    let mut engines = Vec::with_capacity(queries.len());
    let mut cost = SetupCost::default();
    for (query, len) in queries {
        let tree = tree.clone();
        let (plan, translate_ns, compile_ns) = compile_plan(query, *len);
        let start = Instant::now();
        engines.push(TreeEnumerator::with_plan(tree, plan));
        cost.build_ns += start.elapsed().as_nanos() as u64;
        cost.translate_ns += translate_ns;
        cost.compile_ns += compile_ns;
    }
    (engines, cost)
}

/// Answers as a sorted list, for order-insensitive comparison.
fn sorted_answers(e: &TreeEnumerator) -> Vec<Assignment> {
    let mut a = e.assignments();
    a.sort();
    a
}

/// Samples and counters gathered over all segments of a traced run.
#[derive(Default)]
struct Layers {
    apply_us: Samples,
    first10_us: Samples,
    balance_us: Samples,
    repair_us: Samples,
    /// Per engine: apply and first-10 samples.
    per_engine: Vec<[Samples; 2]>,
    term_build_ms: Samples,
    traced_round: Samples,
    untraced_round: Samples,
    traced_edits: u64,
    allocs: u64,
    dirty: u64,
    box_rebuilds: u64,
    relations: u64,
    fallbacks: u64,
    enum_allocs: u64,
    enum_answers: u64,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tree = bench_tree(TREE_SIZE, TreeShape::Random, args.seed);
    let queries = [select_b_query(), pair_query(), marked_ancestor_query()];

    // Every segment's op stream, generated before anything is timed.
    let segment = args.seconds / SEGMENTS as u32;
    let labels: Vec<_> = bench_alphabet().labels().collect();
    let pool_len = (secs(segment) * OPS_PER_SECOND_POOL) as usize;
    let streams: Vec<Vec<EditOp>> = (0..SEGMENTS)
        .map(|seg| {
            let stream =
                EditStream::balanced_mix(labels.clone(), segment_seed(args.seed ^ 0xED17, seg));
            EditFeed::new(&tree, stream).next_batch(pool_len)
        })
        .collect();

    let (mut setup, mut restart) = (Samples::new(), Samples::new());
    let mut setup_layers = SetupLayers::default();
    let mut round_us = Samples::new();
    let mut windows = Windows::<WINDOW>::default();
    let mut layers = Layers {
        per_engine: (0..queries.len()).map(|_| Default::default()).collect(),
        ..Layers::default()
    };
    let mut tracer = Tracer::new(false);
    let (mut rounds, mut phase_s) = (0u64, 0.0);
    let mut gauges = Vec::new();
    out.correct = true;

    for ops in &streams {
        // Set-up: compile and build all three engines.
        let start = Instant::now();
        let (mut engines, cost) = build(&tree, &queries);
        let setup_time = start.elapsed();
        setup.push(secs(setup_time));
        setup_layers.push(cost);

        // Traced runs replay the same ops on a shadow balanced term, to
        // time the balance layer on its own.
        let mut shadow = None;
        if args.trace {
            let start = Instant::now();
            let (term, phi) = build_balanced_term(&tree);
            layers.term_build_ms.push(secs(start.elapsed()) * 1e3);
            shadow = Some((tree.clone(), term, phi));
        }

        // Warm the enumeration scratch pools before counting their
        // allocations.
        for e in &engines {
            black_box(e.first_k(FIRST_K));
        }
        let enum_before: Vec<_> = engines.iter().map(|e| e.enum_stats()).collect();

        let start = Instant::now();
        for op in ops {
            if start.elapsed() >= segment {
                break;
            }
            let traced = args.traces(rounds);
            tracer.set_enabled(traced);
            tracer.begin_request(rounds);
            let mut apply_ns = [0u64; 3];
            let mut first_ns = [0u64; 3];
            let round_start = Instant::now();
            tracer.span("bench", "round", |tr| {
                for (i, e) in engines.iter_mut().enumerate() {
                    if !traced {
                        e.apply(op);
                        continue;
                    }
                    let stats = e.index_stats();
                    count_allocations(true);
                    let a0 = allocations();
                    let (_, ns) = tr.span("core", "apply", |_| e.apply(op));
                    layers.allocs += allocations() - a0;
                    count_allocations(false);
                    let after = e.index_stats();
                    layers.box_rebuilds += after.box_rebuilds - stats.box_rebuilds;
                    layers.relations += after.relations_stored - stats.relations_stored;
                    layers.fallbacks +=
                        after.relation_walk_fallbacks - stats.relation_walk_fallbacks;
                    apply_ns[i] = ns;
                }
                for (i, e) in engines.iter().enumerate() {
                    let (answers, ns) = tr.span("enumeration", "first_k", |_| e.first_k(FIRST_K));
                    black_box(answers);
                    first_ns[i] = ns;
                }
            });
            let round = us(round_start.elapsed());
            round_us.push(round);
            windows.push(round, 1.0);
            rounds += 1;

            let Some((tree, term, phi)) = shadow.as_mut() else {
                continue;
            };
            let (report, ns) =
                tracer.span("balance", "apply_edit", |_| apply_edit(tree, term, phi, op));
            if !traced {
                layers.untraced_round.push(round);
                continue;
            }
            let balance = ns as f64 / 1e3;
            layers.traced_round.push(round);
            layers.traced_edits += engines.len() as u64;
            layers.dirty += report.dirty.len() as u64 * engines.len() as u64;
            layers.balance_us.push(balance);
            for i in 0..engines.len() {
                let (a, f) = (apply_ns[i] as f64 / 1e3, first_ns[i] as f64 / 1e3);
                layers.apply_us.push(a);
                layers.first10_us.push(f);
                layers.repair_us.push(a - balance);
                layers.per_engine[i][0].push(a);
                layers.per_engine[i][1].push(f);
            }
        }
        phase_s += secs(start.elapsed());
        tracer.set_enabled(false);
        for (e, b) in engines.iter().zip(&enum_before) {
            let s = e.enum_stats();
            layers.enum_allocs += s.per_answer_allocs - b.per_answer_allocs;
            layers.enum_answers += s.answers - b.answers;
        }

        // Restart: a fresh process rebuilds every engine on the current
        // tree; the rebuild is also the correctness oracle.  The live
        // engines' answers are kept and the engines dropped first, as they
        // would be in a restart.
        let final_tree = engines[0].tree().clone();
        let mut live = Vec::with_capacity(engines.len());
        for (i, e) in engines.iter().enumerate() {
            if !e.tree().structurally_equal(&final_tree) {
                out.correct = false;
                out.notes
                    .push(format!("engine {i}: tree differs from engine 0"));
            }
            live.push(sorted_answers(e));
        }
        gauges = engines.iter().map(|e| e.stats()).collect();
        drop(engines);
        let mut fresh = Vec::new();
        let mut times = Vec::with_capacity(RESTARTS);
        for _ in 0..RESTARTS {
            drop(std::mem::take(&mut fresh));
            let start = Instant::now();
            fresh = build(&final_tree, &queries).0;
            times.push(secs(start.elapsed()));
            restart.push(secs(start.elapsed()));
        }
        out.notes.push(format!(
            "segment: set-up {:.3} s, restart {times:.3?} s",
            secs(setup_time)
        ));
        for (i, (live, fresh)) in live.iter().zip(&fresh).enumerate() {
            if *live != sorted_answers(fresh) {
                out.correct = false;
                out.failed += 1;
                out.notes
                    .push(format!("engine {i}: answers differ from a fresh build"));
            }
        }
    }

    out.attempted = rounds;
    out.metrics.set("setup_s", setup.median().unwrap(), "s");
    out.metrics
        .set("restart_s", quiet_restart(&mut restart), "s");
    out.quiet(&windows)?;
    out.quiet_tail(&windows, 99.0)?;
    out.percentile("edit_to_answer_us.p50", &mut round_us, 50.0, "us")?;
    out.percentile("edit_to_answer_us.p99", &mut round_us, 99.0, "us")?;
    out.metrics
        .set("edits_per_s", rounds as f64 / phase_s, "1/s");
    out.notes.push(format!(
        "{rounds} rounds over {SEGMENTS} segments of {:.2} s",
        secs(segment)
    ));
    if rounds as usize >= pool_len * SEGMENTS {
        out.notes
            .push("op pool exhausted before the time was up".into());
    }

    // Gauges (of the primary engine) and set-up layers.
    out.gauges(&gauges[0]);
    for (i, g) in gauges.iter().enumerate() {
        out.notes.push(format!("engine {i}: {g:?}"));
    }
    setup_layers.report(&mut out);
    if args.trace {
        report_layers(&mut out, args, &tracer, &mut layers)?;
    }
    Ok(out)
}

fn report_layers(
    out: &mut Outcome,
    args: &Args,
    tracer: &Tracer,
    l: &mut Layers,
) -> Result<(), String> {
    out.metrics.set(
        "balance.build_term_ms",
        l.term_build_ms.median().unwrap(),
        "ms",
    );
    let edits = l.traced_edits.max(1) as f64;
    out.metrics
        .set("core.allocs_per_edit", l.allocs as f64 / edits, "count");
    out.metrics
        .set("balance.dirty_per_edit", l.dirty as f64 / edits, "count");
    out.metrics.set(
        "enumeration.index.box_rebuilds_per_edit",
        l.box_rebuilds as f64 / edits,
        "count",
    );
    out.metrics.set(
        "enumeration.index.relations_stored_per_edit",
        l.relations as f64 / edits,
        "count",
    );
    out.metrics.set(
        "enumeration.index.walk_fallbacks_per_edit",
        l.fallbacks as f64 / edits,
        "count",
    );
    out.metrics.set(
        "enumeration.per_answer_allocs",
        l.enum_allocs as f64 / l.enum_answers.max(1) as f64,
        "count",
    );
    out.percentile("core.apply_us.p50", &mut l.apply_us, 50.0, "us")?;
    out.percentile("core.apply_us.p99", &mut l.apply_us, 99.0, "us")?;
    out.percentile("balance.apply_edit_us.p50", &mut l.balance_us, 50.0, "us")?;
    out.percentile("balance.apply_edit_us.p99", &mut l.balance_us, 99.0, "us")?;
    out.percentile("core.repair_us_est.p50", &mut l.repair_us, 50.0, "us")?;
    out.percentile("enumeration.first10_us.p50", &mut l.first10_us, 50.0, "us")?;
    out.percentile("enumeration.first10_us.p99", &mut l.first10_us, 99.0, "us")?;

    // Accounting: per engine, the apply (balance + repair) and first-10
    // medians, summed over the engines, against the untraced round median.
    let balance_p50 = l.balance_us.median().unwrap_or(0.0);
    let mut layer_sum = 0.0;
    for (i, [apply, first]) in l.per_engine.iter_mut().enumerate() {
        let (a, f) = (apply.median().unwrap_or(0.0), first.median().unwrap_or(0.0));
        out.notes.push(format!(
            "engine {i}: apply p50 {a:.2} us (balance {balance_p50:.2} + repair {:.2}), first-10 p50 {f:.2} us",
            a - balance_p50
        ));
        layer_sum += a + f;
    }
    if let Some(e2e) = l.untraced_round.median() {
        out.metrics
            .set("trace.accounted_frac", layer_sum / e2e, "ratio");
        out.notes.push(format!(
            "accounting: layers sum to {layer_sum:.2} us of the untraced round p50 {e2e:.2} us"
        ));
    }
    out.trace_report(args, tracer, &mut l.traced_round, &mut l.untraced_round)
}
