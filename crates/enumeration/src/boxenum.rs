//! The `box-enum` procedure (Sections 5–6).
//!
//! Given a boxed set `Γ` in a box `B`, `box-enum(Γ)` enumerates every box `B'` that
//! contains a var- or ×-gate ∪-reachable from `Γ` ("interesting boxes"), and produces
//! for each one the ∪-reachability relation `R(B', Γ)`.
//!
//! Two implementations are provided:
//!
//! * [`box_enum_reference`]: the straightforward walk of the box tree described at
//!   the end of Section 5, with delay `O(depth(C) · w²/64)` — simple, certainly
//!   correct, used as the differential-testing oracle (it allocates freely;
//!   [`box_enum_reference_pooled`] is the same walk on the [`EnumScratch`]
//!   pools, used by [`BoxEnumMode::Reference`] so the reference mode can be
//!   held to the same zero-alloc steady-state discipline as the hot path);
//! * [`box_enum_indexed`]: Algorithm 3, which uses the precomputed `fib`/`fbb`
//!   jump pointers of the index (Definition 6.1) to skip uninteresting boxes, making
//!   the delay essentially independent of the circuit depth (Lemma 6.4).  This is
//!   the hot path: every relation it materializes comes from the
//!   [`EnumScratch`] pools and every child-step relation comes precomposed from
//!   the index, so a warm steady-state run performs no heap allocation
//!   (guarded by [`crate::scratch::EnumStats`]).
//!
//! Both sinks receive the scratch back on every emission — the recursion is
//! re-entrant (`enum-s` recurses into `box-enum` from inside the sink), so the
//! scratch is threaded through rather than borrowed across calls.
//!
//! The pooled walks are resumable (see [`crate::dedup`]): a `Break` records
//! which step of each frame it unwound through, and an armed scratch makes
//! the next run re-enter at those steps.

use crate::bitset::GateSet;
use crate::index::EnumIndex;
use crate::relation::{child_relation, child_relation_into, Relation};
use crate::scratch::EnumScratch;
use std::ops::ControlFlow;
use treenum_circuits::{BoxId, Circuit, Side, UnionInput};

/// Which `box-enum` implementation the enumerator should use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BoxEnumMode {
    /// Algorithm 3 with the jump-pointer index (the paper's algorithm).
    #[default]
    Indexed,
    /// The naive depth-bounded walk (Section 5), used as reference.
    Reference,
}

/// The callback type receiving `(B', R(B', Γ))` pairs (plus the scratch, which
/// the sink may use for its own pooled storage and must thread into nested
/// enumeration calls).
pub type BoxSink<'s> = dyn FnMut(&mut EnumScratch, BoxId, &Relation) -> ControlFlow<()> + 's;

fn is_interesting(circuit: &Circuit, b: BoxId, sources: &GateSet) -> bool {
    let gates = circuit.union_gates(b);
    sources.iter().any(|gi| {
        gates[gi]
            .inputs
            .iter()
            .any(|i| matches!(i, UnionInput::Var { .. } | UnionInput::Times { .. }))
    })
}

/// [`is_interesting`] reading the reachable sources straight off the
/// relation's rows, so the pooled reference walk needs no materialized
/// source [`GateSet`].
fn is_interesting_rel(circuit: &Circuit, b: BoxId, r: &Relation) -> bool {
    let gates = circuit.union_gates(b);
    (0..r.rows()).any(|gi| {
        !r.row_is_empty(gi)
            && gates[gi]
                .inputs
                .iter()
                .any(|i| matches!(i, UnionInput::Var { .. } | UnionInput::Times { .. }))
    })
}

/// The initial relation `R(B, Γ) = {(g, g) | g ∈ Γ}` for a boxed set `Γ` of box `B`.
pub fn initial_relation(circuit: &Circuit, b: BoxId, gamma: &GateSet) -> Relation {
    let w = circuit.box_width(b);
    Relation::from_pairs(w, w, gamma.iter().map(|g| (g, g)))
}

/// Reference implementation: walk the subtree of `box(Γ)` top-down, maintaining the
/// reachability relation, and emit it at every interesting box.
pub fn box_enum_reference(
    circuit: &Circuit,
    scratch: &mut EnumScratch,
    b: BoxId,
    gamma: &GateSet,
    sink: &mut BoxSink<'_>,
) -> ControlFlow<()> {
    let r = initial_relation(circuit, b, gamma);
    walk_reference(circuit, scratch, b, &r, sink)
}

fn walk_reference(
    circuit: &Circuit,
    scratch: &mut EnumScratch,
    b: BoxId,
    r: &Relation,
    sink: &mut BoxSink<'_>,
) -> ControlFlow<()> {
    let sources = r.project_sources();
    if sources.is_empty() {
        return ControlFlow::Continue(());
    }
    if is_interesting(circuit, b, &sources) {
        sink(scratch, b, r)?;
    }
    if let Some((l, rt)) = circuit.children(b) {
        let rl = child_relation(circuit, b, Side::Left).compose(r);
        if !rl.is_empty() {
            walk_reference(circuit, scratch, l, &rl, sink)?;
        }
        let rr = child_relation(circuit, b, Side::Right).compose(r);
        if !rr.is_empty() {
            walk_reference(circuit, scratch, rt, &rr, sink)?;
        }
    }
    ControlFlow::Continue(())
}

/// The scratch-pooled variant of [`box_enum_reference`]: the same top-down
/// walk, but every relation (initial, child step, composition) comes from the
/// [`EnumScratch`] pools, so a warm steady-state run performs no heap
/// allocation — letting differential tests assert zero-alloc parity between
/// the reference and indexed modes instead of only on the hot path.  The
/// unpooled [`box_enum_reference`] stays as the allocation-agnostic oracle
/// the pooled variants are checked against.
pub fn box_enum_reference_pooled(
    circuit: &Circuit,
    scratch: &mut EnumScratch,
    b: BoxId,
    gamma: &GateSet,
    sink: &mut BoxSink<'_>,
) -> ControlFlow<()> {
    scratch.begin_run();
    let w = circuit.box_width(b);
    let mut r0 = scratch.take_relation(w, w);
    for g in gamma.iter() {
        r0.set(g, g);
    }
    let flow = if r0.is_empty() {
        ControlFlow::Continue(())
    } else {
        walk_reference_pooled(circuit, scratch, b, &r0, sink)
    };
    scratch.put_relation(r0);
    flow
}

/// Frame index: 0 at `b` itself, 1 in the left subtree, 2 in the right.
fn walk_reference_pooled(
    circuit: &Circuit,
    scratch: &mut EnumScratch,
    b: BoxId,
    r: &Relation,
    sink: &mut BoxSink<'_>,
) -> ControlFlow<()> {
    let start = scratch.enter_frame();
    let mut flow = ControlFlow::Continue(());
    let mut at = 0;
    if start == 0 && is_interesting_rel(circuit, b, r) {
        flow = sink(scratch, b, r);
    }
    if let Some((l, rt)) = circuit.children(b) {
        let w = circuit.box_width(b);
        for (i, side, child) in [(1, Side::Left, l), (2, Side::Right, rt)] {
            if i < start || flow.is_break() {
                continue;
            }
            at = i;
            let mut step = scratch.take_relation(circuit.box_width(child), w);
            child_relation_into(circuit, b, side, &mut step);
            let mut rc = scratch.take_relation(step.rows(), r.cols());
            step.compose_into(r, &mut rc);
            scratch.put_relation(step);
            if !rc.is_empty() {
                flow = walk_reference_pooled(circuit, scratch, child, &rc, sink);
            }
            scratch.put_relation(rc);
        }
    }
    scratch.leave_frame(flow, at)
}

/// Algorithm 3: jump to the first interesting box with `fib`, cover its subtree, then
/// walk the bidirectional boxes on the path with `fbb`, recursing into their right
/// subtrees.
pub fn box_enum_indexed(
    circuit: &Circuit,
    index: &EnumIndex,
    scratch: &mut EnumScratch,
    b: BoxId,
    gamma: &GateSet,
    sink: &mut BoxSink<'_>,
) -> ControlFlow<()> {
    scratch.begin_run();
    if gamma.is_empty() {
        return ControlFlow::Continue(());
    }
    let w = circuit.box_width(b);
    let mut r0 = scratch.take_relation(w, w);
    for g in gamma.iter() {
        r0.set(g, g);
    }
    let flow = b_enum(circuit, index, scratch, b, &r0, sink);
    scratch.put_relation(r0);
    flow
}

/// Frame index (the step a `Break` unwound through): 0 at the first
/// interesting box `b1`, 1 in its left subtree, 2 in its right subtree,
/// `3 + j` in the off-path subtree of the `j`-th box on the path to `b1`.
// hot-path: the per-answer B-ENUM recursion; every relation it touches must
// come from (and return to) the `EnumScratch` pools, never the allocator.
fn b_enum(
    circuit: &Circuit,
    index: &EnumIndex,
    scratch: &mut EnumScratch,
    b: BoxId,
    r: &Relation,
    sink: &mut BoxSink<'_>,
) -> ControlFlow<()> {
    debug_assert!(!r.is_empty(), "b-enum called with an empty relation");
    let start = scratch.enter_frame();
    let bi = index.of(b);
    // Line 4–6: jump to the first interesting box and output its relation.
    let b1_slot = bi
        .fib_of_set((0..r.rows()).filter(|&i| !r.row_is_empty(i)))
        .expect("every ∪-gate reaches an interesting box");
    let b1 = bi.closure[b1_slot as usize];
    let mut flow = ControlFlow::Continue(());
    let mut at = 0;
    if start <= 2 {
        let rel1 = &bi.rel[b1_slot as usize];
        let mut r1 = scratch.take_relation(rel1.rows(), r.cols());
        rel1.compose_into(r, &mut r1);
        if start == 0 {
            flow = sink(scratch, b1, &r1);
        }
        // Lines 7–10: recurse into both subtrees of the first interesting box.
        if flow.is_continue() {
            if let Some((bl, br)) = circuit.children(b1) {
                let (cl, cr) = index
                    .of(b1)
                    .child_rels()
                    .expect("internal box stores child relations");
                for (i, child, step) in [(1, bl, cl), (2, br, cr)] {
                    if i < start || flow.is_break() {
                        continue;
                    }
                    at = i;
                    let mut rc = scratch.take_relation(step.rows(), r1.cols());
                    step.compose_into(&r1, &mut rc);
                    if !rc.is_empty() {
                        flow = b_enum(circuit, index, scratch, child, &rc, sink);
                    }
                    scratch.put_relation(rc);
                }
            }
        }
        scratch.put_relation(r1);
    }
    // Lines 11–17 of Algorithm 3 jump between the *bidirectional* boxes on the path
    // from `b` to `b1` and recurse into their off-path subtrees.  We implement the
    // same traversal as a walk down that path: path boxes strictly above `b1` are
    // never interesting (otherwise `fib` would have returned them), so the only work
    // is to recurse into the off-path side wherever the ∪-reachable wavefront
    // branches away from the path.  The walk costs `O(w²/64)` per path box (the
    // child steps come precomposed from the index); with the balanced terms of
    // Section 7 the path has length `O(log n)`.  A resumed walk replays the
    // path steps before its recorded one without recursing.
    if flow.is_continue() && b != b1 {
        let mut current_box = b;
        let mut cur = scratch.take_relation(r.rows(), r.cols());
        cur.copy_from(r);
        let mut i = 3;
        while current_box != b1 && !cur.is_empty() {
            let (bl, br) = circuit
                .children(current_box)
                .expect("a strict ancestor of the first interesting box is internal");
            let (cl, cr) = index
                .of(current_box)
                .child_rels()
                .expect("internal box stores child relations");
            let towards_left = circuit.is_ancestor(bl, b1);
            let (path_child, path_step, off_child, off_step) = if towards_left {
                (bl, cl, br, cr)
            } else {
                (br, cr, bl, cl)
            };
            if i >= start {
                at = i;
                let mut off = scratch.take_relation(off_step.rows(), cur.cols());
                off_step.compose_into(&cur, &mut off);
                if !off.is_empty() {
                    flow = b_enum(circuit, index, scratch, off_child, &off, sink);
                }
                scratch.put_relation(off);
                if flow.is_break() {
                    break;
                }
            }
            let mut next = scratch.take_relation(path_step.rows(), cur.cols());
            path_step.compose_into(&cur, &mut next);
            scratch.put_relation(std::mem::replace(&mut cur, next));
            current_box = path_child;
            i += 1;
        }
        scratch.put_relation(cur);
    }
    scratch.leave_frame(flow, at)
}

/// Runs either implementation depending on `mode` (the index may be `None` only in
/// reference mode).  Reference mode runs the scratch-pooled walk
/// ([`box_enum_reference_pooled`]), so both modes are allocation-free once
/// warm; the unpooled [`box_enum_reference`] remains available directly as
/// the allocation-agnostic oracle.
pub fn box_enum(
    circuit: &Circuit,
    index: Option<&EnumIndex>,
    mode: BoxEnumMode,
    scratch: &mut EnumScratch,
    b: BoxId,
    gamma: &GateSet,
    sink: &mut BoxSink<'_>,
) -> ControlFlow<()> {
    match mode {
        BoxEnumMode::Reference => box_enum_reference_pooled(circuit, scratch, b, gamma, sink),
        BoxEnumMode::Indexed => {
            let index = index.expect("indexed box-enum requires the index structure");
            box_enum_indexed(circuit, index, scratch, b, gamma, sink)
        }
    }
}

/// Collects the output of a `box-enum` run (for tests).
pub fn collect_box_enum(
    circuit: &Circuit,
    index: Option<&EnumIndex>,
    mode: BoxEnumMode,
    b: BoxId,
    gamma: &GateSet,
) -> Vec<(BoxId, Relation)> {
    let mut out = Vec::new();
    let mut scratch = EnumScratch::new();
    let _ = box_enum(
        circuit,
        index,
        mode,
        &mut scratch,
        b,
        gamma,
        &mut |scratch, bx, r| {
            out.push((bx, scratch.clone_relation(r)));
            ControlFlow::Continue(())
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use treenum_automata::binary::select_a_leaves;
    use treenum_automata::BinaryTva;
    use treenum_automata::State;
    use treenum_circuits::build_assignment_circuit;
    use treenum_trees::binary::BinaryTree;
    use treenum_trees::valuation::VarSet;
    use treenum_trees::{Alphabet, Label, Var};

    fn random_binary_tree(size: usize, num_labels: usize, seed: u64) -> BinaryTree {
        let mut rng = StdRng::seed_from_u64(seed);
        let label = |rng: &mut StdRng| Label(rng.gen_range(0..num_labels as u32));
        let l0 = label(&mut rng);
        let mut t = BinaryTree::leaf(l0);
        let mut roots = vec![t.root()];
        while roots.len() < size {
            if roots.len() >= 2 && rng.gen_bool(0.5) {
                let i = rng.gen_range(0..roots.len());
                let a = roots.swap_remove(i);
                let j = rng.gen_range(0..roots.len());
                let b = roots.swap_remove(j);
                roots.push(t.add_internal(label(&mut rng), a, b));
            } else {
                roots.push(t.add_leaf(label(&mut rng)));
            }
        }
        // Join the remaining roots into a single tree.
        while roots.len() > 1 {
            let a = roots.pop().unwrap();
            let b = roots.pop().unwrap();
            roots.push(t.add_internal(label(&mut rng), a, b));
        }
        t.set_root(roots[0]);
        t
    }

    /// A small random homogenized TVA over `num_labels` labels and one variable.
    fn random_tva(num_labels: usize, num_states: usize, seed: u64) -> BinaryTva {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Var(0);
        let mut tva = BinaryTva::new(num_states, num_labels, VarSet::singleton(x));
        for l in 0..num_labels as u32 {
            for q in 0..num_states as u32 {
                if rng.gen_bool(0.5) {
                    tva.add_initial(Label(l), VarSet::empty(), State(q));
                }
                if rng.gen_bool(0.4) {
                    tva.add_initial(Label(l), VarSet::singleton(x), State(q));
                }
            }
            for _ in 0..(num_states * num_states) {
                let q1 = State(rng.gen_range(0..num_states as u32));
                let q2 = State(rng.gen_range(0..num_states as u32));
                let q = State(rng.gen_range(0..num_states as u32));
                tva.add_transition(Label(l), q1, q2, q);
            }
        }
        for q in 0..num_states as u32 {
            if rng.gen_bool(0.5) {
                tva.add_final(State(q));
            }
        }
        tva.homogenize()
    }

    #[test]
    fn reference_and_indexed_agree_on_chain_circuits() {
        let sigma = Alphabet::from_names(["a", "f"]);
        let a = sigma.get("a").unwrap();
        let f = sigma.get("f").unwrap();
        let tva = select_a_leaves(a, f, Var(0));
        let mut t = BinaryTree::leaf(a);
        let mut cur = t.root();
        for _ in 0..8 {
            let l = t.add_leaf(a);
            cur = t.add_internal(f, cur, l);
        }
        t.set_root(cur);
        let ac = build_assignment_circuit(&tva, &t);
        let index = EnumIndex::build(&ac.circuit);
        let root = ac.circuit.root();
        for g in 0..ac.circuit.box_width(root) {
            let gamma = GateSet::singleton(ac.circuit.box_width(root), g);
            let reference =
                collect_box_enum(&ac.circuit, None, BoxEnumMode::Reference, root, &gamma);
            let indexed = collect_box_enum(
                &ac.circuit,
                Some(&index),
                BoxEnumMode::Indexed,
                root,
                &gamma,
            );
            let mut ref_sorted: Vec<_> = reference.clone();
            let mut idx_sorted: Vec<_> = indexed.clone();
            ref_sorted.sort_by_key(|(b, _)| *b);
            idx_sorted.sort_by_key(|(b, _)| *b);
            assert_eq!(ref_sorted, idx_sorted, "box sets differ for gate {g}");
        }
    }

    #[test]
    fn reference_and_indexed_agree_on_random_circuits() {
        // Debug builds run fewer seeds; TREENUM_FULL_ORACLE restores all.
        let seeds = treenum_trees::generate::oracle_scale(30, 12) as u64;
        for seed in 0..seeds {
            let num_states = 2 + (seed % 3) as usize;
            let tva = random_tva(2, num_states, seed);
            if tva.num_states() == 0 {
                continue;
            }
            let tree = random_binary_tree(15 + (seed % 10) as usize, 2, seed * 7 + 1);
            let ac = build_assignment_circuit(&tva, &tree);
            ac.circuit.validate();
            let index = EnumIndex::build(&ac.circuit);
            let root = ac.circuit.root();
            let width = ac.circuit.box_width(root);
            if width == 0 {
                continue;
            }
            // All non-empty subsets over up to the first 4 gates.
            let limit = width.min(4);
            for mask in 1u32..(1 << limit) {
                let gamma =
                    GateSet::from_indices(width, (0..limit).filter(|i| mask & (1 << i) != 0));
                let mut reference =
                    collect_box_enum(&ac.circuit, None, BoxEnumMode::Reference, root, &gamma);
                let mut indexed = collect_box_enum(
                    &ac.circuit,
                    Some(&index),
                    BoxEnumMode::Indexed,
                    root,
                    &gamma,
                );
                reference.sort_by_key(|(b, _)| *b);
                indexed.sort_by_key(|(b, _)| *b);
                assert_eq!(
                    reference, indexed,
                    "seed {seed}, mask {mask}: box-enum implementations disagree"
                );
            }
        }
    }

    /// Collects a run of the *unpooled* reference walk (test oracle).
    fn collect_reference_unpooled(
        circuit: &Circuit,
        b: BoxId,
        gamma: &GateSet,
    ) -> Vec<(BoxId, Relation)> {
        let mut out = Vec::new();
        let mut scratch = EnumScratch::new();
        let _ = box_enum_reference(circuit, &mut scratch, b, gamma, &mut |_s, bx, r| {
            out.push((bx, r.clone()));
            ControlFlow::Continue(())
        });
        out
    }

    #[test]
    fn pooled_reference_matches_unpooled_reference() {
        let seeds = treenum_trees::generate::oracle_scale(20, 8) as u64;
        for seed in 0..seeds {
            let tva = random_tva(2, 2 + (seed % 3) as usize, seed + 500);
            if tva.num_states() == 0 {
                continue;
            }
            let tree = random_binary_tree(12 + (seed % 12) as usize, 2, seed * 3 + 2);
            let ac = build_assignment_circuit(&tva, &tree);
            let root = ac.circuit.root();
            let width = ac.circuit.box_width(root);
            if width == 0 {
                continue;
            }
            let limit = width.min(4);
            for mask in 1u32..(1 << limit) {
                let gamma =
                    GateSet::from_indices(width, (0..limit).filter(|i| mask & (1 << i) != 0));
                let unpooled = collect_reference_unpooled(&ac.circuit, root, &gamma);
                let mut scratch = EnumScratch::new();
                let mut pooled = Vec::new();
                let _ = box_enum_reference_pooled(
                    &ac.circuit,
                    &mut scratch,
                    root,
                    &gamma,
                    &mut |scratch, bx, r| {
                        pooled.push((bx, scratch.clone_relation(r)));
                        ControlFlow::Continue(())
                    },
                );
                assert_eq!(
                    unpooled, pooled,
                    "seed {seed}, mask {mask}: pooled reference diverged (emission order included)"
                );
            }
        }
    }

    #[test]
    fn pooled_reference_is_allocation_free_when_warm() {
        let tva = random_tva(2, 3, 7);
        let tree = random_binary_tree(40, 2, 8);
        let ac = build_assignment_circuit(&tva, &tree);
        let root = ac.circuit.root();
        let width = ac.circuit.box_width(root);
        if width == 0 {
            return;
        }
        let gamma = GateSet::full(width);
        let mut scratch = EnumScratch::new();
        let run = |scratch: &mut EnumScratch| {
            let mut count = 0usize;
            let _ =
                box_enum_reference_pooled(&ac.circuit, scratch, root, &gamma, &mut |_s, _b, _r| {
                    count += 1;
                    ControlFlow::Continue(())
                });
            count
        };
        // Two warm-up passes per the warm-up protocol, then steady state.
        let first = run(&mut scratch);
        let _ = run(&mut scratch);
        let warm = scratch.stats();
        for _ in 0..3 {
            assert_eq!(run(&mut scratch), first);
        }
        let steady = scratch.stats();
        assert_eq!(
            steady.per_answer_allocs, warm.per_answer_allocs,
            "warm pooled reference walk must not allocate"
        );
        assert_eq!(steady.relation_clones, warm.relation_clones);
    }

    #[test]
    fn pooled_reference_releases_pools_on_early_break() {
        let tva = random_tva(2, 3, 21);
        let tree = random_binary_tree(30, 2, 22);
        let ac = build_assignment_circuit(&tva, &tree);
        let root = ac.circuit.root();
        let width = ac.circuit.box_width(root);
        if width == 0 {
            return;
        }
        let gamma = GateSet::full(width);
        let mut scratch = EnumScratch::new();
        let run = |scratch: &mut EnumScratch, stop_after: usize| {
            let mut count = 0usize;
            let _ =
                box_enum_reference_pooled(&ac.circuit, scratch, root, &gamma, &mut |_s, _b, _r| {
                    count += 1;
                    if count >= stop_after {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                });
            count
        };
        let total = run(&mut scratch, usize::MAX);
        let _ = run(&mut scratch, usize::MAX);
        let warm = scratch.stats();
        // Early-terminated runs must return every pooled object, or the next
        // full run re-allocates.
        for stop in [1usize, total / 2, total] {
            let _ = run(&mut scratch, stop.max(1));
        }
        let _ = run(&mut scratch, usize::MAX);
        assert_eq!(scratch.stats().per_answer_allocs, warm.per_answer_allocs);
    }

    #[test]
    fn indexed_emits_each_box_once() {
        let tva = random_tva(2, 3, 99);
        let tree = random_binary_tree(25, 2, 100);
        let ac = build_assignment_circuit(&tva, &tree);
        let index = EnumIndex::build(&ac.circuit);
        let root = ac.circuit.root();
        let width = ac.circuit.box_width(root);
        if width == 0 {
            return;
        }
        let gamma = GateSet::full(width);
        let boxes: Vec<BoxId> = collect_box_enum(
            &ac.circuit,
            Some(&index),
            BoxEnumMode::Indexed,
            root,
            &gamma,
        )
        .into_iter()
        .map(|(b, _)| b)
        .collect();
        let mut dedup = boxes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), boxes.len(), "a box was emitted twice");
    }

    #[test]
    fn indexed_box_enum_is_allocation_free_when_warm() {
        let tva = random_tva(2, 3, 7);
        let tree = random_binary_tree(40, 2, 8);
        let ac = build_assignment_circuit(&tva, &tree);
        let index = EnumIndex::build(&ac.circuit);
        let root = ac.circuit.root();
        let width = ac.circuit.box_width(root);
        if width == 0 {
            return;
        }
        let gamma = GateSet::full(width);
        let mut scratch = EnumScratch::new();
        let run = |scratch: &mut EnumScratch| {
            let mut count = 0usize;
            let _ = box_enum_indexed(
                &ac.circuit,
                &index,
                scratch,
                root,
                &gamma,
                &mut |_s, _b, _r| {
                    count += 1;
                    ControlFlow::Continue(())
                },
            );
            count
        };
        let first = run(&mut scratch);
        let warm = scratch.stats();
        let second = run(&mut scratch);
        assert_eq!(first, second);
        let steady = scratch.stats();
        assert_eq!(
            steady.per_answer_allocs, warm.per_answer_allocs,
            "warm box-enum must not allocate"
        );
        assert_eq!(steady.relation_clones, warm.relation_clones);
    }
}
