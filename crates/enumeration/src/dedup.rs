//! Duplicate-free enumeration with provenance (Algorithm 2, Theorem 5.3).
//!
//! Given a boxed set `Γ`, [`enumerate_boxed_set`] enumerates `S(Γ)` without
//! duplicates.  For every produced assignment `S` it also reports the provenance
//! `Prov(S, Γ) = {g ∈ Γ | S ∈ S(g)}`, which is what the recursive calls on the inputs
//! of ×-gates need in order to avoid duplicates across multiple ×-gates
//! (see Section 5 of the paper).
//!
//! The enumeration is callback-driven: the caller supplies a sink that may stop the
//! enumeration early by returning [`ControlFlow::Break`].
//!
//! The recursion carries an [`EnumScratch`]: all grouping, provenance and
//! assignment storage is pooled and reused across answers, so a warm
//! steady-state enumeration performs no heap allocation (the
//! [`crate::scratch::EnumStats`] counters guard this).  Assignments are
//! emitted as the contents of a shared stack — left factors of a ×-gate stay
//! pushed while the right factors enumerate below them — so no assignment
//! vector is cloned per answer.  Use the `*_with` entry points to reuse a
//! scratch across enumerations; the plain entry points create a throwaway one.
//!
//! Runs are resumable.  When the sink returns [`ControlFlow::Break`], every
//! resumable loop the `Break` unwinds through records its current index in
//! the scratch's trail (innermost first): the root records whether the empty
//! answer was emitted, `emit_box` which var part or the ×-phase, and
//! `box-enum` which of its steps (see [`crate::boxenum`]).  After
//! [`EnumScratch::resume_at`] arms the trail, the next run re-enters those
//! frames outermost first — each rebuilds its deterministic local state
//! (parts, triples, relations) and continues from its recorded index — so
//! it re-emits the refused answer and goes on from there.

use crate::bitset::GateSet;
use crate::boxenum::{box_enum, BoxEnumMode};
use crate::index::EnumIndex;
use crate::relation::Relation;
use crate::scratch::EnumScratch;
use std::ops::ControlFlow;
use treenum_circuits::{BoxId, Circuit, UnionInput};
use treenum_trees::valuation::VarSet;

/// An assignment as produced by the enumerator: a list of `⟨Y : leaf_token⟩` parts.
/// Leaf tokens are distinct across parts (decomposability), so the total size `|S|`
/// is the sum of the `VarSet` sizes.
pub type OutputAssignment = Vec<(VarSet, u32)>;

/// The sink type receiving `(assignment, provenance)` pairs.
pub type AssignmentSink<'s> = dyn FnMut(&OutputAssignment, &GateSet) -> ControlFlow<()> + 's;

/// The internal sink: threads the scratch and the shared assignment stack
/// back to the caller (the recursion is re-entrant, so neither can be
/// captured by the closures).
type InnerSink<'s> =
    dyn FnMut(&mut EnumScratch, &mut OutputAssignment, &GateSet) -> ControlFlow<()> + 's;

/// Context shared by the recursive calls.
struct Ctx<'a> {
    circuit: &'a Circuit,
    index: Option<&'a EnumIndex>,
    mode: BoxEnumMode,
}

/// Enumerates `S(Γ)` for the boxed set `gamma` of box `b`, without duplicates,
/// reporting each assignment together with its provenance relative to `gamma`.
///
/// Creates a throwaway [`EnumScratch`]; callers with repeated enumerations
/// should use [`enumerate_boxed_set_with`] to keep the pools warm.
pub fn enumerate_boxed_set(
    circuit: &Circuit,
    index: Option<&EnumIndex>,
    mode: BoxEnumMode,
    b: BoxId,
    gamma: &GateSet,
    sink: &mut AssignmentSink<'_>,
) -> ControlFlow<()> {
    let mut scratch = EnumScratch::new();
    enumerate_boxed_set_with(&mut scratch, circuit, index, mode, b, gamma, sink)
}

/// [`enumerate_boxed_set`] with a caller-provided scratch (the allocation-free
/// steady-state entry point).
pub fn enumerate_boxed_set_with(
    scratch: &mut EnumScratch,
    circuit: &Circuit,
    index: Option<&EnumIndex>,
    mode: BoxEnumMode,
    b: BoxId,
    gamma: &GateSet,
    sink: &mut AssignmentSink<'_>,
) -> ControlFlow<()> {
    scratch.begin_run();
    let ctx = Ctx {
        circuit,
        index,
        mode,
    };
    let mut asg = scratch.take_assignment();
    debug_assert!(asg.is_empty());
    let flow = enum_s(
        &ctx,
        scratch,
        &mut asg,
        b,
        gamma,
        &mut |scratch, asg, prov| {
            scratch.count_answer();
            sink(asg, prov)
        },
    );
    scratch.put_assignment(asg);
    flow
}

/// Enumerates all satisfying assignments represented by the root of an assignment
/// circuit: the empty assignment first when `empty_accepted` holds, then the
/// assignments captured by the root gates `root_gates` (the ∪-gates `γ(root, q_f)`
/// of the final states).
pub fn enumerate_root(
    circuit: &Circuit,
    index: Option<&EnumIndex>,
    mode: BoxEnumMode,
    root_box: BoxId,
    root_gates: &[u32],
    empty_accepted: bool,
    sink: &mut dyn FnMut(&OutputAssignment) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let mut scratch = EnumScratch::new();
    enumerate_root_with(
        &mut scratch,
        circuit,
        index,
        mode,
        root_box,
        root_gates,
        empty_accepted,
        sink,
    )
}

/// [`enumerate_root`] with a caller-provided scratch (the allocation-free
/// steady-state entry point).  Resumes from the scratch's trail when
/// [`EnumScratch::resume_at`] armed it (see the module docs).
#[allow(clippy::too_many_arguments)]
pub fn enumerate_root_with(
    scratch: &mut EnumScratch,
    circuit: &Circuit,
    index: Option<&EnumIndex>,
    mode: BoxEnumMode,
    root_box: BoxId,
    root_gates: &[u32],
    empty_accepted: bool,
    sink: &mut dyn FnMut(&OutputAssignment) -> ControlFlow<()>,
) -> ControlFlow<()> {
    scratch.begin_run();
    // Frame index: 0 at the empty answer, 1 in the boxed set.
    let start = scratch.enter_frame();
    let mut flow = ControlFlow::Continue(());
    let mut at = 0;
    if empty_accepted && start == 0 {
        static EMPTY: Vec<(VarSet, u32)> = Vec::new();
        scratch.count_answer();
        flow = sink(&EMPTY);
    }
    if flow.is_continue() && !root_gates.is_empty() {
        at = 1;
        let mut gamma = scratch.take_gate_set(circuit.box_width(root_box));
        for &g in root_gates {
            gamma.insert(g as usize);
        }
        flow = enumerate_boxed_set_with(
            scratch,
            circuit,
            index,
            mode,
            root_box,
            &gamma,
            &mut |s, _prov| sink(s),
        );
        scratch.put_gate_set(gamma);
    }
    scratch.leave_frame(flow, at)
}

/// Convenience wrapper collecting all assignments into a vector (tests, baselines,
/// small outputs).
pub fn collect_all(
    circuit: &Circuit,
    index: Option<&EnumIndex>,
    mode: BoxEnumMode,
    root_box: BoxId,
    root_gates: &[u32],
    empty_accepted: bool,
) -> Vec<OutputAssignment> {
    let mut out = Vec::new();
    let _ = enumerate_root(
        circuit,
        index,
        mode,
        root_box,
        root_gates,
        empty_accepted,
        &mut |s| {
            out.push(s.clone());
            ControlFlow::Continue(())
        },
    );
    out
}

// hot-path: the per-answer ENUM-S loop; the delay bound assumes zero
// allocation per emitted assignment (pools come from `EnumScratch`).
fn enum_s(
    ctx: &Ctx<'_>,
    scratch: &mut EnumScratch,
    asg: &mut OutputAssignment,
    b: BoxId,
    gamma: &GateSet,
    sink: &mut InnerSink<'_>,
) -> ControlFlow<()> {
    if gamma.is_empty() {
        return ControlFlow::Continue(());
    }
    box_enum(
        ctx.circuit,
        ctx.index,
        ctx.mode,
        scratch,
        b,
        gamma,
        &mut |scratch, bprime, r| emit_box(ctx, scratch, asg, bprime, r, sink),
    )
}

/// Handles one interesting box emitted by `box-enum`: emits the var-gate
/// groups (Algorithm 2 lines 5–7), then recurses through the ×-gates
/// (lines 8–16).  `r` relates the ∪-gates of `bprime` (rows) to the gates of
/// `gamma`'s box (columns); only columns in `gamma` are populated.
///
/// Frame index: `i < parts.len()` is var part `i`, `parts.len()` the
/// ×-phase.
fn emit_box(
    ctx: &Ctx<'_>,
    scratch: &mut EnumScratch,
    asg: &mut OutputAssignment,
    bprime: BoxId,
    r: &Relation,
    sink: &mut InnerSink<'_>,
) -> ControlFlow<()> {
    let start = scratch.enter_frame();
    let width_prime = ctx.circuit.box_width(bprime);
    let gates = ctx.circuit.union_gates(bprime);

    // First pass: size the grouping table (its capacity must cover every
    // insertion up front — it never grows mid-pass).
    let mut var_inputs = 0usize;
    for gi in 0..r.rows() {
        if r.row_is_empty(gi) {
            continue;
        }
        var_inputs += gates[gi]
            .inputs
            .iter()
            .filter(|i| matches!(i, UnionInput::Var { .. }))
            .count();
    }

    // --- var-gates (lines 5–7) ---
    // Var inputs with identical labels are the same var-gate (S_var is
    // injective), so group them in the epoch-marked table and union the
    // owners for the provenance.
    // --- ×-gates (lines 8–16) ---
    let mut triples = scratch.take_triples(); // (left, right, owner)
    scratch.begin_groups(var_inputs);
    for gi in 0..r.rows() {
        if r.row_is_empty(gi) {
            continue;
        }
        for input in &gates[gi].inputs {
            match *input {
                UnionInput::Var { vars, leaf_token } => {
                    scratch.insert_group(vars, leaf_token, gi, width_prime);
                }
                UnionInput::Times { left, right } => {
                    scratch.push_triple(&mut triples, (left, right, gi as u32));
                }
                UnionInput::Child { .. } => {}
            }
        }
    }

    // Drain the groups (deterministic `(token, vars)` order, provenance
    // precomputed) before emitting: the sink may re-enter `enum-s`, which
    // reuses the grouping table.
    let mut parts = scratch.take_parts();
    scratch.drain_groups_into(r, &mut parts);
    debug_assert!(start <= parts.len(), "resume index past the ×-phase");
    let mut flow = ControlFlow::Continue(());
    let mut at = start;
    for part in &parts[start..] {
        asg.push((part.vars, part.token));
        flow = sink(scratch, asg, &part.prov);
        asg.pop();
        if flow.is_break() {
            break;
        }
        at += 1;
    }
    scratch.put_parts(parts);

    if flow.is_continue() && !triples.is_empty() {
        let (bl, br) = ctx
            .circuit
            .children(bprime)
            .expect("×-gates can only appear in internal boxes");
        let left_width = ctx.circuit.box_width(bl);
        let right_width = ctx.circuit.box_width(br);
        let mut gamma_left = scratch.take_gate_set(left_width);
        for &(l, _, _) in &triples {
            gamma_left.insert(l as usize);
        }

        flow = enum_s(
            ctx,
            scratch,
            asg,
            bl,
            &gamma_left,
            &mut |scratch, asg, prov_l| {
                // ×-gates whose left input captures the assignment currently
                // on the stack.
                let mut surviving = scratch.take_triples();
                for &t in triples.iter() {
                    if prov_l.contains(t.0 as usize) {
                        scratch.push_triple(&mut surviving, t);
                    }
                }
                if surviving.is_empty() {
                    scratch.put_triples(surviving);
                    return ControlFlow::Continue(());
                }
                let mut gamma_right = scratch.take_gate_set(right_width);
                for &(_, rr, _) in &surviving {
                    gamma_right.insert(rr as usize);
                }
                let flow = enum_s(
                    ctx,
                    scratch,
                    asg,
                    br,
                    &gamma_right,
                    &mut |scratch, asg, prov_r| {
                        let mut owners = scratch.take_gate_set(width_prime);
                        for &(_, rr, owner) in &surviving {
                            if prov_r.contains(rr as usize) {
                                owners.insert(owner as usize);
                            }
                        }
                        let flow = if owners.is_empty() {
                            ControlFlow::Continue(())
                        } else {
                            let mut prov = scratch.take_gate_set(r.cols());
                            r.image_of_into(&owners, &mut prov);
                            let flow = sink(scratch, asg, &prov);
                            scratch.put_gate_set(prov);
                            flow
                        };
                        scratch.put_gate_set(owners);
                        flow
                    },
                );
                scratch.put_gate_set(gamma_right);
                scratch.put_triples(surviving);
                flow
            },
        );
        scratch.put_gate_set(gamma_left);
    }
    scratch.put_triples(triples);
    scratch.leave_frame(flow, at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boxenum::BoxEnumMode;
    use crate::index::EnumIndex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;
    use std::collections::HashSet;
    use treenum_automata::binary::select_a_leaves;
    use treenum_automata::{BinaryTva, State};
    use treenum_circuits::build_assignment_circuit;
    use treenum_circuits::semantics::capture_boxed_set;
    use treenum_trees::binary::BinaryTree;
    use treenum_trees::valuation::{Var, VarSet};
    use treenum_trees::{Alphabet, Label};

    fn to_explicit(s: &OutputAssignment) -> BTreeSet<(Var, u32)> {
        s.iter()
            .flat_map(|&(vars, token)| vars.iter().map(move |v| (v, token)))
            .collect()
    }

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
        while roots.len() > 1 {
            let a = roots.pop().unwrap();
            let b = roots.pop().unwrap();
            roots.push(t.add_internal(label(&mut rng), a, b));
        }
        t.set_root(roots[0]);
        t
    }

    fn random_tva(num_labels: usize, num_states: usize, num_vars: usize, seed: u64) -> BinaryTva {
        let mut rng = StdRng::seed_from_u64(seed);
        let vars = VarSet::first_n(num_vars);
        let var_subsets = treenum_trees::valuation::subsets(vars);
        let mut tva = BinaryTva::new(num_states, num_labels, vars);
        for l in 0..num_labels as u32 {
            for q in 0..num_states as u32 {
                for &y in &var_subsets {
                    if rng.gen_bool(0.35) {
                        tva.add_initial(Label(l), y, State(q));
                    }
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
    fn enumeration_matches_brute_force_on_select_query() {
        let sigma = Alphabet::from_names(["a", "f"]);
        let a = sigma.get("a").unwrap();
        let f = sigma.get("f").unwrap();
        let tva = select_a_leaves(a, f, Var(0));
        let tree = random_binary_tree(21, 1, 7);
        // Relabel internal nodes to f, leaves to a (random tree uses only label 0).
        let mut tree2 = BinaryTree::leaf(a);
        fn rebuild(
            src: &BinaryTree,
            n: treenum_trees::binary::BinaryNodeId,
            dst: &mut BinaryTree,
            a: Label,
            f: Label,
        ) -> treenum_trees::binary::BinaryNodeId {
            match src.children(n) {
                None => dst.add_leaf(a),
                Some((l, r)) => {
                    let nl = rebuild(src, l, dst, a, f);
                    let nr = rebuild(src, r, dst, a, f);
                    dst.add_internal(f, nl, nr)
                }
            }
        }
        let root = rebuild(&tree, tree.root(), &mut tree2, a, f);
        tree2.set_root(root);

        let ac = build_assignment_circuit(&tva, &tree2);
        let index = EnumIndex::build(&ac.circuit);
        let (gates, empty) = ac.root_query(&tva, &tree2);
        for mode in [BoxEnumMode::Reference, BoxEnumMode::Indexed] {
            let produced = collect_all(
                &ac.circuit,
                Some(&index),
                mode,
                ac.circuit.root(),
                &gates,
                empty,
            );
            let as_sets: HashSet<_> = produced.iter().map(to_explicit).collect();
            assert_eq!(
                as_sets.len(),
                produced.len(),
                "duplicates produced in mode {:?}",
                mode
            );
            let expected: HashSet<_> = tva
                .satisfying_assignments(&tree2)
                .into_iter()
                .map(|ass| {
                    ass.into_iter()
                        .map(|(v, n)| (v, n.0))
                        .collect::<BTreeSet<_>>()
                })
                .collect();
            assert_eq!(as_sets, expected, "mode {:?}", mode);
        }
    }

    /// Random automata occasionally capture a combinatorially exploding answer
    /// set, and the oracle cross-checks materialize every assignment — so the
    /// tests below probe with a capped reference enumeration first and skip
    /// instances too large to check exhaustively.
    fn answer_count_exceeds(
        circuit: &treenum_circuits::Circuit,
        index: &EnumIndex,
        root: treenum_circuits::BoxId,
        gamma: &GateSet,
        cap: usize,
    ) -> bool {
        let mut count = 0usize;
        enumerate_boxed_set(
            circuit,
            Some(index),
            BoxEnumMode::Reference,
            root,
            gamma,
            &mut |_s, _p| {
                count += 1;
                if count > cap {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        )
        .is_break()
    }

    const MAX_ORACLE_ANSWERS: usize = 5_000;

    #[test]
    fn enumeration_matches_circuit_semantics_on_random_instances() {
        // Debug builds run a third of the seeds (set TREENUM_FULL_ORACLE for
        // all of them): the exhaustive set-semantics oracle dominates the
        // crate's unoptimized test time.
        let seeds = treenum_trees::generate::oracle_scale(60, 20) as u64;
        let mut tested = 0;
        for seed in 0..seeds {
            let num_vars = 1 + (seed % 2) as usize;
            let tva = random_tva(2, 2 + (seed % 2) as usize, num_vars, seed);
            if tva.num_states() == 0 {
                continue;
            }
            // Sizes are kept small: the answer set grows combinatorially in the
            // number of leaves (sharply so with two free variables), and the
            // oracle below is exhaustive.
            let size = if num_vars == 2 {
                5 + (seed % 3) as usize
            } else {
                7 + (seed % 5) as usize
            };
            let tree = random_binary_tree(size, 2, seed + 1000);
            let ac = build_assignment_circuit(&tva, &tree);
            let index = EnumIndex::build(&ac.circuit);
            let root = ac.circuit.root();
            let width = ac.circuit.box_width(root);
            if width == 0 {
                continue;
            }
            let gamma = GateSet::full(width);
            if answer_count_exceeds(&ac.circuit, &index, root, &gamma, MAX_ORACLE_ANSWERS) {
                continue;
            }
            tested += 1;
            let expected: HashSet<BTreeSet<(Var, u32)>> =
                capture_boxed_set(&ac.circuit, root, &(0..width as u32).collect::<Vec<_>>())
                    .into_iter()
                    .collect();
            for mode in [BoxEnumMode::Reference, BoxEnumMode::Indexed] {
                let mut produced: Vec<OutputAssignment> = Vec::new();
                let _ = enumerate_boxed_set(
                    &ac.circuit,
                    Some(&index),
                    mode,
                    root,
                    &gamma,
                    &mut |s, _p| {
                        produced.push(s.clone());
                        ControlFlow::Continue(())
                    },
                );
                let as_sets: HashSet<_> = produced.iter().map(to_explicit).collect();
                assert_eq!(
                    as_sets.len(),
                    produced.len(),
                    "duplicates (seed {seed}, mode {:?})",
                    mode
                );
                assert_eq!(
                    as_sets, expected,
                    "wrong answer set (seed {seed}, mode {:?})",
                    mode
                );
            }
        }
        assert!(
            tested > seeds / 6,
            "too few random instances were exercised"
        );
    }

    #[test]
    fn provenance_is_correct_on_random_instances() {
        let seeds = &[3u64, 11, 17, 23, 29, 31, 37, 41, 43, 47]
            [..treenum_trees::generate::oracle_scale(10, 5)];
        let mut tested = 0;
        for &seed in seeds {
            let tva = random_tva(2, 3, 1, seed);
            let tree = random_binary_tree(8, 2, seed + 5);
            let ac = build_assignment_circuit(&tva, &tree);
            let index = EnumIndex::build(&ac.circuit);
            let root = ac.circuit.root();
            let width = ac.circuit.box_width(root);
            if width == 0 {
                continue;
            }
            let gamma = GateSet::full(width);
            if answer_count_exceeds(&ac.circuit, &index, root, &gamma, MAX_ORACLE_ANSWERS) {
                continue;
            }
            tested += 1;
            // Hoist the oracle out of the sink: one set-semantics evaluation per
            // gate, then constant-time membership checks per produced answer.
            let per_gate: Vec<HashSet<BTreeSet<(Var, u32)>>> = (0..width)
                .map(|g| {
                    capture_boxed_set(&ac.circuit, root, &[g as u32])
                        .into_iter()
                        .collect()
                })
                .collect();
            let _ = enumerate_boxed_set(
                &ac.circuit,
                Some(&index),
                BoxEnumMode::Indexed,
                root,
                &gamma,
                &mut |s, prov| {
                    let explicit = to_explicit(s);
                    for (g, captured) in per_gate.iter().enumerate() {
                        assert_eq!(
                            prov.contains(g),
                            captured.contains(&explicit),
                            "provenance wrong for gate {g} (seed {seed})"
                        );
                    }
                    ControlFlow::Continue(())
                },
            );
        }
        assert!(tested >= 2, "too few random instances were exercised");
    }

    #[test]
    fn resumed_runs_continue_where_the_break_stopped() {
        let seeds = treenum_trees::generate::oracle_scale(40, 24) as u64;
        let mut tested = 0;
        for seed in 0..seeds {
            let tva = random_tva(2, 2 + (seed % 2) as usize, 1 + (seed % 2) as usize, seed);
            let tree = random_binary_tree(7 + (seed % 3) as usize, 2, seed + 1000);
            let ac = build_assignment_circuit(&tva, &tree);
            let index = EnumIndex::build(&ac.circuit);
            let root = ac.circuit.root();
            let width = ac.circuit.box_width(root);
            if width == 0
                || answer_count_exceeds(&ac.circuit, &index, root, &GateSet::full(width), 2_000)
            {
                continue;
            }
            // Both root shapes: the empty answer first (the root frame
            // resumes past it) or not, whatever the automaton accepts.
            let (gates, _) = ac.root_query(&tva, &tree);
            for (mode, empty) in [
                (BoxEnumMode::Reference, false),
                (BoxEnumMode::Indexed, false),
                (BoxEnumMode::Indexed, true),
            ] {
                let all = collect_all(&ac.circuit, Some(&index), mode, root, &gates, empty);
                if all.len() < 3 {
                    continue;
                }
                tested += 1;
                let mut scratch = EnumScratch::new();
                // Runs of `k` answers each, every run stopping on (and the
                // next re-emitting) the answer after its last.
                let run = |scratch: &mut EnumScratch, out: &mut Vec<OutputAssignment>, k| {
                    let mut n = 0;
                    enumerate_root_with(
                        scratch,
                        &ac.circuit,
                        Some(&index),
                        mode,
                        root,
                        &gates,
                        empty,
                        &mut |s| {
                            if n == k {
                                return ControlFlow::Break(());
                            }
                            n += 1;
                            out.push(s.clone());
                            ControlFlow::Continue(())
                        },
                    )
                };
                for k in [1, 2, 5] {
                    let mut got = Vec::new();
                    let mut key = (seed, 0);
                    scratch.resume_at(key);
                    while run(&mut scratch, &mut got, k).is_break() {
                        assert!(
                            got.len() < all.len(),
                            "seed {seed} {mode:?}: runaway resume"
                        );
                        key.1 = got.len() as u64;
                        scratch.save_trail(key);
                        assert!(scratch.resume_at(key), "seed {seed} {mode:?}: trail kept");
                    }
                    assert_eq!(got, all, "seed {seed} {mode:?} k={k}: resumed runs");
                }
                // A trail saved under another key is dropped: the next run
                // starts over.
                let mut head = Vec::new();
                assert!(run(&mut scratch, &mut head, 2).is_break());
                scratch.save_trail((seed, 2));
                assert!(!scratch.resume_at((seed + 1, 2)), "a different key misses");
                let mut again = Vec::new();
                let _ = run(&mut scratch, &mut again, usize::MAX);
                assert_eq!(again, all, "seed {seed} {mode:?}: a missed trail restarts");
            }
        }
        assert!(tested >= 6, "too few random instances were exercised");
    }

    #[test]
    fn early_termination_stops_enumeration() {
        let sigma = Alphabet::from_names(["a", "f"]);
        let a = sigma.get("a").unwrap();
        let f = sigma.get("f").unwrap();
        let tva = select_a_leaves(a, f, Var(0));
        let mut t = BinaryTree::leaf(a);
        let mut cur = t.root();
        for _ in 0..10 {
            let l = t.add_leaf(a);
            cur = t.add_internal(f, cur, l);
        }
        t.set_root(cur);
        let ac = build_assignment_circuit(&tva, &t);
        let index = EnumIndex::build(&ac.circuit);
        let (gates, empty) = ac.root_query(&tva, &t);
        let mut count = 0;
        let _ = enumerate_root(
            &ac.circuit,
            Some(&index),
            BoxEnumMode::Indexed,
            ac.circuit.root(),
            &gates,
            empty,
            &mut |_s| {
                count += 1;
                if count == 3 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        assert_eq!(count, 3);
    }
}
