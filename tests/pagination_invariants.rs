//! Pagination oracle: pages resume a suspended enumeration, and whatever
//! path a page takes — a resume from the scratch's trail or a skip to the
//! cursor — the concatenated pages are exactly `assignments()`, in content
//! and order:
//!
//! * every query family, both box-enum modes, page sizes 1 to 64, through
//!   the engine's resumable entry point on the pooled and on a caller
//!   scratch, and through the serving layer's `page`/`page_with` (plus a
//!   word spanner);
//! * two queries paged interleaved on one caller scratch (each page misses
//!   the other query's trail and skips to its cursor);
//! * a cursor minted by one query presented to another at the same
//!   generation (a position, never the other query's trail);
//! * `StaleCursor` for a cursor presented after a flush.

use std::ops::ControlFlow;
use treenum::automata::wva::spanners;
use treenum::automata::{queries, StepwiseTva};
use treenum::core::TreeEnumerator;
use treenum::enumeration::boxenum::BoxEnumMode;
use treenum::enumeration::EnumScratch;
use treenum::serve::{PageCursor, QueryId, QueryReader, ServeConfig, ServeError, TreeServer};
use treenum::trees::generate::{random_tree, TreeShape};
use treenum::trees::valuation::Assignment;
use treenum::trees::{Alphabet, EditFeed, EditStream, Label, Var};

const PAGE_SIZES: [usize; 6] = [1, 2, 3, 7, 25, 64];

fn query_families(sigma: &Alphabet) -> Vec<(&'static str, StepwiseTva)> {
    let a = sigma.get("a").unwrap();
    let b = sigma.get("b").unwrap();
    let c = sigma.get("c").unwrap();
    vec![
        ("select_b", queries::select_label(sigma.len(), b, Var(0))),
        ("exists_c", queries::exists_label(sigma.len(), c)),
        (
            "ancestor_descendant",
            queries::ancestor_descendant(sigma.len(), a, Var(0), b, Var(1)),
        ),
        (
            "marked_ancestor",
            queries::marked_ancestor(sigma.len(), a, c, Var(0)),
        ),
    ]
}

/// One page through the engine's resumable entry point, the way the
/// serving layer pages: stop on the `(k+1)`-th answer.
fn engine_page(
    engine: &TreeEnumerator,
    scratch: Option<&mut EnumScratch>,
    position: usize,
    k: usize,
) -> (Vec<Assignment>, bool) {
    let mut answers = Vec::new();
    let mut more = false;
    let mut sink = |a| {
        if answers.len() < k {
            answers.push(a);
            ControlFlow::Continue(())
        } else {
            more = true;
            ControlFlow::Break(())
        }
    };
    match scratch {
        Some(scratch) => engine.for_each_from_with(scratch, position, &mut sink),
        None => engine.for_each_from(position, &mut sink),
    }
    (answers, more)
}

fn drain_engine(
    engine: &TreeEnumerator,
    mut scratch: Option<&mut EnumScratch>,
    k: usize,
) -> Vec<Assignment> {
    let mut out = Vec::new();
    loop {
        let (page, more) = engine_page(engine, scratch.as_deref_mut(), out.len(), k);
        assert!(page.len() <= k);
        out.extend(page);
        if !more {
            return out;
        }
    }
}

/// Drains one query through the serving layer; `scratch: None` pages
/// through the engine's pooled scratch (`page`).
fn drain_reader(
    reader: &QueryReader<'_>,
    mut scratch: Option<&mut EnumScratch>,
    k: usize,
) -> Vec<Assignment> {
    let mut out = Vec::new();
    let mut cursor: Option<PageCursor> = None;
    loop {
        let page = match scratch.as_deref_mut() {
            Some(s) => reader.page_with(s, cursor, k),
            None => reader.page(cursor, k),
        }
        .unwrap();
        assert!(page.answers.len() <= k);
        out.extend(page.answers);
        match page.next {
            Some(next) => {
                assert_eq!(
                    next.position(),
                    out.len(),
                    "cursor counts the answers so far"
                );
                cursor = Some(next);
            }
            None => return out,
        }
    }
}

#[test]
fn pages_concatenate_to_assignments_across_families_modes_and_sizes() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    for (shape, size, seed) in [(TreeShape::Random, 90, 5), (TreeShape::Deep, 60, 6)] {
        let tree = random_tree(&mut sigma, size, shape, seed);
        for (name, query) in query_families(&sigma) {
            let mut engine = TreeEnumerator::new(tree.clone(), &query, sigma.len());
            for mode in [BoxEnumMode::Indexed, BoxEnumMode::Reference] {
                engine.set_box_enum_mode(mode);
                let expected = engine.assignments();
                let mut scratch = EnumScratch::new();
                for k in PAGE_SIZES {
                    let ctx = format!("{name} {shape:?} {mode:?} k={k}");
                    assert_eq!(drain_engine(&engine, None, k), expected, "{ctx}: pooled");
                    let before = scratch.stats();
                    assert_eq!(
                        drain_engine(&engine, Some(&mut scratch), k),
                        expected,
                        "{ctx}: caller scratch"
                    );
                    assert_eq!(
                        scratch.stats().answers_skipped,
                        before.answers_skipped,
                        "{ctx}: every page of a drain on one scratch resumes"
                    );
                }
            }
        }
    }
}

#[test]
fn serve_pages_concatenate_to_assignments_for_every_family() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let families = query_families(&sigma);
    let tree = random_tree(&mut sigma, 90, TreeShape::Random, 11);
    let server = TreeServer::new(
        vec![tree],
        &families[0].1,
        sigma.len(),
        ServeConfig::default(),
    );
    let mut ids = vec![(families[0].0, QueryId::PRIMARY)];
    for (name, query) in &families[1..] {
        ids.push((name, server.register(query, sigma.len()).unwrap().id));
    }
    let snap = server.snapshot(0);
    let mut scratch = EnumScratch::new();
    for (name, id) in ids {
        let reader = snap.query(id).unwrap();
        let expected = reader.assignments();
        for k in PAGE_SIZES {
            assert_eq!(
                drain_reader(&reader, None, k),
                expected,
                "{name} k={k}: page"
            );
            assert_eq!(
                drain_reader(&reader, Some(&mut scratch), k),
                expected,
                "{name} k={k}: page_with"
            );
        }
    }
}

#[test]
fn spanner_pages_concatenate_to_assignments() {
    // A word shard: a virtual root over one leaf per letter.
    let letters = 3usize;
    let word: Vec<Label> = "abcabcaabbca"
        .bytes()
        .map(|b| Label((b - b'a') as u32))
        .collect();
    let mut tree = treenum::trees::unranked::UnrankedTree::new(Label(letters as u32));
    let root = tree.root();
    for &l in &word {
        tree.insert_last_child(root, l);
    }
    let primary = queries::exists_label(letters + 1, Label(0));
    let server = TreeServer::new(vec![tree], &primary, letters + 1, ServeConfig::default());
    let wva = spanners::select_letter(letters, Label(0), Var(0));
    let id = server.register_spanner(&wva, letters).unwrap().id;
    let snap = server.snapshot(0);
    let reader = snap.query(id).unwrap();
    let expected = reader.assignments();
    assert_eq!(expected.len(), wva.satisfying_assignments(&word).len());
    let mut scratch = EnumScratch::new();
    for k in PAGE_SIZES {
        assert_eq!(drain_reader(&reader, None, k), expected, "k={k}: page");
        assert_eq!(
            drain_reader(&reader, Some(&mut scratch), k),
            expected,
            "k={k}: page_with"
        );
    }
}

#[test]
fn interleaved_queries_on_one_scratch_skip_but_stay_exact() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let families = query_families(&sigma);
    let tree = random_tree(&mut sigma, 90, TreeShape::Random, 17);
    let server = TreeServer::new(
        vec![tree],
        &families[0].1,
        sigma.len(),
        ServeConfig::default(),
    );
    let other = server.register(&families[3].1, sigma.len()).unwrap().id;
    let snap = server.snapshot(0);
    let readers = [
        snap.query(QueryId::PRIMARY).unwrap(),
        snap.query(other).unwrap(),
    ];
    let expected: Vec<_> = readers.iter().map(|r| r.assignments()).collect();
    assert!(
        expected.iter().all(|e| e.len() > 12),
        "need several pages each"
    );

    let k = 4;
    let mut scratch = EnumScratch::new();
    let mut got = [Vec::new(), Vec::new()];
    let mut cursors: [Option<PageCursor>; 2] = [None, None];
    let mut done = [false, false];
    while !done.iter().all(|&d| d) {
        for q in 0..2 {
            if done[q] {
                continue;
            }
            let page = readers[q].page_with(&mut scratch, cursors[q], k).unwrap();
            got[q].extend(page.answers);
            cursors[q] = page.next;
            done[q] = page.next.is_none();
        }
    }
    assert_eq!(got[0], expected[0], "primary paged interleaved");
    assert_eq!(got[1], expected[1], "second query paged interleaved");
    assert!(
        scratch.stats().answers_skipped > 0,
        "interleaved pages miss each other's trail and skip to the cursor"
    );
}

#[test]
fn a_cursor_from_one_query_is_a_position_for_another() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let families = query_families(&sigma);
    let tree = random_tree(&mut sigma, 90, TreeShape::Random, 19);
    let server = TreeServer::new(
        vec![tree],
        &families[0].1,
        sigma.len(),
        ServeConfig::default(),
    );
    let other = server.register(&families[2].1, sigma.len()).unwrap().id;
    let snap = server.snapshot(0);
    let a = snap.query(QueryId::PRIMARY).unwrap();
    let b = snap.query(other).unwrap();
    let b_all = b.assignments();
    let k = 3;
    let mut scratch = EnumScratch::new();
    // Both the pooled path and a caller scratch holding A's trail.
    for pooled in [true, false] {
        let first = if pooled {
            a.page(None, k)
        } else {
            a.page_with(&mut scratch, None, k)
        };
        let cursor = first.unwrap().next.expect("A has more than one page");
        assert_eq!(cursor.generation(), b.generation());
        let page = if pooled {
            b.page(Some(cursor), k)
        } else {
            b.page_with(&mut scratch, Some(cursor), k)
        }
        .unwrap();
        let from = cursor.position().min(b_all.len());
        let to = (from + k).min(b_all.len());
        assert_eq!(page.answers, b_all[from..to], "pooled={pooled}");
        assert_eq!(page.next.is_some(), to < b_all.len(), "pooled={pooled}");
    }
}

#[test]
fn cursors_go_stale_after_a_flush_on_both_paths() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let labels: Vec<Label> = sigma.labels().collect();
    let families = query_families(&sigma);
    let tree = random_tree(&mut sigma, 60, TreeShape::Random, 29);
    let server = TreeServer::new(
        vec![tree.clone()],
        &families[0].1,
        sigma.len(),
        ServeConfig::default(),
    );
    let mut scratch = EnumScratch::new();
    let snap = server.snapshot(0);
    let reader = snap.query(QueryId::PRIMARY).unwrap();
    let pooled = reader.page(None, 2).unwrap().next.expect("mid-scan cursor");
    let owned = reader
        .page_with(&mut scratch, None, 2)
        .unwrap()
        .next
        .expect("mid-scan cursor");
    let mut feed = EditFeed::new(&tree, EditStream::skewed(labels, 3));
    server.ingest_batch(0, &feed.next_batch(4)).unwrap();
    server.flush(0).unwrap();
    let newer = server.snapshot(0);
    let fresh = newer.query(QueryId::PRIMARY).unwrap();
    assert_ne!(fresh.generation(), reader.generation());
    assert_eq!(
        fresh.page(Some(pooled), 2).err(),
        Some(ServeError::StaleCursor)
    );
    assert_eq!(
        fresh.page_with(&mut scratch, Some(owned), 2).err(),
        Some(ServeError::StaleCursor)
    );
    // The held snapshot still resumes its own cursors.
    assert!(reader.page_with(&mut scratch, Some(owned), 2).is_ok());
}
