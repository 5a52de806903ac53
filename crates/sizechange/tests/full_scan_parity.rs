//! Differential test for the indexed saturation of [`IncrementalClosure`]:
//! after every operation of a random add/mark/undo sequence it must hold
//! exactly the state of a reference closure that scans every node pair,
//! in key order, on each insertion. Exact means the same graph ids in the
//! same order on every pair and the same work counters, not merely the
//! same verdict.

use std::collections::BTreeMap;

use cycleq_sizechange::{GraphId, GraphStore, IncrementalClosure, Label, Mark, ScGraph, Soundness};
use proptest::prelude::*;
use proptest::test_runner::Config;

const NODES: usize = 6;
const VARS: u32 = 3;

/// The full-scan reference: one ordered map of per-pair id lists, scanned
/// in key order on every insertion.
struct FullScanClosure {
    store: GraphStore<u32>,
    graphs: BTreeMap<(usize, usize), Vec<GraphId>>,
    trail: Vec<(usize, usize, bool)>,
    bad: usize,
    live: usize,
    subsumption: bool,
    subsumed: u64,
}

impl FullScanClosure {
    fn new(subsumption: bool) -> FullScanClosure {
        FullScanClosure {
            store: GraphStore::new(),
            graphs: BTreeMap::new(),
            trail: Vec::new(),
            bad: 0,
            live: 0,
            subsumption,
            subsumed: 0,
        }
    }

    fn add_edge(&mut self, src: usize, dst: usize, graph: &ScGraph<u32>) -> Soundness {
        let id = self.store.intern(graph);
        let mut worklist = vec![(src, dst, id)];
        while let Some((a, b, g)) = worklist.pop() {
            if let Some(present) = self.graphs.get(&(a, b)) {
                if present.contains(&g) {
                    continue;
                }
                if self.subsumption && a != b && present.iter().any(|&w| self.store.subsumes(w, g))
                {
                    self.subsumed += 1;
                    continue;
                }
            }
            let is_bad = a == b && self.store.is_bad_self_loop(g);
            if is_bad {
                self.bad += 1;
            }
            self.graphs.entry((a, b)).or_default().push(g);
            self.live += 1;
            self.trail.push((a, b, is_bad));
            for (&(c, d), set) in self.graphs.iter() {
                if d == a {
                    for &h in set {
                        worklist.push((c, b, self.store.seq(h, g)));
                    }
                }
                if c == b {
                    for &h in set {
                        worklist.push((a, d, self.store.seq(g, h)));
                    }
                }
            }
        }
        self.soundness()
    }

    fn mark(&self) -> usize {
        self.trail.len()
    }

    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let (a, b, was_bad) = self.trail.pop().expect("trail non-empty");
            if was_bad {
                self.bad -= 1;
            }
            let set = self.graphs.get_mut(&(a, b)).expect("trail pair present");
            set.pop();
            self.live -= 1;
            if set.is_empty() {
                self.graphs.remove(&(a, b));
            }
        }
    }

    fn soundness(&self) -> Soundness {
        if self.bad == 0 {
            Soundness::Sound
        } else {
            Soundness::Unsound
        }
    }

    fn unsound_witness(&self) -> Option<(usize, ScGraph<u32>)> {
        self.graphs.iter().find_map(|(&(a, b), set)| {
            if a != b {
                return None;
            }
            set.iter()
                .find(|&&g| !self.store.has_strict_self_edge(g) && self.store.is_idempotent(g))
                .map(|&g| (a, self.store.resolve(g)))
        })
    }
}

fn arb_graph() -> impl Strategy<Value = ScGraph<u32>> {
    proptest::collection::vec(
        (
            0..VARS,
            0..VARS,
            prop_oneof![Just(Label::NonStrict), Just(Label::Strict)],
        ),
        0..6,
    )
    .prop_map(|edges| edges.into_iter().collect())
}

fn assert_same_state(indexed: &IncrementalClosure<u32, usize>, reference: &FullScanClosure) {
    for a in 0..NODES {
        for b in 0..NODES {
            let ids: Vec<GraphId> = indexed.between_ids(a, b).collect();
            let expected = reference.graphs.get(&(a, b)).cloned().unwrap_or_default();
            assert_eq!(ids, expected, "pair ({}, {})", a, b);
        }
    }
    assert_eq!(indexed.num_graphs(), reference.live);
    assert_eq!(indexed.compositions(), reference.store.compositions());
    assert_eq!(indexed.memo_hits(), reference.store.memo_hits());
    assert_eq!(indexed.subsumed(), reference.subsumed);
    assert_eq!(indexed.soundness(), reference.soundness());
    assert_eq!(indexed.unsound_witness(), reference.unsound_witness());
}

/// Ops: `0` adds the edge, `1` takes a mark and then adds it, `2` undoes
/// to one of the marks taken so far (dropping the later ones).
#[test]
fn indexed_saturation_matches_full_scan() {
    let cfg = Config {
        cases: 128,
        ..Config::default()
    };
    proptest!(cfg, |(subsumption in 0..2u8, ops in proptest::collection::vec(
        (0..NODES, 0..NODES, arb_graph(), 0..3u8, 0..64usize),
        1..16,
    ))| {
        let mut indexed = if subsumption == 1 {
            IncrementalClosure::new()
        } else {
            IncrementalClosure::without_subsumption()
        };
        let mut reference = FullScanClosure::new(subsumption == 1);
        let mut marks: Vec<(Mark, usize)> = Vec::new();
        for (a, b, g, op, pick) in ops {
            if op == 2 && !marks.is_empty() {
                let at = pick % marks.len();
                let (mi, mr) = marks[at];
                marks.truncate(at);
                indexed.undo_to(mi);
                reference.undo_to(mr);
            } else {
                if op == 1 {
                    marks.push((indexed.mark(), reference.mark()));
                }
                let vi = indexed.add_edge(a, b, g.clone());
                let vr = reference.add_edge(a, b, &g);
                assert_eq!(vi, vr);
            }
            assert_same_state(&indexed, &reference);
        }
    });
}
