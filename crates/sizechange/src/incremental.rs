//! Incremental closure with checkpoint/undo, for verifying cycles *during*
//! proof search (§5.2), running entirely on interned [`GraphId`]s.
//!
//! The key observations, from the paper:
//!
//! 1. Goal-directed proof search is incremental: candidate proofs share a
//!    common prefix, so re-verifying the whole proof after every extension
//!    (as Cyclist does with Büchi inclusion) recomputes the same
//!    information over and over.
//! 2. "As soon as a cycle that does not satisfy the global condition is
//!    detected, there is no advantage to completing the proof."
//!
//! [`IncrementalClosure`] maintains the composition closure as edges are
//! added, records every insertion on a trail of ids so that backtracking
//! can restore any earlier state (no graph is ever cloned), and reports
//! immediately when an idempotent self-loop graph without a strict
//! self-edge appears. Because closures only ever grow along a search
//! branch, such a graph can never be repaired by adding more proof — the
//! branch can be pruned on the spot.
//!
//! All graphs live in an owned [`GraphStore`]: dedup makes membership an id
//! comparison, the Theorem 5.2 flags are O(1), and compositions are
//! memoized across the whole search — including across backtracking, since
//! the store is append-only and survives [`IncrementalClosure::undo_to`].
//!
//! # Indexed saturation
//!
//! A graph `g : a → b` composes only with graphs on pairs `(c, a)` and
//! `(b, d)`. The closure keeps, per node, the sorted lists of successors
//! and predecessors through non-empty pairs, updated when a pair's first
//! graph is inserted or its last one undone. Inserting `g` therefore
//! visits just its neighbours instead of every retained pair, while the
//! pair table itself is an id-hashed map (see [`crate::store`]) that is
//! only ever probed by key. The neighbours are visited in the order a
//! scan of all pairs in key order would meet them, so the worklist — and
//! with subsumption pruning the retained set — is the same as that of the
//! full scan, which the `indexed_saturation_matches_full_scan` property
//! test pins.
//!
//! # Subsumption pruning
//!
//! Write `w ⊑ g` when every edge of `w` occurs in `g` with an equal or
//! stronger label (pointwise `absent < ≃ < ≲`; see
//! [`GraphStore::subsumes`]). Composition is monotone in this order:
//! `w₁ ⊑ g₁` and `w₂ ⊑ g₂` imply `w₁;w₂ ⊑ g₁;g₂`, because every
//! composite edge of the weaker pair arises from a pair of hops that the
//! stronger pair also has, with labels at least as strong.
//!
//! On insertion of a graph `g` between **distinct** nodes `a ≠ b`, the
//! closure drops `g` when an already-retained graph `w` between `(a, b)`
//! has `w ⊑ g` — and in particular never expands `g`'s compositions.
//! Self-loop graphs (`a = b`) are **never** pruned. This asymmetry is what
//! makes the pruned verdict *exactly* equal to the unpruned one (pinned by
//! the `subsumption_preserves_verdict_at_every_step` property test):
//!
//! - **Pruned-unsound ⟹ unpruned-unsound.** Every retained graph is a
//!   genuine composite of inserted edges, so a retained bad graph (an
//!   idempotent self-loop without a strict self-edge) also belongs to the
//!   full closure.
//!
//! - **Unpruned-unsound ⟹ pruned-unsound.** First, a simulation
//!   invariant: *for every graph `s` of the full closure between `(a, b)`,
//!   some retained graph `p ⊑ s` exists between `(a, b)`.* By induction
//!   on the derivation of `s`: an inserted edge is either retained or
//!   dropped in favour of a retained `w ⊑ s`; and if `s = s₁;s₂`, the
//!   engine composed the retained witnesses `p₁ ⊑ s₁` and `p₂ ⊑ s₂` when
//!   the later of the two was inserted, producing `p₁;p₂ ⊑ s` (by
//!   monotonicity), which again is retained or dominated by a retained
//!   graph. Now let `B` be a bad idempotent of the full closure at
//!   `(v, v)` and `p ⊑ B` a retained witness. Because self-loops are never
//!   pruned, the retained set at `(v, v)` is closed under composition, so
//!   it contains every power `pⁿ`. The finite semigroup generated by `p`
//!   contains an idempotent power `p^N` (for `N = n!` with `n` the
//!   semigroup size, `p^N` is idempotent). By monotonicity
//!   `p^N ⊑ B^N = B`, so `p^N` has no strict self-edge — a retained bad
//!   idempotent, counted by the `bad` counter the moment it was inserted.
//!
//! The restriction to `a ≠ b` is essential, not an optimisation
//! shortfall: if self-loops were pruned too, the retained set at `(v, v)`
//! would no longer be composition-closed and the argument above collapses
//! into a regress — a retained `p ⊑ B` whose idempotent power is itself
//! pruned in favour of a weaker, possibly non-idempotent graph, which the
//! Theorem 5.2 test does not flag. Dropping a *stronger* graph is sound
//! precisely because badness is an *anti*-monotone property interrupted
//! by the idempotence side condition; keeping all self-loops discharges
//! that side condition by exhaustiveness.
//!
//! # Cycle-only saturation
//!
//! [`IncrementalClosure::cycle_only`] builds a closure for proof search
//! that composes only the edges the verdict can depend on. Theorem 5.2
//! inspects only self-loops `g ∈ closure(v, v)`, and a closed walk through
//! `v` never leaves `v`'s strongly connected component (SCC). Most of a
//! search tree is acyclic, so an exhaustive closure spends most of its
//! compositions on pairs that no self-loop ever reads.
//!
//! - **Edge log.** Every added proof edge is recorded in a per-node out-
//!   and in-adjacency, whether or not it is composed.
//! - **Components.** SCCs are tracked by a union-find without path
//!   compression, so each union is one trail step. Along a search branch
//!   edges are only added, so components only merge, and
//!   [`IncrementalClosure::undo_to`] splits them back exactly.
//! - **Active edges.** An edge is active when both endpoints lie in one
//!   component. Only active edges are saturated, by the same indexed
//!   worklist, subsumption test and memo as in the exhaustive mode.
//! - **Merges.** An edge `u → w` between two components first searches
//!   forward from `w` for `u`'s component, stopping at the first hit; a
//!   fresh tree child has no successors, so this costs nothing. If the
//!   search succeeds, the nodes on the paths `w →* u` form one component
//!   with `u` and `w`: they are merged, and every logged edge between two
//!   formerly separate components among them (the new edge included) is
//!   activated, by source node and then insertion order, so identical
//!   edge sequences retain identical sets.
//!
//! Why it is exact. A walk between two nodes of one component stays
//! inside that component, since every node on it reaches both ends. The
//! walks the exhaustive closure composes at such a pair therefore use
//! only active edges, and the unpruned closure of a set of edges does not
//! depend on their insertion order. So, unpruned, each pair inside a
//! component retains the same graphs in both modes, and a pair across
//! components retains none in cycle-only mode. In particular every
//! `(v, v)` is the same, and with it the verdict and the least node of
//! [`IncrementalClosure::unsound_witness`]. The pruned ≡ unpruned
//! argument above holds for any insertion order, so it applies to the
//! active edges as they are activated, and the pruned cycle-only verdict
//! equals the pruned exhaustive one. A differential property test in this
//! module checks both claims after every step of random add/mark/undo
//! sequences.
//!
//! The exhaustive mode ([`IncrementalClosure::new`],
//! [`IncrementalClosure::without_subsumption`]) remains the reference:
//! it is the one pinned to a full scan of all pairs, and the only one
//! whose [`IncrementalClosure::between`] answers for pairs that do not
//! share a component.

use std::hash::Hash;

use crate::closure::Soundness;
use crate::graph::ScGraph;
use crate::idvec::SmallIdVec;
use crate::store::{GraphId, GraphStore, IdHashMap, IdHashSet};

/// A checkpoint into the trail of an [`IncrementalClosure`]; obtain with
/// [`IncrementalClosure::mark`] and restore with
/// [`IncrementalClosure::undo_to`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Mark(pub(crate) usize);

/// Adds `n` to the sorted list of `key` in a per-node index.
fn index_insert<N: Copy + Ord + Hash>(index: &mut IdHashMap<N, Vec<N>>, key: N, n: N) {
    let list = index.entry(key).or_default();
    let at = list.partition_point(|&x| x < n);
    list.insert(at, n);
}

/// Removes `n` from the sorted list of `key`, dropping the list once empty.
fn index_remove<N: Copy + Ord + Hash>(index: &mut IdHashMap<N, Vec<N>>, key: N, n: N) {
    let list = index.get_mut(&key).expect("indexed pair");
    let at = list.partition_point(|&x| x < n);
    list.remove(at);
    if list.is_empty() {
        index.remove(&key);
    }
}

/// One undoable entry of the trail.
#[derive(Copy, Clone, Debug)]
enum Step<N> {
    /// A graph retained between `(a, b)`, and whether it counted as bad.
    Graph(N, N, GraphId, bool),
    /// A proof edge `(src, dst)` logged by a cycle-only closure.
    Edge(N, N),
    /// The root `child` was linked under the root `root`, whose rank grew
    /// by one when `bumped`.
    Union { child: N, root: N, bumped: bool },
}

/// The edge log and strongly connected components of a cycle-only
/// closure (see module docs).
#[derive(Clone, Debug)]
struct Components<N> {
    /// Every proof edge added, per source, in insertion order.
    out: IdHashMap<N, Vec<(N, GraphId)>>,
    /// The source of every proof edge added, per target.
    inn: IdHashMap<N, Vec<N>>,
    /// Union-find links; a node without one is the root of its component.
    /// There is no path compression, so each union is a single trail step.
    parent: IdHashMap<N, N>,
    /// Union-by-rank ranks; absent means 0.
    rank: IdHashMap<N, u32>,
}

impl<N> Default for Components<N> {
    fn default() -> Self {
        Components {
            out: IdHashMap::default(),
            inn: IdHashMap::default(),
            parent: IdHashMap::default(),
            rank: IdHashMap::default(),
        }
    }
}

impl<N: Copy + Ord + Hash> Components<N> {
    /// The root of `n`'s component.
    fn find(&self, mut n: N) -> N {
        while let Some(&p) = self.parent.get(&n) {
            n = p;
        }
        n
    }

    fn succs(&self, n: N) -> impl Iterator<Item = N> + '_ {
        self.out.get(&n).into_iter().flatten().map(|&(d, _)| d)
    }

    fn preds(&self, n: N) -> impl Iterator<Item = N> + '_ {
        self.inn.get(&n).into_iter().flatten().copied()
    }

    /// Whether a node of the component rooted at `root` is reachable from
    /// `from`, which lies outside it. Stops at the first one found, and
    /// costs nothing for a node without successors (a fresh tree child).
    fn reaches(&self, from: N, root: N) -> bool {
        if self.succs(from).next().is_none() {
            return false;
        }
        let mut seen = IdHashSet::default();
        seen.insert(from);
        let mut stack = vec![from];
        while let Some(x) = stack.pop() {
            if self.find(x) == root {
                return true;
            }
            for y in self.succs(x) {
                if seen.insert(y) {
                    stack.push(y);
                }
            }
        }
        false
    }

    /// Every node reachable from `start`, forwards along edges or
    /// backwards against them, without leaving `keep`.
    fn walk(&self, start: N, forward: bool, keep: impl Fn(N) -> bool) -> IdHashSet<N> {
        let mut seen = IdHashSet::default();
        seen.insert(start);
        let mut stack = vec![start];
        while let Some(x) = stack.pop() {
            let mut visit = |y| {
                if keep(y) && seen.insert(y) {
                    stack.push(y);
                }
            };
            if forward {
                self.succs(x).for_each(&mut visit);
            } else {
                self.preds(x).for_each(&mut visit);
            }
        }
        seen
    }

    /// The nodes on some path `from →* to`, sorted. Once an edge
    /// `to → from` exists they are exactly one component.
    fn path_nodes(&self, from: N, to: N) -> Vec<N> {
        let reach_to = self.walk(to, false, |_| true);
        let mut nodes: Vec<N> = self
            .walk(from, true, |x| reach_to.contains(&x))
            .into_iter()
            .collect();
        nodes.sort_unstable();
        nodes
    }

    /// Merges the components of `a` and `b`, returning the trail step that
    /// undoes it, or `None` if they already coincide.
    fn union(&mut self, a: N, b: N) -> Option<Step<N>> {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return None;
        }
        let rank = |r: N| self.rank.get(&r).copied().unwrap_or(0);
        let (rank_a, rank_b) = (rank(ra), rank(rb));
        let (child, root) = if rank_a < rank_b { (ra, rb) } else { (rb, ra) };
        let bumped = rank_a == rank_b;
        self.parent.insert(child, root);
        if bumped {
            *self.rank.entry(root).or_default() += 1;
        }
        Some(Step::Union {
            child,
            root,
            bumped,
        })
    }
}

/// The composition closure of a growing set of proof edges, with undo.
#[derive(Clone, Debug)]
pub struct IncrementalClosure<V, N> {
    store: GraphStore<V>,
    /// Retained graphs per node pair; a pair is present exactly when its
    /// list is non-empty. Never iterated on the search path, so its hash
    /// order cannot leak into saturation.
    graphs: IdHashMap<(N, N), SmallIdVec>,
    /// Per node `n`, every `d` with a retained graph between `(n, d)`, and
    /// every `c` with one between `(c, n)`: saturation visits only the
    /// pairs that compose with a new graph. The lists are sorted to keep
    /// saturation deterministic: with subsumption pruning the retained
    /// set depends on the order compositions are expanded, and an
    /// unordered index would make two identical edge sequences retain
    /// different (though verdict-equivalent) sets.
    succ: IdHashMap<N, Vec<N>>,
    pred: IdHashMap<N, Vec<N>>,
    /// Everything undo has to revert, in order.
    trail: Vec<Step<N>>,
    /// Number of currently-present idempotent self-loops without a strict
    /// self-edge. Non-zero means the current preproof cannot satisfy the
    /// global condition.
    bad: usize,
    /// Running total of retained graphs — kept in sync by insert/undo so
    /// [`IncrementalClosure::num_graphs`] is O(1) instead of a sum over
    /// every node pair.
    live: usize,
    /// Whether cross-pair subsumption pruning is enabled (see module
    /// docs); on by default, disabled only by benchmarks and the
    /// differential property tests.
    subsumption: bool,
    /// Graphs dropped by subsumption (monotone counter; drops are not
    /// state, so undo does not rewind it).
    subsumed: u64,
    /// Present in cycle-only mode: the edge log and components deciding
    /// which edges are saturated.
    components: Option<Components<N>>,
}

impl<V, N> Default for IncrementalClosure<V, N> {
    fn default() -> Self {
        IncrementalClosure {
            store: GraphStore::default(),
            graphs: IdHashMap::default(),
            succ: IdHashMap::default(),
            pred: IdHashMap::default(),
            trail: Vec::new(),
            bad: 0,
            live: 0,
            subsumption: true,
            subsumed: 0,
            components: None,
        }
    }
}

impl<V, N> IncrementalClosure<V, N>
where
    V: Copy + Ord + Hash,
    N: Copy + Ord + Hash,
{
    /// Creates an empty closure (with subsumption pruning enabled).
    pub fn new() -> IncrementalClosure<V, N> {
        IncrementalClosure::default()
    }

    /// Creates an empty closure that retains every graph, exactly like the
    /// pre-subsumption engine. Used by benchmarks and by the property
    /// tests that pin the pruned verdict to the unpruned one.
    pub fn without_subsumption() -> IncrementalClosure<V, N> {
        IncrementalClosure {
            subsumption: false,
            ..IncrementalClosure::default()
        }
    }

    /// Creates an empty closure, with subsumption pruning, that saturates
    /// only the edges inside strongly connected components (see "Cycle-only
    /// saturation" in the module docs). Its verdict and unsoundness witness
    /// are those of [`IncrementalClosure::new`]; it retains no graph
    /// between two nodes of different components.
    pub fn cycle_only() -> IncrementalClosure<V, N> {
        IncrementalClosure {
            components: Some(Components::default()),
            ..IncrementalClosure::default()
        }
    }

    /// The graph store backing this closure. Useful for resolving ids
    /// returned by [`IncrementalClosure::between_ids`].
    pub fn store(&self) -> &GraphStore<V> {
        &self.store
    }

    /// Mutable access to the store, so callers can intern edge graphs
    /// directly (see `cycleq_proof::edge_graph_id`) and feed the ids to
    /// [`IncrementalClosure::add_edge_id`].
    pub fn store_mut(&mut self) -> &mut GraphStore<V> {
        &mut self.store
    }

    /// A checkpoint capturing the current state.
    pub fn mark(&self) -> Mark {
        Mark(self.trail.len())
    }

    /// Adds a proof edge and saturates the closure with it.
    ///
    /// Returns [`Soundness::Unsound`] if the closure now contains an
    /// idempotent self-loop graph without a strict self-edge; the search
    /// should undo to the last checkpoint and try a different step. The
    /// closure remains internally consistent either way.
    pub fn add_edge(&mut self, src: N, dst: N, graph: ScGraph<V>) -> Soundness {
        let id = self.store.intern(&graph);
        self.add_edge_id(src, dst, id)
    }

    /// [`IncrementalClosure::add_edge`] for a graph already interned in
    /// this closure's store.
    pub fn add_edge_id(&mut self, src: N, dst: N, graph: GraphId) -> Soundness {
        if self.components.is_none() {
            self.saturate(src, dst, graph);
        } else {
            for (a, b, g) in self.log_edge(src, dst, graph) {
                self.saturate(a, b, g);
            }
        }
        self.store.flush_memo_hits();
        self.soundness()
    }

    /// Records a proof edge in cycle-only mode and returns the edges it
    /// activates, in the order to saturate them: none while `dst` cannot
    /// reach `src`, the edge itself inside a component, and on a merge
    /// every edge between two of the merged components, by source node and
    /// then insertion order.
    fn log_edge(&mut self, src: N, dst: N, graph: GraphId) -> Vec<(N, N, GraphId)> {
        let cc = self.components.as_mut().expect("cycle-only closure");
        cc.out.entry(src).or_default().push((dst, graph));
        cc.inn.entry(dst).or_default().push(src);
        self.trail.push(Step::Edge(src, dst));
        let root = cc.find(src);
        if cc.find(dst) == root {
            return vec![(src, dst, graph)];
        }
        if !cc.reaches(dst, root) {
            return Vec::new();
        }
        let nodes = cc.path_nodes(dst, src);
        let roots: Vec<N> = nodes.iter().map(|&x| cc.find(x)).collect();
        let mut active = Vec::new();
        for (&x, &rx) in nodes.iter().zip(&roots) {
            for &(y, g) in cc.out.get(&x).into_iter().flatten() {
                if let Ok(j) = nodes.binary_search(&y) {
                    if roots[j] != rx {
                        active.push((x, y, g));
                    }
                }
            }
        }
        for &x in &nodes[1..] {
            self.trail.extend(cc.union(nodes[0], x));
        }
        active
    }

    /// Inserts `graph : src → dst` and every composite it gives rise to.
    fn saturate(&mut self, src: N, dst: N, graph: GraphId) {
        let mut worklist: Vec<(N, N, GraphId)> = vec![(src, dst, graph)];
        while let Some((a, b, g)) = worklist.pop() {
            if let Some(present) = self.graphs.get(&(a, b)) {
                if present.contains(g) {
                    continue;
                }
                if self.subsumption && a != b && present.iter().any(|&w| self.store.subsumes(w, g))
                {
                    // A retained weaker-or-equal graph dominates every
                    // composite `g` could produce (see module docs): drop
                    // `g` without expanding it.
                    self.subsumed += 1;
                    crate::metrics::store_metrics().subsumed.inc();
                    continue;
                }
            }
            let is_bad = a == b && self.store.is_bad_self_loop(g);
            if is_bad {
                self.bad += 1;
            }
            let set = self.graphs.entry((a, b)).or_default();
            let fresh = set.is_empty();
            set.push(g);
            if fresh {
                index_insert(&mut self.succ, a, b);
                index_insert(&mut self.pred, b, a);
            }
            self.live += 1;
            self.trail.push(Step::Graph(a, b, g, is_bad));
            self.expand(a, b, g, &mut worklist);
        }
    }

    /// Pushes every composite of the freshly retained `g : a → b` with a
    /// retained neighbour: `h ; g` for each `h : c → a` and `g ; h` for
    /// each `h : b → d`.
    ///
    /// The order is the one a scan over all pairs in `(c, d)` key order
    /// produces, which fixes the worklist and hence the retained set:
    /// pairs `(c, a)` with `c < b`, then the pairs `(b, d)` by `d` — where
    /// `(b, a)` yields its `h ; g` composites before its `g ; h` ones —
    /// then pairs `(c, a)` with `c > b`.
    fn expand(&mut self, a: N, b: N, g: GraphId, worklist: &mut Vec<(N, N, GraphId)>) {
        let IncrementalClosure {
            store,
            graphs,
            succ,
            pred,
            ..
        } = self;
        let preds = pred.get(&a).map_or(&[][..], Vec::as_slice);
        let succs = succ.get(&b).map_or(&[][..], Vec::as_slice);
        let split = preds.partition_point(|&c| c < b);
        for &c in &preds[..split] {
            for &h in graphs[&(c, a)].iter() {
                worklist.push((c, b, store.seq_unflushed(h, g)));
            }
        }
        for &d in succs {
            let set = &graphs[&(b, d)];
            if d == a {
                for &h in set.iter() {
                    worklist.push((b, b, store.seq_unflushed(h, g)));
                }
            }
            for &h in set.iter() {
                worklist.push((a, d, store.seq_unflushed(g, h)));
            }
        }
        for &c in &preds[split..] {
            // `(b, a)` was expanded with the successors of `b`.
            if c == b {
                continue;
            }
            for &h in graphs[&(c, a)].iter() {
                worklist.push((c, b, store.seq_unflushed(h, g)));
            }
        }
    }

    /// The current verdict: sound unless some idempotent self-loop without a
    /// strict self-edge is present.
    pub fn soundness(&self) -> Soundness {
        if self.bad == 0 {
            Soundness::Sound
        } else {
            Soundness::Unsound
        }
    }

    /// A witness of unsoundness — a node and a resolved idempotent
    /// self-loop graph without a strict self-edge — if one is present.
    /// With several, the one at the least node wins, so the witness does
    /// not depend on hash order.
    pub fn unsound_witness(&self) -> Option<(N, ScGraph<V>)> {
        self.graphs
            .iter()
            .filter(|(&(a, b), _)| a == b)
            .filter_map(|(&(a, _), set)| {
                // `add_edge_id` forced the idempotence flag of every
                // self-loop graph that lacks a strict self-edge, so this
                // scan runs on cached flags.
                set.iter()
                    .find(|&&g| !self.store.has_strict_self_edge(g) && self.store.is_idempotent(g))
                    .map(|&g| (a, g))
            })
            .min_by_key(|&(a, _)| a)
            .map(|(a, g)| (a, self.store.resolve(g)))
    }

    /// Restores the state captured by `mark`, removing every graph inserted
    /// since.
    ///
    /// # Panics
    ///
    /// Panics if `mark` does not come from this closure's past (the trail is
    /// shorter than the mark).
    pub fn undo_to(&mut self, mark: Mark) {
        assert!(mark.0 <= self.trail.len(), "mark is in the future");
        while self.trail.len() > mark.0 {
            match self.trail.pop().expect("trail non-empty") {
                Step::Graph(a, b, g, was_bad) => {
                    if was_bad {
                        self.bad -= 1;
                    }
                    let set = self.graphs.get_mut(&(a, b)).expect("retained pair");
                    // Insertions per pair happen in trail order, so
                    // unwinding the trail LIFO always removes the pair's
                    // most recent id.
                    let popped = set.pop();
                    debug_assert_eq!(popped, Some(g), "trail out of sync with pair set");
                    self.live -= 1;
                    if set.is_empty() {
                        self.graphs.remove(&(a, b));
                        index_remove(&mut self.succ, a, b);
                        index_remove(&mut self.pred, b, a);
                    }
                }
                Step::Edge(src, dst) => {
                    let cc = self.components.as_mut().expect("cycle-only closure");
                    cc.out.get_mut(&src).and_then(Vec::pop);
                    cc.inn.get_mut(&dst).and_then(Vec::pop);
                }
                Step::Union {
                    child,
                    root,
                    bumped,
                } => {
                    let cc = self.components.as_mut().expect("cycle-only closure");
                    cc.parent.remove(&child);
                    if bumped {
                        *cc.rank.get_mut(&root).expect("ranked root") -= 1;
                    }
                }
            }
        }
    }

    /// The total number of graphs currently retained — O(1), maintained by
    /// insert/undo rather than summed over node pairs.
    pub fn num_graphs(&self) -> usize {
        self.live
    }

    /// The graphs currently recorded between `a` and `b`, resolved to
    /// owned [`ScGraph`]s.
    pub fn between(&self, a: N, b: N) -> impl Iterator<Item = ScGraph<V>> + '_ {
        self.between_ids(a, b).map(|g| self.store.resolve(g))
    }

    /// The interned ids currently recorded between `a` and `b`.
    pub fn between_ids(&self, a: N, b: N) -> impl Iterator<Item = GraphId> + '_ {
        self.graphs
            .get(&(a, b))
            .into_iter()
            .flat_map(|set| set.iter().copied())
    }

    /// Graphs dropped by subsumption pruning so far (monotone; not
    /// rewound by undo).
    pub fn subsumed(&self) -> u64 {
        self.subsumed
    }

    /// Cold compositions performed by the backing store.
    pub fn compositions(&self) -> u64 {
        self.store.compositions()
    }

    /// Compositions served from the store's memo table.
    pub fn memo_hits(&self) -> u64 {
        self.store.memo_hits()
    }

    /// Distinct graphs interned in the backing store (live or not).
    pub fn interned_graphs(&self) -> usize {
        self.store.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Label;

    #[test]
    fn strict_loop_is_sound() {
        let mut c = IncrementalClosure::new();
        let g: ScGraph<u32> = [(0, 0, Label::Strict)].into_iter().collect();
        assert_eq!(c.add_edge(0usize, 0usize, g), Soundness::Sound);
    }

    #[test]
    fn nonstrict_loop_is_detected_immediately() {
        let mut c = IncrementalClosure::new();
        let g: ScGraph<u32> = [(0, 0, Label::NonStrict)].into_iter().collect();
        assert_eq!(c.add_edge(0usize, 0usize, g), Soundness::Unsound);
    }

    #[test]
    fn undo_restores_soundness() {
        let mut c = IncrementalClosure::new();
        let mark = c.mark();
        let g: ScGraph<u32> = [(0, 0, Label::NonStrict)].into_iter().collect();
        assert_eq!(c.add_edge(0usize, 0usize, g), Soundness::Unsound);
        c.undo_to(mark);
        assert_eq!(c.soundness(), Soundness::Sound);
        assert_eq!(c.num_graphs(), 0);
    }

    #[test]
    fn incremental_matches_batch_on_multi_edge_cycle() {
        // Build the add-commutativity-style shape: two nodes, tree edge with
        // a strict hop, back edge with a renaming.
        let case_edge: ScGraph<u32> = [(0, 0, Label::Strict), (1, 1, Label::NonStrict)]
            .into_iter()
            .collect();
        let back_edge: ScGraph<u32> = [(0, 0, Label::NonStrict), (1, 1, Label::NonStrict)]
            .into_iter()
            .collect();

        let mut inc = IncrementalClosure::new();
        assert_eq!(
            inc.add_edge(0usize, 1usize, case_edge.clone()),
            Soundness::Sound
        );
        assert_eq!(
            inc.add_edge(1usize, 0usize, back_edge.clone()),
            Soundness::Sound
        );

        let batch =
            crate::Closure::from_edges([(0usize, 1usize, case_edge), (1usize, 0usize, back_edge)]);
        assert_eq!(batch.check(), Soundness::Sound);
        assert_eq!(inc.num_graphs(), batch.num_graphs());
    }

    #[test]
    fn incremental_detects_unsound_composite_cycle() {
        // Neither edge is a self-loop, but their composition is a loop with
        // no decrease.
        let fwd: ScGraph<u32> = [(0, 0, Label::NonStrict)].into_iter().collect();
        let back: ScGraph<u32> = [(0, 0, Label::NonStrict)].into_iter().collect();
        let mut inc = IncrementalClosure::new();
        assert_eq!(inc.add_edge(0usize, 1usize, fwd), Soundness::Sound);
        assert_eq!(inc.add_edge(1usize, 0usize, back), Soundness::Unsound);
    }

    #[test]
    fn nested_marks_unwind_in_order() {
        let mut c = IncrementalClosure::<u32, usize>::new();
        let g: ScGraph<u32> = [(0, 1, Label::NonStrict)].into_iter().collect();
        let m0 = c.mark();
        c.add_edge(0, 1, g.clone());
        let m1 = c.mark();
        c.add_edge(1, 2, g.clone());
        assert!(c.num_graphs() >= 2);
        c.undo_to(m1);
        assert_eq!(c.num_graphs(), 1);
        c.undo_to(m0);
        assert_eq!(c.num_graphs(), 0);
    }

    #[test]
    #[should_panic(expected = "mark is in the future")]
    fn future_marks_panic() {
        let mut c = IncrementalClosure::<u32, usize>::new();
        c.undo_to(Mark(5));
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let mut c = IncrementalClosure::new();
        let g: ScGraph<u32> = [(0, 0, Label::Strict)].into_iter().collect();
        c.add_edge(0usize, 0usize, g.clone());
        let n = c.num_graphs();
        c.add_edge(0usize, 0usize, g);
        assert_eq!(c.num_graphs(), n);
    }

    #[test]
    fn growth_only_monotone_unsound_stays_unsound() {
        let mut c = IncrementalClosure::new();
        let bad: ScGraph<u32> = ScGraph::new();
        assert_eq!(c.add_edge(0usize, 0usize, bad), Soundness::Unsound);
        let good: ScGraph<u32> = [(0, 0, Label::Strict)].into_iter().collect();
        // Adding a sound cycle elsewhere does not clear the verdict.
        assert_eq!(c.add_edge(1usize, 1usize, good), Soundness::Unsound);
    }

    #[test]
    fn subsumption_drops_dominated_cross_edges() {
        let mut c = IncrementalClosure::new();
        let weak: ScGraph<u32> = [(0, 1, Label::NonStrict)].into_iter().collect();
        let strong: ScGraph<u32> = [(0, 1, Label::Strict), (1, 1, Label::NonStrict)]
            .into_iter()
            .collect();
        c.add_edge(0usize, 1usize, weak);
        assert_eq!(c.num_graphs(), 1);
        c.add_edge(0usize, 1usize, strong);
        assert_eq!(c.num_graphs(), 1, "dominated graph must be dropped");
        assert_eq!(c.subsumed(), 1);
    }

    #[test]
    fn self_loops_are_never_subsumed() {
        let mut c = IncrementalClosure::new();
        let weak: ScGraph<u32> = [(0, 0, Label::Strict)].into_iter().collect();
        let strong: ScGraph<u32> = [(0, 0, Label::Strict), (1, 1, Label::Strict)]
            .into_iter()
            .collect();
        c.add_edge(0usize, 0usize, weak);
        c.add_edge(0usize, 0usize, strong);
        // Both retained (plus their compositions, which dedup to the same
        // ids here).
        assert!(c.between_ids(0, 0).count() >= 2);
        assert_eq!(c.subsumed(), 0);
    }

    #[test]
    fn undo_rewinds_live_counter_past_subsumption() {
        let mut c = IncrementalClosure::new();
        let weak: ScGraph<u32> = [(0, 1, Label::NonStrict)].into_iter().collect();
        c.add_edge(0usize, 1usize, weak);
        let mark = c.mark();
        let strong: ScGraph<u32> = [(0, 1, Label::Strict)].into_iter().collect();
        let other: ScGraph<u32> = [(2, 2, Label::Strict)].into_iter().collect();
        c.add_edge(0usize, 1usize, strong); // dropped by subsumption
        c.add_edge(2usize, 3usize, other); // retained
        assert_eq!(c.num_graphs(), 2);
        c.undo_to(mark);
        assert_eq!(c.num_graphs(), 1);
        assert_eq!(c.soundness(), Soundness::Sound);
    }

    #[test]
    fn composition_memo_survives_undo() {
        let mut c = IncrementalClosure::new();
        let fwd: ScGraph<u32> = [(0, 0, Label::Strict)].into_iter().collect();
        let back: ScGraph<u32> = [(0, 0, Label::NonStrict)].into_iter().collect();
        c.add_edge(0usize, 1usize, fwd.clone());
        let mark = c.mark();
        c.add_edge(1usize, 0usize, back.clone());
        let cold_after_first = c.compositions();
        c.undo_to(mark);
        // Replaying the same edge re-derives the same compositions from
        // the memo table: no new cold composition is needed.
        c.add_edge(1usize, 0usize, back);
        assert_eq!(c.compositions(), cold_after_first);
        assert!(c.memo_hits() > 0);
    }

    #[test]
    fn tree_edge_into_a_fresh_node_composes_nothing() {
        let mut c = IncrementalClosure::cycle_only();
        let g: ScGraph<u32> = [(0, 0, Label::NonStrict)].into_iter().collect();
        assert_eq!(c.add_edge(0usize, 1usize, g.clone()), Soundness::Sound);
        assert_eq!(c.add_edge(1usize, 2usize, g), Soundness::Sound);
        assert_eq!(c.compositions(), 0);
        assert_eq!(c.memo_hits(), 0);
        assert_eq!(c.num_graphs(), 0);
    }

    #[test]
    fn undoing_a_back_edge_splits_the_component() {
        let mut c = IncrementalClosure::cycle_only();
        let fwd: ScGraph<u32> = [(0, 0, Label::Strict)].into_iter().collect();
        let back: ScGraph<u32> = [(0, 0, Label::NonStrict)].into_iter().collect();
        c.add_edge(0usize, 1usize, fwd);
        let mark = c.mark();
        assert_eq!(c.add_edge(1usize, 0usize, back.clone()), Soundness::Sound);
        let cc = c.components.as_ref().expect("cycle-only");
        assert_eq!(cc.find(0), cc.find(1));
        assert!(c.between_ids(0, 0).count() > 0);
        c.undo_to(mark);
        let cc = c.components.as_ref().expect("cycle-only");
        assert_ne!(cc.find(0), cc.find(1));
        assert_eq!(c.num_graphs(), 0);
        // A second edge `0 → 1` now lies between two components again, so
        // it is logged without being saturated.
        c.add_edge(0usize, 1usize, back);
        assert_eq!(c.num_graphs(), 0);
    }

    mod cycle_only_matches_exhaustive {
        use super::*;
        use proptest::prelude::*;
        use proptest::test_runner::Config;
        use std::collections::BTreeSet;

        const NODES: usize = 6;

        fn arb_graph() -> impl Strategy<Value = ScGraph<u32>> {
            proptest::collection::vec(
                (
                    0..3u32,
                    0..3u32,
                    prop_oneof![Just(Label::NonStrict), Just(Label::Strict)],
                ),
                0..6,
            )
            .prop_map(|edges| edges.into_iter().collect())
        }

        /// Reflexive-transitive reachability over `edges` (Floyd–Warshall).
        fn reachability(edges: &[(usize, usize)]) -> [[bool; NODES]; NODES] {
            let mut r = [[false; NODES]; NODES];
            for (v, row) in r.iter_mut().enumerate() {
                row[v] = true;
            }
            for &(a, b) in edges {
                r[a][b] = true;
            }
            for k in 0..NODES {
                for i in 0..NODES {
                    for j in 0..NODES {
                        r[i][j] |= r[i][k] && r[k][j];
                    }
                }
            }
            r
        }

        /// The graphs retained between `(a, b)`, as store-independent
        /// sorted edge lists.
        fn graphs(
            c: &IncrementalClosure<u32, usize>,
            a: usize,
            b: usize,
        ) -> BTreeSet<Vec<(u32, u32, Label)>> {
            c.between_ids(a, b)
                .map(|g| {
                    let mut edges = c.store().edges_of(g);
                    edges.sort_unstable();
                    edges
                })
                .collect()
        }

        /// Ops: `0` adds the edge, `1` takes a mark and then adds it, `2`
        /// undoes to one of the marks taken so far (dropping the later
        /// ones). After every op the verdict and witness node must agree;
        /// unpruned, the retained graphs must agree on every pair of
        /// mutually reachable nodes and the cycle-only closure must retain
        /// nothing elsewhere.
        #[test]
        fn verdicts_and_cyclic_pairs_agree_at_every_step() {
            let cfg = Config {
                cases: 256,
                ..Config::default()
            };
            proptest!(cfg, |(subsumption in 0..2u8, ops in proptest::collection::vec(
                (0..NODES, 0..NODES, arb_graph(), 0..3u8, 0..64usize),
                1..16,
            ))| {
                let subsumption = subsumption == 1;
                let mut cyclic = IncrementalClosure {
                    subsumption,
                    ..IncrementalClosure::cycle_only()
                };
                let mut full = IncrementalClosure {
                    subsumption,
                    ..IncrementalClosure::new()
                };
                let mut edges: Vec<(usize, usize)> = Vec::new();
                let mut marks: Vec<(Mark, Mark, usize)> = Vec::new();
                for (a, b, g, op, pick) in ops {
                    if op == 2 && !marks.is_empty() {
                        let at = pick % marks.len();
                        let (mc, mf, live) = marks[at];
                        marks.truncate(at);
                        cyclic.undo_to(mc);
                        full.undo_to(mf);
                        edges.truncate(live);
                    } else {
                        if op == 1 {
                            marks.push((cyclic.mark(), full.mark(), edges.len()));
                        }
                        let vc = cyclic.add_edge(a, b, g.clone());
                        let vf = full.add_edge(a, b, g);
                        prop_assert_eq!(vc, vf);
                        edges.push((a, b));
                    }
                    prop_assert_eq!(cyclic.soundness(), full.soundness());
                    prop_assert_eq!(
                        cyclic.unsound_witness().map(|(v, _)| v),
                        full.unsound_witness().map(|(v, _)| v)
                    );
                    if !subsumption {
                        let r = reachability(&edges);
                        let mutual = |x: usize, y: usize| r[x][y] && r[y][x];
                        for x in 0..NODES {
                            for y in 0..NODES {
                                let expected = if mutual(x, y) {
                                    graphs(&full, x, y)
                                } else {
                                    BTreeSet::new()
                                };
                                prop_assert_eq!(graphs(&cyclic, x, y), expected);
                            }
                        }
                    }
                }
            });
        }
    }
}
