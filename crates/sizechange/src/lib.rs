//! Size-change graphs and the global-correctness machinery of CycleQ (§5.2).
//!
//! The global condition on cyclic preproofs — every infinite path has a
//! suffix carrying a trace with infinitely many progress points — is
//! undecidable in general. CycleQ restricts attention to *variable-based*
//! traces, for which the condition reduces to Lee, Jones and Ben-Amram's
//! size-change principle: annotate every proof edge with a size-change graph
//! (Definition 5.3), close the set of graphs under composition
//! (Definition 5.4), and require every idempotent self-loop graph to carry a
//! strict self-edge (Theorem 5.2).
//!
//! This crate is independent of the term language: graphs are generic over
//! the variable type `V` and the node type `N`, so the same machinery
//! verifies proofs (variables = term variables, nodes = proof vertices) and
//! program termination (variables = argument positions, nodes = function
//! symbols).
//!
//! Two closure checkers share a single composition engine, the hash-consed
//! [`GraphStore`] (per-graph bit planes, cached Theorem 5.2 flags,
//! memoized composition, subsumption pruning — see [`store`] and the
//! exactness argument in [`incremental`]):
//!
//! - [`Closure`]: batch saturation from a fixed edge set, used by the
//!   stand-alone proof checker.
//! - [`IncrementalClosure`]: trail-based saturation that supports
//!   checkpoint/undo, used *during* proof search so that unsound cycles are
//!   detected the moment they are created and shared proof prefixes are
//!   never re-verified — the paper's answer to the soundness-checking
//!   bottleneck observed in Cyclist. Its cycle-only mode
//!   ([`IncrementalClosure::cycle_only`]), which the search and the
//!   checker's SCC-restricted global check use, tracks strongly connected
//!   components under undo and composes only the edges inside them, with
//!   the exhaustive mode's verdict.
//!
//! [`ScGraph`] stays as the owned, construction-facing graph (and the
//! executable specification the property tests compare the store
//! against); it lowers into a store via [`GraphStore::intern`].

mod closure;
mod graph;
mod idvec;
pub mod incremental;
mod metrics;
pub mod store;

pub use closure::{Closure, Soundness};
pub use graph::{Label, ScGraph};
pub use incremental::{IncrementalClosure, Mark};
pub use store::{GraphId, GraphStore};

/// Convenience entry point: size-change termination of a call graph.
///
/// Each element of `edges` is `(source, target, graph)`. Returns `true` when
/// the multipath closure satisfies Theorem 5.2, i.e. every idempotent cyclic
/// composition has a strict self-edge.
///
/// # Example
///
/// ```
/// use cycleq_sizechange::{is_size_change_terminating, Label, ScGraph};
///
/// // A single recursive function whose first argument strictly decreases.
/// let mut g = ScGraph::new();
/// g.insert(0u32, 0u32, Label::Strict);
/// assert!(is_size_change_terminating(&[("f", "f", g.clone())]));
///
/// // A function that shuffles its arguments without decrease diverges.
/// let mut swap = ScGraph::new();
/// swap.insert(0u32, 1u32, Label::NonStrict);
/// swap.insert(1u32, 0u32, Label::NonStrict);
/// assert!(!is_size_change_terminating(&[("f", "f", swap)]));
/// ```
pub fn is_size_change_terminating<V, N>(edges: &[(N, N, ScGraph<V>)]) -> bool
where
    V: Copy + Ord + std::hash::Hash,
    N: Copy + Ord + std::hash::Hash,
{
    Closure::from_edges(edges.iter().cloned()).check() == Soundness::Sound
}
