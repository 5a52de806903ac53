//! The canonical size-change graph of each proof edge (Definition 5.3) and
//! the global-correctness check (Theorem 5.2).

use cycleq_sizechange::{
    Closure, GraphId, GraphStore, IncrementalClosure, Label, ScGraph, Soundness,
};
use cycleq_term::VarId;

use crate::node::{NodeId, RuleApp};
use crate::preproof::Preproof;

/// The labelled edges of the size-change graph annotating the edge from
/// `v` to its `premise_idx`-th premise (Definition 5.3), shared by
/// [`edge_graph`] and [`edge_graph_id`].
fn edge_triples(proof: &Preproof, v: NodeId, premise_idx: usize) -> Vec<(VarId, VarId, Label)> {
    let node = proof.node(v);
    let premise = node.premises[premise_idx];
    let premise_eq = &proof.node(premise).eq;
    let mut out = Vec::new();
    match &node.rule {
        RuleApp::Open => panic!("edge_graph on an open node"),
        RuleApp::Subst(app) if premise_idx == 0 => {
            // Lemma edge: x ≃ y for θ(y) = x.
            for y in premise_eq.vars() {
                match app.theta.get(y) {
                    Some(t) => {
                        if let Some(x) = t.as_var() {
                            out.push((x, y, Label::NonStrict));
                        }
                    }
                    // Unbound lemma variables are untouched by θ.
                    None => out.push((y, y, Label::NonStrict)),
                }
            }
        }
        RuleApp::Case { var, branches } => {
            for z in node.eq.vars() {
                if z != *var {
                    out.push((z, z, Label::NonStrict));
                }
            }
            for y in &branches[premise_idx].fresh {
                out.push((*var, *y, Label::Strict));
            }
        }
        _ => {
            // Continuation of (Subst), (Reduce), (Cong), (FunExt), (Refl):
            // identity on shared variables.
            let conc = node.eq.vars();
            let prem = premise_eq.vars();
            out.extend(conc.intersection(&prem).map(|&z| (z, z, Label::NonStrict)));
        }
    }
    out
}

/// The size-change graph annotating the edge from `v` to its
/// `premise_idx`-th premise (Definition 5.3).
///
/// - `(Subst)` lemma edge: a non-strict edge `x ≃ y` whenever `θ(y)` is the
///   variable `x` — variable traces survive instantiation only when the
///   instance is itself a variable.
/// - `(Case)` edge: a strict edge `x ≲ y` from the analysed variable to each
///   fresh constructor argument, and identity on all other variables.
/// - every other edge: identity on the variables common to conclusion and
///   premise.
///
/// # Panics
///
/// Panics if `premise_idx` is out of range for the node or the node is
/// `Open`.
pub fn edge_graph(proof: &Preproof, v: NodeId, premise_idx: usize) -> ScGraph<VarId> {
    edge_triples(proof, v, premise_idx).into_iter().collect()
}

/// [`edge_graph`], built directly into a [`GraphStore`] with no owned
/// intermediate: the triples are interned in one pass and the store's
/// dedup table makes the recurring graph shapes (identity graphs on the
/// same variable sets, the per-constructor `(Case)` graphs) a hash lookup
/// after their first construction. This is the path the prover uses.
///
/// # Panics
///
/// Panics if `premise_idx` is out of range for the node or the node is
/// `Open`.
pub fn edge_graph_id(
    proof: &Preproof,
    v: NodeId,
    premise_idx: usize,
    store: &mut GraphStore<VarId>,
) -> GraphId {
    store.intern_edges(edge_triples(proof, v, premise_idx))
}

/// All annotated edges of the preproof, ready for closure computation.
pub fn global_edges(proof: &Preproof) -> Vec<(NodeId, NodeId, ScGraph<VarId>)> {
    let mut out = Vec::new();
    for (id, node) in proof.nodes() {
        for i in 0..node.premises.len() {
            out.push((id, node.premises[i], edge_graph(proof, id, i)));
        }
    }
    out
}

/// Batch global-correctness check (Theorem 5.2): computes the closure of all
/// edge graphs and requires every idempotent self-loop to carry a strict
/// self-edge.
pub fn check_global(proof: &Preproof) -> Soundness {
    Closure::from_edges(global_edges(proof)).check()
}

/// SCC-restricted global-correctness check: same verdict as
/// [`check_global`], usually much cheaper.
///
/// The closure condition of Theorem 5.2 only inspects *self-loops*
/// `g ∈ closure(v, v)`, and every composition path from `v` back to `v`
/// stays, by definition, inside `v`'s strongly connected component. The
/// edges are replayed into one cycle-only [`IncrementalClosure`], which
/// tracks the components as they form and composes only the edges inside
/// them. On typical proofs the cyclic core is a small fraction of the node
/// count — the tree-shaped remainder (where the closure's composition
/// blow-up would otherwise spend its time) is logged but never composed.
pub fn check_global_scc(proof: &Preproof) -> Soundness {
    replay(proof, &mut IncrementalClosure::cycle_only())
}

/// Replays the proof's edges through an [`IncrementalClosure`], returning
/// the verdict. Exists so that tests and benches can compare the
/// incremental engine against [`check_global`] on identical inputs.
pub fn check_global_incremental(proof: &Preproof) -> Soundness {
    replay(proof, &mut IncrementalClosure::new())
}

/// Adds every edge of the proof to `closure`, in node and premise order,
/// and stops at the first unsound verdict.
fn replay(proof: &Preproof, closure: &mut IncrementalClosure<VarId, NodeId>) -> Soundness {
    for (v, node) in proof.nodes() {
        for (i, &p) in node.premises.iter().enumerate() {
            let g = edge_graph_id(proof, v, i, closure.store_mut());
            if closure.add_edge_id(v, p, g) == Soundness::Unsound {
                return Soundness::Unsound;
            }
        }
    }
    Soundness::Sound
}

/// Extracts, for every back edge, one witness trace of variables around the
/// shortest cycle through it — a human-readable certificate accompanying
/// the soundness verdict. Returns `(from, to, graph)` triples for the
/// composed cycles found at back edges.
pub fn cycle_witnesses(proof: &Preproof) -> Vec<(NodeId, ScGraph<VarId>)> {
    let closure = Closure::from_edges(global_edges(proof));
    let mut out = Vec::new();
    for (v, node) in proof.nodes() {
        for p in &node.premises {
            if proof.is_back_edge(v, *p) {
                // Check the cached strict-self flag first: idempotence is
                // only computed (uncached on this read-only path) for the
                // graphs that can actually be witnesses.
                if let Some(g) = closure
                    .between_ids(*p, *p)
                    .find(|&g| {
                        closure.store().has_strict_self_edge(g) && closure.store().is_idempotent(g)
                    })
                    .map(|g| closure.store().resolve(g))
                {
                    out.push((*p, g));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{CaseBranch, Side, SubstApp};
    use cycleq_rewrite::fixtures::nat_list_program;
    use cycleq_term::{Equation, Position, Subst, Term};

    /// Builds the two-node preproof of Example 3.2: `Cons x xs ≈ Nil`
    /// justified by rewriting with itself — a locally well-formed preproof
    /// that the global condition must reject.
    fn example_3_2() -> Preproof {
        let p = nat_list_program();
        let mut proof = Preproof::new();
        let x = proof.vars_mut().fresh("x", p.f.nat_ty());
        let xs = proof.vars_mut().fresh("xs", p.f.list_ty(p.f.nat_ty()));
        let lhs = p.f.cons_t(Term::var(x), Term::var(xs));
        let root = proof.push_open(Equation::new(lhs.clone(), Term::sym(p.f.nil)));
        let refl = proof.push_open(Equation::new(Term::sym(p.f.nil), Term::sym(p.f.nil)));
        proof.justify(refl, RuleApp::Refl, vec![]);
        // Rewrite the occurrence of `Cons x xs` (the whole lhs) using the
        // root itself as lemma, leaving `Nil ≈ Nil`.
        let mut theta = Subst::new();
        theta.insert(x, Term::var(x));
        theta.insert(xs, Term::var(xs));
        proof.justify(
            root,
            RuleApp::Subst(SubstApp {
                side: Side::Lhs,
                pos: Position::root(),
                theta,
                lemma_flipped: false,
            }),
            vec![root, refl],
        );
        proof
    }

    #[test]
    fn example_3_2_is_globally_unsound() {
        let proof = example_3_2();
        assert_eq!(check_global(&proof), Soundness::Unsound);
        assert_eq!(check_global_incremental(&proof), Soundness::Unsound);
    }

    #[test]
    fn subst_lemma_edge_keeps_variable_bindings_only() {
        let proof = example_3_2();
        // Edge 0 of the root is the lemma self-edge with identity θ.
        let g = edge_graph(&proof, NodeId::from_index(0), 0);
        // Both x and xs are bound to themselves: two non-strict edges.
        assert_eq!(g.len(), 2);
        assert!(!g.has_strict_self_edge());
    }

    #[test]
    fn case_edges_are_strict_into_fresh_vars() {
        let p = nat_list_program();
        let mut proof = Preproof::new();
        let x = proof.vars_mut().fresh("x", p.f.nat_ty());
        let y = proof.vars_mut().fresh("y", p.f.nat_ty());
        let eq = Equation::new(
            Term::apps(p.f.add, vec![Term::var(x), Term::var(y)]),
            Term::var(y),
        );
        let root = proof.push_open(eq.clone());
        // Case on x: Z branch and S branch.
        let z_eq = Equation::new(
            Term::apps(p.f.add, vec![Term::sym(p.f.zero), Term::var(y)]),
            Term::var(y),
        );
        let xp = proof.vars_mut().fresh_from(x, p.f.nat_ty());
        let s_eq = Equation::new(
            Term::apps(p.f.add, vec![p.f.s(Term::var(xp)), Term::var(y)]),
            Term::var(y),
        );
        let zb = proof.push_open(z_eq);
        let sb = proof.push_open(s_eq);
        proof.justify(
            root,
            RuleApp::Case {
                var: x,
                branches: vec![
                    CaseBranch {
                        con: p.f.zero,
                        fresh: vec![],
                    },
                    CaseBranch {
                        con: p.f.succ,
                        fresh: vec![xp],
                    },
                ],
            },
            vec![zb, sb],
        );
        let g0 = edge_graph(&proof, root, 0);
        assert_eq!(g0.label(y, y), Some(Label::NonStrict));
        assert_eq!(g0.label(x, x), None, "analysed variable is consumed");
        let g1 = edge_graph(&proof, root, 1);
        assert_eq!(g1.label(x, xp), Some(Label::Strict));
        assert_eq!(g1.label(y, y), Some(Label::NonStrict));
    }

    #[test]
    fn scc_check_matches_batch_check_on_unsound_proof() {
        let proof = example_3_2();
        assert_eq!(check_global_scc(&proof), Soundness::Unsound);
    }

    #[test]
    fn scc_check_accepts_acyclic_proofs_without_closure_work() {
        // A pure tree (no back edges) has only trivial SCCs: sound by
        // construction, and the cycle-only closure composes no edge.
        let p = nat_list_program();
        let mut proof = Preproof::new();
        let leaf_eq = Equation::new(Term::sym(p.f.nil), Term::sym(p.f.nil));
        let leaf = proof.push_open(leaf_eq.clone());
        proof.justify(leaf, RuleApp::Refl, vec![]);
        let root = proof.push_open(leaf_eq);
        proof.justify(
            root,
            RuleApp::Subst(SubstApp {
                side: Side::Lhs,
                pos: Position::root(),
                theta: Subst::new(),
                lemma_flipped: false,
            }),
            vec![leaf, leaf],
        );
        assert_eq!(check_global(&proof), check_global_scc(&proof));
        assert_eq!(check_global_scc(&proof), Soundness::Sound);
    }

    #[test]
    fn cycle_only_replay_blames_the_self_premise_root() {
        // Node 0 (root) is its own premise, so it forms a component with a
        // self-edge whose only idempotent lacks a strict self-edge.
        let proof = example_3_2();
        let mut closure = IncrementalClosure::cycle_only();
        assert_eq!(replay(&proof, &mut closure), Soundness::Unsound);
        let witness = closure.unsound_witness().map(|(v, _)| v);
        assert_eq!(witness, Some(NodeId::from_index(0)));
    }

    #[test]
    fn cycle_only_replay_never_composes_the_edge_into_the_leaf() {
        // Node 1 (refl) has no premises: a trivial component, so the edge
        // from the root into it is logged but costs no composition.
        let proof = example_3_2();
        let (root, leaf) = (NodeId::from_index(0), NodeId::from_index(1));
        let mut closure = IncrementalClosure::cycle_only();
        let g = edge_graph_id(&proof, root, 1, closure.store_mut());
        assert_eq!(closure.add_edge_id(root, leaf, g), Soundness::Sound);
        assert_eq!(closure.compositions(), 0);
        assert_eq!(closure.memo_hits(), 0);
        assert_eq!(closure.num_graphs(), 0);
    }

    #[test]
    fn global_edges_counts_all_premises() {
        let proof = example_3_2();
        // Root has two premises; refl has none.
        assert_eq!(global_edges(&proof).len(), 2);
    }
}
