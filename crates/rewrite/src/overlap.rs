//! Root overlaps: the orthogonality check and the critical pairs of a
//! constructor system, computed in one pass.
//!
//! Remark 2.1 assumes an orthogonal system: left-linear and
//! non-overlapping. [`crate::Trs::add_rule`] keeps every clause parameter a
//! constructor pattern and every clause of a symbol at one arity, so the
//! only overlaps that can exist are root overlaps between two clauses of
//! the same function. [`overlaps`] therefore walks each head's clauses,
//! renames every pair `i < j` apart and unifies their left-hand sides once.
//!
//! An overlapping pair is reported as a critical pair. With the earlier
//! clause `outer : l_o → r_o`, the later clause `inner : l_i → r_i`
//! (renamed apart) and mgu `θ` of `l_i` and `l_o`, the *peak* `θ(l_o)`
//! rewrites in one step two different ways:
//!
//! - the **inner** step contracts it with the later clause: `θ(r_i)`,
//! - the **outer** step contracts it with the earlier clause: `θ(r_o)`.
//!
//! The pair is joinable iff both reducts rewrite to a common term; a system
//! all of whose critical pairs are joinable is locally confluent
//! (Knuth–Bendix).
//!
//! Variable handling is chosen for downstream diagnostics: the outer clause
//! keeps its original variables (so rendered peaks use source names), while
//! the inner clause is renamed apart with primes (`x` → `x'`) only where
//! its names would collide.

use std::collections::BTreeSet;

use cycleq_term::{unify, Subst, Term, VarStore};

use crate::rule::RuleId;
use crate::trs::Trs;

/// One overlapping clause pair and its critical pair.
#[derive(Clone, Debug)]
pub struct Overlap {
    /// The earlier clause, contracted by the outer step. It keeps its
    /// original variables.
    pub outer: RuleId,
    /// The later clause of the same function, contracted by the inner
    /// step. It is renamed apart from `outer`.
    pub inner: RuleId,
    /// Maps every variable of `inner` to its renamed-apart copy.
    pub renaming: Subst,
    /// The most general unifier of the two left-hand sides.
    pub mgu: Subst,
    /// The overlapped instance `θ(l_outer)` both clauses rewrite.
    pub peak: Term,
    /// The reduct of the inner step, `θ(r_inner)`.
    pub left: Term,
    /// The reduct of the outer step, `θ(r_outer)`.
    pub right: Term,
}

/// The orthogonality report of a system: its non-left-linear rules and its
/// overlapping clause pairs, with the variable store their terms live in.
#[derive(Debug)]
pub struct Overlaps {
    /// Store resolving every variable in the pairs' terms: the rule store
    /// extended with the renamed-apart copies. Outer-clause variables keep
    /// their original ids and names.
    pub vars: VarStore,
    /// Rules whose left-hand sides repeat a variable, in rule order.
    pub non_left_linear: Vec<RuleId>,
    /// The overlapping pairs, in (outer, inner) rule order.
    pub pairs: Vec<Overlap>,
}

/// Computes the non-left-linear rules and every root overlap between two
/// clauses of the same function.
pub fn overlaps(trs: &Trs) -> Overlaps {
    let mut vars = trs.vars().clone();
    let mut non_left_linear = Vec::new();
    let mut pairs = Vec::new();
    for (outer, rule) in trs.rules() {
        if !rule.is_left_linear() {
            non_left_linear.push(outer);
        }
        let lhs_outer = rule.lhs_term();
        let taken: BTreeSet<&str> = rule
            .lhs_vars()
            .iter()
            .map(|v| trs.vars().name(*v))
            .collect();
        for &inner in trs.rules_for(rule.head()).iter().filter(|id| **id > outer) {
            let renaming = rename_apart(trs, inner, &taken, &mut vars);
            let inner_rule = trs.rule(inner);
            let inner_params = inner_rule.params().iter().map(|p| renaming.apply(p));
            let lhs_inner = Term::apps(rule.head(), inner_params.collect());
            let Ok(mgu) = unify(&lhs_inner, &lhs_outer) else {
                continue;
            };
            pairs.push(Overlap {
                outer,
                inner,
                peak: mgu.apply(&lhs_outer),
                left: mgu.apply(&renaming.apply(inner_rule.rhs())),
                right: mgu.apply(rule.rhs()),
                renaming,
                mgu,
            });
        }
    }
    Overlaps {
        vars,
        non_left_linear,
        pairs,
    }
}

/// Renames `rule`'s variables apart from `taken`, priming colliding names
/// (`x` → `x'` → `x''`) so rendered pairs stay readable.
fn rename_apart(trs: &Trs, rule: RuleId, taken: &BTreeSet<&str>, vars: &mut VarStore) -> Subst {
    let r = trs.rule(rule);
    let mut rule_vars = BTreeSet::new();
    for p in r.params() {
        p.collect_vars(&mut rule_vars);
    }
    r.rhs().collect_vars(&mut rule_vars);
    let mut renaming = Subst::new();
    let mut used: BTreeSet<String> = BTreeSet::new();
    for v in rule_vars {
        let mut name = trs.vars().name(v).to_string();
        while taken.contains(name.as_str()) || used.contains(&name) {
            name.push('\'');
        }
        used.insert(name.clone());
        let fresh = vars.fresh(&name, trs.vars().ty(v).clone());
        renaming.insert(v, Term::var(fresh));
    }
    renaming
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::nat_list_program;
    use cycleq_term::fixtures::NatList;
    use cycleq_term::{SymId, Type, TypeScheme};

    fn defined(f: &mut NatList, name: &str, arity: usize) -> SymId {
        let nat = Type::data0(f.nat);
        let body = Type::arrows(vec![nat.clone(); arity], nat);
        f.sig
            .add_defined(name, TypeScheme::mono(body))
            .expect("fresh symbol")
    }

    /// The paper's fig. 2 `sub`: `sub Z y = Z` / `sub x Z = x` /
    /// `sub (S x) (S y) = sub x y`. One weak root overlap.
    fn fig2_sub() -> (NatList, Trs) {
        let mut f = NatList::new();
        let sub = defined(&mut f, "sub", 2);
        let mut trs = Trs::new();
        let y = trs.vars_mut().fresh("y", f.nat_ty());
        trs.add_rule(
            &f.sig,
            sub,
            vec![Term::sym(f.zero), Term::var(y)],
            Term::sym(f.zero),
        )
        .unwrap();
        let x = trs.vars_mut().fresh("x", f.nat_ty());
        trs.add_rule(
            &f.sig,
            sub,
            vec![Term::var(x), Term::sym(f.zero)],
            Term::var(x),
        )
        .unwrap();
        let x2 = trs.vars_mut().fresh("x", f.nat_ty());
        let y2 = trs.vars_mut().fresh("y", f.nat_ty());
        trs.add_rule(
            &f.sig,
            sub,
            vec![f.s(Term::var(x2)), f.s(Term::var(y2))],
            Term::apps(sub, vec![Term::var(x2), Term::var(y2)]),
        )
        .unwrap();
        (f, trs)
    }

    #[test]
    fn fig2_sub_has_one_pair_with_joinable_reducts() {
        let (f, trs) = fig2_sub();
        let ov = overlaps(&trs);
        assert_eq!(ov.pairs.len(), 1, "exactly one overlap in fig. 2 sub");
        let cp = &ov.pairs[0];
        assert!(cp.outer < cp.inner, "the earlier clause is the outer one");
        // Peak is `sub Z Z`; both reducts are already `Z`.
        assert_eq!(cp.peak.display(&f.sig, &ov.vars).to_string(), "sub Z Z");
        assert_eq!(cp.left, Term::sym(f.zero));
        assert_eq!(cp.right, Term::sym(f.zero));
    }

    #[test]
    fn outer_rule_keeps_original_variable_names() {
        let mut f = NatList::new();
        let g = defined(&mut f, "g", 2);
        let mut trs = Trs::new();
        // g m Z = m  /  g Z n = n: root overlap whose peak is `g Z Z`.
        let m = trs.vars_mut().fresh("m", f.nat_ty());
        trs.add_rule(
            &f.sig,
            g,
            vec![Term::var(m), Term::sym(f.zero)],
            Term::var(m),
        )
        .unwrap();
        let n = trs.vars_mut().fresh("n", f.nat_ty());
        trs.add_rule(
            &f.sig,
            g,
            vec![Term::sym(f.zero), Term::var(n)],
            Term::var(n),
        )
        .unwrap();
        let ov = overlaps(&trs);
        assert_eq!(ov.pairs.len(), 1);
        let cp = &ov.pairs[0];
        assert_eq!(cp.peak.display(&f.sig, &ov.vars).to_string(), "g Z Z");
        assert_eq!(cp.left, Term::sym(f.zero));
        assert_eq!(cp.right, Term::sym(f.zero));
        // The outer clause's `m` is bound in the mgu under its own id.
        assert_eq!(cp.mgu.get(m), Some(&Term::sym(f.zero)));
    }

    #[test]
    fn same_name_across_rules_is_primed_apart() {
        let mut f = NatList::new();
        let h = defined(&mut f, "h", 1);
        let mut trs = Trs::new();
        // h x = x  and  h (S x) = x: overlap at root; the inner copy of
        // `x` must be renamed `x'` so the peak renders unambiguously.
        let x1 = trs.vars_mut().fresh("x", f.nat_ty());
        trs.add_rule(&f.sig, h, vec![Term::var(x1)], Term::var(x1))
            .unwrap();
        let x2 = trs.vars_mut().fresh("x", f.nat_ty());
        trs.add_rule(&f.sig, h, vec![f.s(Term::var(x2))], Term::var(x2))
            .unwrap();
        let ov = overlaps(&trs);
        assert_eq!(ov.pairs.len(), 1);
        let cp = &ov.pairs[0];
        // Outer rule is the first (`h x = x`): its var keeps the name `x`,
        // the inner rule's `x` is primed.
        assert_eq!(cp.peak.display(&f.sig, &ov.vars).to_string(), "h (S x')");
        let renamed = cp.renaming.apply(&Term::var(x2));
        assert_eq!(renamed.display(&f.sig, &ov.vars).to_string(), "x'");
    }

    #[test]
    fn orthogonal_system_has_no_pairs() {
        let f = NatList::new();
        let mut trs = Trs::new();
        // add Z y = y  /  add (S x) y = S (add x y): orthogonal.
        let y = trs.vars_mut().fresh("y", f.nat_ty());
        trs.add_rule(
            &f.sig,
            f.add,
            vec![Term::sym(f.zero), Term::var(y)],
            Term::var(y),
        )
        .unwrap();
        let x2 = trs.vars_mut().fresh("x", f.nat_ty());
        let y2 = trs.vars_mut().fresh("y", f.nat_ty());
        trs.add_rule(
            &f.sig,
            f.add,
            vec![f.s(Term::var(x2)), Term::var(y2)],
            f.s(Term::apps(f.add, vec![Term::var(x2), Term::var(y2)])),
        )
        .unwrap();
        let ov = overlaps(&trs);
        assert!(ov.pairs.is_empty());
        assert!(ov.non_left_linear.is_empty());
    }

    #[test]
    fn fixture_program_is_orthogonal() {
        let p = nat_list_program();
        let ov = overlaps(&p.prog.trs);
        assert!(ov.non_left_linear.is_empty(), "{ov:?}");
        assert!(ov.pairs.is_empty(), "{ov:?}");
    }

    #[test]
    fn overlapping_rules_are_detected() {
        let mut f = NatList::new();
        let g = defined(&mut f, "g", 1);
        let mut trs = Trs::new();
        let x = trs.vars_mut().fresh("x", f.nat_ty());
        // g x = Z and g Z = Z overlap on g Z.
        let a = trs
            .add_rule(&f.sig, g, vec![Term::var(x)], Term::sym(f.zero))
            .unwrap();
        let b = trs
            .add_rule(&f.sig, g, vec![Term::sym(f.zero)], Term::sym(f.zero))
            .unwrap();
        let ov = overlaps(&trs);
        assert_eq!(ov.pairs.len(), 1);
        assert_eq!((ov.pairs[0].outer, ov.pairs[0].inner), (a, b));
    }

    #[test]
    fn non_left_linear_rules_are_detected() {
        let mut f = NatList::new();
        let eq = defined(&mut f, "eqSame", 2);
        let mut trs = Trs::new();
        let x = trs.vars_mut().fresh("x", f.nat_ty());
        trs.add_rule(&f.sig, eq, vec![Term::var(x), Term::var(x)], Term::var(x))
            .unwrap();
        let ov = overlaps(&trs);
        assert_eq!(ov.non_left_linear.len(), 1);
        assert!(ov.pairs.is_empty());
    }

    #[test]
    fn clauses_of_different_functions_never_overlap() {
        // `add` and `len` both have catch-all-free but structurally
        // similar clauses; only same-head pairs are ever unified.
        let p = nat_list_program();
        let trs = &p.prog.trs;
        let ov = overlaps(trs);
        assert!(ov.pairs.is_empty());
        // No renamed copies are allocated for clauses of distinct heads:
        // one copy per same-head pair, each as large as its clause.
        let same_head_copies: usize = trs
            .rules()
            .map(|(a, ra)| {
                trs.rules_for(ra.head())
                    .iter()
                    .filter(|b| **b > a)
                    .map(|b| trs.rule(*b).lhs_vars().len())
                    .sum::<usize>()
            })
            .sum();
        assert_eq!(ov.vars.len(), trs.vars().len() + same_head_copies);
    }
}
