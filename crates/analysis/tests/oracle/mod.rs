//! Test-only oracle: the general critical-pair enumerator.
//!
//! For rules `a : l_a → r_a` and `b : l_b → r_b` (renamed apart) and a
//! non-variable position `p` of `l_b` where `l_a` unifies with `l_b|_p`
//! under mgu `θ`, the *peak* `θ(l_b)` rewrites in one step two different
//! ways:
//!
//! - the **inner** step contracts the `a`-redex at `p`: `θ(l_b[r_a]_p)`,
//! - the **outer** step contracts the whole term with `b`: `θ(r_b)`.
//!
//! This enumerator tries every ordered rule pair at every left-hand-side
//! position, even across different heads, so it assumes nothing about the
//! shape of the system. The production engine
//! (`cycleq_rewrite::overlaps`) relies on the constructor discipline of
//! `Trs::add_rule` to look only at root overlaps of same-function clauses;
//! the differential tests check the two agree.
//!
//! Variable handling matches the engine: the outer rule keeps its original
//! variables, while the inner rule is renamed apart with primes (`x` →
//! `x'`) only where its names would collide.

use std::collections::BTreeSet;

use cycleq_rewrite::{RuleId, Trs};
use cycleq_term::{unify, Position, Subst, Term, VarStore};

/// One critical pair: a peak together with its two one-step reducts.
#[derive(Clone, Debug)]
pub struct CriticalPair {
    /// The rule contracted at `pos` (the inner step), renamed apart.
    pub inner: RuleId,
    /// The rule contracted at the root (the outer step), kept with its
    /// original variables.
    pub outer: RuleId,
    /// The overlap position inside `outer`'s left-hand side.
    pub pos: Position,
    /// The overlapped instance `θ(l_outer)` both rules rewrite.
    pub peak: Term,
    /// The reduct of the inner step, `θ(l_outer[r_inner]_pos)`.
    pub left: Term,
    /// The reduct of the outer step, `θ(r_outer)`.
    pub right: Term,
}

/// All critical pairs of a system, with the variable store their terms
/// live in (the rule store extended with the renamed-apart copies).
#[derive(Debug)]
pub struct CriticalPairs {
    /// Store resolving every variable in the pairs' terms.
    pub vars: VarStore,
    /// The pairs, in (outer, inner) rule order.
    pub pairs: Vec<CriticalPair>,
}

/// Enumerates every critical pair of the system.
///
/// Root overlaps between distinct rules are produced once per unordered
/// pair (with the earlier rule as the outer one); proper-subterm overlaps
/// are produced for every ordered pair, including a rule overlapped into
/// itself. Trivial root self-overlaps (`a` with `a`) are skipped, as is
/// conventional.
pub fn critical_pairs(trs: &Trs) -> CriticalPairs {
    let mut vars = trs.vars().clone();
    let mut pairs = Vec::new();
    let ids: Vec<RuleId> = trs.rules().map(|(id, _)| id).collect();
    for &outer in &ids {
        let outer_rule = trs.rule(outer);
        let lhs_outer = outer_rule.lhs_term();
        let taken: BTreeSet<&str> = outer_rule
            .lhs_vars()
            .iter()
            .map(|v| trs.vars().name(*v))
            .collect();
        for &inner in &ids {
            let (inner_params, inner_rhs) = rename_apart(trs, inner, &taken, &mut vars);
            let lhs_inner = Term::apps(trs.rule(inner).head(), inner_params);
            for (pos, sub) in lhs_outer.positions() {
                // Overlap only at non-variable positions; the root
                // self-overlap is the trivial pair.
                if sub.head_var().is_some() || (inner == outer && pos.is_root()) {
                    continue;
                }
                // Count each root overlap once per unordered pair.
                if pos.is_root() && inner < outer {
                    continue;
                }
                let Ok(theta) = unify(&lhs_inner, sub) else {
                    continue;
                };
                pairs.push(make_pair(
                    inner,
                    outer,
                    pos,
                    &lhs_outer,
                    &inner_rhs,
                    outer_rule.rhs(),
                    &theta,
                ));
            }
        }
    }
    CriticalPairs { vars, pairs }
}

fn make_pair(
    inner: RuleId,
    outer: RuleId,
    pos: Position,
    lhs_outer: &Term,
    inner_rhs: &Term,
    outer_rhs: &Term,
    theta: &Subst,
) -> CriticalPair {
    let peak = theta.apply(lhs_outer);
    let contracted = lhs_outer
        .replace_at(&pos, inner_rhs.clone())
        .expect("overlap position comes from lhs_outer.positions()");
    CriticalPair {
        inner,
        outer,
        pos,
        peak,
        left: theta.apply(&contracted),
        right: theta.apply(outer_rhs),
    }
}

/// Renames `rule`'s variables apart from `taken`, priming colliding names
/// (`x` → `x'` → `x''`) so rendered pairs stay readable.
fn rename_apart(
    trs: &Trs,
    rule: RuleId,
    taken: &BTreeSet<&str>,
    vars: &mut VarStore,
) -> (Vec<Term>, Term) {
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
        let ty = trs.vars().ty(v).clone();
        let fresh = vars.fresh(&name, ty);
        renaming.insert(v, Term::var(fresh));
    }
    let params = r.params().iter().map(|p| renaming.apply(p)).collect();
    (params, renaming.apply(r.rhs()))
}
