//! `CQ002`/`CQ003`/`CQ009`: orthogonality, from one pass over the overlap
//! engine's result.
//!
//! Remark 2.1 assumes the rewrite system is orthogonal — left-linear and
//! non-overlapping. [`cycleq_rewrite::overlaps`] reports the
//! non-left-linear clauses and every root overlap between two clauses of
//! the same function, with its critical pair. This pass turns that report
//! into diagnostics:
//!
//! - A **non-left-linear** clause is the `CQ003` error, naming the repeated
//!   variables.
//! - An overlap whose critical pair is **joinable** (both reducts reach
//!   the same normal form under the memoized rewriter) is benign for
//!   results — the system is weakly orthogonal, like the paper's fig. 2
//!   `sub` — and is reported as `CQ002` downgraded to a *warning*, with
//!   the converging normal form in the note.
//! - An overlap whose critical pair is **non-joinable** (the reducts
//!   normalize to different terms, or fail to normalize within fuel) makes
//!   the system definitively order-sensitive and gets the `CQ009` *error*,
//!   with the two diverging reducts in the note.
//!
//! The per-pair verdicts are returned with the diagnostics, so fix
//! synthesis completes joinable overlaps without enumerating them again.

use cycleq_lang::Module;
use cycleq_rewrite::{overlaps, MemoRewriter, RuleId};
use cycleq_term::{Subst, Term, VarStore};

use crate::diagnostic::{Code, Diagnostic, Severity};

/// Fuel for normalizing critical-pair reducts. Reducts are instantiated
/// clause right-hand sides — tiny terms — so this is generous; a reduct
/// that exhausts it is treated as non-joinable (conservative).
const JOIN_FUEL: usize = 10_000;

/// The joinability verdict for one pair of overlapping clauses, shared by
/// the diagnostic pass below and fix synthesis.
pub(crate) struct OverlapVerdict {
    /// The earlier clause of the pair; its variables keep their ids in
    /// `mgu`.
    pub a: RuleId,
    /// The later clause of the same function.
    pub b: RuleId,
    /// Maps `b`'s variables to the renamed-apart copies `mgu` speaks of.
    pub renaming: Subst,
    /// The most general unifier of the two left-hand sides.
    pub mgu: Subst,
    /// Whether the critical pair is joinable.
    pub joinable: bool,
    /// The rendered peak of the critical pair.
    pub peak: String,
    /// The rendered normal form of the inner-step reduct.
    pub left_nf: String,
    /// The rendered normal form of the outer-step reduct (equals
    /// `left_nf` when `joinable`).
    pub right_nf: String,
    /// Whether both reducts actually reached normal forms within fuel.
    pub normalized: bool,
}

/// Reports non-left-linear clauses and classifies every overlap, returning
/// the diagnostics together with the per-pair verdicts.
pub(crate) fn check(module: &Module) -> (Vec<Diagnostic>, Vec<OverlapVerdict>) {
    let sig = &module.program.sig;
    let trs = &module.program.trs;
    let report = overlaps(trs);
    let mut out: Vec<Diagnostic> = report
        .non_left_linear
        .iter()
        .map(|id| non_left_linear(module, *id))
        .collect();
    if report.pairs.is_empty() {
        return (out, Vec::new());
    }
    let mut rewriter = MemoRewriter::new(sig, trs).with_fuel(JOIN_FUEL);
    let render = |t: &Term| t.display(sig, &report.vars).to_string();
    let mut verdicts = Vec::with_capacity(report.pairs.len());
    for cp in report.pairs {
        let l = rewriter.normalize(&cp.left);
        let r = rewriter.normalize(&cp.right);
        let normalized = l.in_normal_form && r.in_normal_form;
        let v = OverlapVerdict {
            a: cp.outer,
            b: cp.inner,
            joinable: normalized && l.term == r.term,
            peak: render(&cp.peak),
            left_nf: render(&l.term),
            right_nf: render(&r.term),
            normalized,
            renaming: cp.renaming,
            mgu: cp.mgu,
        };
        out.push(overlap(module, &v));
        verdicts.push(v);
    }
    (out, verdicts)
}

fn non_left_linear(module: &Module, id: RuleId) -> Diagnostic {
    let trs = &module.program.trs;
    let rule = trs.rule(id);
    let name = module.program.sig.sym(rule.head()).name();
    let repeated = repeated_vars(rule.params(), trs.vars());
    Diagnostic::new(
        Code::NonLeftLinear,
        module.rule_line(id),
        format!(
            "clause for `{name}` is not left-linear: variable{} {} repeated in the left-hand side",
            if repeated.len() == 1 { "" } else { "s" },
            join_ticked(&repeated),
        ),
    )
    .with_note(
        "a repeated pattern variable demands an equality test the rewrite \
         system cannot perform; orthogonality (Remark 2.1) requires each \
         variable to occur at most once",
    )
}

fn overlap(module: &Module, v: &OverlapVerdict) -> Diagnostic {
    let trs = &module.program.trs;
    let name = module.program.sig.sym(trs.rule(v.a).head()).name();
    let la = module.rule_line(v.a);
    let lb = module.rule_line(v.b);
    let position = match (la, lb) {
        (Some(la), Some(lb)) => format!("the clauses at lines {la} and {lb}"),
        _ => format!("clauses #{} and #{}", v.a.index(), v.b.index()),
    };
    if v.joinable {
        return Diagnostic::new(
            Code::Overlap,
            la.or(lb),
            format!("clauses for `{name}` overlap: {position} match the same terms"),
        )
        .with_severity(Severity::Warning)
        .with_note(format!(
            "both clauses rewrite `{}`; the critical pair is joinable — \
             both reducts normalize to `{}` — so results do not depend \
             on clause order",
            v.peak, v.left_nf
        ))
        .with_note(
            "the system is weakly orthogonal, not orthogonal (Remark 2.1); \
             `cycleq lint --fix` can split the more general clause into \
             non-overlapping cases",
        );
    }
    let diverge = if v.normalized {
        format!(
            "the reducts normalize to `{}` and `{}`, which never meet",
            v.left_nf, v.right_nf
        )
    } else {
        format!(
            "the reducts `{}` and `{}` did not reach normal forms within \
             the fuel bound",
            v.left_nf, v.right_nf
        )
    };
    Diagnostic::new(
        Code::NonJoinable,
        la.or(lb),
        format!(
            "clauses for `{name}` have a non-joinable critical pair: \
             {position} disagree on `{}`",
            v.peak
        ),
    )
    .with_note(diverge)
    .with_note(
        "a non-joinable critical pair breaks confluence outright: goal \
         verdicts depend on clause order (Remark 2.1 is violated); \
         rewrite the clauses so the overlapping case agrees",
    )
}

/// Names of variables occurring more than once across the parameter
/// patterns, in first-occurrence order.
fn repeated_vars(params: &[Term], vars: &VarStore) -> Vec<String> {
    let mut order = Vec::new();
    let mut counts: std::collections::HashMap<cycleq_term::VarId, usize> =
        std::collections::HashMap::new();
    for p in params {
        for t in p.subterms() {
            if let Some(v) = t.as_var() {
                let c = counts.entry(v).or_insert(0);
                *c += 1;
                if *c == 2 {
                    order.push(v);
                }
            }
        }
    }
    order
        .into_iter()
        .map(|v| vars.name(v).to_string())
        .collect()
}

fn join_ticked(names: &[String]) -> String {
    let ticked: Vec<String> = names.iter().map(|n| format!("`{n}`")).collect();
    ticked.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycleq_lang::parse_module;

    fn diagnostics(src: &str) -> Vec<Diagnostic> {
        check(&parse_module(src).unwrap()).0
    }

    #[test]
    fn orthogonal_programs_are_clean() {
        let ds = diagnostics(
            "data Nat = Z | S Nat\nsub :: Nat -> Nat -> Nat\nsub Z y = Z\nsub (S x) Z = S x\nsub (S x) (S y) = sub x y\n",
        );
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn overlapping_but_left_linear_clauses_are_not_cq003() {
        let ds = diagnostics(
            "data Nat = Z | S Nat\nsub :: Nat -> Nat -> Nat\nsub Z y = Z\nsub x Z = x\nsub (S x) (S y) = sub x y\n",
        );
        assert!(ds.iter().all(|d| d.code != Code::NonLeftLinear), "{ds:?}");
    }

    #[test]
    fn joinable_weak_overlap_is_a_warning_with_converging_normal_form() {
        // The paper's fig. 2 `sub`: `sub Z y` and `sub x Z` both match
        // `sub Z Z`, where both return `Z` — a joinable weak overlap.
        let ds = diagnostics(
            "data Nat = Z | S Nat\nsub :: Nat -> Nat -> Nat\nsub Z y = Z\nsub x Z = x\nsub (S x) (S y) = sub x y\n",
        );
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, Code::Overlap);
        assert_eq!(ds[0].severity, Severity::Warning);
        assert_eq!(ds[0].line, Some(3));
        assert!(ds[0].message.contains("lines 3 and 4"), "{}", ds[0].message);
        assert!(
            ds[0]
                .notes
                .iter()
                .any(|n| n.contains("sub Z Z") && n.contains("normalize to `Z`")),
            "joinable note missing: {:?}",
            ds[0].notes
        );
    }

    #[test]
    fn non_joinable_overlap_is_cq009_with_both_reducts() {
        // `f x = Z` and `f Z = S Z` both match `f Z` but disagree there.
        let ds = diagnostics("data Nat = Z | S Nat\nf :: Nat -> Nat\nf x = Z\nf Z = S Z\n");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, Code::NonJoinable);
        assert_eq!(ds[0].severity, Severity::Error);
        assert_eq!(ds[0].line, Some(3));
        assert!(ds[0].message.contains("`f Z`"), "{}", ds[0].message);
        assert!(
            ds[0]
                .notes
                .iter()
                .any(|n| n.contains("`Z`") && n.contains("`S Z`")),
            "diverging reducts missing: {:?}",
            ds[0].notes
        );
    }

    #[test]
    fn critical_instance_uses_original_variable_names() {
        // Non-ground peak: `g x y` vs `g (S m) n` overlap on `g (S m) n`
        // — the note must show the clauses' own variable names, not
        // freshened scratch names.
        let ds = diagnostics(
            "data Nat = Z | S Nat\ng :: Nat -> Nat -> Nat\ng x y = x\ng (S m) n = S m\n",
        );
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, Code::Overlap, "{:?}", ds[0]);
        let note = &ds[0].notes[0];
        // The peak is an instance under the mgu, so it may mix variables
        // from both clauses (here `m` from the second, `y` from the
        // first) — but every name must come from the source.
        assert!(
            note.contains("g (S m)"),
            "peak does not use source names: {note}"
        );
        // No internal scratch names (v0, v1, …) may leak, and no
        // gratuitous primes appear when the clauses' names do not collide.
        assert!(!note.contains("v0") && !note.contains("v1"), "{note}");
        assert!(!note.contains('\''), "gratuitous primes: {note}");
    }

    #[test]
    fn repeated_variable_is_named() {
        // The frontend rejects non-linear patterns, so build the module
        // through the rewrite layer directly.
        use cycleq_term::{fixtures::NatList, Term, Type, TypeScheme};
        let f = NatList::new();
        let mut sig = f.sig.clone();
        let eq = sig
            .add_defined(
                "eqSame",
                TypeScheme::mono(Type::arrows(vec![f.nat_ty(), f.nat_ty()], f.nat_ty())),
            )
            .unwrap();
        let mut trs = cycleq_rewrite::Trs::new();
        let x = trs.vars_mut().fresh("x", f.nat_ty());
        trs.add_rule(&sig, eq, vec![Term::var(x), Term::var(x)], Term::var(x))
            .unwrap();
        let module = Module {
            program: cycleq_rewrite::Program::new(sig, trs),
            goals: Vec::new(),
            rule_lines: Vec::new(),
            decl_lines: std::collections::HashMap::new(),
        };
        let (ds, _) = check(&module);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, Code::NonLeftLinear);
        assert_eq!(ds[0].line, None);
        assert!(ds[0].message.contains("`x`"), "{}", ds[0].message);
    }

    #[test]
    fn repeated_vars_names_same_and_cross_parameter_repetition_deduplicated() {
        // `g (Cons x x) y y x = Z`: `x` repeats *within* the first
        // parameter (and again across parameters), `y` repeats *across*
        // parameters. Both must be named, each exactly once, in
        // first-repetition order.
        use cycleq_term::{fixtures::NatList, Term, Type, TypeScheme};
        let f = NatList::new();
        let mut sig = f.sig.clone();
        let nat = f.nat_ty();
        let g = sig
            .add_defined(
                "g",
                TypeScheme::mono(Type::arrows(vec![nat.clone(); 4], nat.clone())),
            )
            .unwrap();
        let mut trs = cycleq_rewrite::Trs::new();
        let x = trs.vars_mut().fresh("x", nat.clone());
        let y = trs.vars_mut().fresh("y", nat);
        trs.add_rule(
            &sig,
            g,
            vec![
                Term::apps(f.cons, vec![Term::var(x), Term::var(x)]),
                Term::var(y),
                Term::var(y),
                Term::var(x),
            ],
            Term::sym(f.zero),
        )
        .unwrap();
        let module = Module {
            program: cycleq_rewrite::Program::new(sig, trs),
            goals: Vec::new(),
            rule_lines: Vec::new(),
            decl_lines: std::collections::HashMap::new(),
        };
        let (ds, _) = check(&module);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, Code::NonLeftLinear);
        assert!(
            ds[0].message.contains("`x`, `y`"),
            "both variables, in first-repetition order: {}",
            ds[0].message
        );
        assert_eq!(
            ds[0].message.matches("`x`").count(),
            1,
            "`x` repeats three times but must be named once: {}",
            ds[0].message
        );
        assert_eq!(ds[0].message.matches("`y`").count(), 1, "{}", ds[0].message);
    }
}
