//! Property tests for the analyses against brute-force oracles.
//!
//! - Coverage: the `CQ001` verdict must agree with a ground oracle. A unary
//!   or binary function over `Nat` with patterns of depth ≤ 2 is partial
//!   iff some ground constructor argument of depth ≤ 3 matches none of its
//!   clauses, so enumerating that finite space decides exhaustiveness
//!   exactly.
//! - Overlaps: the root-only overlap engine must produce exactly the
//!   critical pairs of the general all-positions enumerator in
//!   [`oracle`], and `CQ002`/`CQ009` must match reducts normalized by the
//!   plain rewriter.

mod oracle;

use cycleq_analysis::{analyze, Code};
use cycleq_lang::{parse_module, Module};
use cycleq_term::Term;
use proptest::prelude::*;
use proptest::test_runner::Config;

fn cfg() -> Config {
    Config {
        cases: 128,
        ..Config::default()
    }
}

/// The pattern shapes we draw clauses from (all depth ≤ 2, so depth-3
/// ground witnesses are sufficient for the oracle). `{v}` is replaced by a
/// per-argument variable name so binary clauses stay left-linear.
const SHAPES: &[&str] = &["Z", "(S Z)", "(S (S {v}))", "(S {v})", "{v}"];

fn shape() -> impl Strategy<Value = usize> {
    0..SHAPES.len()
}

/// Renders shape `i` with `v` as its pattern variable.
fn render(i: usize, v: &str) -> String {
    SHAPES[i].replace("{v}", v)
}

/// All ground `Nat` terms of depth ≤ 3: `Z`, `S Z`, `S (S Z)`, `S (S (S Z))`.
fn ground_nats(module: &Module) -> Vec<Term> {
    let sig = &module.program.sig;
    let z = sig.sym_by_name("Z").unwrap();
    let s = sig.sym_by_name("S").unwrap();
    let mut out = vec![Term::sym(z)];
    for _ in 0..3 {
        let prev = out.last().unwrap().clone();
        out.push(Term::apps(s, vec![prev]));
    }
    out
}

/// First-order pattern match: a variable matches anything, a constructor
/// must match head and arguments. Left-linearity is guaranteed by lowering.
fn matches(pat: &Term, t: &Term) -> bool {
    if pat.as_var().is_some() {
        return true;
    }
    pat.head_sym() == t.head_sym() && pat.args().iter().zip(t.args()).all(|(p, a)| matches(p, a))
}

/// Does the analyzer report `f` as non-exhaustive?
fn analyzer_says_partial(module: &Module) -> bool {
    analyze(module)
        .iter()
        .any(|d| d.code == Code::NonExhaustive && d.message.contains("`f`"))
}

fn rule_params(module: &Module) -> Vec<Vec<Term>> {
    let sig = &module.program.sig;
    let trs = &module.program.trs;
    let f = sig.sym_by_name("f").unwrap();
    trs.rules_for(f)
        .iter()
        .map(|id| trs.rule(*id).params().to_vec())
        .collect()
}

#[test]
fn unary_coverage_verdict_matches_ground_enumeration() {
    proptest!(cfg(), |(picks in proptest::collection::vec(shape(), 1..5))| {
        let mut src = String::from("data Nat = Z | S Nat\nf :: Nat -> Nat\n");
        for i in &picks {
            src.push_str(&format!("f {} = Z\n", render(*i, "a")));
        }
        let module = parse_module(&src).unwrap();
        let params = rule_params(&module);
        let uncovered = ground_nats(&module)
            .iter()
            .any(|t| !params.iter().any(|ps| matches(&ps[0], t)));
        prop_assert_eq!(
            analyzer_says_partial(&module),
            uncovered,
            "analyzer disagrees with the ground oracle on:\n{}",
            src
        );
    });
}

#[test]
fn binary_coverage_verdict_matches_ground_enumeration() {
    proptest!(cfg(), |(picks in proptest::collection::vec((shape(), shape()), 1..6))| {
        let mut src = String::from("data Nat = Z | S Nat\nf :: Nat -> Nat -> Nat\n");
        for (a, b) in &picks {
            src.push_str(&format!("f {} {} = Z\n", render(*a, "a"), render(*b, "b")));
        }
        let module = parse_module(&src).unwrap();
        let params = rule_params(&module);
        let nats = ground_nats(&module);
        let uncovered = nats.iter().any(|ta| {
            nats.iter().any(|tb| {
                !params
                    .iter()
                    .any(|ps| matches(&ps[0], ta) && matches(&ps[1], tb))
            })
        });
        prop_assert_eq!(
            analyzer_says_partial(&module),
            uncovered,
            "analyzer disagrees with the ground oracle on:\n{}",
            src
        );
    });
}

#[test]
fn coverage_witness_is_itself_uncovered() {
    // When the analyzer produces a witness (the term quoted in the CQ001
    // message), that term really is stuck: re-parse it against the clause
    // patterns and check nothing matches.
    proptest!(cfg(), |(picks in proptest::collection::vec(shape(), 1..4))| {
        let mut src = String::from("data Nat = Z | S Nat\nf :: Nat -> Nat\n");
        for i in &picks {
            src.push_str(&format!("f {} = Z\n", render(*i, "a")));
        }
        let module = parse_module(&src).unwrap();
        let diag = analyze(&module)
            .into_iter()
            .find(|d| d.code == Code::NonExhaustive);
        if let Some(diag) = diag {
            let params = rule_params(&module);
            // The message quotes `f <witness>`; every ground instance of
            // the witness must be uncovered, so in particular no clause's
            // pattern may generalise the witness. We check the weaker,
            // purely syntactic fact that the message names a concrete
            // blocked case by confirming at least one depth-3 ground term
            // is uncovered.
            let uncovered = ground_nats(&module)
                .iter()
                .any(|t| !params.iter().any(|ps| matches(&ps[0], t)));
            prop_assert!(uncovered, "witness reported but oracle finds none: {}", diag.message);
        }
    });
}

/// Overlap classification (`CQ002` vs `CQ009`) differenced against a
/// brute-force oracle: enumerate the critical pairs at every position,
/// normalize both reducts of every pair with the plain (unmemoized)
/// rewriter, and require (a) exactly one finding per overlapping clause
/// pair and (b) `CQ009` exactly when some pair's reducts fail to meet.
/// Programs are a fixed orthogonal `Nat` base plus one overlapping clause
/// with randomized patterns and right-hand sides.
#[test]
fn overlap_classification_matches_brute_force_reduct_normalization() {
    use cycleq_rewrite::{Rewriter, RuleId};
    use std::collections::BTreeMap;

    const R1: &[&str] = &["Z", "y", "S y"];
    const R2: &[&str] = &["Z", "f x y", "S (f x y)"];
    // (extra clause left-hand side, candidate right-hand sides over the
    // variables that left-hand side binds)
    const EXTRA: &[(&str, &[&str])] = &[
        ("f x Z", &["x", "Z", "S x", "S Z"]),
        ("f x y", &["Z", "y", "x", "S y"]),
        ("f Z y", &["Z", "y", "S y"]),
        ("f (S x) y", &["Z", "S x", "f x y"]),
    ];
    proptest!(cfg(), |(
        r1 in 0..R1.len(),
        r2 in 0..R2.len(),
        e in 0..EXTRA.len(),
        re in 0usize..4,
    )| {
        let (pat, rhss) = EXTRA[e];
        let src = format!(
            "data Nat = Z | S Nat\nf :: Nat -> Nat -> Nat\nf Z y = {}\nf (S x) (S y) = {}\n{} = {}\n",
            R1[r1],
            R2[r2],
            pat,
            rhss[re % rhss.len()],
        );
        let module = parse_module(&src).unwrap();
        let sig = &module.program.sig;
        let trs = &module.program.trs;
        let rewriter = Rewriter::new(sig, trs).with_fuel(100_000);
        let mut pair_joinable: BTreeMap<(RuleId, RuleId), bool> = BTreeMap::new();
        for cp in &oracle::critical_pairs(trs).pairs {
            let key = (cp.inner.min(cp.outer), cp.inner.max(cp.outer));
            let l = rewriter.normalize(&cp.left);
            let r = rewriter.normalize(&cp.right);
            let joinable = l.in_normal_form && r.in_normal_form && l.term == r.term;
            *pair_joinable.entry(key).or_insert(true) &= joinable;
        }
        let diags = analyze(&module);
        let cq002 = diags.iter().filter(|d| d.code == Code::Overlap).count();
        let cq009 = diags.iter().filter(|d| d.code == Code::NonJoinable).count();
        prop_assert_eq!(
            cq002 + cq009,
            pair_joinable.len(),
            "one finding per overlapping clause pair:\n{}",
            src
        );
        let oracle_non_joinable = pair_joinable.values().filter(|j| !**j).count();
        prop_assert_eq!(
            cq009,
            oracle_non_joinable,
            "CQ009 must match the brute-force reduct verdict:\n{}",
            src
        );
    });
}

/// Clause patterns for the overlap differential: `{v}` is the argument's
/// variable. The catch-all `{v}` makes most clause pairs overlap.
const OVERLAP_SHAPES: &[&str] = &["Z", "(S Z)", "(S {v})", "{v}", "(S (S {v}))"];

/// Right-hand sides over the clause's variables `a` and `b` (used only when
/// bound) and calls into the other functions, so reducts contain defined
/// symbols of more than one head.
const OVERLAP_RHS: &[&str] = &["Z", "S Z", "a", "S b", "g a b", "f b (S a)", "h (g a Z) b"];

/// Renders one clause `name p1 p2 = rhs`, falling back to `Z` when the
/// right-hand side needs a variable the patterns do not bind or calls a
/// function the program does not declare.
fn overlap_clause(name: &str, p1: usize, p2: usize, rhs: usize, defined: &[&str]) -> String {
    let l = OVERLAP_SHAPES[p1].replace("{v}", "a");
    let r = OVERLAP_SHAPES[p2].replace("{v}", "b");
    let body = OVERLAP_RHS[rhs];
    let fits = body.split([' ', '(', ')']).all(|tok| match tok {
        "a" => l.contains('a'),
        "b" => r.contains('b'),
        "f" | "g" | "h" => defined.contains(&tok),
        _ => true,
    });
    format!("{name} {l} {r} = {}\n", if fits { body } else { "Z" })
}

/// The engine (`cycleq_rewrite::overlaps`) against the general enumerator:
/// on random constructor programs with two or three binary `Nat`
/// functions whose clauses overlap, the ordered `(outer, inner, peak,
/// left, right)` renderings must be identical — the enumerator finds no
/// proper-subterm or cross-function overlap the engine skips.
#[test]
fn overlap_engine_matches_the_all_positions_enumerator() {
    let clause = (
        0..OVERLAP_SHAPES.len(),
        0..OVERLAP_SHAPES.len(),
        0..OVERLAP_RHS.len(),
    );
    proptest!(cfg(), |(
        fns in 2usize..4,
        clauses in proptest::collection::vec(proptest::collection::vec(clause.clone(), 1..4), 3),
        catch_all_rhs in proptest::collection::vec(0..OVERLAP_RHS.len(), 3),
    )| {
        let names = &["f", "g", "h"][..fns];
        let mut src = String::from("data Nat = Z | S Nat\n");
        for (i, name) in names.iter().enumerate() {
            src.push_str(&format!("{name} :: Nat -> Nat -> Nat\n"));
            for &(p1, p2, rhs) in &clauses[i] {
                src.push_str(&overlap_clause(name, p1, p2, rhs, names));
            }
            // A final catch-all overlaps every earlier clause.
            src.push_str(&overlap_clause(name, 3, 3, catch_all_rhs[i], names));
        }
        let module = parse_module(&src).unwrap();
        let sig = &module.program.sig;
        let trs = &module.program.trs;
        let engine = cycleq_rewrite::overlaps(trs);
        let expected = oracle::critical_pairs(trs);
        let show = |t: &Term, vars: &cycleq_term::VarStore| t.display(sig, vars).to_string();
        let got: Vec<_> = engine
            .pairs
            .iter()
            .map(|p| {
                let v = &engine.vars;
                (p.outer, p.inner, show(&p.peak, v), show(&p.left, v), show(&p.right, v))
            })
            .collect();
        let want: Vec<_> = expected
            .pairs
            .iter()
            .map(|p| {
                let v = &expected.vars;
                (p.outer, p.inner, show(&p.peak, v), show(&p.left, v), show(&p.right, v))
            })
            .collect();
        prop_assert!(!got.is_empty(), "the catch-all clauses overlap:\n{}", src);
        prop_assert!(
            expected.pairs.iter().all(|p| p.pos.is_root()),
            "a constructor system has root overlaps only:\n{}",
            src
        );
        prop_assert_eq!(got, want, "engine and enumerator disagree on:\n{}", src);
    });
}
