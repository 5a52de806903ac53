//! The benchmark problem registry: the 85 IsaPlanner properties (§6.1), the
//! mutual-induction suite built around the paper's introduction example, and
//! the goals shown as figures.
//!
//! The IsaPlanner suite is public (it originates from "Case-Analysis for
//! Rippling and Inductive Proof" and ships with TIP); the statements below
//! were re-encoded from the published set. Boolean properties are expressed
//! as equations with `True`; the 14 properties that are conditional
//! equations are marked [`Expectation::Conditional`] and reported as
//! out-of-scope, exactly as the paper treats them (§6.2 says 13; the
//! precise historical split of one borderline property is unclear, which we
//! record rather than hide).

use crate::prelude::{MUTUAL_PRELUDE, PRELUDE};

/// Which suite a problem belongs to.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Category {
    /// The standard 85-problem IsaPlanner suite.
    IsaPlanner,
    /// Mutual-induction problems over annotated syntax trees (§1).
    Mutual,
    /// Goals that appear as figures in the paper.
    Figure,
}

/// What the paper leads us to expect for the problem.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Expectation {
    /// An unconditional equation, fair game for the prover.
    InScope,
    /// A conditional equation: out of scope for CycleQ (§6.2).
    Conditional,
    /// Unconditional but known to require an external lemma
    /// (§6.2: properties 47, 54, 65, 69).
    NeedsLemma,
}

/// A single benchmark problem.
#[derive(Clone, Debug)]
pub struct Problem {
    /// Stable identifier, e.g. `"IP50"` or `"M01"`.
    pub id: &'static str,
    /// The suite.
    pub category: Category,
    /// Expected behaviour per the paper.
    pub expectation: Expectation,
    /// The `goal` declaration, if expressible (conditional properties have
    /// none).
    pub goal: Option<&'static str>,
    /// Hint goals (name, declaration) that make the problem provable
    /// (§6.2); empty for most problems.
    pub hints: &'static [(&'static str, &'static str)],
    /// Encoding notes (totalisation, lambda elimination, reconstruction
    /// uncertainty).
    pub note: Option<&'static str>,
}

impl Problem {
    /// The goal name used inside the generated module.
    pub fn goal_name(&self) -> String {
        format!("p{}", self.id.to_lowercase())
    }

    /// The complete module source for this problem (prelude, hint goal
    /// declarations, goal declaration), or `None` for out-of-scope
    /// conditional properties.
    pub fn source(&self) -> Option<String> {
        let goal = self.goal?;
        let prelude = match self.category {
            Category::Mutual => MUTUAL_PRELUDE,
            _ => PRELUDE,
        };
        let mut out = String::with_capacity(prelude.len() + 256);
        out.push_str(prelude);
        out.push('\n');
        for (_, decl) in self.hints {
            out.push_str(decl);
            out.push('\n');
        }
        out.push_str(&format!("goal {}: {}\n", self.goal_name(), goal));
        Some(out)
    }

    /// The hint goal names, for [`cycleq::Session::prove_with_hints`].
    pub fn hint_names(&self) -> Vec<&'static str> {
        self.hints.iter().map(|(n, _)| *n).collect()
    }
}

const ADD_COMM_HINT: (&str, &str) = ("hintAddComm", "goal hintAddComm: add x y === add y x");
const MAX_COMM_HINT: (&str, &str) = ("hintMaxComm", "goal hintMaxComm: max x y === max y x");

macro_rules! ip {
    ($id:expr, cond, $note:expr) => {
        Problem {
            id: $id,
            category: Category::IsaPlanner,
            expectation: Expectation::Conditional,
            goal: None,
            hints: &[],
            note: Some($note),
        }
    };
    ($id:expr, $exp:ident, $goal:expr) => {
        Problem {
            id: $id,
            category: Category::IsaPlanner,
            expectation: Expectation::$exp,
            goal: Some($goal),
            hints: &[],
            note: None,
        }
    };
    ($id:expr, $exp:ident, $goal:expr, hints = $hints:expr) => {
        Problem {
            id: $id,
            category: Category::IsaPlanner,
            expectation: Expectation::$exp,
            goal: Some($goal),
            hints: $hints,
            note: None,
        }
    };
    ($id:expr, $exp:ident, $goal:expr, note = $note:expr) => {
        Problem {
            id: $id,
            category: Category::IsaPlanner,
            expectation: Expectation::$exp,
            goal: Some($goal),
            hints: &[],
            note: Some($note),
        }
    };
}

/// The 85 IsaPlanner benchmark properties.
pub static ISAPLANNER: &[Problem] = &[
    ip!("IP01", InScope, "app (take n xs) (drop n xs) === xs"),
    ip!(
        "IP02",
        InScope,
        "add (count n xs) (count n ys) === count n (app xs ys)"
    ),
    ip!(
        "IP03",
        InScope,
        "le (count n xs) (count n (app xs ys)) === True"
    ),
    ip!("IP04", InScope, "S (count n xs) === count n (Cons n xs)"),
    ip!(
        "IP05",
        cond,
        "n = x ==> S (count n xs) = count n (Cons x xs)"
    ),
    ip!("IP06", InScope, "sub n (add n m) === Z"),
    ip!("IP07", InScope, "sub (add n m) n === m"),
    ip!("IP08", InScope, "sub (add k m) (add k n) === sub m n"),
    ip!("IP09", InScope, "sub (sub i j) k === sub i (add j k)"),
    ip!("IP10", InScope, "sub m m === Z"),
    ip!("IP11", InScope, "drop Z xs === xs"),
    ip!("IP12", InScope, "drop n (map f xs) === map f (drop n xs)"),
    ip!("IP13", InScope, "drop (S n) (Cons x xs) === drop n xs"),
    ip!(
        "IP14",
        InScope,
        "filter p (app xs ys) === app (filter p xs) (filter p ys)"
    ),
    ip!("IP15", InScope, "len (ins x xs) === S (len xs)"),
    ip!("IP16", cond, "xs = [] ==> last (Cons x xs) = x"),
    ip!("IP17", InScope, "le n Z === natEq n Z"),
    ip!("IP18", InScope, "lt i (S (add i m)) === True"),
    ip!("IP19", InScope, "len (drop n xs) === sub (len xs) n"),
    ip!("IP20", InScope, "len (sort xs) === len xs"),
    ip!("IP21", InScope, "le n (add n m) === True"),
    ip!("IP22", InScope, "max (max a b) c === max a (max b c)"),
    ip!("IP23", InScope, "max a b === max b a"),
    ip!("IP24", InScope, "natEq (max a b) a === le b a"),
    ip!("IP25", InScope, "natEq (max a b) b === le a b"),
    ip!("IP26", cond, "x ∈ xs ==> x ∈ app xs ys"),
    ip!("IP27", cond, "x ∈ ys ==> x ∈ app xs ys"),
    ip!("IP28", InScope, "elem x (app xs (Cons x Nil)) === True"),
    ip!("IP29", InScope, "elem x (ins1 x xs) === True"),
    ip!("IP30", InScope, "elem x (ins x xs) === True"),
    ip!("IP31", InScope, "min (min a b) c === min a (min b c)"),
    ip!("IP32", InScope, "min a b === min b a"),
    ip!("IP33", InScope, "natEq (min a b) a === le a b"),
    ip!("IP34", InScope, "natEq (min a b) b === le b a"),
    ip!(
        "IP35",
        InScope,
        "dropWhile constFalse xs === xs",
        note = "λx. False encoded as the combinator constFalse"
    ),
    ip!(
        "IP36",
        InScope,
        "takeWhile constTrue xs === xs",
        note = "λx. True encoded as the combinator constTrue"
    ),
    ip!("IP37", InScope, "not (elem x (delete x xs)) === True"),
    ip!(
        "IP38",
        InScope,
        "count n (app xs (Cons n Nil)) === S (count n xs)"
    ),
    ip!(
        "IP39",
        InScope,
        "add (count n (Cons m Nil)) (count n xs) === count n (Cons m xs)"
    ),
    ip!("IP40", InScope, "take Z xs === Nil"),
    ip!("IP41", InScope, "take n (map f xs) === map f (take n xs)"),
    ip!(
        "IP42",
        InScope,
        "take (S n) (Cons x xs) === Cons x (take n xs)"
    ),
    ip!(
        "IP43",
        InScope,
        "app (takeWhile p xs) (dropWhile p xs) === xs"
    ),
    ip!("IP44", InScope, "zip (Cons x xs) ys === zipConcat x xs ys"),
    ip!(
        "IP45",
        InScope,
        "zip (Cons x xs) (Cons y ys) === Cons (MkPair x y) (zip xs ys)"
    ),
    ip!("IP46", InScope, "zip Nil ys === Nil"),
    ip!(
        "IP47",
        NeedsLemma,
        "height (mirror t) === height t",
        hints = &[MAX_COMM_HINT]
    ),
    ip!(
        "IP48",
        cond,
        "not (null xs) ==> app (butlast xs) (Cons (last xs) Nil) = xs"
    ),
    ip!(
        "IP49",
        InScope,
        "butlast (app xs ys) === butlastConcat xs ys"
    ),
    ip!(
        "IP50",
        InScope,
        "butlast xs === take (sub (len xs) (S Z)) xs"
    ),
    ip!("IP51", InScope, "butlast (app xs (Cons x Nil)) === xs"),
    ip!("IP52", InScope, "count n xs === count n (rev xs)"),
    ip!("IP53", InScope, "count n xs === count n (sort xs)"),
    ip!(
        "IP54",
        NeedsLemma,
        "sub (add m n) n === m",
        hints = &[ADD_COMM_HINT]
    ),
    ip!(
        "IP55",
        InScope,
        "drop n (app xs ys) === app (drop n xs) (drop (sub n (len xs)) ys)"
    ),
    ip!("IP56", InScope, "drop n (drop m xs) === drop (add n m) xs"),
    ip!(
        "IP57",
        InScope,
        "drop n (take m xs) === take (sub m n) (drop n xs)"
    ),
    ip!(
        "IP58",
        InScope,
        "drop n (zip xs ys) === zip (drop n xs) (drop n ys)"
    ),
    ip!("IP59", cond, "ys = [] ==> last (app xs ys) = last xs"),
    ip!("IP60", cond, "not (null ys) ==> last (app xs ys) = last ys"),
    ip!("IP61", InScope, "last (app xs ys) === lastOfTwo xs ys"),
    ip!("IP62", cond, "not (null xs) ==> last (Cons x xs) = last xs"),
    ip!("IP63", cond, "n < len xs ==> last (drop n xs) = last xs"),
    ip!("IP64", InScope, "last (app xs (Cons x Nil)) === x"),
    ip!(
        "IP65",
        NeedsLemma,
        "lt i (S (add m i)) === True",
        hints = &[ADD_COMM_HINT]
    ),
    ip!("IP66", InScope, "le (len (filter p xs)) (len xs) === True"),
    ip!("IP67", InScope, "len (butlast xs) === sub (len xs) (S Z)"),
    ip!("IP68", InScope, "le (len (delete n xs)) (len xs) === True"),
    ip!(
        "IP69",
        NeedsLemma,
        "le n (add m n) === True",
        hints = &[ADD_COMM_HINT]
    ),
    ip!("IP70", cond, "m <= n ==> m <= S n"),
    ip!("IP71", cond, "x =/= y ==> elem x (ins y xs) = elem x xs"),
    ip!(
        "IP72",
        InScope,
        "rev (drop i xs) === take (sub (len xs) i) (rev xs)"
    ),
    ip!("IP73", InScope, "rev (filter p xs) === filter p (rev xs)"),
    ip!(
        "IP74",
        InScope,
        "rev (take i xs) === drop (sub (len xs) i) (rev xs)"
    ),
    ip!(
        "IP75",
        InScope,
        "add (count n xs) (count n (Cons m Nil)) === count n (Cons m xs)"
    ),
    ip!(
        "IP76",
        cond,
        "n =/= m ==> count n (app xs (Cons m Nil)) = count n xs"
    ),
    ip!("IP77", cond, "sorted xs ==> sorted (insort x xs)"),
    ip!("IP78", InScope, "sorted (sort xs) === True"),
    ip!(
        "IP79",
        InScope,
        "sub (sub (S m) n) (S k) === sub (sub m n) k"
    ),
    ip!(
        "IP80",
        InScope,
        "take n (app xs ys) === app (take n xs) (take (sub n (len xs)) ys)"
    ),
    ip!(
        "IP81",
        InScope,
        "take n (drop m xs) === drop m (take (add n m) xs)"
    ),
    ip!(
        "IP82",
        InScope,
        "take n (zip xs ys) === zip (take n xs) (take n ys)"
    ),
    ip!(
        "IP83",
        InScope,
        "zip (app xs ys) zs === app (zip xs (take (len xs) zs)) (zip ys (drop (len xs) zs))"
    ),
    ip!(
        "IP84",
        InScope,
        "zip xs (app ys zs) === app (zip (take (len ys) xs) ys) (zip (drop (len ys) xs) zs)"
    ),
    ip!(
        "IP85",
        cond,
        "len xs = len ys ==> zip (rev xs) (rev ys) = rev (zip xs ys)"
    ),
];

macro_rules! mp {
    ($id:expr, $goal:expr) => {
        Problem {
            id: $id,
            category: Category::Mutual,
            expectation: Expectation::InScope,
            goal: Some($goal),
            hints: &[],
            note: None,
        }
    };
}

/// The mutual-induction suite over annotated syntax trees (§1).
pub static MUTUAL: &[Problem] = &[
    mp!("M01", "mapE id e === e"),
    mp!("M02", "mapT id t === t"),
    mp!("M03", "sizeE (mapE f e) === sizeE e"),
    mp!("M04", "sizeT (mapT f t) === sizeT t"),
    mp!("M05", "heightE (mapE f e) === heightE e"),
    mp!("M06", "heightT (mapT f t) === heightT t"),
    mp!("M07", "swapE (swapE e) === e"),
    mp!("M08", "swapT (swapT t) === t"),
];

/// Goals that appear as figures in the paper (regressions for the figures'
/// proofs; IP50 doubles as Fig. 2).
pub static FIGURES: &[Problem] = &[
    Problem {
        id: "F04",
        category: Category::Figure,
        expectation: Expectation::InScope,
        goal: Some("add x y === add y x"),
        hints: &[],
        note: Some("Fig. 4: commutativity of addition, no hints"),
    },
    Problem {
        id: "F09",
        category: Category::Figure,
        expectation: Expectation::InScope,
        goal: Some("map id xs === xs"),
        hints: &[],
        note: Some("Fig. 9 / Example C.1"),
    },
];

/// All problems across the suites.
pub fn all_problems() -> Vec<&'static Problem> {
    ISAPLANNER.iter().chain(MUTUAL).chain(FIGURES).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycleq_lang::parse_module;

    #[test]
    fn there_are_85_isaplanner_problems() {
        assert_eq!(ISAPLANNER.len(), 85);
    }

    #[test]
    fn conditional_problems_have_no_goal() {
        for p in ISAPLANNER {
            match p.expectation {
                Expectation::Conditional => assert!(p.goal.is_none(), "{}", p.id),
                _ => assert!(p.goal.is_some(), "{}", p.id),
            }
        }
    }

    #[test]
    fn fourteen_conditionals_matching_the_papers_thirteen() {
        let n = ISAPLANNER
            .iter()
            .filter(|p| p.expectation == Expectation::Conditional)
            .count();
        // The paper reports 13 conditional properties; our reconstruction
        // has 14 (one borderline case), recorded in EXPERIMENTS.md.
        assert_eq!(n, 14);
    }

    #[test]
    fn lemma_problems_are_exactly_47_54_65_69() {
        let ids: Vec<&str> = ISAPLANNER
            .iter()
            .filter(|p| p.expectation == Expectation::NeedsLemma)
            .map(|p| p.id)
            .collect();
        assert_eq!(ids, vec!["IP47", "IP54", "IP65", "IP69"]);
    }

    #[test]
    fn every_in_scope_problem_parses_and_type_checks() {
        for p in all_problems() {
            let Some(src) = p.source() else { continue };
            let m = parse_module(&src).unwrap_or_else(|e| panic!("{}: {e}", p.id));
            // Remark 2.1's preconditions are checked per problem by the
            // analyzer snapshot in tests/analysis_corpus.rs.
            assert!(m.goal(&p.goal_name()).is_some(), "{}", p.id);
        }
    }

    #[test]
    fn hint_goals_parse_too() {
        for p in all_problems() {
            if p.hints.is_empty() {
                continue;
            }
            let src = p.source().unwrap();
            let m = parse_module(&src).unwrap();
            for (name, _) in p.hints {
                assert!(m.goal(name).is_some(), "{}: hint {name}", p.id);
            }
        }
    }

    #[test]
    fn suite_counts() {
        assert_eq!(MUTUAL.len(), 8);
        assert_eq!(all_problems().len(), 85 + 8 + 2);
    }
}
