//! The three workloads: their fixed inputs, their set-up, one pass over
//! the inputs, and the correctness gate every pass's outputs go through.
//! README.md records why each workload was chosen.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cycleq::{
    analyze_with_fixes, check_certificate, unified_diff, BatchScheduler, Engine, Outcome,
    SearchConfig, SearchStats, Session, Verdict,
};
use cycleq_benchsuite::all_problems;

use crate::spans::{self, Recorder, Span, ITEM};
use crate::stats::{fnv1a, permutation};

/// The 54 programs the suite proves at its 2 s timeout (`suite --jobs 1`).
/// IP56 also proves there on a fast machine, but takes 1.8 s of the 2 s,
/// so it belongs to the hard set below.
pub const PROVE_FILES: &[&str] = &[
    "IP01", "IP06", "IP07", "IP08", "IP09", "IP10", "IP11", "IP12", "IP13", "IP17", "IP18", "IP19",
    "IP21", "IP22", "IP23", "IP24", "IP25", "IP28", "IP31", "IP32", "IP33", "IP34", "IP35", "IP36",
    "IP40", "IP41", "IP42", "IP44", "IP45", "IP46", "IP49", "IP50", "IP51", "IP55", "IP57", "IP58",
    "IP61", "IP64", "IP67", "IP79", "IP80", "IP82", "IP83", "IP84", "M01", "M02", "M03", "M04",
    "M05", "M06", "M07", "M08", "F04", "F09",
];

/// The 27 in-scope goals the suite does not prove: 23 that reach its
/// timeout (IP56 included) and the 4 in [`EXHAUSTED`].
pub const SEARCH_HARD: &[&str] = &[
    "IP02", "IP03", "IP04", "IP14", "IP15", "IP20", "IP29", "IP30", "IP37", "IP38", "IP39", "IP43",
    "IP47", "IP52", "IP53", "IP54", "IP56", "IP65", "IP66", "IP68", "IP69", "IP72", "IP73", "IP74",
    "IP75", "IP78", "IP81",
];

/// The `search-hard` goals whose search space runs out below the node
/// budget; every other one is pinned to `NodeBudget`.
pub const EXHAUSTED: &[&str] = &["IP14", "IP43", "IP66", "IP73"];

/// Node budget of each `search-hard` goal (README.md: how it was picked).
pub const NODE_BUDGET: usize = 1000;

/// Worker count of the `corpus-tools` batches.
pub const CORPUS_JOBS: usize = 2;

/// Where traced runs leave their spans and per-item counters.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Deterministic work counters of one item, by metric name.
pub type Counters = BTreeMap<&'static str, u64>;

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Workload {
    ProveFiles,
    SearchHard,
    CorpusTools,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "prove-files" => Some(Workload::ProveFiles),
            "search-hard" => Some(Workload::SearchHard),
            "corpus-tools" => Some(Workload::CorpusTools),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ProveFiles => "prove-files",
            Workload::SearchHard => "search-hard",
            Workload::CorpusTools => "corpus-tools",
        }
    }
}

/// What one pass measured and produced.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Wall time of the pass, excluding the traced run's probe calls.
    pub wall: Duration,
    /// Time of each item (file, goal or certificate), by span item index.
    pub items: Vec<(usize, Duration)>,
    /// The benchmark's spans (traced passes only).
    pub spans: Vec<Span>,
    /// Per-item work counters, keyed by item name (traced passes only).
    pub counters: BTreeMap<String, Counters>,
    /// Inclusive `closure_update` time from `Session::profile` (traced
    /// passes only).
    pub closure_update: Duration,
    /// Time from each batch `run()` call to the start of each task.
    pub waits: Vec<Duration>,
    /// Goals proved (certificates validated on `corpus-tools`).
    pub proved: usize,
    /// One line per item that failed the correctness gate.
    pub failures: Vec<String>,
}

struct Input {
    id: &'static str,
    goal: String,
    src: String,
}

fn inputs(ids: &[&'static str]) -> Vec<Input> {
    let problems = all_problems();
    ids.iter()
        .map(|&id| {
            let p = problems
                .iter()
                .find(|p| p.id == id)
                .expect("benchmark ids name registry problems");
            Input {
                id,
                goal: p.goal_name(),
                src: p.source().expect("benchmark problems have a goal"),
            }
        })
        .collect()
}

fn search_counters(c: &mut Counters, s: &SearchStats) {
    c.insert("search.nodes_created", s.nodes_created as u64);
    c.insert("search.rounds", s.rounds as u64);
    c.insert("search.case_splits", s.case_splits as u64);
    c.insert("search.subst_attempts", s.subst_attempts as u64);
    c.insert(
        "search.unsound_cycles_pruned",
        s.unsound_cycles_pruned as u64,
    );
    c.insert("rewrite.reduce_memo_hits", s.reduce_memo_hits);
    c.insert("rewrite.shared_cache_hits", s.shared_cache_hits);
    c.insert("rewrite.shared_cache_misses", s.shared_cache_misses);
    c.insert("sizechange.compositions", s.closure_compositions);
    c.insert("sizechange.memo_hits", s.composition_memo_hits);
    c.insert("sizechange.graphs_subsumed", s.graphs_subsumed);
    c.insert("sizechange.closure_graphs", s.closure_graphs as u64);
}

/// Inclusive `closure_update` time of the session's last prove call; zero
/// unless the program's own tracing is on.
fn closure_update(session: &Session) -> Duration {
    session
        .profile()
        .and_then(|p| {
            p.phase("closure_update")
                .map(|s| Duration::from_secs_f64(s.total_seconds))
        })
        .unwrap_or_default()
}

/// Gates a `Proved` verdict: the recheck passed, and the certificate
/// round-trips through `check_certificate`. Each distinct certificate is
/// validated once per run; passes reproduce the same bytes.
fn gate_proof(
    id: &str,
    verdict: &Verdict,
    cert: Option<&str>,
    validated: &mut HashSet<u64>,
    failures: &mut Vec<String>,
) {
    if !verdict.recheck.as_ref().is_some_and(|r| r.global_verified) {
        failures.push(format!("{id}: proof was not rechecked"));
    }
    let Some(cert) = cert else {
        failures.push(format!("{id}: proved but exported no certificate"));
        return;
    };
    if !validated.insert(fnv1a(cert.as_bytes())) {
        return;
    }
    match check_certificate(cert) {
        Ok(c) if c.goal == verdict.goal && c.report.global_verified => {}
        Ok(c) => failures.push(format!(
            "{id}: certificate checks goal `{}` unverified",
            c.goal
        )),
        Err(e) => failures.push(format!("{id}: certificate rejected: {e}")),
    }
}

/// `prove-files`: the `cycleq prove FILE --emit-certs` pipeline per file.
pub struct ProveFiles {
    engine: Engine,
    files: Vec<Input>,
    validated: HashSet<u64>,
}

struct FileOut {
    session: Session,
    verdict: Verdict,
    diagnostics: usize,
    cert: Option<String>,
    analysis_span: Option<usize>,
}

impl ProveFiles {
    /// Generates the programs and loads each once to check that it parses
    /// and declares its goal. The check also keeps `setup_s` in the tens
    /// of milliseconds, where it measures steadily; generating the strings
    /// alone takes tens of microseconds.
    fn setup() -> Result<ProveFiles, String> {
        let engine = Engine::builder().jobs(1).build();
        let files = inputs(PROVE_FILES);
        for input in &files {
            let session = engine
                .load(&input.src)
                .map_err(|e| format!("{}: {e}", input.id))?;
            if !session.goal_names().contains(&input.goal.as_str()) {
                return Err(format!("{}: no goal {}", input.id, input.goal));
            }
        }
        Ok(ProveFiles {
            engine,
            files,
            validated: HashSet::new(),
        })
    }

    fn prove_file(
        &self,
        input: &Input,
        rec: &mut Recorder,
        root: Option<usize>,
        item: u32,
    ) -> Result<FileOut, String> {
        let span = rec.open("lang.load", item, root);
        let session = self.engine.load(&input.src).map_err(|e| e.to_string())?;
        rec.close(span);
        let analysis_span = rec.open("analysis.fixes", item, root);
        let diagnostics = black_box(session.analyze()).len();
        rec.close(analysis_span);
        let span = rec.open("search.prove", item, root);
        let verdict = session.prove(&input.goal).map_err(|e| e.to_string())?;
        rec.close(span);
        if let Some(report) = &verdict.recheck {
            rec.inner(span, "proof.recheck", report.elapsed, true);
        }
        let span = rec.open("proof.export", item, root);
        let cert = session.export_certificate(&verdict).ok();
        rec.close(span);
        Ok(FileOut {
            session,
            verdict,
            diagnostics,
            cert,
            analysis_span,
        })
    }

    fn pass(&mut self, order: &[usize], traced: bool) -> PassOut {
        let mut rec = Recorder::new(traced, 0);
        let mut out = PassOut::default();
        let mut results = Vec::with_capacity(order.len());
        let mut probes = Duration::ZERO;
        let start = Instant::now();
        for &i in order {
            let item = i as u32;
            let t0 = Instant::now();
            let root = rec.open(ITEM, item, None);
            let result = self.prove_file(&self.files[i], &mut rec, root, item);
            rec.close(root);
            out.items.push((i, t0.elapsed()));
            if let (true, Ok(f)) = (traced, &result) {
                // `Session::analyze` is `analyze` plus fix synthesis; a
                // second, separate `analyze` call splits the two, and is
                // kept out of the item and the pass.
                let p0 = Instant::now();
                black_box(cycleq::analyze(f.session.module()));
                rec.inner(f.analysis_span, "analysis.analyze", p0.elapsed(), false);
                out.closure_update += closure_update(&f.session);
                probes += p0.elapsed();
            }
            results.push((i, result));
        }
        out.wall = start.elapsed().saturating_sub(probes);
        for (i, result) in results {
            let id = self.files[i].id;
            let f = match result {
                Ok(f) => f,
                Err(e) => {
                    out.failures.push(format!("{id}: {e}"));
                    continue;
                }
            };
            if !f.verdict.is_proved() {
                out.failures.push(format!(
                    "{id}: expected Proved, got {:?}",
                    f.verdict.result.outcome
                ));
                continue;
            }
            out.proved += 1;
            gate_proof(
                id,
                &f.verdict,
                f.cert.as_deref(),
                &mut self.validated,
                &mut out.failures,
            );
            if traced {
                let mut c = Counters::new();
                search_counters(&mut c, &f.verdict.result.stats);
                c.insert("analysis.diagnostics", f.diagnostics as u64);
                let reducts = f.verdict.recheck.as_ref().map_or(0, |r| r.reducts_checked);
                c.insert("proof.reducts_checked", reducts);
                c.insert("proof.cert_bytes", f.cert.map_or(0, |s| s.len() as u64));
                out.counters.insert(id.to_string(), c);
            }
        }
        out.spans = rec.spans;
        out
    }
}

/// `search-hard`: goals the suite does not prove, under a node budget.
pub struct SearchHard {
    goals: Vec<(Input, Session)>,
    validated: HashSet<u64>,
    /// Budget-bound verdicts that differ from the pinned one (not failures).
    changed: BTreeSet<String>,
}

impl SearchHard {
    fn setup() -> Result<SearchHard, String> {
        let engine = Engine::builder()
            .config(SearchConfig {
                timeout: None,
                max_nodes: NODE_BUDGET,
                ..SearchConfig::default()
            })
            .jobs(1)
            .build();
        let goals = inputs(SEARCH_HARD)
            .into_iter()
            .map(|input| {
                let session = engine
                    .load(&input.src)
                    .map_err(|e| format!("{}: {e}", input.id))?;
                Ok((input, session))
            })
            .collect::<Result<_, String>>()?;
        Ok(SearchHard {
            goals,
            validated: HashSet::new(),
            changed: BTreeSet::new(),
        })
    }

    fn pass(&mut self, order: &[usize], traced: bool) -> PassOut {
        let mut rec = Recorder::new(traced, 0);
        let mut out = PassOut::default();
        let mut results = Vec::with_capacity(order.len());
        let start = Instant::now();
        for &i in order {
            let (input, session) = &self.goals[i];
            let item = i as u32;
            let t0 = Instant::now();
            let root = rec.open(ITEM, item, None);
            let span = rec.open("search.prove", item, root);
            let result = session.prove(&input.goal);
            rec.close(span);
            if let Some(report) = result.as_ref().ok().and_then(|v| v.recheck.as_ref()) {
                rec.inner(span, "proof.recheck", report.elapsed, true);
            }
            rec.close(root);
            out.items.push((i, t0.elapsed()));
            if traced {
                out.closure_update += closure_update(session);
            }
            results.push((i, result));
        }
        out.wall = start.elapsed();
        for (i, result) in results {
            let (input, session) = &self.goals[i];
            let id = input.id;
            let verdict = match result {
                Ok(v) => v,
                Err(e) => {
                    out.failures.push(format!("{id}: {e}"));
                    continue;
                }
            };
            let pinned = if EXHAUSTED.contains(&id) {
                "Exhausted"
            } else {
                "NodeBudget"
            };
            match &verdict.result.outcome {
                Outcome::Proved { .. } => {
                    out.proved += 1;
                    let cert = session.export_certificate(&verdict).ok();
                    gate_proof(
                        id,
                        &verdict,
                        cert.as_deref(),
                        &mut self.validated,
                        &mut out.failures,
                    );
                }
                Outcome::NodeBudget | Outcome::Exhausted => {
                    let got = format!("{:?}", verdict.result.outcome);
                    if got != pinned {
                        self.changed.insert(format!("{id}: {pinned} -> {got}"));
                    }
                }
                other => out
                    .failures
                    .push(format!("{id}: expected {pinned}, got {other:?}")),
            }
            if traced {
                let mut c = Counters::new();
                search_counters(&mut c, &verdict.result.stats);
                out.counters.insert(id.to_string(), c);
            }
        }
        out.spans = rec.spans;
        out
    }
}

/// `corpus-tools`: `lint --fix --dry-run` over the emitted sources, then
/// `check` over the certificates, each a `BatchScheduler` batch.
pub struct CorpusTools {
    sources: Vec<Input>,
    certs: Vec<(&'static str, String)>,
}

/// One batch task's result and timing.
struct Task<T> {
    start: Instant,
    time: Duration,
    out: T,
    spans: Vec<Span>,
}

/// Runs `f` over `items` as one batch on [`CORPUS_JOBS`] workers, recording the
/// task times, the queue waits and (when traced) one item span plus one
/// layer span per task. `item_base` offsets the span item indices.
fn batch<I: Sync, T: Send>(
    items: &[I],
    order: &[usize],
    item_base: usize,
    layer: &'static str,
    traced: bool,
    out: &mut PassOut,
    f: impl Fn(&I) -> T + Sync,
) -> Vec<(usize, Option<T>)> {
    let f = &f;
    let tasks: Vec<_> = order
        .iter()
        .map(|&i| {
            let input = &items[i];
            let item = (item_base + i) as u32;
            move |worker: usize| {
                let start = Instant::now();
                let mut rec = Recorder::new(traced, worker as u32 + 1);
                let root = rec.open(ITEM, item, None);
                let span = rec.open(layer, item, root);
                let result = f(input);
                rec.close(span);
                rec.close(root);
                Task {
                    start,
                    time: start.elapsed(),
                    out: result,
                    spans: rec.spans,
                }
            }
        })
        .collect();
    let run_start = Instant::now();
    let done = BatchScheduler::new(CORPUS_JOBS).run_catching(tasks);
    let mut results = Vec::with_capacity(done.len());
    for (&i, task) in order.iter().zip(done) {
        match task {
            Ok(t) => {
                out.waits.push(t.start.saturating_duration_since(run_start));
                out.items.push((item_base + i, t.time));
                spans::append(&mut out.spans, t.spans);
                results.push((i, Some(t.out)));
            }
            Err(_) => results.push((i, None)),
        }
    }
    results
}

impl CorpusTools {
    fn setup() -> Result<CorpusTools, String> {
        let sources: Vec<Input> = {
            let ids: Vec<&'static str> = all_problems()
                .into_iter()
                .filter(|p| p.goal.is_some())
                .map(|p| p.id)
                .collect();
            inputs(&ids)
        };
        let engine = Engine::builder().jobs(1).build();
        let certs = inputs(PROVE_FILES)
            .into_iter()
            .map(|input| {
                let session = engine
                    .load(&input.src)
                    .map_err(|e| format!("{}: {e}", input.id))?;
                let verdict = session
                    .prove(&input.goal)
                    .map_err(|e| format!("{}: {e}", input.id))?;
                let cert = session
                    .export_certificate(&verdict)
                    .map_err(|e| format!("{}: {e}", input.id))?;
                Ok((input.id, cert))
            })
            .collect::<Result<_, String>>()?;
        Ok(CorpusTools { sources, certs })
    }

    fn pass(&self, lint_order: &[usize], check_order: &[usize], traced: bool) -> PassOut {
        let mut out = PassOut::default();
        let start = Instant::now();
        let lint = batch(
            &self.sources,
            lint_order,
            0,
            "analysis.fix_loop",
            traced,
            &mut out,
            |input: &Input| analyze_with_fixes(&input.src),
        );
        // The dry run prints a unified diff of every repaired file.
        let mut diff_bytes = 0usize;
        for (i, fixed) in &lint {
            let input = &self.sources[*i];
            if let Some(fixed) = fixed.as_ref().filter(|f| f.source != input.src) {
                let name = format!("{}.hs", input.id);
                diff_bytes += unified_diff(&input.src, &fixed.source, &name).len();
            }
        }
        black_box(diff_bytes);
        let checked = batch(
            &self.certs,
            check_order,
            self.sources.len(),
            "proof.cert_check",
            traced,
            &mut out,
            |(_, cert): &(&'static str, String)| check_certificate(cert),
        );
        out.wall = start.elapsed();
        for (i, fixed) in lint {
            let id = self.sources[i].id;
            let Some(fixed) = fixed else {
                out.failures.push(format!("lint {id}: task panicked"));
                continue;
            };
            let errors = fixed.diagnostics.iter().filter(|d| d.is_error()).count();
            if errors > 0 {
                out.failures.push(format!("lint {id}: {errors} error(s)"));
            }
            if traced {
                let c = Counters::from([
                    ("analysis.diagnostics", fixed.diagnostics.len() as u64),
                    ("analysis.fixes_applied", fixed.applied as u64),
                ]);
                out.counters.insert(format!("lint:{id}"), c);
            }
        }
        for (i, checked) in checked {
            let (id, cert) = &self.certs[i];
            match checked {
                None => out.failures.push(format!("check {id}: task panicked")),
                Some(Err(e)) => out.failures.push(format!("check {id}: {e}")),
                Some(Ok(c)) if !c.report.global_verified => out
                    .failures
                    .push(format!("check {id}: not globally verified")),
                Some(Ok(c)) => {
                    out.proved += 1;
                    if traced {
                        let c = Counters::from([
                            ("proof.reducts_checked", c.report.reducts_checked),
                            ("proof.cert_bytes", cert.len() as u64),
                        ]);
                        out.counters.insert(format!("check:{id}"), c);
                    }
                }
            }
        }
        out
    }
}

/// A workload with its inputs set up.
pub enum Bench {
    ProveFiles(ProveFiles),
    SearchHard(SearchHard),
    CorpusTools(CorpusTools),
}

impl Bench {
    /// Generates the inputs and does every piece of work that precedes the
    /// timed passes: `search-hard` loads its sessions, `corpus-tools`
    /// proves and exports its certificates.
    pub fn setup(workload: Workload) -> Result<Bench, String> {
        Ok(match workload {
            Workload::ProveFiles => Bench::ProveFiles(ProveFiles::setup()?),
            Workload::SearchHard => Bench::SearchHard(SearchHard::setup()?),
            Workload::CorpusTools => Bench::CorpusTools(CorpusTools::setup()?),
        })
    }

    /// One pass over every input, in the order the seed and the pass
    /// number give.
    pub fn pass(&mut self, seed: u64, pass: u64, traced: bool) -> PassOut {
        match self {
            Bench::ProveFiles(w) => {
                let order = permutation(w.files.len(), seed, pass);
                w.pass(&order, traced)
            }
            Bench::SearchHard(w) => {
                let order = permutation(w.goals.len(), seed, pass);
                w.pass(&order, traced)
            }
            Bench::CorpusTools(w) => {
                let lint = permutation(w.sources.len(), seed, pass);
                let check = permutation(w.certs.len(), seed ^ 0x5eed, pass);
                w.pass(&lint, &check, traced)
            }
        }
    }

    /// Item names by span item index.
    pub fn item_names(&self) -> Vec<String> {
        match self {
            Bench::ProveFiles(w) => w.files.iter().map(|f| f.id.to_string()).collect(),
            Bench::SearchHard(w) => w.goals.iter().map(|(g, _)| g.id.to_string()).collect(),
            Bench::CorpusTools(w) => w
                .sources
                .iter()
                .map(|s| format!("lint:{}", s.id))
                .chain(w.certs.iter().map(|(id, _)| format!("check:{id}")))
                .collect(),
        }
    }

    /// Threads the items run on.
    pub fn workers(&self) -> usize {
        match self {
            Bench::CorpusTools(_) => CORPUS_JOBS,
            _ => 1,
        }
    }

    /// Budget-bound verdicts that moved away from the pinned one.
    pub fn changed_verdicts(&self) -> Vec<String> {
        match self {
            Bench::SearchHard(w) => w.changed.iter().cloned().collect(),
            _ => Vec::new(),
        }
    }
}
