//! Observability acceptance tests: streamed events under parallel batches,
//! deterministic counters across job counts, span collection, and the
//! `Session::profile` / `Engine::metrics` surfaces.
//!
//! The span/metrics machinery is process-global: every test that proves
//! goals emits `prove_goal` spans, which land in whatever collection is
//! running at the time. So every test here serializes on [`registry_lock`],
//! including the event-sink and counter-determinism tests that only read
//! per-goal state — otherwise their spans would leak into
//! `collected_trace_brackets_every_goal_per_thread`.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use cycleq::{Engine, EventSink, ProveEvent, SearchConfig, Session};

const SUITE_SRC: &str = "data Nat = Z | S Nat
add :: Nat -> Nat -> Nat
add Z y = y
add (S x) y = S (add x y)
goal addZeroRight: add x Z === x
goal addSuccRight: add x (S y) === S (add x y)
goal addComm: add x y === add y x
";

fn session(jobs: usize) -> Session {
    Engine::builder()
        .config(SearchConfig {
            timeout: Some(Duration::from_secs(10)),
            ..SearchConfig::default()
        })
        .jobs(jobs)
        .build()
        .load(SUITE_SRC)
        .expect("suite source loads")
}

/// Serializes tests that touch the process-global registry or span sink.
fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .expect("registry lock")
}

#[derive(Default)]
struct Collect(Mutex<Vec<ProveEvent>>);

impl EventSink for Collect {
    fn event(&self, event: &ProveEvent) {
        self.0.lock().unwrap().push(event.clone());
    }
}

fn prove_all_collecting(jobs: usize) -> (cycleq::BatchReport, Vec<ProveEvent>) {
    let sink = Arc::new(Collect::default());
    let events = sink.clone();
    let report = Engine::builder()
        .config(SearchConfig {
            timeout: Some(Duration::from_secs(10)),
            // Force the deepening loop to run several rounds so the batch
            // streams RoundDeepened events (the default initial depth
            // proves these goals in their first round).
            initial_depth: 1,
            depth_step: 1,
            ..SearchConfig::default()
        })
        .jobs(jobs)
        .on_event(move |ev: &ProveEvent| events.event(ev))
        .build()
        .load(SUITE_SRC)
        .expect("suite source loads")
        .prove_all();
    let log = sink.0.lock().unwrap().clone();
    (report, log)
}

#[test]
fn concurrent_events_bracket_every_goal_and_carry_round_times() {
    let _guard = registry_lock();
    for jobs in [1, 4] {
        let (report, log) = prove_all_collecting(jobs);
        assert!(report.all_proved(), "jobs={jobs}");
        for idx in 0..report.goals.len() {
            let started = log
                .iter()
                .position(|e| matches!(e, ProveEvent::GoalStarted { index, .. } if *index == idx))
                .unwrap_or_else(|| panic!("jobs={jobs}: goal {idx} never started"));
            let finished = log
                .iter()
                .position(|e| matches!(e, ProveEvent::GoalFinished { index, .. } if *index == idx))
                .unwrap_or_else(|| panic!("jobs={jobs}: goal {idx} never finished"));
            assert!(
                started < finished,
                "jobs={jobs}: goal {idx} finished at {finished} before starting at {started}"
            );
            // Every round event for this goal lands inside the bracket and
            // reports non-decreasing elapsed time as the depth grows.
            let rounds: Vec<(usize, usize, Duration)> = log
                .iter()
                .enumerate()
                .filter_map(|(at, e)| match e {
                    ProveEvent::RoundDeepened {
                        index,
                        depth,
                        elapsed,
                        ..
                    } if *index == idx => Some((at, *depth, *elapsed)),
                    _ => None,
                })
                .collect();
            for w in rounds.windows(2) {
                assert!(w[0].1 < w[1].1, "jobs={jobs}: depths must increase");
                assert!(
                    w[0].2 <= w[1].2,
                    "jobs={jobs}: round elapsed must be monotonic"
                );
            }
            for (at, _, _) in &rounds {
                assert!(
                    started < *at && *at < finished,
                    "jobs={jobs}: round event outside its goal's bracket"
                );
            }
        }
        // addComm needs iterative deepening, so at least one round event
        // must have streamed with a measured duration.
        assert!(
            log.iter()
                .any(|e| matches!(e, ProveEvent::RoundDeepened { .. })),
            "jobs={jobs}: no RoundDeepened event streamed"
        );
    }
}

#[test]
fn counter_totals_are_deterministic_across_job_counts() {
    let _guard = registry_lock();
    // With the shared normal-form cache disabled, every goal's search is
    // fully independent, so per-goal counters — and their batch totals —
    // must be identical whatever the worker count.
    let run = |jobs: usize| {
        Engine::builder()
            .config(SearchConfig {
                timeout: Some(Duration::from_secs(10)),
                ..SearchConfig::default()
            })
            .jobs(jobs)
            .shared_cache(false)
            .build()
            .load(SUITE_SRC)
            .expect("suite source loads")
            .prove_all()
    };
    let sequential = run(1);
    let parallel = run(4);
    for (s, p) in sequential.goals.iter().zip(&parallel.goals) {
        assert_eq!(s.goal, p.goal);
        let (sv, pv) = (s.verdict().unwrap(), p.verdict().unwrap());
        assert_eq!(
            sv.result.stats.entries(),
            pv.result.stats.entries(),
            "goal {}: counters must not depend on the worker count",
            s.goal
        );
    }
    for ((key, s), (_, p)) in sequential
        .stats
        .entries()
        .into_iter()
        .zip(parallel.stats.entries())
    {
        assert_eq!(
            s, p,
            "batch total {key} must not depend on the worker count"
        );
    }
}

#[test]
fn session_profile_reports_the_span_taxonomy() {
    let _guard = registry_lock();
    cycleq::trace::set_enabled(true);
    let session = session(1);
    let verdict = session.prove("addComm").expect("proves");
    assert!(verdict.is_proved());
    let profile = session.profile().expect("profile captured after proving");
    for phase in ["prove_goal", "round", "expand", "normalize", "check"] {
        let stat = profile
            .phase(phase)
            .unwrap_or_else(|| panic!("phase {phase} missing from profile"));
        assert!(stat.count >= 1, "{phase}: no spans recorded");
        assert!(stat.total_seconds >= 0.0);
        // The delta keeps the later snapshot's process-lifetime maximum,
        // so `max` can legitimately exceed this call's total.
        assert!(stat.max_seconds > 0.0, "{phase}: no span took any time");
    }
    // One top-level search on this session: exactly as many prove_goal
    // spans as goals proved in the call (hints included, here none).
    assert_eq!(profile.phase("prove_goal").unwrap().count, 1);
}

#[test]
fn collected_trace_brackets_every_goal_per_thread() {
    let _guard = registry_lock();
    cycleq::trace::start_collect();
    let report = session(2).prove_all();
    let trace = cycleq::trace::finish_collect();
    assert!(report.all_proved());
    assert_eq!(
        trace.count("prove_goal"),
        report.goals.len(),
        "one complete prove_goal span per goal"
    );
    assert!(trace.count("round") >= trace.count("prove_goal"));
    let json = trace.to_chrome_json();
    assert!(json.contains("\"ph\":\"X\""), "complete events missing");
    assert!(
        json.contains("\"name\":\"thread_name\""),
        "per-thread metadata missing"
    );
    assert!(json.contains("worker-0"), "worker thread track missing");
}

#[test]
fn engine_metrics_snapshot_counts_finished_goals() {
    let _guard = registry_lock();
    let engine = Engine::builder()
        .config(SearchConfig {
            timeout: Some(Duration::from_secs(10)),
            ..SearchConfig::default()
        })
        .build();
    let before = engine.metrics();
    let report = engine.load(SUITE_SRC).expect("loads").prove_all();
    assert!(report.all_proved());
    let delta = engine.metrics().delta(&before);
    assert_eq!(
        delta.value("cycleq_goals_total{status=\"proved\"}"),
        Some(report.goals.len() as u64),
        "every proved goal is counted exactly once"
    );
    assert!(
        delta.value("cycleq_search_nodes_created_total").unwrap() > 0,
        "search counters flow into the registry"
    );
    let goal_seconds = delta.histogram("cycleq_goal_seconds").expect("histogram");
    assert_eq!(goal_seconds.count, report.goals.len() as u64);
    let prom = delta.to_prometheus();
    assert!(prom.contains("# TYPE cycleq_goals_total counter"));
    assert!(prom.contains("cycleq_goal_seconds_bucket{le=\"+Inf\"}"));
}

#[test]
fn sizechange_memo_hits_reach_the_registry_exactly() {
    let _guard = registry_lock();
    // The closure counts memo hits locally and publishes them once per
    // inserted edge; no hit may be lost or counted twice on the way. The
    // recheck is off so the search's closure is the only graph store
    // composing while the snapshot window is open.
    let engine = Engine::builder()
        .config(SearchConfig {
            timeout: Some(Duration::from_secs(10)),
            ..SearchConfig::default()
        })
        .recheck(false)
        .build();
    let session = engine.load(SUITE_SRC).expect("suite source loads");
    let before = engine.metrics();
    let verdict = session.prove("addComm").expect("proves");
    assert!(verdict.is_proved());
    let delta = engine.metrics().delta(&before);
    let hits = verdict.result.stats.composition_memo_hits;
    assert!(hits > 0, "addComm must exercise the composition memo");
    assert_eq!(
        delta.value("cycleq_sizechange_memo_hits_total"),
        Some(hits),
        "registry memo hits must equal the goal's composition_memo_hits"
    );
}
