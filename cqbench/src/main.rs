//! `cqbench`: the end-to-end and per-layer benchmark of the CycleQ
//! reproduction. README.md documents the workloads and the metrics.
//!
//! ```text
//! cargo run --release --manifest-path cqbench/Cargo.toml -- \
//!     --workload prove-files|search-hard|corpus-tools --seed N --seconds S --trace 0|1
//! ```
//!
//! One run sets the workload up several times (the median is `setup_s`),
//! runs one untimed warm-up pass, then times passes over the fixed input
//! set for `--seconds`. With `--trace 0` it prints every end-to-end
//! metric. With `--trace 1` it spends the first half untraced and the
//! second half traced, prints the per-layer self-time table and the
//! per-layer metrics, and writes its spans and per-item counters under
//! `cqbench/out/`. The last line of stdout is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
//! when every item passed the correctness gate; 2 flags a usage error and
//! 3 a refusal to measure (see [`refusal`]).

mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spans::{item_time, self_times, ITEM};
use stats::quantile;
use workloads::{out_dir, Bench, PassOut, Workload};

/// Set-up repeats at least this often, and until it has taken
/// [`SETUP_MIN_TIME`], so that `setup_s` is a median of several.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_TIME: Duration = Duration::from_secs(1);
const SETUP_MAX_REPS: usize = 1001;

const USAGE: &str = "usage: cqbench --workload prove-files|search-hard|corpus-tools \
                     --seed N --seconds S --trace 0|1";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Why an untraced pass would measure a different program than the one
/// users run, if it would: fault injection armed, a debug build, or the
/// program's own tracing switched on.
fn refusal() -> Option<&'static str> {
    if std::env::var_os("CYCLEQ_FAULTS").is_some() || cycleq::trace::faults_active() {
        Some("fault injection is armed (CYCLEQ_FAULTS)")
    } else if cfg!(debug_assertions) {
        Some("this is not a release build")
    } else if cycleq::trace::enabled() {
        Some("cycleq::trace is enabled in the untraced run")
    } else {
        None
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cqbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(why) = refusal() {
        eprintln!("cqbench: refusing to measure: {why}");
        return ExitCode::from(3);
    }
    let name = args.workload.name();

    let mut setups = Vec::new();
    let mut bench = None;
    let setup_start = Instant::now();
    while setups.len() < SETUP_MIN_REPS
        || (setup_start.elapsed() < SETUP_MIN_TIME && setups.len() < SETUP_MAX_REPS)
    {
        let t0 = Instant::now();
        match Bench::setup(args.workload) {
            Ok(b) => {
                setups.push(t0.elapsed().as_secs_f64());
                bench = Some(b);
            }
            Err(e) => {
                eprintln!("cqbench: {name} set-up failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut bench = bench.expect("set-up ran at least once");

    let warm_up = bench.pass(args.seed, 0, false);
    let total = Duration::from_secs(args.seconds);
    let plain_budget = if args.trace { total / 2 } else { total };
    let mut plain: Vec<PassOut> = Vec::new();
    let mut pass_no = 1;
    let t0 = Instant::now();
    while plain.is_empty() || t0.elapsed() < plain_budget {
        if let Some(why) = refusal() {
            eprintln!("cqbench: refusing to measure: {why}");
            return ExitCode::from(3);
        }
        plain.push(bench.pass(args.seed, pass_no, false));
        pass_no += 1;
    }
    let mut traced: Vec<PassOut> = Vec::new();
    if args.trace {
        cycleq::trace::set_enabled(true);
        let t0 = Instant::now();
        while traced.len() < 2 || t0.elapsed() < total - plain_budget {
            traced.push(bench.pass(args.seed, pass_no, true));
            pass_no += 1;
        }
        cycleq::trace::set_enabled(false);
    }

    let runs = || std::iter::once(&warm_up).chain(&plain).chain(&traced);
    let mut failures: Vec<String> = runs().flat_map(|p| p.failures.iter().cloned()).collect();
    let attempted: usize = runs().map(|p| p.items.len()).sum();
    if args.trace {
        failures.extend(check_counters(name, &traced));
        write_spans(name, &traced, &bench.item_names());
    }
    for f in failures.iter().take(20) {
        eprintln!("cqbench: FAILED {f}");
    }
    for c in bench.changed_verdicts() {
        eprintln!("cqbench: note: budget-bound verdict changed: {c}");
    }
    let failed = failures.len();
    let failed_share = failed as f64 / attempted.max(1) as f64;
    let proved = plain[0].proved;

    let metrics = if args.trace {
        let (metrics, table) =
            layer_metrics(name, &bench, &plain, &traced, proved as f64, failed_share);
        print!("{table}");
        metrics
    } else {
        // Each item's median over the timed passes, then quantiles over
        // the items. On `corpus-tools` the pooled samples put the median on
        // the sparse edge between cheap and costly items, where it follows
        // which tasks happened to share the two cores.
        let mut per_item: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for p in &plain {
            for &(i, d) in &p.items {
                per_item.entry(i).or_default().push(ms(d));
            }
        }
        let items: Vec<f64> = per_item.values().map(|v| quantile(v, 0.5)).collect();
        let samples: usize = per_item.values().map(Vec::len).sum();
        let walls: Vec<f64> = plain.iter().map(|p| p.wall.as_secs_f64()).collect();
        let metrics = vec![
            ("setup_s", quantile(&setups, 0.5), "s"),
            ("pass_s", quantile(&walls, 0.5), "s"),
            ("item_p50_ms", quantile(&items, 0.5), "ms"),
            ("item_p90_ms", quantile(&items, 0.9), "ms"),
            ("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0), "MB"),
        ];
        println!(
            "{name}: seed {} | {} timed passes, {} items | {proved} goals proved per pass | \
             failed {failed}/{attempted} (failed_share {failed_share})",
            args.seed,
            plain.len(),
            samples,
        );
        let counts = [
            format!("median of {} set-ups", setups.len()),
            format!("median of {} passes", plain.len()),
            format!("{} items x {} passes", items.len(), plain.len()),
            format!("{} items x {} passes", items.len(), plain.len()),
            "VmHWM".to_string(),
        ];
        for ((metric, value, unit), note) in metrics.iter().zip(counts) {
            println!("  {metric:<12} {value:>14.6} {unit:<3} ({note})");
        }
        metrics
    };
    println!("{}", result_json(failed == 0, attempted, failed, &metrics));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes every traced pass's spans as one Chrome trace.
fn write_spans(name: &str, traced: &[PassOut], item_names: &[String]) {
    let mut all = Vec::new();
    for p in traced {
        spans::append(&mut all, p.spans.clone());
    }
    let epoch = all
        .iter()
        .map(|s| s.start)
        .min()
        .unwrap_or_else(Instant::now);
    let path = out_dir().join(format!("spans-{name}.json"));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, spans::chrome_json(&all, epoch, item_names)));
    if let Err(e) = written {
        eprintln!("cqbench: cannot write {}: {e}", path.display());
    }
}

/// The counter determinism self-check. Every traced pass visits the items
/// in its own seeded order and must produce the same per-item counters;
/// so must any earlier run of the same binary, whatever its seed. The
/// counters are recorded per item in `out/counters-<workload>.tsv`, so
/// later changes can quote count deltas.
fn check_counters(name: &str, traced: &[PassOut]) -> Vec<String> {
    let mut failures = Vec::new();
    let first = &traced[0].counters;
    for (k, p) in traced.iter().enumerate().skip(1) {
        if p.counters != *first {
            failures.push(format!("counters of traced pass {k} differ from the first"));
        }
    }
    let binary = std::env::current_exe()
        .and_then(std::fs::read)
        .map_or(0, |b| stats::fnv1a(&b));
    let mut text = format!("binary\t{binary:016x}\n");
    for (item, counters) in first {
        for (key, value) in counters {
            let _ = writeln!(text, "{item}\t{key}\t{value}");
        }
    }
    let path = out_dir().join(format!("counters-{name}.tsv"));
    match std::fs::read_to_string(&path) {
        Ok(old) if old.lines().next() == text.lines().next() => {
            if let Some((was, now)) = old.lines().zip(text.lines()).find(|(a, b)| a != b) {
                failures.push(format!(
                    "counters differ from an earlier run of this binary: `{was}` became `{now}`"
                ));
            } else if old.lines().count() != text.lines().count() {
                failures.push("an earlier run of this binary recorded other items".to_string());
            }
        }
        _ => {
            let written =
                std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, &text));
            if let Err(e) = written {
                eprintln!("cqbench: cannot write {}: {e}", path.display());
            }
        }
    }
    failures
}

/// The layer spans, in the order the self-time table lists them. The item
/// span's own self time is `core.other`.
const LAYERS: &[&str] = &[
    "lang.load",
    "analysis.analyze",
    "analysis.fixes",
    "analysis.fix_loop",
    "search.prove",
    "proof.recheck",
    "proof.export",
    "proof.cert_check",
];

type Metric = (&'static str, f64, &'static str);

/// The per-layer metrics of a traced run, and its self-time table.
fn layer_metrics(
    name: &str,
    bench: &Bench,
    plain: &[PassOut],
    traced: &[PassOut],
    proved: f64,
    failed_share: f64,
) -> (Vec<Metric>, String) {
    let n = traced.len() as f64;
    let workers = bench.workers() as f64;
    let mut layer: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut other, mut idle, mut busy, mut wall) = (0.0, 0.0, 0.0, 0.0);
    for p in traced {
        let st = self_times(&p.spans);
        let w = ms(p.wall);
        let items = ms(item_time(&p.spans));
        let mut covered = 0.0;
        for &l in LAYERS {
            let t = st.get(l).map_or(0.0, |&d| ms(d));
            covered += t;
            *layer.entry(l).or_insert(0.0) += t / n;
        }
        if bench.workers() == 1 {
            // The item's own self time plus the gaps between items.
            other += (w - covered) / n;
        } else {
            other += st.get(ITEM).map_or(0.0, |&d| ms(d)) / n;
            idle += (w * workers - items) / n;
        }
        busy += items / (w * workers) / n;
        wall += w / n;
    }
    let l = |name: &str| layer.get(name).copied().unwrap_or(0.0);

    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    for counters in traced[0].counters.values() {
        for (&k, &v) in counters {
            *totals.entry(k).or_insert(0) += v;
        }
    }
    let c = |k: &str| totals.get(k).copied().unwrap_or(0) as f64;
    let share = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { 0.0 };
    let waits: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.waits.iter().map(|&d| ms(d)))
        .collect();
    let walls = |ps: &[PassOut]| {
        quantile(
            &ps.iter().map(|p| p.wall.as_secs_f64()).collect::<Vec<_>>(),
            0.5,
        )
    };
    let prove_s = l("search.prove") / 1000.0;
    let metrics = vec![
        ("lang.load_ms", l("lang.load"), "ms"),
        ("analysis.analyze_ms", l("analysis.analyze"), "ms"),
        ("analysis.fixes_ms", l("analysis.fixes"), "ms"),
        ("analysis.fix_loop_ms", l("analysis.fix_loop"), "ms"),
        ("analysis.diagnostics", c("analysis.diagnostics"), "count"),
        (
            "analysis.fixes_applied",
            c("analysis.fixes_applied"),
            "count",
        ),
        ("search.prove_ms", l("search.prove"), "ms"),
        (
            "search.nodes_per_s",
            if prove_s > 0.0 {
                c("search.nodes_created") / prove_s
            } else {
                0.0
            },
            "1/s",
        ),
        ("search.nodes_created", c("search.nodes_created"), "count"),
        ("search.rounds", c("search.rounds"), "count"),
        ("search.case_splits", c("search.case_splits"), "count"),
        ("search.subst_attempts", c("search.subst_attempts"), "count"),
        (
            "search.unsound_cycles_pruned",
            c("search.unsound_cycles_pruned"),
            "count",
        ),
        (
            "rewrite.reduce_memo_hits",
            c("rewrite.reduce_memo_hits"),
            "count",
        ),
        (
            "rewrite.shared_cache_hits",
            c("rewrite.shared_cache_hits"),
            "count",
        ),
        (
            "rewrite.shared_cache_misses",
            c("rewrite.shared_cache_misses"),
            "count",
        ),
        (
            "rewrite.shared_cache_hit_ratio",
            share(
                c("rewrite.shared_cache_hits"),
                c("rewrite.shared_cache_misses"),
            ),
            "ratio",
        ),
        (
            "sizechange.compositions",
            c("sizechange.compositions"),
            "count",
        ),
        ("sizechange.memo_hits", c("sizechange.memo_hits"), "count"),
        (
            "sizechange.memo_hit_ratio",
            share(c("sizechange.memo_hits"), c("sizechange.compositions")),
            "ratio",
        ),
        (
            "sizechange.graphs_subsumed",
            c("sizechange.graphs_subsumed"),
            "count",
        ),
        (
            "sizechange.closure_graphs",
            c("sizechange.closure_graphs"),
            "count",
        ),
        (
            "sizechange.closure_update_ms",
            traced.iter().map(|p| ms(p.closure_update)).sum::<f64>() / n,
            "ms",
        ),
        ("proof.recheck_ms", l("proof.recheck"), "ms"),
        ("proof.reducts_checked", c("proof.reducts_checked"), "count"),
        ("proof.export_ms", l("proof.export"), "ms"),
        ("proof.cert_bytes", c("proof.cert_bytes"), "bytes"),
        ("proof.cert_check_ms", l("proof.cert_check"), "ms"),
        ("batch.queue_wait_p50_ms", quantile(&waits, 0.5), "ms"),
        ("batch.queue_wait_max_ms", quantile(&waits, 1.0), "ms"),
        (
            "batch.busy_share",
            if workers > 1.0 { busy } else { 0.0 },
            "ratio",
        ),
        ("core.other_ms", other, "ms"),
        (
            "trace.overhead_ratio",
            walls(traced) / walls(plain) - 1.0,
            "ratio",
        ),
        ("goals_proved", proved, "count"),
        ("failed_share", failed_share, "ratio"),
    ];

    let items = traced[0].items.len() as f64;
    let total = wall * workers;
    let mut table = format!(
        "{} per-layer self time, mean of {} traced passes ({} items, {} worker(s)); \
         rows sum to pass wall x workers\n  {:<20} {:>12} {:>10} {:>7}\n",
        name,
        traced.len(),
        items,
        workers,
        "layer",
        "ms/pass",
        "ms/item",
        "share",
    );
    let mut rows: Vec<(&str, f64)> = LAYERS.iter().map(|&n| (n, l(n))).collect();
    rows.push(("core.other", other));
    if workers > 1.0 {
        rows.push(("batch.idle", idle));
    }
    rows.push(("total", total));
    for (name, t) in &rows {
        let _ = writeln!(
            table,
            "  {name:<20} {t:>12.3} {:>10.4} {:>6.1}%",
            t / items,
            100.0 * t / total
        );
    }
    let (largest, t) =
        rows[..rows.len() - 1].iter().fold(
            ("", f64::MIN),
            |m, &(n, t)| if t > m.1 { (n, t) } else { m },
        );
    let _ = writeln!(
        table,
        "  largest row: {largest} ({:.1}%); search.prove: {:.1}% of the pass",
        100.0 * t / total,
        100.0 * l("search.prove") / total,
    );
    (metrics, table)
}

/// The result line: `correct`, `attempted`, `failed`, and each metric with
/// its unit. Values print with every digit Rust's shortest round-trip
/// formatting gives.
fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}
