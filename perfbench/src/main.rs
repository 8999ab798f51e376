//! End-to-end CAB benchmark for the cost-intelligent warehouse.
//!
//! ```text
//! perfbench --workload <cab_mix|point_plan|tiered_tune> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One closed-loop client drives a workload through the public
//! `ci_core::Warehouse` API. `--trace 0` measures the end-to-end metrics;
//! `--trace 1` runs the same operations beside spans around the calls into
//! each crate and reports the per-layer ledger. Every query result is
//! checked, outside the timed region, against a reference replay on the
//! `mem` source. The last stdout line is one JSON object; the lines before
//! it (prefixed `# `) record the pinned config and host/data facts.

mod ledger;
mod measure;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use ci_core::types::{CiError, Result};
use ci_core::workload::CabGenerator;
use ci_core::{QueryReport, Warehouse};

use measure::{digest, mean, median, quantile, Metric};
use workload::{
    drop_cached_copies, setup, submit, tune, Op, OpStream, Workload, MIN_QUERIES, MIN_TUNES, SCALE,
    SETUPS,
};

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> std::result::Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| bad("expected cab_mix, point_plan or tiered_tune"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("expected 0 < seconds <= 600"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("# config: {}", args.workload.describe(args.seed));
    let line = if args.trace {
        ledger::run(args.workload, args.seed, args.seconds)
    } else {
        run(args.workload, args.seed, args.seconds)
    };
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What the client keeps of a query report: its deterministic outputs and
/// a digest of its rows (the rows themselves are dropped, so the log does
/// not inflate the process's peak memory).
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// [`digest`] of the result rows.
    pub digest: u64,
    /// Result row count.
    pub rows: usize,
    /// Dollars billed.
    pub cost: f64,
    /// Virtual latency, seconds.
    pub latency_s: f64,
    /// Whether the SLA held.
    pub constraint_met: bool,
}

impl Answer {
    /// The kept parts of `r`.
    pub fn of(r: &QueryReport) -> Answer {
        Answer {
            digest: digest(&r.result),
            rows: r.result.rows(),
            cost: r.cost.amount(),
            latency_s: r.latency.as_secs_f64(),
            constraint_met: r.constraint_met,
        }
    }
}

/// Outcome of one operation: a query's answer, `None` for a tune op, or
/// the error.
pub type Outcome = std::result::Result<Option<Answer>, String>;

/// One executed operation, as the client saw it.
pub struct Done {
    /// The operation.
    pub op: Op,
    /// Wall seconds of the call(s) that performed it.
    pub wall_s: f64,
    /// What it returned.
    pub result: Outcome,
}

impl Done {
    fn is_query(&self) -> bool {
        matches!(self.op, Op::Query { .. })
    }
}

/// Performs `op` on `w` through the public facade.
pub fn perform(w: &mut Warehouse, op: &Op) -> Result<Option<QueryReport>> {
    match op {
        Op::Query { sql, at } => submit(w, sql, *at).map(Some),
        Op::Tune(action) => tune(w, action).map(|()| None),
    }
}

/// Runs the closed loop for at least `seconds` of wall time, `MIN_QUERIES`
/// queries and `MIN_TUNES` tune ops. `step` performs one operation and
/// returns its wall seconds and outcome.
pub fn closed_loop(
    stream: &mut OpStream,
    seconds: f64,
    mut step: impl FnMut(&Op) -> Result<(f64, Outcome)>,
) -> Result<Vec<Done>> {
    let mut log = Vec::new();
    let (mut queries, mut tunes) = (0, 0);
    let t0 = Instant::now();
    while queries < MIN_QUERIES || tunes < MIN_TUNES || t0.elapsed().as_secs_f64() < seconds {
        let op = stream
            .next()
            .ok_or_else(|| CiError::Exec("operation stream ran dry".into()))?;
        match op {
            Op::Query { .. } => queries += 1,
            Op::Tune(_) => tunes += 1,
        }
        let (wall_s, result) = step(&op)?;
        log.push(Done { op, wall_s, result });
    }
    Ok(log)
}

/// Reference replays the correctness check splits the queries across.
const REFERENCE_THREADS: usize = 2;

/// `(operation index, why it failed)` for the operations one replay checked.
type Verdicts = Vec<(usize, Option<String>)>;

/// Correctness, checked outside the timed region: replays the logged
/// operations on reference warehouses (`mem` source, simulator, no tiers,
/// no faults) and marks every operation that errored or whose result digest
/// differs from the reference. Each of `REFERENCE_THREADS` replays applies
/// every tune op but runs only its share of the queries; a query's rows
/// depend only on the tables' state, not on earlier queries. Prints the
/// first few failures.
pub fn check(log: &[Done]) -> Result<Vec<bool>> {
    let replay = |share: usize| -> Result<Verdicts> {
        let gen = CabGenerator::at_scale(SCALE);
        let mut reference = Warehouse::new(gen.build_catalog()?, Workload::reference_config());
        let mut verdicts = Vec::new();
        for (i, d) in log.iter().enumerate() {
            let mine = i % REFERENCE_THREADS == share;
            let expected = match &d.op {
                Op::Tune(action) => reference.apply(action).map(|_| None),
                Op::Query { .. } if !mine => continue,
                Op::Query { sql, at } => {
                    submit(&mut reference, sql, *at).map(|r| Some(digest(&r.result)))
                }
            };
            if !mine {
                continue;
            }
            let why = match (&d.result, expected) {
                (Err(e), _) => Some(format!("error: {e}")),
                (Ok(_), Err(e)) => Some(format!("reference error: {e}")),
                (Ok(Some(a)), Ok(Some(want))) if a.digest != want => Some(format!(
                    "result differs from the mem reference ({} rows)",
                    a.rows
                )),
                _ => None,
            };
            verdicts.push((i, why));
        }
        Ok(verdicts)
    };
    let shares: Vec<Result<Verdicts>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..REFERENCE_THREADS)
            .map(|k| s.spawn(move || replay(k)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference replay panicked"))
            .collect()
    });
    let mut verdicts: Verdicts = Vec::with_capacity(log.len());
    for share in shares {
        verdicts.extend(share?);
    }
    verdicts.sort_by_key(|(i, _)| *i);
    let mut shown = 0;
    for (i, why) in &verdicts {
        if let (Some(why), true) = (why, shown < 5) {
            let what = match &log[*i].op {
                Op::Query { sql, .. } => sql.clone(),
                Op::Tune(action) => format!("tune op {action:?}"),
            };
            println!("# failure: op {i}: {why}: {what}");
            shown += 1;
        }
    }
    Ok(verdicts.into_iter().map(|(_, why)| why.is_some()).collect())
}

/// Reports the cached partition copies [`drop_cached_copies`] found stale
/// after the run's tune ops.
pub fn print_stale(stale: usize, tunes: usize) {
    println!(
        "# stale cache: {stale} cached partition copies differed from the rewritten \
         files after {tunes} tune ops, and were dropped before the next query"
    );
}

/// The untraced run: the end-to-end metrics.
fn run(workload: Workload, seed: u64, seconds: f64) -> Result<String> {
    // Set up several times; keep the last warehouse, report the median.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut w = None;
    for _ in 0..SETUPS {
        drop(w.take());
        let t = Instant::now();
        w = Some(setup(workload, seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.expect("SETUPS > 0");
    measure::print_facts(w.catalog());

    let mut stream = OpStream::new(workload, seed);
    let mut stale = 0;
    let log = closed_loop(&mut stream, seconds, |op| {
        let t = Instant::now();
        let result = perform(&mut w, op);
        let wall_s = t.elapsed().as_secs_f64();
        if let (Op::Tune(action), Ok(_)) = (op, &result) {
            stale += drop_cached_copies(&w, action)?;
        }
        Ok((
            wall_s,
            result
                .map(|r| r.as_ref().map(Answer::of))
                .map_err(|e| e.to_string()),
        ))
    })?;
    let peak_rss_mb = measure::peak_rss_mb()?;
    drop(w);
    let failed = check(&log)?;

    let queries: Vec<&Done> = log.iter().filter(|d| d.is_query()).collect();
    let walls_ms: Vec<f64> = queries.iter().map(|d| d.wall_s * 1e3).collect();
    let tune_ms: Vec<f64> = log
        .iter()
        .filter(|d| !d.is_query())
        .map(|d| d.wall_s * 1e3)
        .collect();
    let p95 = quantile(&walls_ms, 0.95);
    // Time the client spent waiting on the warehouse (its own SQL
    // generation and digests excluded).
    let busy_s: f64 = log.iter().map(|d| d.wall_s).sum();
    // Deterministic outputs over the fixed prefix of operations up to the
    // `MIN_QUERIES`-th query, so that they are a pure function of seed and
    // code; a failed query misses the SLA.
    let prefix = 1 + log
        .iter()
        .enumerate()
        .filter(|(_, d)| d.is_query())
        .nth(MIN_QUERIES - 1)
        .map(|(i, _)| i)
        .expect("the loop runs MIN_QUERIES queries");
    let ok: Vec<Answer> = log[..prefix]
        .iter()
        .filter_map(|d| d.result.clone().ok().flatten())
        .collect();
    let prefix_failed = failed[..prefix].iter().filter(|f| **f).count();
    let n_failed = failed.iter().filter(|f| **f).count();
    println!(
        "# samples: queries={} above_p95={} tune_ops={} busy_s={busy_s:.3} deterministic_prefix={MIN_QUERIES}",
        walls_ms.len(),
        walls_ms.iter().filter(|w| **w > p95).count(),
        tune_ms.len(),
    );
    println!(
        "# failures: {n_failed} of {} operations; {prefix_failed} of the first {prefix} (error_frac={})",
        log.len(),
        prefix_failed as f64 / prefix as f64
    );
    print_stale(stale, tune_ms.len());
    let metrics: Vec<Metric> = vec![
        ("query_wall_ms_p50", median(&walls_ms), "ms"),
        ("query_wall_ms_p95", p95, "ms"),
        ("queries_per_s", walls_ms.len() as f64 / busy_s, "1/s"),
        (
            "dollars_per_query",
            mean(&ok.iter().map(|a| a.cost).collect::<Vec<_>>()),
            "USD",
        ),
        // Simulated seconds on the warehouse's virtual clock, not wall time.
        (
            "virtual_latency_s_mean",
            mean(&ok.iter().map(|a| a.latency_s).collect::<Vec<_>>()),
            "sim_s",
        ),
        (
            "sla_met_frac",
            ok.iter().filter(|a| a.constraint_met).count() as f64 / MIN_QUERIES as f64,
            "frac",
        ),
        (
            "success_frac",
            1.0 - prefix_failed as f64 / prefix as f64,
            "frac",
        ),
        ("tune_wall_ms_p50", median(&tune_ms), "ms"),
        ("setup_s", median(&setup_s), "s"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    measure::result_json(n_failed == 0, log.len(), n_failed, &metrics)
}
