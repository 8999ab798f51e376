//! The traced run: the per-layer ledger, timed from outside.
//!
//! `QueryReport` carries neither operator samples nor pipeline metrics, so
//! the traced run keeps two identically set-up warehouses. The *client*
//! warehouse runs every operation through the public facade exactly as the
//! untraced run does (`submit_at` is timed whole as `core.submit_ms`). The
//! *shadow* warehouse makes the same calls `submit_at` makes — `parse` →
//! `bind` → `Optimizer::plan_bound` → `DopMonitor::new` →
//! `Executor::execute` — on its own catalog and execution config, with a
//! span around each call. Both evolve through the same deterministic states
//! (cache simulator, physical tiers, reclustered tables), so every shadow
//! query must reproduce the client's `Dollars` and result digest bit-exactly;
//! any difference fails the run. Neither warehouse's state is touched by the
//! spans, and end-to-end numbers come only from the untraced run.

use std::collections::BTreeMap;
use std::time::Instant;

use ci_core::cost::CostEstimator;
use ci_core::exec::{CacheCounters, Executor, QueryOutcome};
use ci_core::monitor::DopMonitor;
use ci_core::optimizer::{Optimizer, PlannedQuery};
use ci_core::plan::bind;
use ci_core::sql::parse;
use ci_core::storage::tiers::{ServedFrom, TierStore};
use ci_core::types::{CiError, Result, TableId};
use ci_core::{QueryReport, Warehouse};

use crate::measure::{digest, mean, median, ratio, Metric};
use crate::workload::{
    cache_counters, drop_cached_copies, materialize, setup, submit, Op, OpStream, Workload, SLA,
    WORKERS,
};
use crate::{check, closed_loop, Answer};

/// Wall seconds of each layer call for one shadow query.
#[derive(Debug, Default, Clone, Copy)]
struct Spans {
    parse: f64,
    bind: f64,
    plan: f64,
    monitor: f64,
    execute: f64,
    /// The whole traced call sequence, span bookkeeping included.
    total: f64,
}

impl Spans {
    fn layers(&self) -> f64 {
        self.parse + self.bind + self.plan + self.monitor + self.execute
    }
}

/// Makes the calls `Warehouse::submit_at` makes, on `shadow`'s catalog and
/// config, with a span around each.
fn traced_query(shadow: &Warehouse, sql: &str) -> Result<(PlannedQuery, QueryOutcome, Spans)> {
    assert!(
        !shadow.config.disable_monitor,
        "the benchmark runs with the DOP monitor on"
    );
    let cat = shadow.catalog();
    let t0 = Instant::now();
    let ast = parse(sql)?;
    let t1 = Instant::now();
    let bound = bind(&ast, cat)?;
    let t2 = Instant::now();
    let planned = Optimizer::new(cat, shadow.config.optimizer.clone()).plan_bound(bound, SLA)?;
    let t3 = Instant::now();
    let est = CostEstimator::new(cat, shadow.config.optimizer.estimator.clone());
    let mut monitor = DopMonitor::new(
        &est,
        &planned.plan,
        &planned.graph,
        &planned.dops,
        shadow.config.monitor.clone(),
    )?;
    let t4 = Instant::now();
    let outcome = Executor::new(cat, shadow.config.execution.clone()).execute(
        &planned.plan,
        &planned.graph,
        &planned.dops,
        &mut monitor,
    )?;
    let t5 = Instant::now();
    let s = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    let spans = Spans {
        parse: s(t0, t1),
        bind: s(t1, t2),
        plan: s(t2, t3),
        monitor: s(t3, t4),
        execute: s(t4, t5),
        total: s(t0, Instant::now()),
    };
    Ok((planned, outcome, spans))
}

/// `max(a/b, b/a)`, or `None` when either side is not positive.
fn qerror(predicted: f64, actual: f64) -> Option<f64> {
    (predicted > 0.0 && actual > 0.0).then(|| (predicted / actual).max(actual / predicted))
}

/// Accumulated per-layer observations.
#[derive(Default)]
struct Ledger {
    spans: Vec<Spans>,
    submit_s: Vec<f64>,
    estimates: Vec<f64>,
    variants: Vec<f64>,
    latency_qerror: Vec<f64>,
    dollars_qerror: Vec<f64>,
    op_s: BTreeMap<&'static str, f64>,
    morsels: f64,
    wire_bytes: f64,
    decoded_bytes: f64,
    fetch_retries: f64,
    hedged_morsels: f64,
    recovery_virtual_s: f64,
    object_read_s: Vec<f64>,
    ssd_read_s: Vec<f64>,
    mem_read_s: Vec<f64>,
    proposals_s: Vec<f64>,
    apply_s: Vec<f64>,
    /// Stale cached partition copies dropped after each tune op.
    stale_copies: Vec<f64>,
    /// Shadow queries whose `Dollars` or digest differ from the client's.
    unreproduced: usize,
    /// Storage probes whose three tiers did not return identical batches.
    probe_mismatches: usize,
}

impl Ledger {
    fn record_query(
        &mut self,
        client: &QueryReport,
        client_s: f64,
        planned: &PlannedQuery,
        outcome: &QueryOutcome,
        spans: Spans,
    ) {
        self.spans.push(spans);
        self.submit_s.push(client_s);
        self.estimates.push(planned.search.estimates as f64);
        self.variants.push(planned.variants_considered as f64);
        if let Some(q) = qerror(
            client.predicted_latency.as_secs_f64(),
            client.latency.as_secs_f64(),
        ) {
            self.latency_qerror.push(q);
        }
        if let Some(q) = qerror(client.predicted_cost.amount(), client.cost.amount()) {
            self.dollars_qerror.push(q);
        }
        for s in &outcome.op_samples {
            *self.op_s.entry(s.op).or_default() += s.wall_ns as f64 * 1e-9;
        }
        for p in &outcome.metrics.pipelines {
            self.morsels += p.morsels as f64;
            self.wire_bytes += p.exchange_wire_bytes as f64;
            self.decoded_bytes += p.exchange_decoded_bytes as f64;
            self.fetch_retries += f64::from(p.fetch_retries);
            self.hedged_morsels += f64::from(p.hedged_morsels);
            self.recovery_virtual_s += p.recovery_virtual_ns as f64 * 1e-9;
        }
        let same_bill = client.cost.amount().to_bits() == outcome.metrics.cost.amount().to_bits();
        if !same_bill || digest(&client.result) != digest(&outcome.result) {
            if self.unreproduced == 0 {
                println!(
                    "# unreproduced: shadow bill {} vs client {}, shadow rows {} vs client {}",
                    outcome.metrics.cost.amount(),
                    client.cost.amount(),
                    outcome.result.rows(),
                    client.result.rows()
                );
            }
            self.unreproduced += 1;
        }
    }

    /// Times one partition read from each tier of a private probe stack
    /// over the shadow's object store, then empties the probe again.
    fn probe_storage(&mut self, probe: &TierStore, id: TableId, part: usize) -> Result<()> {
        let p = part as u32;
        let t = Instant::now();
        let object = probe.object_store().read_partition(id, part)?;
        self.object_read_s.push(t.elapsed().as_secs_f64());
        probe.promote_ssd(id, p)?;
        let t = Instant::now();
        let (ssd, from_ssd) = probe.read_partition(id, part)?;
        self.ssd_read_s.push(t.elapsed().as_secs_f64());
        probe.promote_mem(id, p)?;
        let t = Instant::now();
        let (mem, from_mem) = probe.read_partition(id, part)?;
        self.mem_read_s.push(t.elapsed().as_secs_f64());
        probe.evict_mem(id, p);
        probe.evict_ssd(id, p);
        let served_as_placed = from_ssd == ServedFrom::Ssd && from_mem == ServedFrom::Mem;
        if !served_as_placed || object != ssd || ssd != mem {
            self.probe_mismatches += 1;
        }
        Ok(())
    }

    fn metrics(
        &self,
        cache: CacheCounters,
        queries: usize,
        bytes_per_user_byte: f64,
        overhead: f64,
    ) -> Vec<Metric> {
        let per_q = |x: f64| x / queries as f64;
        let span = |f: fn(&Spans) -> f64| mean(&self.spans.iter().map(f).collect::<Vec<_>>());
        let op = |name: &str| per_q(self.op_s.get(name).copied().unwrap_or(0.0)) * 1e3;
        let execute_s = span(|s| s.execute);
        let op_total_s = per_q(self.op_s.values().sum());
        let workers = WORKERS as f64;
        let unattributed_core: Vec<f64> = self
            .spans
            .iter()
            .zip(&self.submit_s)
            .map(|(s, submit)| submit - s.layers())
            .collect();
        let hits = (cache.mem_hits + cache.ssd_hits) as f64;
        vec![
            ("sql.parse_us", span(|s| s.parse) * 1e6, "us"),
            ("plan.bind_us", span(|s| s.bind) * 1e6, "us"),
            ("optimizer.plan_us", span(|s| s.plan) * 1e6, "us"),
            ("optimizer.estimates", mean(&self.estimates), "count"),
            ("optimizer.variants", mean(&self.variants), "count"),
            ("monitor.init_us", span(|s| s.monitor) * 1e6, "us"),
            (
                "cost.latency_qerror_p50",
                median(&self.latency_qerror),
                "ratio",
            ),
            (
                "cost.dollars_qerror_p50",
                median(&self.dollars_qerror),
                "ratio",
            ),
            ("exec.execute_ms", execute_s * 1e3, "ms"),
            ("exec.op_ms.filter", op("filter"), "ms"),
            ("exec.op_ms.probe", op("probe"), "ms"),
            ("exec.op_ms.build", op("build"), "ms"),
            ("exec.op_ms.agg", op("agg"), "ms"),
            ("exec.op_ms.sort", op("sort"), "ms"),
            ("exec.op_ms.exchange", op("exchange"), "ms"),
            (
                "exec.kernel_share",
                ratio(op_total_s, execute_s * workers),
                "ratio",
            ),
            (
                "exec.unattributed_ms",
                (execute_s - op_total_s / workers) * 1e3,
                "ms",
            ),
            ("exec.morsels", per_q(self.morsels), "count"),
            (
                "exec.exchange_wire_ratio",
                ratio(self.wire_bytes, self.decoded_bytes),
                "ratio",
            ),
            (
                "storage.object_read_us_per_part",
                median(&self.object_read_s) * 1e6,
                "us",
            ),
            (
                "storage.ssd_read_us_per_part",
                median(&self.ssd_read_s) * 1e6,
                "us",
            ),
            (
                "storage.mem_read_us_per_part",
                median(&self.mem_read_s) * 1e6,
                "us",
            ),
            (
                "storage.bytes_written_per_user_byte",
                bytes_per_user_byte,
                "ratio",
            ),
            (
                "storage.stale_copies_per_tune",
                mean(&self.stale_copies),
                "count",
            ),
            (
                "cloud.tier_hit_ratio",
                ratio(hits, hits + cache.misses as f64),
                "ratio",
            ),
            ("cloud.tier_mem_hits", per_q(cache.mem_hits as f64), "count"),
            ("cloud.tier_ssd_hits", per_q(cache.ssd_hits as f64), "count"),
            ("cloud.tier_misses", per_q(cache.misses as f64), "count"),
            (
                "cloud.tier_promotions",
                per_q(cache.promotions as f64),
                "count",
            ),
            (
                "cloud.tier_evictions",
                per_q(cache.evictions as f64),
                "count",
            ),
            ("cloud.fetch_retries", per_q(self.fetch_retries), "count"),
            ("cloud.hedged_morsels", per_q(self.hedged_morsels), "count"),
            (
                "cloud.recovery_virtual_ms",
                per_q(self.recovery_virtual_s) * 1e3,
                "sim_ms",
            ),
            (
                "autotune.proposals_ms",
                median(&self.proposals_s) * 1e3,
                "ms",
            ),
            ("autotune.apply_ms", median(&self.apply_s) * 1e3, "ms"),
            ("core.submit_ms", mean(&self.submit_s) * 1e3, "ms"),
            ("core.unattributed_ms", mean(&unattributed_core) * 1e3, "ms"),
            ("core.trace_overhead_frac", overhead, "ratio"),
        ]
    }
}

/// Counter deltas `after - before`.
fn delta(after: Option<CacheCounters>, before: Option<CacheCounters>) -> CacheCounters {
    let (a, b) = (after.unwrap_or_default(), before.unwrap_or_default());
    CacheCounters {
        mem_hits: a.mem_hits - b.mem_hits,
        ssd_hits: a.ssd_hits - b.ssd_hits,
        misses: a.misses - b.misses,
        promotions: a.promotions - b.promotions,
        evictions: a.evictions - b.evictions,
    }
}

/// Bytes of every file under `dir`, recursively.
fn dir_bytes(dir: &std::path::Path) -> Result<u64> {
    let io = |e: std::io::Error| CiError::Storage(format!("sizing {}: {e}", dir.display()));
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(io)? {
        let entry = entry.map_err(io)?;
        let meta = entry.metadata().map_err(io)?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// The traced run: the per-layer metrics.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<String> {
    let mut client = setup(workload, seed)?;
    let mut shadow = setup(workload, seed)?;
    crate::measure::print_facts(client.catalog());
    // The storage probe reads the shadow's CIPF files, which the `mem`
    // source never writes on its own.
    materialize(&shadow)?;
    let probe = TierStore::new(shadow.catalog().page_store()?)?;
    let counters_before = cache_counters(&shadow);

    let mut ledger = Ledger::default();
    let mut next_part: BTreeMap<TableId, usize> = BTreeMap::new();
    let mut queries = 0usize;
    let mut stream = OpStream::new(workload, seed);
    let log = closed_loop(&mut stream, seconds, |op| {
        let (sql, at) = match op {
            Op::Query { sql, at } => (sql, at),
            Op::Tune(action) => {
                let t = Instant::now();
                let proposals = client.tuning_proposals();
                let proposals_s = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let applied = proposals.and_then(|_| client.apply(action));
                let apply_s = t.elapsed().as_secs_f64();
                ledger.proposals_s.push(proposals_s);
                ledger.apply_s.push(apply_s);
                shadow.apply(action)?;
                if applied.is_ok() {
                    let stale = drop_cached_copies(&client, action)?;
                    if drop_cached_copies(&shadow, action)? != stale {
                        ledger.unreproduced += 1;
                    }
                    ledger.stale_copies.push(stale as f64);
                }
                let result = applied.map(|_| None).map_err(|e| e.to_string());
                return Ok((proposals_s + apply_s, result));
            }
        };
        // Alternate which side runs first, so neither always finds the
        // other's warm caches.
        let client_first = queries.is_multiple_of(2);
        queries += 1;
        let run_client = |client: &mut Warehouse| {
            let t = Instant::now();
            let r = submit(client, sql, *at);
            (t.elapsed().as_secs_f64(), r)
        };
        let (client_s, client_r, shadow_r) = if client_first {
            let (s, r) = run_client(&mut client);
            (s, r, traced_query(&shadow, sql))
        } else {
            let shadow_r = traced_query(&shadow, sql);
            let (s, r) = run_client(&mut client);
            (s, r, shadow_r)
        };
        match (&client_r, shadow_r) {
            (Ok(report), Ok((planned, outcome, spans))) => {
                ledger.record_query(report, client_s, &planned, &outcome, spans);
                for rel in &planned.bound.relations {
                    let parts = shadow
                        .catalog()
                        .get_by_id(rel.table_id)?
                        .table
                        .partition_count();
                    let k = next_part.entry(rel.table_id).or_default();
                    ledger.probe_storage(&probe, rel.table_id, *k % parts.max(1))?;
                    *k += 1;
                }
            }
            (Err(_), Err(_)) => {}
            _ => ledger.unreproduced += 1,
        }
        let answer = client_r.map(|r| Some(Answer::of(&r)));
        Ok((client_s, answer.map_err(|e| e.to_string())))
    })?;
    let cache = delta(cache_counters(&shadow), counters_before);
    if cache_counters(&shadow) != cache_counters(&client) {
        ledger.unreproduced += 1;
        println!("# unreproduced: shadow and client cache counters differ");
    }
    let store = shadow.catalog().page_store()?;
    let user_bytes: u64 = shadow
        .catalog()
        .tables()
        .map(|(_, e)| e.table.total_bytes())
        .sum();
    let bytes_per_user_byte = dir_bytes(store.root())? as f64 / user_bytes as f64;
    let traced_s: f64 = ledger.spans.iter().map(|s| s.total).sum();
    let submit_s: f64 = ledger.submit_s.iter().sum();
    let overhead = ratio(traced_s - submit_s, submit_s);
    drop((client, shadow, probe));

    let failed = check(&log)?;
    let n_failed = failed.iter().filter(|f| **f).count();
    println!(
        "# reproduction: {} traced queries, {} differ from the untraced Dollars or digest; {} storage probe mismatches",
        ledger.spans.len(),
        ledger.unreproduced,
        ledger.probe_mismatches
    );
    println!("# failures: {n_failed} of {} operations", log.len());
    let stale = ledger.stale_copies.iter().sum::<f64>() as usize;
    crate::print_stale(stale, ledger.stale_copies.len());
    let metrics = ledger.metrics(
        cache,
        ledger.spans.len().max(1),
        bytes_per_user_byte,
        overhead,
    );
    let correct = n_failed == 0 && ledger.unreproduced == 0 && ledger.probe_mismatches == 0;
    crate::measure::result_json(correct, log.len(), n_failed, &metrics)
}
