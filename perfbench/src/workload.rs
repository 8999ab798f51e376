//! The three workloads: pinned warehouse configurations, set-up, and the
//! seeded operation streams the closed-loop client sends.

use ci_core::autotune::TuningAction;
use ci_core::exec::{
    ExecutionConfig, ExecutionMode, FaultPlan, PageSourceMode, TierPricing, TraceLevel,
};
use ci_core::storage::batch::RecordBatch;
use ci_core::storage::tiers::ServedFrom;
use ci_core::types::{DetRng, Result, SimDuration, SimTime};
use ci_core::workload::queries::{canonical, instantiate};
use ci_core::workload::{CabGenerator, TraceConfig, WorkloadTrace, TEMPLATES};
use ci_core::{Constraint, Warehouse, WarehouseConfig};

/// CAB scale factor every workload runs at.
pub const SCALE: f64 = 1.0;
/// Worker threads of the parallel runtime.
pub const WORKERS: usize = 2;
/// Latency SLA every query is submitted under.
pub const SLA: Constraint = Constraint::LatencySla(SimDuration::from_secs(10));
/// Queries a run always completes, whatever `--seconds` says: enough for
/// ten samples above the p95, and the prefix over which the deterministic
/// outputs (dollars, virtual latency, SLA) are taken.
pub const MIN_QUERIES: usize = 200;
/// Tune ops a run always completes. Every workload interleaves them with
/// its queries, so `tune_wall_ms_p50` is sampled across the whole run, not
/// over one short stretch of a noisy host.
pub const MIN_TUNES: usize = 9;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Memory/SSD cache budgets of `tiered_tune`: both below the ~4.7 MB
/// encoded working set, so evictions and SSD/object decodes all happen.
const SMALL_CACHE: (u64, u64) = (1 << 20, 2 << 20);
/// Budgets of `point_plan`: the whole encoded working set fits in memory.
const LARGE_CACHE: (u64, u64) = (64 << 20, 256 << 20);
/// Upper bound on `point_plan` warm-up rounds (it stops at the first round
/// without a cache miss).
const MAX_WARM_ROUNDS: usize = 4;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 12 CAB templates on the memory source: exec-bound.
    CabMix,
    /// Q2, Q5 and Q11 on a warm tiered cache: per-query fixed cost.
    PointPlan,
    /// Trace replay on an undersized tiered cache, with faults and tuning.
    TieredTune,
}

impl Workload {
    /// Parses a `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "cab_mix" => Some(Workload::CabMix),
            "point_plan" => Some(Workload::PointPlan),
            "tiered_tune" => Some(Workload::TieredTune),
            _ => None,
        }
    }

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CabMix => "cab_mix",
            Workload::PointPlan => "point_plan",
            Workload::TieredTune => "tiered_tune",
        }
    }

    /// Queries between tune ops, and the table a tune op reclusters, by
    /// each of two columns in turn.
    fn tuning(self) -> (usize, &'static str, [&'static str; 2]) {
        match self {
            Workload::CabMix => (25, "orders", ["o_date", "o_cust"]),
            // `point_plan` reads only `orders`, from a cache that holds all of
            // it; reclustering `orders` would change what the workload
            // measures (its cached partitions go stale), so it reclusters a
            // table its queries never read.
            Workload::PointPlan => (1000, "customer", ["c_region", "c_segment"]),
            Workload::TieredTune => (20, "orders", ["o_date", "o_cust"]),
        }
    }

    /// Memory/SSD budgets of the shared tier cache, if the workload has one.
    pub fn cache_budget(self) -> Option<(u64, u64)> {
        match self {
            Workload::CabMix => None,
            Workload::PointPlan => Some(LARGE_CACHE),
            Workload::TieredTune => Some(SMALL_CACHE),
        }
    }

    /// Seed of the workload's fault plan, derived from the workload seed.
    fn fault_seed(seed: u64) -> u64 {
        DetRng::seed_from_u64(seed).fork(0xFA17).next_u64()
    }

    /// The warehouse configuration, with every default that would otherwise
    /// come from the environment (`CI_EXEC_MODE`, `CI_FAULT_MODE`,
    /// `CI_TRACE`, `CI_PAGE_SOURCE`, `CI_TIERS`) pinned. `CI_RATES_PATH` is
    /// only read by callers of `MeasuredRates::load_env`; nothing here does.
    pub fn config(self, seed: u64) -> WarehouseConfig {
        let tiered = self.cache_budget().is_some();
        let execution = ExecutionConfig {
            mode: ExecutionMode::Parallel { workers: WORKERS },
            faults: (self == Workload::TieredTune)
                .then(|| FaultPlan::chaos(Self::fault_seed(seed))),
            trace: TraceLevel::Off,
            trace_path: None,
            page_source: if tiered {
                PageSourceMode::Tiered
            } else {
                PageSourceMode::Mem
            },
            tiers: tiered.then(TierPricing::standard),
            tier_sim: None,
            pool: None,
            ..ExecutionConfig::default()
        };
        WarehouseConfig {
            execution,
            disable_monitor: false,
            ..WarehouseConfig::default()
        }
    }

    /// The correctness oracle's configuration: the same warehouse on the
    /// `mem` source, single-threaded simulator, no tiers and no faults.
    /// Rows are bit-identical across all of those by the engine's contract.
    pub fn reference_config() -> WarehouseConfig {
        let mut cfg = Workload::CabMix.config(0);
        cfg.execution.mode = ExecutionMode::Simulate;
        cfg
    }

    /// One line with every pinned knob, printed next to the metrics.
    pub fn describe(self, seed: u64) -> String {
        let c = self.config(seed).execution;
        let budget = match self.cache_budget() {
            Some((m, s)) => format!("shared cache mem={m} B ssd={s} B"),
            None => "none".to_owned(),
        };
        let (every, table, [a, b]) = self.tuning();
        format!(
            "workload={} scale={SCALE} mode={:?} page_source={} tiers={} cache={budget} \
             faults={} trace={:?} monitor=on partial_agg={} morsel_rows={} \
             measured_rates=none constraint=LatencySla(10s) \
             tune=every {every} queries, recluster {table} by {a}|{b}",
            self.name(),
            c.mode,
            c.page_source.label(),
            if c.tiers.is_some() {
                "standard"
            } else {
                "none"
            },
            match c.faults {
                Some(f) => format!("chaos:{}", f.seed),
                None => "off".to_owned(),
            },
            c.trace,
            c.partial_agg,
            c.morsel_rows,
        )
    }
}

/// One client operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// A query; `at` is the virtual arrival time for trace replay, `None`
    /// to submit at the warehouse's current time.
    Query { sql: String, at: Option<SimTime> },
    /// A tune op: `tuning_proposals()`, then applying this recluster.
    Tune(TuningAction),
}

/// Runs one tune op on `w`.
pub fn tune(w: &mut Warehouse, action: &TuningAction) -> Result<()> {
    let proposals = w.tuning_proposals()?;
    std::hint::black_box(proposals);
    w.apply(action)?;
    Ok(())
}

/// The client's work-around for a defect of the tiered source, run after
/// each tune op outside its timing. `apply(Recluster)` re-registers the
/// table, which rewrites its CIPF files (`Catalog::register` →
/// `ObjectStoreDir::ensure_table`), but the `TierStore`'s memory and SSD
/// copies of its partitions, keyed by `(TableId, part)`, are never
/// invalidated: later reads would serve the old layout's rows. This drops
/// every cached copy of the table's partitions from `w`'s tier stack and
/// returns how many of them differed from the rewritten files. Placement
/// and bills come from the cache simulator, so they are unchanged; the
/// dropped partitions are read from the object files until the simulator
/// admits them again. A no-op on the `mem` and `disk` sources.
pub fn drop_cached_copies(w: &Warehouse, action: &TuningAction) -> Result<usize> {
    let TuningAction::Recluster { table, .. } = action else {
        return Ok(0);
    };
    if w.config.execution.page_source != PageSourceMode::Tiered {
        return Ok(0);
    }
    let entry = w.catalog().get(table)?;
    let (id, parts) = (entry.table.id, entry.table.partition_count());
    let tiers = w.catalog().tier_store()?;
    // 1 if the copy `tiers` serves first is cached and differs from `fresh`.
    // An SSD copy that no longer decodes under the rewritten dictionaries is
    // stale too.
    let stale_copy = |part: usize, fresh: &RecordBatch| match tiers.read_partition(id, part) {
        Ok((_, ServedFrom::Object)) => 0,
        Ok((cached, _)) => usize::from(cached != *fresh),
        Err(_) => 1,
    };
    let mut stale = 0;
    for part in 0..parts {
        let fresh = tiers.object_store().read_partition(id, part)?;
        // A memory copy shadows an SSD copy, so check and drop it first.
        stale += stale_copy(part, &fresh);
        tiers.evict_mem(id, part as u32);
        stale += stale_copy(part, &fresh);
        tiers.evict_ssd(id, part as u32);
    }
    Ok(stale)
}

/// Submits a query op on `w` through the public facade.
pub fn submit(w: &mut Warehouse, sql: &str, at: Option<SimTime>) -> Result<ci_core::QueryReport> {
    match at {
        Some(at) => w.submit_at(sql, SLA, at),
        None => w.submit(sql, SLA),
    }
}

/// The seeded, unbounded operation stream of one workload. The same seed
/// yields the same operations.
pub struct OpStream {
    workload: Workload,
    gen: CabGenerator,
    rng: DetRng,
    trace: std::vec::IntoIter<ci_core::workload::TraceEntry>,
    since_tune: usize,
    tunes: usize,
    templates: std::iter::Cycle<std::slice::Iter<'static, usize>>,
}

const CAB_MIX_TEMPLATES: [usize; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];
const POINT_PLAN_TEMPLATES: [usize; 3] = [2, 5, 11];

impl OpStream {
    /// The stream for `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> OpStream {
        let gen = CabGenerator::at_scale(SCALE);
        let rng = DetRng::seed_from_u64(seed);
        let trace = if workload == Workload::TieredTune {
            // The default CAB trace (its own fixed seed), extended so that no
            // run reaches its end (~25 arrivals per hour). The workload seed
            // drives the fault plan instead.
            let cfg = TraceConfig {
                hours: 800.0,
                ..TraceConfig::default()
            };
            WorkloadTrace::generate(&cfg, &gen).entries
        } else {
            Vec::new()
        };
        let templates: &'static [usize] = match workload {
            Workload::PointPlan => &POINT_PLAN_TEMPLATES,
            _ => &CAB_MIX_TEMPLATES,
        };
        OpStream {
            workload,
            gen,
            rng,
            trace: trace.into_iter(),
            since_tune: 0,
            tunes: 0,
            templates: templates.iter().cycle(),
        }
    }

    /// The next tune op, alternating between the workload's two columns.
    fn next_tune(&mut self) -> Op {
        let (_, table, columns) = self.workload.tuning();
        let column = columns[self.tunes % 2];
        self.tunes += 1;
        Op::Tune(TuningAction::Recluster {
            table: table.into(),
            column: column.into(),
        })
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.since_tune == self.workload.tuning().0 {
            self.since_tune = 0;
            return Some(self.next_tune());
        }
        self.since_tune += 1;
        if self.workload == Workload::TieredTune {
            let e = self.trace.next()?;
            return Some(Op::Query {
                sql: e.sql,
                at: Some(e.at),
            });
        }
        let id = *self.templates.next().expect("cycle of a non-empty slice");
        Some(Op::Query {
            sql: instantiate(id, &mut self.rng, &self.gen),
            at: None,
        })
    }
}

/// Catalog generation, warehouse open, CIPF materialisation and warm-up.
pub fn setup(workload: Workload, seed: u64) -> Result<Warehouse> {
    let gen = CabGenerator::at_scale(SCALE);
    let mut w = Warehouse::new(gen.build_catalog()?, workload.config(seed));
    if let Some((mem_bytes, ssd_bytes)) = workload.cache_budget() {
        w.apply(&TuningAction::CacheBudget {
            mem_bytes,
            ssd_bytes,
        })?;
        materialize(&w)?;
    }
    let round: Vec<String> = TEMPLATES.iter().map(|t| canonical(t.id, &gen)).collect();
    for n in 0..MAX_WARM_ROUNDS {
        let misses = cache_counters(&w).map(|c| c.misses);
        for sql in &round {
            w.submit(sql, SLA)?;
        }
        // Only `point_plan` promises a warm cache; it repeats the round
        // until one round misses nothing.
        let missed = cache_counters(&w).map(|c| c.misses) != misses;
        if workload != Workload::PointPlan || !missed || n + 1 == MAX_WARM_ROUNDS {
            break;
        }
    }
    Ok(w)
}

/// Writes every table's CIPF files into the warehouse's page store.
pub fn materialize(w: &Warehouse) -> Result<()> {
    let store = w.catalog().page_store()?;
    for (_, e) in w.catalog().tables() {
        store.ensure_table(&e.table)?;
    }
    Ok(())
}

/// The shared cache simulator's running counters, if the warehouse has one.
pub fn cache_counters(w: &Warehouse) -> Option<ci_core::exec::CacheCounters> {
    w.config
        .execution
        .tier_sim
        .as_ref()
        .map(|s| s.lock().expect("tier sim lock").counters())
}
