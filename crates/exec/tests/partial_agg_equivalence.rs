//! Property tests: the reorder-tolerant partial-aggregation path is
//! observably identical to the simulator oracle.
//!
//! The partial path deliberately gives up *structural* bit-identity (sink
//! batches fold worker-side into chunk-local states instead of shipping
//! through traces), so this suite pins the *observable* contract instead:
//! for random mergeable-aggregation plans × worker counts × morsel sizes ×
//! page sources, `ExecutionMode::Parallel` with `partial_agg` enabled must
//! reproduce the simulator's result rows, group cardinalities, byte
//! accounting, and billed `Dollars` exactly — while
//! `PipelineMetrics::agg_partials` proves the fast path actually ran.
//! Order-sensitive aggregations (float sums) must keep falling back to the
//! trace path, also pinned here.

use std::sync::Arc;

use ci_catalog::{Catalog, ErrorInjector};
use ci_exec::{ExecutionConfig, ExecutionMode, Executor, NoScaling, PageSourceMode, QueryOutcome};
use ci_plan::{bind, JoinTree, PhysicalPlan, PipelineGraph};
use ci_sql::parse;
use ci_storage::batch::RecordBatch;
use ci_storage::column::ColumnData;
use ci_storage::schema::{Field, Schema};
use ci_storage::table::TableBuilder;
use ci_storage::value::DataType;
use ci_types::TableId;
use proptest::prelude::*;

const N_ORDERS: i64 = 6_000;
const N_CUST: i64 = 250;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let orders = Arc::new(Schema::of(vec![
        Field::new("o_id", DataType::Int64),
        Field::new("o_cust", DataType::Int64),
        Field::new("o_total", DataType::Float64),
    ]));
    let mut b = TableBuilder::new(TableId::new(0), "orders", orders.clone(), 1024).unwrap();
    b.append(
        RecordBatch::new(
            orders,
            vec![
                ColumnData::Int64((0..N_ORDERS).collect()),
                ColumnData::Int64((0..N_ORDERS).map(|i| i * 7 % N_CUST).collect()),
                ColumnData::Float64((0..N_ORDERS).map(|i| (i % 997) as f64 * 0.5).collect()),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    c.register(b.finish().unwrap());

    let cust = Arc::new(Schema::of(vec![
        Field::new("c_id", DataType::Int64),
        Field::new("c_region", DataType::Utf8),
    ]));
    let mut b = TableBuilder::new(TableId::new(1), "customers", cust.clone(), 128).unwrap();
    b.append(
        RecordBatch::new(
            cust,
            vec![
                ColumnData::Int64((0..N_CUST).collect()),
                ColumnData::Utf8((0..N_CUST).map(|i| format!("region-{}", i % 5)).collect()),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    c.register(b.finish().unwrap());
    c
}

/// Aggregation shapes whose every aggregate is provably order-insensitive
/// (`AggregateState::mergeable`): counts, integer sums, integer min/max,
/// distinct counts — over scan groups, dictionary groups, scan filters,
/// joins, and a global (group-less) aggregate.
const MERGEABLE_QUERIES: &[&str] = &[
    "SELECT o_cust, COUNT(*) AS n, SUM(o_id) AS s FROM orders GROUP BY o_cust",
    "SELECT o_cust, MIN(o_id) AS lo, MAX(o_id) AS hi FROM orders \
     WHERE o_id > 100 GROUP BY o_cust",
    "SELECT c_region, COUNT(*) AS n FROM customers GROUP BY c_region",
    "SELECT COUNT(*) AS n, MAX(o_cust) AS m FROM orders",
    "SELECT c_region, COUNT(*) AS n, SUM(o_id) AS s FROM orders o \
     JOIN customers c ON o.o_cust = c.c_id GROUP BY c_region",
    "SELECT o_cust, COUNT(DISTINCT o_id) AS d FROM orders WHERE o_id < 900 GROUP BY o_cust",
];

/// Shapes the partial path must *refuse*: IEEE-float folding is
/// order-sensitive, so these stay on the trace path even with
/// `partial_agg` enabled.
const FLOAT_QUERIES: &[&str] = &[
    "SELECT o_cust, SUM(o_total) AS rev FROM orders GROUP BY o_cust",
    "SELECT c_region, AVG(o_total) AS a FROM orders o \
     JOIN customers c ON o.o_cust = c.c_id GROUP BY c_region",
];

fn plan_of(cat: &Catalog, sql: &str) -> (PhysicalPlan, PipelineGraph) {
    let b = bind(&parse(sql).unwrap(), cat).unwrap();
    let tree = JoinTree::left_deep(&(0..b.relations.len()).collect::<Vec<_>>());
    let plan = ci_plan::physical::build_plan(&b, &tree, cat, &mut ErrorInjector::oracle()).unwrap();
    let graph = PipelineGraph::decompose(&plan).unwrap();
    (plan, graph)
}

fn run_cfg(
    cat: &Catalog,
    sql: &str,
    morsel_rows: usize,
    page_source: PageSourceMode,
    partial_agg: bool,
    mode: ExecutionMode,
) -> QueryOutcome {
    let (plan, graph) = plan_of(cat, sql);
    let exec = Executor::new(
        cat,
        ExecutionConfig {
            morsel_rows,
            page_source,
            partial_agg,
            mode,
            ..ExecutionConfig::default()
        },
    );
    let dops = vec![4; graph.len()];
    exec.execute(&plan, &graph, &dops, &mut NoScaling).unwrap()
}

/// Full observable equivalence: results, Dollars, cardinalities, bytes.
/// Masks only runtime-shape evidence (wall-clock, pool identity, path
/// engagement counters), exactly like the trace-path equivalence suite.
fn assert_equivalent(a: &QueryOutcome, b: &QueryOutcome, label: &str) -> Result<(), String> {
    prop_assert_eq!(&b.result, &a.result, "{label}: result rows");
    prop_assert_eq!(b.metrics.cost, a.metrics.cost, "{label}: Dollars");
    prop_assert_eq!(b.metrics.latency, a.metrics.latency, "{label}: latency");
    prop_assert_eq!(
        b.metrics.machine_time,
        a.metrics.machine_time,
        "{label}: machine_time"
    );
    prop_assert_eq!(
        &b.metrics.node_actual_rows,
        &a.metrics.node_actual_rows,
        "{label}: node cardinalities"
    );
    prop_assert_eq!(
        b.metrics.pipelines.len(),
        a.metrics.pipelines.len(),
        "{label}: pipeline count"
    );
    for (bp, ap) in b.metrics.pipelines.iter().zip(&a.metrics.pipelines) {
        prop_assert_eq!(
            bp.deterministic(),
            ap.deterministic(),
            "{label}: pipeline {:?} metrics",
            ap.id
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mergeable plans × worker counts × morsel sizes × page sources: the
    /// partial path engages (`agg_partials > 0`) and its outputs are
    /// bit-identical to the simulator *and* to the trace-fold parallel
    /// baseline.
    #[test]
    fn partial_agg_matches_simulator(
        sql in select(MERGEABLE_QUERIES.to_vec()),
        workers in select(vec![1usize, 2, 4, 7]),
        morsel_rows in select(vec![256usize, 700, 2048, 65_536]),
        page_source in select(vec![PageSourceMode::Mem, PageSourceMode::Disk]),
    ) {
        let cat = catalog();
        let label = format!(
            "workers={workers} morsels={morsel_rows} source={} [{sql}]",
            page_source.label()
        );
        let mode = ExecutionMode::Parallel { workers };
        let sim = run_cfg(&cat, sql, morsel_rows, page_source, true, ExecutionMode::Simulate);
        let partial = run_cfg(&cat, sql, morsel_rows, page_source, true, mode);
        let traced = run_cfg(&cat, sql, morsel_rows, page_source, false, mode);

        assert_equivalent(&sim, &partial, &format!("{label} partial-vs-sim"))?;
        assert_equivalent(&sim, &traced, &format!("{label} traced-vs-sim"))?;

        // The fast path really ran: some pipeline merged worker chunk
        // states. With it disabled, none may.
        prop_assert!(
            partial.metrics.pipelines.iter().any(|p| p.agg_partials > 0),
            "{label}: partial-agg path did not engage"
        );
        prop_assert!(
            traced.metrics.pipelines.iter().all(|p| p.agg_partials == 0),
            "{label}: partial_agg=false must stay on the trace path"
        );
        // The simulator never pools or partials.
        prop_assert!(
            sim.metrics.pipelines.iter().all(|p| p.pool_workers == 0 && p.agg_partials == 0),
            "{label}: simulator must not report pool activity"
        );
    }

    /// Float aggregations refuse the partial path (order-sensitive folds)
    /// and still match the simulator through the trace path.
    #[test]
    fn float_aggs_fall_back_to_trace_path(
        sql in select(FLOAT_QUERIES.to_vec()),
        workers in select(vec![2usize, 4]),
        morsel_rows in select(vec![700usize, 65_536]),
    ) {
        let cat = catalog();
        let label = format!("workers={workers} morsels={morsel_rows} [{sql}]");
        let source = PageSourceMode::from_env();
        let sim = run_cfg(&cat, sql, morsel_rows, source, true, ExecutionMode::Simulate);
        let par = run_cfg(
            &cat, sql, morsel_rows, source, true, ExecutionMode::Parallel { workers },
        );
        assert_equivalent(&sim, &par, &label)?;
        prop_assert!(
            par.metrics.pipelines.iter().all(|p| p.agg_partials == 0),
            "{label}: float aggregation must not take the partial path"
        );
    }
}

/// A LIMIT above the aggregation consumes the agg's *output* pipeline, not
/// the agg pipeline itself — the partial path may engage below while the
/// limit semantics stay driver-side. Pinned against the simulator.
#[test]
fn limit_above_aggregation_stays_equivalent() {
    let cat = catalog();
    let sql = "SELECT o_cust, COUNT(*) AS n FROM orders GROUP BY o_cust ORDER BY o_cust LIMIT 7";
    let sim = run_cfg(
        &cat,
        sql,
        700,
        PageSourceMode::from_env(),
        true,
        ExecutionMode::Simulate,
    );
    let par = run_cfg(
        &cat,
        sql,
        700,
        PageSourceMode::from_env(),
        true,
        ExecutionMode::Parallel { workers: 4 },
    );
    assert_eq!(par.result, sim.result);
    assert_eq!(par.metrics.cost, sim.metrics.cost);
    assert_eq!(par.result.rows(), 7);
}
