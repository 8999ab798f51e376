//! Small measurement helpers: order statistics, result digests, process
//! memory, host facts, and the one-line JSON result.

use ci_core::catalog::Catalog;
use ci_core::storage::value::Value;
use ci_core::storage::RecordBatch;
use ci_core::types::{CiError, Result};

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Arithmetic mean of `xs` (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over a canonical encoding of every value of every row, in row
/// order: equal digests mean bit-identical results (floats by bit pattern).
pub fn digest(batch: &RecordBatch) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&(batch.schema().arity() as u64).to_le_bytes());
    eat(&(batch.rows() as u64).to_le_bytes());
    for i in 0..batch.rows() {
        for v in batch.row(i) {
            match v {
                Value::Int(x) => {
                    eat(&[0]);
                    eat(&x.to_le_bytes());
                }
                Value::Float(x) => {
                    eat(&[1]);
                    eat(&x.to_bits().to_le_bytes());
                }
                Value::Str(s) => {
                    eat(&[2]);
                    eat(&(s.len() as u64).to_le_bytes());
                    eat(s.as_bytes());
                }
                Value::Bool(b) => eat(&[3, u8::from(b)]),
            }
        }
    }
    h
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| CiError::Storage(format!("reading /proc/self/status: {e}")))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| CiError::Storage("no VmHWM line in /proc/self/status".into()))
}

/// Host and data facts recorded with every result, one `# ` line each.
pub fn print_facts(catalog: &Catalog) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# host: nproc={nproc} workers={} rustc=\"{}\" scale={}",
        crate::workload::WORKERS,
        env!("PERFBENCH_RUSTC"),
        crate::workload::SCALE
    );
    if nproc < crate::workload::WORKERS {
        println!("# warning: fewer cores than workers; parallel timings do not bind");
    }
    let mut tables: Vec<_> = catalog.tables().collect();
    tables.sort_by_key(|(name, _)| *name);
    for (name, e) in tables {
        println!(
            "# data: table={name} rows={} partitions={} decoded_bytes={} encoded_bytes={}",
            e.table.row_count(),
            e.table.partition_count(),
            e.table.total_bytes(),
            e.table.total_encoded_bytes()
        );
    }
}

/// One metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Renders the result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[Metric],
) -> Result<String> {
    let mut body = Vec::with_capacity(metrics.len());
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(CiError::Exec(format!(
                "metric {name} is not finite: {value}"
            )));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_rejects_non_finite() {
        assert!(result_json(true, 1, 0, &[("x", f64::NAN, "ms")]).is_err());
        let line = result_json(true, 2, 0, &[("x", 1.5, "ms")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {\"x\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
