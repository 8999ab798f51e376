#!/usr/bin/env python3
"""Smoke test for the end-to-end benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json once untraced and once traced, with a
one-second budget (each run still completes its minimum query count), and
checks that:

* the last stdout line is the result object with exactly the keys
  `correct`, `attempted`, `failed` and `metrics`;
* every metric BENCHMARK.json names is emitted, with its unit and a finite
  value: the end-to-end ones untraced, the per-layer ones traced;
* each per-layer metric is non-zero on every workload where its layer runs;
* the traced run reproduced the untraced run's per-query Dollars and result
  digests bit-exactly, and the storage probe read identical batches from
  every tier;
* in a directory holding only BENCHMARK.json and the benchmark's files, the
  benchmark fails without printing a result.

Exits 0 when every check passes.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = ["python3", os.path.join("perfbench", "run.py")]

ALL = {"cab_mix", "point_plan", "tiered_tune"}
TIERED = {"point_plan", "tiered_tune"}
JOINS = {"cab_mix", "tiered_tune"}
# Per-layer metrics that must be non-zero, by the workloads where their
# layer does work. Metrics not listed may legitimately read zero.
MUST_RUN = {
    "sql.parse_us": ALL,
    "plan.bind_us": ALL,
    "optimizer.plan_us": ALL,
    "optimizer.estimates": ALL,
    "optimizer.variants": ALL,
    "monitor.init_us": ALL,
    "cost.latency_qerror_p50": ALL,
    "cost.dollars_qerror_p50": ALL,
    "exec.execute_ms": ALL,
    "exec.op_ms.filter": ALL,
    "exec.op_ms.probe": JOINS,
    "exec.op_ms.build": JOINS,
    "exec.op_ms.agg": JOINS,
    "exec.op_ms.sort": ALL,
    "exec.kernel_share": ALL,
    "exec.unattributed_ms": ALL,
    "exec.morsels": ALL,
    "exec.exchange_wire_ratio": ALL,
    "storage.object_read_us_per_part": ALL,
    "storage.ssd_read_us_per_part": ALL,
    "storage.mem_read_us_per_part": ALL,
    "storage.bytes_written_per_user_byte": ALL,
    "cloud.tier_hit_ratio": TIERED,
    "cloud.tier_mem_hits": TIERED,
    "cloud.tier_ssd_hits": {"tiered_tune"},
    "cloud.tier_misses": {"tiered_tune"},
    "cloud.tier_promotions": {"tiered_tune"},
    "cloud.tier_evictions": {"tiered_tune"},
    "cloud.fetch_retries": {"tiered_tune"},
    "cloud.recovery_virtual_ms": {"tiered_tune"},
    "autotune.proposals_ms": ALL,
    "autotune.apply_ms": ALL,
    "core.submit_ms": ALL,
}
REPRO = re.compile(
    r"^# reproduction: (\d+) traced queries, (\d+) differ from the untraced "
    r"Dollars or digest; (\d+) storage probe mismatches$",
    re.M,
)


def run(args, cwd=ROOT):
    p = subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True, timeout=600)
    return p.returncode, p.stdout, p.stderr


def result(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_run(workload, trace, spec, failures):
    what = f"{workload} --trace {trace}"
    code, out, err = run(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)])
    if code != 0:
        failures.append(f"{what}: exit {code}: {err.strip()[-400:]}")
        return
    res = result(out)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{what}: result keys {sorted(res)}")
        return
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1):
        failures.append(f"{what}: attempted = {res['attempted']}")
    if not (isinstance(res["failed"], int) and 0 <= res["failed"] <= res["attempted"]):
        failures.append(f"{what}: failed = {res['failed']}")
    expected = spec["per_layer" if trace else "end_to_end"]
    metrics = res["metrics"]
    names = [m["name"] for m in expected]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        failures.append(f"{what}: missing {missing}, unexpected {extra}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            failures.append(f"{what}: {m['name']} unit {got.get('unit')!r}, want {m['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"{what}: {m['name']} value {value!r}")
        elif trace and workload in MUST_RUN.get(m["name"], ()) and value == 0:
            failures.append(f"{what}: {m['name']} is 0 though its layer runs here")
    if trace:
        found = REPRO.search(out)
        if not found:
            failures.append(f"{what}: no reproduction line")
        else:
            traced, differ, probe = map(int, found.groups())
            if traced < 1 or differ or probe:
                failures.append(f"{what}: {traced} traced, {differ} unreproduced, {probe} probe mismatches")
    print(f"ok   {what}" if not any(f.startswith(what + ":") for f in failures) else f"FAIL {what}")


def check_bare_directory(failures):
    """Only BENCHMARK.json and perfbench/: the benchmark must fail cleanly."""
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            os.path.join(ROOT, "perfbench"),
            os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("target", "__pycache__"),
        )
        code, out, _ = run(["--workload", "cab_mix", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        printed = any(l.startswith("{") for l in out.splitlines())
        if code == 0 or printed:
            failures.append(f"bare directory: exit {code}, printed a result: {printed}")
        print("ok   bare directory fails cleanly" if code != 0 and not printed else "FAIL bare directory")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(w["name"], trace, spec, failures)
    check_bare_directory(failures)
    for f in failures:
        print("  " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
