"""Benchmark of the ``redhom`` CLI: three workloads, closed loop, one client.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {spaces,geodesic,transport} --seed N \
        --seconds S --trace {0,1} [--smoke]

Each pass runs the workload's fixed list of CLI invocations one at a time,
each in a fresh worker process (``worker.py``) that imports ``redhom``
and times ``redhom.cli.main(argv)``.  Passes repeat until ``--seconds``
is used up (at least two, so artifacts can be compared across passes).
After every pass the artifacts are checked, untimed, by ``oracles.py``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics derived from
the spans of ``spans.py``.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A readable report
and the environment come before it, and the full record (per-invocation
times, digests, fingerprints, spans) is written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

# Workers and this process both use one BLAS thread; set before numpy loads.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, "_work")

INVOCATION_TIMEOUT_S = 120.0
# A run must end within 180 s; no pass starts that could end after this.
HARD_BUDGET_S = 140.0
MIN_PASSES = 2

E2E_UNITS = {"setup_s": "s", "pass_rel": "ratio", "peak_rss_mb": "MB"}


# -- running -----------------------------------------------------------------------


def worker_env() -> dict:
    """The caller's environment with ``src`` on the path and one BLAS thread.

    The bytecode cache is allowed and stdout is buffered, as for a CLI user,
    whatever the caller's environment says.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    return env


def run_invocation(inv, pass_dir: str, index: int, trace: bool, env: dict) -> dict:
    stem = os.path.join(pass_dir, f"inv{index}")
    cmd = [sys.executable, WORKER, stem + ".result.json", "1" if trace else "0", "--",
           *inv.argv]
    record = {"label": inv.label, "command": inv.command, "problems": []}
    with open(stem + ".stdout", "wb") as out, open(stem + ".stderr", "wb") as err:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=pass_dir, env=env, stdout=out, stderr=err,
                                  timeout=INVOCATION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            record["problems"].append(f"timed out after {INVOCATION_TIMEOUT_S} s")
            return record
    if proc.returncode != 0 or not os.path.isfile(stem + ".result.json"):
        with open(stem + ".stderr", "r", encoding="utf-8", errors="replace") as handle:
            tail = handle.read()[-400:]
        record["problems"].append(f"worker exited {proc.returncode}: {tail}")
        return record
    with open(stem + ".result.json", "r", encoding="utf-8") as handle:
        result = json.load(handle)
    record.update(setup_wall_s=result["ready_monotonic"] - spawned, main_s=result["main_s"],
                  setup_cpu_s=result["setup_cpu_s"], main_cpu_s=result["main_cpu_s"],
                  numpy_cpu_s=result["numpy_cpu_s"],
                  exit_code=result["exit_code"], maxrss_kb=result["maxrss_kb"],
                  spans=result["spans"])
    if result["exit_code"] != 0:
        record["problems"].append(f"exit code {result['exit_code']} {result['error'] or ''}")
    return record


def run_pass(invs, work_dir: str, number: int, trace: bool, env: dict, grams: dict,
             reference: dict) -> dict:
    pass_dir = os.path.join(work_dir, f"pass{number}")
    os.makedirs(pass_dir)
    records = []
    for index, inv in enumerate(invs):
        record = run_invocation(inv, pass_dir, index, trace, env)
        record["invocation_id"] = f"p{number}i{index}"
        records.append(record)
    for inv, record in zip(invs, records):
        if record["problems"]:
            continue
        problems, digests, fingerprint = oracles.verify(inv, pass_dir, grams)
        previous = reference.setdefault(inv.label, digests)
        problems += [f"{name} differs from the first pass" for name in digests
                     if previous.get(name) != digests[name]]
        record.update(problems=problems, digests=digests, fingerprint=fingerprint)
    shutil.rmtree(pass_dir)
    timed = [r for r in records if "main_s" in r]
    return {"number": number, "traced": trace, "records": records,
            "pass_s": sum(r["main_s"] for r in timed),
            "pass_cpu_s": sum(r["main_cpu_s"] for r in timed),
            # each call in units of its own worker's interpreter + numpy start-up
            "pass_rel": sum(r["main_s"] / r["numpy_cpu_s"] for r in timed)}


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    work_dir = os.path.join(WORK, f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    scale = workloads.SMOKE if smoke else workloads.FULL
    invs, definitions = workloads.build(workload, seed, os.path.join(work_dir, "inputs"), scale)
    try:
        needed = {inv.space for inv in invs if inv.command in ("geodesic", "transport")}
        grams = oracles.metric_grams({k: definitions[k] for k in needed}, SRC)
        env = worker_env()
        # fill the bytecode cache once, as an installed package would have it
        subprocess.run([sys.executable, "-c", "import redhom.cli"], env=env, check=True,
                       timeout=INVOCATION_TIMEOUT_S)
        passes, reference = [], {}
        begin = time.monotonic()
        while True:
            traced = trace and len(passes) % 2 == 1
            start = time.monotonic()
            passes.append(run_pass(invs, work_dir, len(passes), traced, env, grams, reference))
            passes[-1]["wall_s"] = time.monotonic() - start
            elapsed = time.monotonic() - begin
            longest = max(p["wall_s"] for p in passes[-2:])
            if len(passes) >= MIN_PASSES and (elapsed + longest > seconds
                                              or elapsed + longest > HARD_BUDGET_S):
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return invs, passes


# -- metrics -----------------------------------------------------------------------


def quantile_summary(values) -> dict:
    """Median, the highest percentile with ten samples beyond it, and the count."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values) if values else float("nan"), "n": n}
    p = math.floor(100 * (1 - 10 / n)) if n else 0
    if p > 50:
        out[f"p{p}"] = float(np.percentile(values, p))
    return out


def end_to_end(invs, passes) -> tuple:
    """The gated metrics (all workloads) and the readable per-workload table."""
    plain = [p for p in passes if not p["traced"]]
    records = [r for p in plain for r in p["records"] if "main_s" in r]
    setup_cpu = [r["setup_cpu_s"] for r in records]
    metrics = {
        "setup_s": statistics.median(setup_cpu),
        "pass_rel": statistics.median(p["pass_rel"] for p in plain),
        "peak_rss_mb": max(r["maxrss_kb"] for r in records) / 1024.0,
    }
    table = {
        "setup_s": ("s", quantile_summary(setup_cpu)),
        "setup_wall_s": ("s", quantile_summary([r["setup_wall_s"] for r in records])),
        "setup_numpy_s": ("s", quantile_summary([r["numpy_cpu_s"] for r in records])),
        "pass_rel": ("ratio", quantile_summary([p["pass_rel"] for p in plain])),
        "pass_s": ("s", quantile_summary([p["pass_s"] for p in plain])),
        "pass_cpu_s": ("s", quantile_summary([p["pass_cpu_s"] for p in plain])),
    }

    def per_pass(command):
        return [sum(r["main_s"] for r in p["records"]
                    if r["command"] == command and "main_s" in r) for p in plain]

    def per_call(command, unit_count):
        return [r["main_s"] * 1e6 / unit_count(inv)
                for p in plain for inv, r in zip(invs, p["records"])
                if inv.command == command and "main_s" in r]

    commands = {inv.command for inv in invs}
    if "check" in commands:
        table["check_s"] = ("s", quantile_summary(per_pass("check")))
    if "tensors" in commands:
        table["tensors_s"] = ("s", quantile_summary(per_pass("tensors")))
    if "geodesic" in commands:
        table["geodesic_us_per_step"] = ("us", quantile_summary(
            per_call("geodesic", lambda inv: inv.steps)))
    if "convergence" in commands:
        table["convergence_s"] = ("s", quantile_summary(per_pass("convergence")))
    if "transport" in commands:
        table["transport_us_per_seed_step"] = ("us", quantile_summary(
            per_call("transport", lambda inv: inv.seeds * inv.steps)))
    table["peak_rss_mb"] = ("MB", {"max": metrics["peak_rss_mb"], "n": len(records)})
    attempted = sum(len(p["records"]) for p in passes)
    failed = sum(bool(r["problems"]) for p in passes for r in p["records"])
    table["error_rate"] = ("ratio", {"value": failed / attempted, "n": attempted})
    return metrics, table


LAYER_TIMES = [f"{short}.{name}.ms" for short, names in spans.TARGETS.items()
               for name in names if short != "cli"]
COUNTED = ("algebra.expm", "reductive.check_ad_H_invariance_bilinear",
           "reductive.check_metric_invariance", "connection.AlphaMap", "connection.curvature",
           "connection.sectional_curvature", "transport.geodesic",
           "transport.parallel_transport")
LAYERS = [short for short in spans.TARGETS if short != "cli"]


def pass_layers(invs, records) -> tuple:
    """Per-layer metrics of one traced pass (sums over its invocations) and per-invocation
    span summaries."""
    totals, per_inv = {}, []
    battery, named = 0, 0
    nested = 0
    for inv, record in zip(invs, records):
        summary = spans.summarize(record.get("spans") or [])
        per_inv.append(summary)
        for name, entry in summary.items():
            slot = totals.setdefault(name, {"ms": 0.0, "self_ms": 0.0, "calls": 0, "amount": 0})
            for key in slot:
                slot[key] += entry[key]
        if inv.named:
            named += 1
            battery += summary.get("catalog.diagnostic_battery", {}).get("calls", 0)
        nested += spans.nested_calls(record.get("spans") or [],
                                     "transport.geodesic_convergence", "transport.geodesic")

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    def ratio(num, den, factor):
        return num * factor / den if den else 0.0

    out = {}
    for metric in LAYER_TIMES:
        out[metric] = float(get(metric[:-3], "ms"))
    for name in COUNTED:
        out[name + ".calls"] = get(name, "calls")
    out["catalog.diagnostic_battery.calls_per_invocation"] = battery / named if named else 0.0
    out["transport.geodesic.steps"] = get("transport.geodesic", "amount")
    out["transport.geodesic.us_per_step"] = ratio(
        get("transport.geodesic", "ms"), get("transport.geodesic", "amount"), 1e3)
    out["transport.geodesic_convergence.geodesic_calls"] = nested
    out["transport.parallel_transport.us_per_seed_step"] = ratio(
        get("transport.parallel_transport", "ms"),
        get("transport.parallel_transport", "amount"), 1e3)
    for kind in ("csv", "json"):
        name = f"serialize.trajectory_{kind}"
        out[name + ".ns_per_value"] = ratio(get(name, "ms"), get(name, "amount"), 1e6)
    out["serialize.bytes_written"] = get("serialize.atomic_write_text", "amount")
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = sum(e["self_ms"] for n, e in totals.items()
                                      if n.startswith(layer + "."))
    out["cli.main.self_ms"] = get(spans.ROOT, "self_ms")
    main_ms = get(spans.ROOT, "ms")
    out["trace.self_time_sum_ratio"] = ratio(
        sum(e["self_ms"] for e in totals.values()), main_ms, 1.0)
    return out, per_inv


def layer_unit(name: str) -> str:
    if name.endswith(".ms") or name.endswith("self_ms"):
        return "ms"
    if name.endswith(".us_per_step") or name.endswith(".us_per_seed_step"):
        return "us"
    if name.endswith(".ns_per_value"):
        return "ns"
    if name == "serialize.bytes_written":
        return "bytes"
    if name.startswith("trace."):
        return "ratio"
    return "count"


def invocation_facts(summary) -> dict:
    """Time in ``main()``, the ``serialize`` share of it, RK4 step cost, battery calls."""
    main_ms = summary.get(spans.ROOT, {}).get("ms", 0.0)
    serial = sum(e["self_ms"] for n, e in summary.items() if n.startswith("serialize."))
    geo = summary.get("transport.geodesic")
    return {
        "main_ms": main_ms,
        "serialize_share": serial / main_ms if main_ms else 0.0,
        "geodesic_us_per_step": geo["ms"] * 1e3 / geo["amount"] if geo else None,
        "battery_calls": summary.get("catalog.diagnostic_battery", {}).get("calls", 0),
    }


def per_layer(invs, passes) -> tuple:
    """Per-layer metrics (medians over traced passes) and per-invocation facts."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    rows = [pass_layers(invs, p["records"]) for p in traced]
    metrics = {name: statistics.median(row[0][name] for row in rows) for name in rows[0][0]}
    metrics["trace.overhead"] = (statistics.median(p["pass_s"] for p in traced)
                                 / statistics.median(p["pass_s"] for p in plain) - 1.0)
    facts = []
    for index in range(len(invs)):
        samples = [invocation_facts(row[1][index]) for row in rows]
        facts.append({key: None if samples[0][key] is None
                      else statistics.median(f[key] for f in samples) for key in samples[0]})
    return metrics, facts


# -- reporting ---------------------------------------------------------------------


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "loop": "closed, 1 client, 1 fresh worker process per invocation",
    }


def print_table(workload, table):
    print(f"# workload {workload}: end-to-end metrics (untraced passes)")
    for name, (unit, summary) in table.items():
        parts = ", ".join(f"{k} {v:.6g}" if isinstance(v, float) else f"{k} {v}"
                          for k, v in summary.items())
        print(f"  {name:<28} [{unit}] {parts}")


def print_trace(invs, facts):
    print("# traced passes, per invocation (medians)")
    for inv, fact in zip(invs, facts):
        us = fact["geodesic_us_per_step"]
        step = f", geodesic {us:.1f} us/step" if us is not None else ""
        print(f"  {inv.label:<26} main {fact['main_ms']:9.1f} ms, "
              f"serialize {100 * fact['serialize_share']:5.1f}%, "
              f"battery calls {fact['battery_calls']:g}{step}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for checking the harness itself")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "redhom", "cli.py")):
        print(f"no redhom sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    invs, passes = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                                 args.smoke)
    if not any("main_s" in r for p in passes if not p["traced"] for r in p["records"]):
        print("no invocation ran to completion; nothing to measure", file=sys.stderr)
        return 1
    attempted = sum(len(p["records"]) for p in passes)
    failures = [(p["number"], r["label"], r["problems"])
                for p in passes for r in p["records"] if r["problems"]]
    metrics_e2e, table = end_to_end(invs, passes)

    env_info = environment()
    print(f"# environment {json.dumps(env_info, sort_keys=True)}")
    print_table(args.workload, table)
    for number, label, problems in failures:
        print(f"# FAILED pass {number} {label}: {'; '.join(problems)}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "environment": env_info,
              "end_to_end": metrics_e2e, "table": table,
              "invocations": [inv.label for inv in invs],
              "passes": passes}
    if args.trace:
        metrics, facts = per_layer(invs, passes)
        print_trace(invs, facts)
        record["per_layer"] = metrics
        record["per_invocation"] = dict(zip((inv.label for inv in invs), facts))
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = metrics_e2e
        units = E2E_UNITS
    os.makedirs(RESULTS, exist_ok=True)
    out = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    print(f"# full record: {os.path.relpath(out, ROOT)}")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
