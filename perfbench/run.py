"""pretsums benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload predict --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each run starts fresh worker processes (``worker.py``) with the library's
defaults: one client, one query at a time, ``PRETSUMS_THREADS`` unset.

``--trace 0`` reports the end-to-end metrics: set-up time (median over
several fresh processes), checked results per second, median and tail query
latency, peak RSS and the checked fraction.  Times are CPU seconds of the
worker process, which runs its queries on one thread at a time: on an idle
core they equal wall time, and on a shared host they leave out the time the
host gives to others.  The wall-clock figures are printed as info.
``--trace 1`` runs the same seeded stream twice, untraced and then traced,
and reports per-layer calls and self time, cache hit ratios and the tracing
overhead.  Human-readable lines come first; the last stdout line is one JSON
object.  ``--workload all`` runs every workload and prints one object keyed by
workload.  ``--smoke`` uses toy sizes, for the harness's own test.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("predict", "oracle", "scan")
SETUP_SAMPLES = 3  # fresh processes per run whose set-up time is the median
RUN_LIMIT_S = 170.0  # a workload's run gives up, printing no result, after this long
# A run completes 5-17 queries, so the highest percentile with ten samples
# beyond it would sit below the median; p90 is reported with its count.
TAIL_PERCENTILE = 90


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion, or kill it at ``deadline`` (monotonic)."""
    env = dict(os.environ)
    env.pop("PRETSUMS_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    # pretsums makes no BLAS calls; one BLAS thread keeps idle BLAS threads'
    # spinning out of the worker's CPU time.
    env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def save(result: dict, filename: str) -> None:
    """Keep a worker's full result (every query record) beside the spans."""
    OUT.mkdir(exist_ok=True)
    (OUT / filename).write_text(json.dumps(result, indent=1))


def tail_latency(durations: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the nearest-rank TAIL_PERCENTILE."""
    xs = sorted(durations)
    i = max(0, math.ceil(TAIL_PERCENTILE / 100.0 * len(xs)) - 1)
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs) - 1 - i


def query_times(times: list[float], ok: int) -> dict:
    tail, _, _ = tail_latency(times)
    return {"results_per_s": ok / sum(times), "latency_p50_s": statistics.median(times), "latency_tail_s": tail}


def end_to_end(name: str, seed: int, seconds: float, scale: str, deadline: float) -> tuple[dict, dict]:
    base = ["--workload", name, "--seed", str(seed), "--scale", scale]
    setups = [spawn([*base, "--phase", "setup"], deadline) for _ in range(SETUP_SAMPLES - 1)]
    res = spawn([*base, "--phase", "run", "--seconds", str(seconds)], deadline)
    setups.append(res)
    save(res, f"{name}-{seed}-trace0.json")
    recs = res["records"]
    ok = sum(r["ok"] for r in recs)
    cpu = query_times([r["cpu"] for r in recs], ok)
    wall = query_times([r["dt"] for r in recs], ok)
    _, pct, beyond = tail_latency([r["cpu"] for r in recs])
    metrics = {
        "results_per_s": (cpu["results_per_s"], "1/s"),
        "latency_p50_s": (cpu["latency_p50_s"], "s"),
        "latency_tail_s": (cpu["latency_tail_s"], "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "checked_frac": (ok / len(recs), "fraction"),
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
    }
    wall["setup_s"] = statistics.median(r["setup_wall_s"] for r in setups)
    info = {
        "queries": len(recs),
        "failed_frac": (len(recs) - ok) / len(recs),
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "wall_clock": wall,
        "setup_samples": [r["setup_s"] for r in setups],
        "loop_wall_s": res["loop_wall_s"],
        "largest_array": res["largest_array"],
        "failures": [f"{r['label']}: {r['error']}" for r in recs if not r["ok"]][:5],
    }
    return {"attempted": len(recs), "failed": len(recs) - ok, "metrics": metrics}, info


def per_layer(name: str, seed: int, seconds: float, scale: str, deadline: float) -> tuple[dict, dict]:
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{name}-{seed}.tsv"
    base = ["--workload", name, "--seed", str(seed), "--scale", scale, "--seconds", str(seconds)]
    plain = spawn(base, deadline)
    traced = spawn([*base, "--trace", "1", "--spans", str(spans_file)], deadline)
    save(plain, f"{name}-{seed}-trace1-plain.json")
    save(traced, f"{name}-{seed}-trace1-traced.json")
    if [r["label"] for r in plain["records"]] != [r["label"] for r in traced["records"]]:
        raise RuntimeError("untraced and traced runs drew different queries")
    overhead = sum(r["cpu"] for r in traced["records"]) / sum(r["cpu"] for r in plain["records"])
    metrics = {}
    for key, value in traced["layers"].items():
        metrics[key] = (value, "count" if key.endswith(".calls") else "s")
    for key, (hits, misses) in traced["cache"].items():
        metrics[f"{key}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    recs = plain["records"] + traced["records"]
    failed = sum(not r["ok"] for r in recs)
    query_s = sum(r["dt"] for r in traced["records"])
    modules = sorted({key.split(".")[0] for key in traced["layers"]})
    info = {
        "traced_query_s": query_s,
        "module_self_share": {m: traced["layers"][f"{m}.self_s"] / query_s for m in modules},
        "spans_file": str(spans_file.relative_to(ROOT)),
        "failures": [f"{r['label']}: {r['error']}" for r in recs if not r["ok"]][:5],
    }
    return {"attempted": len(recs), "failed": failed, "metrics": metrics}, info


def run_context() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        l3 = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10).stdout)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        l3 = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "l3_bytes": l3,
        "PRETSUMS_THREADS": "unset in workers",
        "caller_PRETSUMS_THREADS": os.environ.get("PRETSUMS_THREADS"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="toy sizes (harness self-test)")
    args = ap.parse_args()
    if not (ROOT / "src" / "pretsums" / "__init__.py").is_file():
        print(f"no pretsums sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    scale = "smoke" if args.smoke else "full"
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ctx = run_context()
    print(json.dumps({"context": ctx}))
    results = {}
    for name in names:
        measure = per_layer if args.trace else end_to_end
        try:
            res, info = measure(name, args.seed, args.seconds, scale, time.monotonic() + RUN_LIMIT_S)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        if "largest_array" in info and ctx["l3_bytes"]:
            info["largest_array"]["share_of_l3"] = info["largest_array"]["bytes"] / ctx["l3_bytes"]
        print(json.dumps({"workload": name, "info": info}))
        for key, (value, unit) in res["metrics"].items():
            print(f"{name:8s} {key:48s} {value:14.6g} {unit}")
        if not args.trace:
            print(f"{name:8s} {'failed_frac':48s} {info['failed_frac']:14.6g} fraction")
        results[name] = {
            "correct": res["failed"] == 0,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
        }
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
