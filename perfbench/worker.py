"""One benchmark process: set up a workload, then run its queries.

    python3 perfbench/worker.py --workload predict --seed 1 --phase run --seconds 30

``--phase setup`` stops after set-up and reports its time only.  ``--phase
run`` then runs a closed loop, one query at a time, over the number of whole
blocks that ``--seconds`` fixes, checking every result outside the timed
call.  The last stdout line is one JSON object with the per-query
records.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def run_query(query, qid: int, rec, hits: dict) -> dict:
    """Time one query (CPU and wall), then check its result outside the timed call."""
    from reference import CheckFailed

    err = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if rec:
            before = rec.cache_counts()
            rec.query = qid
            rec.active = True
        t, c = time.perf_counter(), time.process_time()
        try:
            result = query.run()
        except Exception:  # a failed query is recorded, not fatal
            err = traceback.format_exc(limit=-1).strip().splitlines()[-1]
        dt, cpu = time.perf_counter() - t, time.process_time() - c
        if rec:
            rec.active = False
            for k, (h, m) in rec.cache_counts().items():
                acc = hits.setdefault(k, [0, 0])
                acc[0] += h - before[k][0]
                acc[1] += m - before[k][1]
    if err is None and caught:
        err = f"warning: {caught[0].message}"
    if err is None:
        try:
            query.check(result)
        except CheckFailed as exc:
            err = f"check: {exc}"
        except Exception:
            err = "check raised: " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
    return {"label": query.label, "dt": dt, "cpu": cpu, "ok": err is None, "error": err}


def run(args) -> dict:
    t0, c0 = time.perf_counter(), time.process_time()
    sys.path.insert(0, str(SRC))
    import pretsums  # noqa: F401  (the package under test, from this checkout)
    import pretsums.characters, pretsums.circle, pretsums.cli, pretsums.expsum  # noqa: E401,F401
    import pretsums.funcspec, pretsums.multfunc, pretsums.oscint, pretsums.pretentious  # noqa: E401,F401

    if Path(pretsums.__file__).resolve().parent != SRC / "pretsums":
        raise SystemExit(f"pretsums imported from {pretsums.__file__}, not from {SRC}")
    from reference import Reference
    from workloads import Workload

    rec = None
    if args.trace:
        from spans import SpanRecorder

        rec = SpanRecorder()
        rec.install()
        rec.query = "setup"
        rec.active = True
    wl = Workload(args.workload, args.seed, args.scale)
    stream = wl.setup()
    block = next(stream)
    setup_s, setup_wall_s = time.process_time() - c0, time.perf_counter() - t0
    if rec:
        rec.active = False
    out: dict = {"setup_s": setup_s, "setup_wall_s": setup_wall_s}
    if args.phase == "setup":
        return out

    wl.ref = Reference(wl.largest_x())
    records = []
    hits: dict[str, list[int]] = {}
    loop_start = time.perf_counter()
    for i in range(wl.blocks(args.seconds)):
        if i:
            block = next(stream)
        for query in block:
            records.append(run_query(query, len(records), rec, hits))
    out.update(
        records=records,
        loop_wall_s=time.perf_counter() - loop_start,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        largest_array=wl.largest_array(),
    )
    if rec:
        rec.uninstall()
        out["layers"] = rec.summary()
        out["cache"] = hits
        if args.spans:
            rec.write(args.spans)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--phase", choices=("setup", "run"), default="run")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    ap.add_argument("--spans", help="file for the traced run's spans")
    args = ap.parse_args()
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
