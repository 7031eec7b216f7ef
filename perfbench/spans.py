"""Span recorder for the traced benchmark run.

The recorder wraps named pretsums functions from outside the library: each
wrapped call becomes one span (name, start, end, parent, query id).  Spans
stay in memory and are written once, when the run ends.  Untraced runs never
construct a recorder, so they execute the library unmodified.

A function imported by name into another pretsums module (``expsum`` and
``circle`` import ``select_global_frame`` and ``eval_range``) is replaced in
every module that holds it, so internal calls are recorded too.  Methods are
replaced on their class.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

# Public layer boundaries, as "<module>.<qualname>" under the pretsums package.
TARGETS = (
    "sieve.get_sieve",
    "multfunc.eval_range",
    "multfunc.mean_value",
    "multfunc.KappaFunction.eval",
    "multfunc.k_factor",
    "characters.enumerate_characters",
    "characters.DirichletCharacter.gauss_sum",
    "characters.pseudo_gauss",
    "pretentious.rank_characters",
    "pretentious.select_frames",
    "pretentious.select_t",
    "pretentious.dirichlet_modulus",
    "pretentious.select_global_frame",
    "oscint.I_value",
    "oscint.I_quadrature",
    "expsum.predict_theorem1",
    "expsum.direct_sum_rational",
    "expsum.classify_alpha",
    "expsum.exponential_sum_grid",
    "expsum.minor_arc_energy",
    "circle.predict_triples",
    "circle.triple_sum_fft",
    "circle.euler_factor_E",
    "circle.estar",
    "circle.estar_N",
    "circle.archimedean_E",
    "circle.signpattern_density",
    "cli.main",
    "funcspec.parse_multfunc",
)

MODULES = tuple(dict.fromkeys(t.split(".", 1)[0] for t in TARGETS))

# lru_cache-backed layers whose hit ratio is reported.
CACHED = ("pretentious.select_t", "pretentious.select_global_frame")


class SpanRecorder:
    """Collects spans from wrapped calls; ``active`` gates recording."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.queries: list[object] = []
        self.query = None
        self.active = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: list[int] = []  # span stack of the installing thread
        self._undo: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            stack = rec._stack()
            # A span opened on a worker thread (the scan row pool) belongs to
            # the span its submitting thread is blocked in.
            parent = stack[-1] if stack else (rec._root[-1] if rec._root else -1)
            with rec._lock:
                idx = len(rec.names)
                rec.names.append(name)
                rec.starts.append(time.perf_counter())
                rec.ends.append(float("nan"))
                rec.parents.append(parent)
                rec.queries.append(rec.query)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec.ends[idx] = time.perf_counter()

        return traced

    def install(self) -> None:
        """Replace every target in all loaded pretsums modules."""
        self._root = self._stack()
        mods = [m for k, m in list(sys.modules.items()) if k == "pretsums" or k.startswith("pretsums.")]
        for target in TARGETS:
            modname, qual = target.split(".", 1)
            owner = sys.modules[f"pretsums.{modname}"]
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(owner, cls_name)
                orig = vars(cls)[meth]
                self.originals[target] = orig
                self._set(cls, meth, self.wrap(target, orig))
                continue
            orig = getattr(owner, qual)
            self.originals[target] = orig
            wrapped = self.wrap(target, orig)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, attr, wrapped)

    def _set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, old in reversed(self._undo):
            setattr(obj, attr, old)
        self._undo.clear()
        self.active = False

    def cache_counts(self) -> dict[str, tuple[int, int]]:
        """(hits, misses) of each cached layer; (0, 0) when it has no cache_info."""
        out = {}
        for target in CACHED:
            info = getattr(self.originals.get(target), "cache_info", None)
            out[target] = (info().hits, info().misses) if info else (0, 0)
        return out

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the union of its children's intervals."""
        n = len(self.names)
        children: dict[int, list[int]] = {}
        for i, p in enumerate(self.parents):
            if p >= 0:
                children.setdefault(p, []).append(i)
        out = []
        for i in range(n):
            s, e = self.starts[i], self.ends[i]
            covered = 0.0
            cur_lo = cur_hi = None
            for c in sorted(children.get(i, ()), key=lambda k: self.starts[k]):
                lo, hi = max(self.starts[c], s), min(self.ends[c], e)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out.append((e - s) - covered)
        return out

    def summary(self) -> dict[str, float]:
        """Per-layer metrics: calls and self seconds per target, self seconds per module."""
        selfs = self.self_times()
        calls = {t: 0 for t in TARGETS}
        self_s = {t: 0.0 for t in TARGETS}
        for name, st in zip(self.names, selfs):
            calls[name] += 1
            self_s[name] += st
        out: dict[str, float] = {}
        for t in TARGETS:
            out[f"{t}.calls"] = calls[t]
            out[f"{t}.self_s"] = self_s[t]
        for m in MODULES:
            out[f"{m}.self_s"] = sum(v for t, v in self_s.items() if t.startswith(m + "."))
        return out

    def write(self, path) -> None:
        """One tab-separated line per span: id, parent, query, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tquery\tname\tstart\tend\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i}\t{self.parents[i]}\t{self.queries[i]}\t{name}\t"
                    f"{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n"
                )
