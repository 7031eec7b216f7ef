"""Seeded query streams for the three benchmark workloads.

The seed picks functions and numerators.  Query kinds, their order, the
sizes and the moduli are fixed, so the cost of a run is steady from seed to
seed.  A stream is an endless sequence of blocks (lists of queries).  A run
takes a number of whole rounds fixed by ``--seconds`` alone (``rounds``), so
every run of a workload draws the same query mix, however fast the host is.

Why each workload exists:

* predict - frame selection (``pretentious``) dominates: two triple-count
  predictions at x = 10^5, then cold main-term predictions for five
  functions at x = 10^5 or 10^6.  Each function is queried at two numerators
  of one modulus, then at a new modulus, so the select_t / eval_range caches
  see both hits and misses.
* oracle - only the exact oracles (direct sums, FFT energy, triple and
  sign-pattern convolutions); ``pretentious`` is never called, so frame
  optimisations must leave it unchanged.  The 2^20 energy grid (134 MB of
  complex128) is larger than a 105 MB L3; the 2^18 one fits.
* scan - ``pretsums expsum scan`` through ``cli.main``: per-row arc
  classification, main-term assembly and CSV rendering, after one global
  frame selection (27 select_t calls) per fresh function.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from reference import Reference, require, scan_reference, sign_weights

WORKLOADS = ("predict", "oracle", "scan")

SIZES = {
    "full": {
        "predict_x": (10**5, 10**6),
        "triple_x": 100_003,
        "direct_x": 2 * 10**6,
        "energy_x": (2**18, 2**20),
        "sign_x": (10**5, 10**6),
        "fft_x": 10**6,
        "scan_x": 2**14,
        "scan_grid": 2**14 + 1,
        "sub_x": 2000,
    },
    # toy sizes for the harness's own smoke test
    "smoke": {
        "predict_x": (3000, 6000),
        "triple_x": 1201,
        "direct_x": 20_000,
        "energy_x": (2**10, 2**11),
        "sign_x": (2000, 4000),
        "fft_x": 5000,
        "scan_x": 512,
        "scan_grid": 513,
        "sub_x": 300,
    },
}

# One function per predict block, "{S}" a seeded randpm seed: the function,
# the index of its x in predict_x, and the moduli (q1, q2).  The block
# queries two numerators mod q1, then one mod q2.  The two heaviest queries
# (the triples and the 10^6 block) use functions without a random seed:
# select_t prunes its t grid by score, so the frame cost of a random
# function varies with it (a cold 10^6 query took 1.2-4.0 s, a triples
# query 10.6-14.7 s, across ten seeds; a cold 10^5 one 0.4-1.3 s).  The
# seed-free 10^5 blocks use moduli whose cold queries cost alike (1.1-1.3 s),
# so the median query falls among them whatever the random functions cost.
PREDICT_BLOCKS = (
    ("legendre:7", 1, (5, 7)),
    ("legendre:7", 0, (11, 13)),
    ("randpm:{S}", 0, (11, 13)),
    ("minus-all", 0, (11, 13)),
    ("randpm:{S}*char:11:3", 0, (12, 7)),
)
# complex-valued (a non-real character mod 5, E = 1 or 3, the seed picks)
TRIPLES_F = "legendre:7*char:5:{E}"
ORACLE_FUNCS = ("legendre:7", "randpm:{S}", "randpm:{S}*legendre:3", "minus-all")
ORACLE_MODULI = (7, 13)  # beta = 0 sum mod 7, beta != 0 sum mod 13
SCAN_FUNCS = ("randpm:{S}", "randpm:{S}*char:7:2", "randpm:{S}*legendre:5")
J_FRAMES = 3
# About the seconds one round of each stream takes, checks included, on a
# 2-core Xeon host with a 105 MB L3; and the blocks in a round: the predict
# round is the triples block and one block per PREDICT_BLOCKS entry.
ROUND_S = {"predict": 30.0, "oracle": 13.0, "scan": 6.0}
ROUND_BLOCKS = {"predict": 1 + len(PREDICT_BLOCKS), "oracle": 1, "scan": 1}


def rounds(name: str, seconds: float) -> int:
    """Whole rounds a run of ``seconds`` makes: a function of its arguments
    only, never of measured speed, so runs compare like with like."""
    return max(1, int(seconds // ROUND_S[name]))


@dataclass
class Query:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


def units(q: int) -> list[int]:
    return [a for a in range(1, q) if math.gcd(a, q) == 1]


def function_spec(rng: random.Random, template: str) -> str:
    """The mini-language spec with a seeded randpm seed filled in."""
    return template.format(S=rng.randrange(1, 1 << 30))


def probes(rng: random.Random, x: int, k: int = 3) -> list[float]:
    T = math.log(x)
    return [rng.uniform(-T, T) for _ in range(k)]


class Workload:
    """Library handles, the benchmark's reference, and the seeded stream."""

    def __init__(self, name: str, seed: int, scale: str = "full"):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        import pretsums.circle as circle
        import pretsums.cli as cli
        import pretsums.expsum as expsum
        import pretsums.funcspec as funcspec
        import pretsums.pretentious as pretentious

        self.circle, self.cli, self.expsum = circle, cli, expsum
        self.funcspec, self.pretentious = funcspec, pretentious
        self.name = name
        self.S = SIZES[scale]
        self.rng = random.Random(f"{name}:{seed}")
        self.ref: Reference | None = None

    def largest_x(self) -> int:
        S = self.S
        if self.name == "predict":
            return max(*S["predict_x"], S["triple_x"])
        if self.name == "oracle":
            return max(S["direct_x"], *S["energy_x"], *S["sign_x"], S["fft_x"])
        return S["scan_x"]

    def largest_array(self) -> dict:
        """The workload's largest array in bytes, computed from its sizes and
        the library's algorithms (not measured), beside the L3 size."""
        from scipy.fft import next_fast_len

        S = self.S
        if self.name == "oracle":
            M = int(next_fast_len(8 * (S["energy_x"][1] + 1)))
            nbytes, what = 16 * M, f"minor_arc_energy grid, {M} complex128"
        else:
            # select_t scores grid t x primes blocks of at most 4e6 float64
            x = max(S["predict_x"]) if self.name == "predict" else S["scan_x"]
            n_t = 2 * int(4.0 * math.log(x) ** 2) + 1
            n_p = int(((self.ref or Reference(x)).primes <= x).sum())
            rows = max(1, min(n_t, int(4e6 // n_p)))
            nbytes, what = 8 * rows * n_p, f"pretentious._log_modulus block, {rows} x {n_p} float64"
        return {"bytes": nbytes, "what": what, "label": "computed"}

    def setup(self) -> Iterator[list[Query]]:
        """The sieve for the largest x, then the seeded stream of query blocks."""
        from pretsums.sieve import get_sieve

        get_sieve(self.largest_x())
        return getattr(self, f"_{self.name}_stream")()

    def blocks(self, seconds: float) -> int:
        return rounds(self.name, seconds) * ROUND_BLOCKS[self.name]

    def parse(self, spec: str):
        return self.funcspec.parse_multfunc(spec)

    # -- predict -------------------------------------------------------------

    def _predict_stream(self) -> Iterator[list[Query]]:
        rng, S = self.rng, self.S
        while True:
            spec = TRIPLES_F.format(E=rng.choice((1, 3)))
            f = self.parse(spec)
            N = S["triple_x"]
            yield [
                self._triples_query(spec, f, mode, N, S["sub_x"] + rng.randrange(64), probes(rng, N))
                for mode in ("linear", "partition")
            ]
            self.ref.forget(f)
            for template, xi, (q1, q2) in PREDICT_BLOCKS:
                spec = function_spec(rng, template)
                f = self.parse(spec)
                x = S["predict_x"][xi]
                a1, a2 = rng.sample(units(q1), 2)
                a3 = rng.choice(units(q2))
                beta3 = rng.choice((-1, 1)) * rng.uniform(0.1, 1.0) / x
                yield [
                    self._predict_query(spec, f, a, q, beta, x, probes(rng, x))
                    for a, q, beta in ((a1, q1, 0.0), (a2, q1, 0.0), (a3, q2, beta3))
                ]
                self.ref.forget(f)

    def _predict_query(self, spec, f, a, q, beta, x, ts) -> Query:
        expsum, pretentious = self.expsum, self.pretentious

        def run():
            return expsum.predict_theorem1(f, a, q, beta, x, J_FRAMES)

        def check(rep):
            self.ref.check_rational_sum(rep.oracle, f, a, q, beta, x)
            require(all(map(math.isfinite, (rep.predicted.real, rep.predicted.imag))), "non-finite prediction")
            frames = pretentious.select_frames(f, x, q, J_FRAMES)
            require(
                [(fr.r, fr.t) for fr in frames] == [(tm.r, tm.t) for tm in rep.terms],
                "report terms do not match the selected frames",
            )
            for fr in frames:
                self.ref.check_frame(fr, f, x, ts)

        return Query(f"predict_theorem1 f={spec} a/q={a}/{q} beta={beta:.3g} x={x}", run, check)

    def _triples_query(self, spec, f, mode, N, x_sub, ts) -> Query:
        circle, pretentious = self.circle, self.pretentious

        def problem(n):
            if mode == "linear":
                return circle.TripleProblem(f, f, f, 1, 1, 1, x=n)
            return circle.TripleProblem(f, f, f, mode="partition", N=n)

        def run():
            return circle.predict_triples(problem(N))

        def check(rep):
            self.ref.check_count(rep.oracle_count, self.ref.triple_count((f, f, f), N, mode), N)
            density = rep.oracle_count / (N * N / 2.0)
            require(abs(rep.oracle_density - density) <= 1e-12 * abs(density), "density != count / (x^2/2)")
            sub = circle.triple_sum_fft(problem(x_sub))
            self.ref.check_count(sub, self.ref.triple_loop((f, f, f), x_sub, mode), x_sub)
            self.ref.check_frame(pretentious.select_global_frame(f, N), f, N, ts)

        return Query(f"predict_triples {mode} f=g=h={spec} x={N}", run, check)

    # -- oracle --------------------------------------------------------------

    def _oracle_stream(self) -> Iterator[list[Query]]:
        rng, S = self.rng, self.S
        block = 0
        while True:
            spec = function_spec(rng, ORACLE_FUNCS[block % len(ORACLE_FUNCS)])
            sspec = function_spec(rng, "randpm:{S}")  # +-1 valued, for sign patterns
            f, s = self.parse(spec), self.parse(sspec)
            q0, q1 = ORACLE_MODULI
            X = S["direct_x"]
            a0, a1 = rng.choice(units(q0)), rng.choice(units(q1))
            beta = rng.choice((-1, 1)) * rng.uniform(1.0, 50.0) / X
            eps_lo = tuple(rng.choice((-1, 1)) for _ in range(3))
            eps_hi = tuple(rng.choice((-1, 1)) for _ in range(3))
            sub = S["sub_x"] + rng.randrange(64)
            yield [
                self._direct_query(spec, f, a0, q0, 0.0, X),
                self._direct_query(spec, f, a1, q1, beta, X),
                self._energy_query(spec, f, S["energy_x"][0]),
                self._sign_query(sspec, s, eps_lo, S["sign_x"][0], sub),
                self._fft_query(spec, f, S["fft_x"], sub),
                self._energy_query(spec, f, S["energy_x"][1]),
                self._sign_query(sspec, s, eps_hi, S["sign_x"][1], sub),
                # Three kinds above the fft / direct-sum group and three below
                # it, so the median query falls inside that group, not at its
                # edge where whichever block ran in a faster spell decides it.
                self._energy_query(sspec, s, S["energy_x"][1]),
            ]
            self.ref.forget(f)
            self.ref.forget(s)
            block += 1

    def _direct_query(self, spec, f, a, q, beta, x) -> Query:
        expsum = self.expsum
        return Query(
            f"direct_sum_rational f={spec} a/q={a}/{q} beta={beta:.3g} x={x}",
            lambda: expsum.direct_sum_rational(f, a, q, beta, x),
            lambda got: self.ref.check_rational_sum(got, f, a, q, beta, x),
        )

    def _energy_query(self, spec, f, x) -> Query:
        expsum = self.expsum

        def check(rep):
            nonzero = int(self.ref.values(f, x)[1:].astype(bool).sum())
            require(rep.coefficient_energy == nonzero, f"coefficient energy {rep.coefficient_energy} != {nonzero}")
            err = abs(rep.total_energy - rep.coefficient_energy)
            require(err <= 1e-6 * nonzero, f"grid energy off by {err:.3g}")

        return Query(f"minor_arc_energy f={spec} x={x}", lambda: expsum.minor_arc_energy(f, x), check)

    def _sign_query(self, spec, s, eps, x, x_sub) -> Query:
        circle = self.circle
        fs = (s, s, s)

        def density(count, n):
            return count / (8.0 * (n * n / 2.0))

        def check(res):
            want = density(self.ref.triple_count(fs, x, "linear", sign_weights(self.ref, fs, eps, x)), x)
            require(abs(res[0] - want) <= 1e-12 * abs(want), f"sign-pattern density {res[0]!r} != {want!r}")
            got_sub = circle.signpattern_density(s, s, s, *eps, x_sub)[0]
            want_sub = density(self.ref.triple_loop(fs, x_sub, "linear", sign_weights(self.ref, fs, eps, x_sub)), x_sub)
            require(abs(got_sub - want_sub) <= 1e-12 * abs(want_sub), "sign-pattern density off on the sub-instance")

        return Query(
            f"signpattern_density f=g=h={spec} eps={eps} x={x}",
            lambda: circle.signpattern_density(s, s, s, *eps, x),
            check,
        )

    def _fft_query(self, spec, f, x, x_sub) -> Query:
        circle = self.circle

        def check(got):
            self.ref.check_count(got, self.ref.triple_count((f, f, f), x, "linear"), x)
            sub = circle.triple_sum_fft(circle.TripleProblem(f, f, f, 1, 1, 1, x=x_sub))
            self.ref.check_count(sub, self.ref.triple_loop((f, f, f), x_sub, "linear"), x_sub)

        return Query(
            f"triple_sum_fft f=g=h={spec} x={x}",
            lambda: circle.triple_sum_fft(circle.TripleProblem(f, f, f, 1, 1, 1, x=x)),
            check,
        )

    # -- scan ----------------------------------------------------------------

    def _scan_stream(self) -> Iterator[list[Query]]:
        rng, S = self.rng, self.S
        x, M = S["scan_x"], S["scan_grid"]
        k = 0
        while True:
            spec = function_spec(rng, SCAN_FUNCS[k % len(SCAN_FUNCS)])
            yield [self._scan_query(spec, x, M, sorted(rng.sample(range(M), 16)), probes(rng, x))]
            k += 1

    def _scan_query(self, spec, x, M, rows, ts) -> Query:
        import contextlib
        import io

        cli, pretentious = self.cli, self.pretentious
        argv = ["expsum", "scan", f"f={spec}", f"x={x}", f"grid={M}", "--format", "csv"]

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            return rc, buf.getvalue()

        def check(res):
            rc, text = res
            require(rc == 0, f"exit code {rc}")
            lines = text.splitlines()
            require(lines[0] == "alpha,absR,regime,absM,absE", f"unexpected header {lines[0]!r}")
            body = [ln.split(",") for ln in lines[1:]]
            require(len(body) == M, f"{len(body)} rows, expected grid={M}")
            f = self.parse(spec)
            full, direct = scan_reference(self.ref, f, x, M, rows)
            absR = [float(r[1]) for r in body]
            err = max(abs(g - w) for g, w in zip(absR, full))
            require(err <= 1e-9 * x, f"absR off by {err:.3g}")
            err = max(abs(absR[k] - w) for k, w in zip(rows, direct))
            require(err <= 1e-9 * x, f"absR off the direct rows by {err:.3g}")
            bad = [r[0] for r in body if r[2] == "minor" and float(r[3]) != 0.0]
            require(not bad, f"absM != 0 on {len(bad)} minor rows")
            self.ref.check_frame(pretentious.select_global_frame(f, x), f, x, ts)
            self.ref.forget(f)

        return Query(f"scan f={spec} x={x} grid={M}", run, check)
