"""Circle-method applications: weighted triple counts, Euler local factors,
the local-global density formulas, and the extremal sign-pattern constants.

Counting oracles run through one exact linear convolution (`_convolve`) or
raw double loops.  Integer coefficient arrays are convolved by real FFTs
(rfft/irfft) and rounded back to integers, with the rounding residual checked;
an array convolved with itself is transformed once.  Complex arrays use the
full complex FFT.  Predictions assemble an archimedean factor, a
principality gate, and per-prime local factors.  Every local factor and the
gate are finite residue sums, computed by one kernel, `residue_triple_sum`:
three residue tables pushed forward along their multipliers, two of them
convolved cyclically, never raw triple loops.  The tables come from one
weight builder, `_power_weights` (base^k, read by capped p-adic valuation).
The E*/E*_N closed forms for {-1,0,1} weights live in one vectorised table,
`estar_table`, and the C2 factor in `_c2_factor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.fft import next_fast_len

from .characters import DirichletCharacter
from .errors import DomainError
from .multfunc import (
    KappaFunction,
    MultFunc,
    SmallLargeSplit,
    eval_range,
    mu_mean,
    split_small_large,
    twist,
)
from .pretentious import Frame, select_global_frame
from .sieve import factor, get_sieve


# ---------------------------------------------------------------------------
# problems and exact counting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TripleProblem:
    """Weighted count of a l + b m = c n with l, m, n <= x (mode "linear"),
    or of l + m + n = N with l, m, n >= 1 (mode "partition", a = b = c = 1)."""

    f: MultFunc
    g: MultFunc
    h: MultFunc
    a: int = 1
    b: int = 1
    c: int = 1
    x: int | None = None
    N: int | None = None
    mode: str = "linear"

    def __post_init__(self):
        if self.mode not in ("linear", "partition"):
            raise DomainError(f"unknown mode {self.mode}")
        if min(self.a, self.b, self.c) < 1:
            raise DomainError("coefficients must be positive integers")
        if self.mode == "linear" and (self.x is None or self.x < 2):
            raise DomainError("linear mode needs x >= 2")
        if self.mode == "partition":
            if self.N is None or self.N < 2:
                raise DomainError("partition mode needs N >= 2")
            if (self.a, self.b, self.c) != (1, 1, 1):
                raise DomainError("partition mode is the unit-coefficient equation")

    @property
    def scale(self) -> int:
        return self.x if self.mode == "linear" else self.N


def triple_sum_direct(prob: TripleProblem) -> complex:
    """Exact double loop; the third variable is solved from the equation."""
    if prob.mode == "linear":
        x = prob.x
        fv = eval_range(prob.f, x).astype(np.complex128)
        gv = eval_range(prob.g, x).astype(np.complex128)
        hv = eval_range(prob.h, x).astype(np.complex128)
        m = np.arange(1, x + 1)
        total = 0.0 + 0.0j
        for ell in range(1, x + 1):
            s = prob.a * ell + prob.b * m
            n, rem = np.divmod(s, prob.c)
            ok = (rem == 0) & (n <= x)
            total += fv[ell] * np.sum(gv[m[ok]] * hv[n[ok]])
        return complex(total)
    N = prob.N
    fv = eval_range(prob.f, N).astype(np.complex128)
    gv = eval_range(prob.g, N).astype(np.complex128)
    hv = eval_range(prob.h, N).astype(np.complex128)
    total = 0.0 + 0.0j
    for ell in range(1, N - 1):
        m = np.arange(1, N - ell)
        total += fv[ell] * np.sum(gv[m] * hv[N - ell - m])
    return complex(total)


def _convolve(fa: np.ndarray, ga: np.ndarray) -> np.ndarray:
    """Linear convolution of fa and ga, of length len(fa) + len(ga) - 1.

    Real (integer-valued) inputs go through rfft/irfft; the result is rounded
    to int64 and the rounding residual asserted below 0.4.  Complex inputs go
    through the complex FFT, unrounded.  Passing the same array twice
    transforms it once.
    """
    n = len(fa) + len(ga) - 1
    if np.iscomplexobj(fa) or np.iscomplexobj(ga):
        L = int(next_fast_len(n))
        F = np.fft.fft(fa, L)
        G = F if ga is fa else np.fft.fft(ga, L)
        return np.fft.ifft(F * G)[:n]
    L = int(next_fast_len(n, real=True))
    F = np.fft.rfft(fa, L)
    G = F if ga is fa else np.fft.rfft(ga, L)
    conv = np.fft.irfft(F * G, L)[:n]
    rounded = np.rint(conv)
    resid = float(np.max(np.abs(conv - rounded)))
    if resid >= 0.4:
        raise DomainError(f"convolution rounding residual {resid} too large")
    return rounded.astype(np.int64)


def triple_sum_fft(prob: TripleProblem) -> complex:
    """The same count through one discrete convolution of coefficient arrays.

    With {-1,0,1}-valued weights the arrays are real: the convolution runs on
    rfft spectra, is rounded to integers (rounding residual asserted below
    0.4) and the count is an exact int64 dot product.  Complex weights use the
    complex FFT.  When g is f with equal coefficients (f = g = h, say) the
    array is transformed once.
    """
    exact = prob.f.exact_int and prob.g.exact_int and prob.h.exact_int
    dtype = np.float64 if exact else np.complex128
    top = prob.x if prob.mode == "linear" else prob.N - 1

    def coefficients(fn: MultFunc, mult: int) -> np.ndarray:
        arr = np.zeros(mult * top + 1, dtype=dtype)
        arr[mult * np.arange(1, top + 1)] = eval_range(fn, prob.scale)[1 : top + 1]
        return arr

    fa = coefficients(prob.f, prob.a)
    ga = fa if prob.g is prob.f and prob.a == prob.b else coefficients(prob.g, prob.b)
    conv = _convolve(fa, ga)
    if prob.mode == "linear":
        idx = prob.c * np.arange(1, top + 1)
        idx = idx[idx < len(conv)]
        vals = conv[idx]
        hv = eval_range(prob.h, top)[1 : len(idx) + 1]
    else:
        n = np.arange(1, prob.N - 1)
        vals = conv[prob.N - n]
        hv = eval_range(prob.h, prob.N)[n]
    if exact:
        return complex(int(np.dot(vals, hv.astype(np.int64))))
    return complex(np.sum(vals * hv.astype(np.complex128)))


# ---------------------------------------------------------------------------
# local factors: exact residue sums mod p^e
# ---------------------------------------------------------------------------


def smallest_cap_exponent(p: int, z: float) -> int:
    """Smallest e with p^e > z^2."""
    e = 1
    while p**e <= z * z:
        e += 1
    return e


def _check_residue_tables(z: float, abc: int) -> None:
    """Raise unless the residue table mod p^e, e = smallest_cap_exponent(p, z),
    stays within 2^20 entries for every prime a local factor reads: each
    p <= z and each p | abc.  A prime p <= z has e >= 3 and 103^3 > 2^20, so
    of those the primes up to 103 decide."""
    if not z >= 2:
        raise DomainError(f"z = {z} is below 2, the least prime")
    if not math.isfinite(z * z):
        raise DomainError(f"z = {z} is out of range")
    small = get_sieve(103).primes_upto(min(z, 103)).tolist()
    for p in small + [p for p, _ in factor(abc)]:
        e = smallest_cap_exponent(p, z)
        if p**e > 1 << 20:
            raise DomainError(f"z = {z} needs a residue table mod p^e = {p}^{e} = {p**e}, above 2^20 entries")


def _capped_valuations(p: int, e: int) -> np.ndarray:
    """min(v_p(u), e) for u = 0..p^e-1 (u = 0 counts as e)."""
    pe = p**e
    v = np.zeros(pe, dtype=np.int64)
    for k in range(1, e + 1):
        v[:: p**k] = k
    v[0] = e
    return v


def residue_triple_sum(
    n: int,
    tables: list[np.ndarray],
    mults: list[int],
    target: int = 0,
) -> complex:
    """(1/n^2) sum over u, v, w mod n with m1 u + m2 v + m3 w = target of
    T1(u) T2(v) T3(w) for residue tables of length n: each table is pushed
    forward along u -> m u mod n (m need not be a unit), and the first two
    are convolved cyclically by FFT."""
    u = np.arange(n)

    def push(tab: np.ndarray, m: int) -> np.ndarray:
        idx = (m % n) * u % n
        out = np.bincount(idx, weights=tab.real, minlength=n).astype(np.complex128)
        out += 1j * np.bincount(idx, weights=tab.imag, minlength=n)
        return out

    A, B, C = (push(np.asarray(t, dtype=np.complex128), m) for t, m in zip(tables, mults))
    conv = np.fft.ifft(np.fft.fft(A) * np.fft.fft(B))
    return complex(np.sum(C * conv[(target - u) % n]) / n**2)


def local_triple_sum(
    p: int,
    e: int,
    weights: list[np.ndarray],
    mults: list[int],
    target: int = 0,
) -> complex:
    """(1/p^{2e}) sum over u, v, w mod p^e with m1 u + m2 v + m3 w = target
    of w1[v(u)] w2[v(v)] w3[v(w)]: the valuation weights, indexed by the
    capped valuation of each residue, summed by `residue_triple_sum`."""
    v = _capped_valuations(p, e)
    tables = [np.asarray(w, dtype=np.complex128)[v] for w in weights]
    return residue_triple_sum(p**e, tables, mults, target)


def _power_weights(base: complex, e: int) -> np.ndarray:
    """base^k for k = 0..e, by repeated multiplication."""
    out = np.ones(e + 1, dtype=np.complex128)
    for k in range(1, e + 1):
        out[k] = out[k - 1] * base
    return out


def _dagger_weights(fr: Frame, p: int, e: int) -> np.ndarray:
    """f-dagger values at p^k, k = 0..e, f the frame's function: the powers
    of f(p) p^{-it} off the conductor, the powers of 0 (the k = 0 spike) on it."""
    if fr.r % p == 0:
        return _power_weights(0, e)
    return _power_weights(twist(fr.f, DirichletCharacter(1, ()), fr.t).prime_value(p), e)


def euler_factor_E(
    p: int,
    prob: TripleProblem,
    frames: tuple[Frame, Frame, Frame],
    z: float,
) -> complex:
    """The finite-modulus local factor at p: the exact residue sum mod p^e,
    e the smallest exponent with p^e > z^2."""
    e = smallest_cap_exponent(p, z)
    weights = [_dagger_weights(fr, p, e) for fr in frames]
    if prob.mode == "linear":
        return local_triple_sum(p, e, weights, [prob.a, prob.b, -prob.c], 0)
    return local_triple_sum(p, e, weights, [1, 1, 1], prob.N % p**e)


def estar_exact(
    p: int,
    f: MultFunc,
    g: MultFunc,
    h: MultFunc,
    mode: str = "linear",
    N: int | None = None,
    cap: int = 1 << 14,
) -> float:
    """E*(p) from the exact residue sum at depth p^e >= cap, normalized by
    (1 - 1/p)^3 prod (1 - f(p)/p)^{-1} as in the real-valued reduction."""
    e = 1
    while p**e < cap:
        e += 1
    weights = [_power_weights(fn.prime_value(p), e) for fn in (f, g, h)]
    if mode == "linear":
        val = local_triple_sum(p, e, weights, [1, 1, -1], 0)
    else:
        if N is None:
            raise DomainError("partition-mode E* needs N")
        val = local_triple_sum(p, e, weights, [1, 1, 1], N % p**e)
    norm = (1.0 - 1.0 / p) ** -3
    for fn in (f, g, h):
        norm *= 1.0 - complex(fn.prime_value(p)).real / p
    return float((val * norm).real)


def _c2_factor(p):
    """1 - 8 p^2 / ((p-1)^2 (p^2+1)): the all-(-1) E*(p) and the C2 factor."""
    return 1.0 - 8.0 * p * p / ((p - 1.0) ** 2 * (p * p + 1.0))


def estar_table(
    primes: np.ndarray, values: list, N: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Closed forms of E*(p) (N None: l + m = n) or E*_N(p) (l + m + n = N)
    for an array of primes, from the three arrays of values f(p), g(p), h(p);
    a value within 1e-12 of -1, 0 or 1 counts as that value.

    E = 1 when any value is 1.  When all are 0: 1 - 1/(p-1)^2, except
    1 + 1/(p-1)^3 for E*_N at p not dividing N.  When all are -1: the C2
    factor for E*; E*_N has none there.  Returns (values, form): NaN where no
    closed form applies (`estar_exact` gives E there), and the number of the
    closed form used at each prime, from 1, with 0 for none.
    """
    primes = np.asarray(primes)
    v = np.asarray(values, dtype=np.complex128)
    r = np.rint(v.real)
    v = np.where((np.abs(v - r) < 1e-12) & (np.abs(r) <= 1), r, np.nan)
    zero = np.all(v == 0, axis=0)

    def square_form(p):
        return 1.0 - 1.0 / (p - 1.0) ** 2

    if N is None:
        rules = [(zero, square_form), (np.all(v == -1, axis=0), _c2_factor)]
    else:
        div = N % primes == 0
        rules = [(zero & ~div, lambda p: 1.0 + 1.0 / (p - 1.0) ** 3), (zero & div, square_form)]
    rules.append((np.any(v == 1, axis=0), np.ones_like))
    out = np.full(len(primes), np.nan)
    form = np.zeros(len(primes), dtype=np.int64)
    for k, (mask, closed) in enumerate(rules, start=1):
        out[mask] = closed(primes[mask].astype(np.float64))
        form[mask] = k
    return out, form


def _estar_at(p: int, fns: tuple[MultFunc, MultFunc, MultFunc], N: int | None) -> float:
    """E*(p) or E*_N(p) at one prime: the closed form, else the exact sum."""
    val = estar_table([p], [[fn.prime_value(p)] for fn in fns], N)[0][0]
    if np.isnan(val):
        return estar_exact(p, *fns, "linear" if N is None else "partition", N)
    return float(val)


def estar(p: int, f: MultFunc, g: MultFunc, h: MultFunc) -> float:
    """E*(p) for the equation l + m = n and real-valued weights: the closed
    form of `estar_table` where one applies, the exact residue sum otherwise."""
    return _estar_at(p, (f, g, h), None)


def estar_N(p: int, f: MultFunc, g: MultFunc, h: MultFunc, N: int) -> float:
    """E*_N(p) for l + m + n = N: the closed form of `estar_table` where one
    applies, the exact residue sum otherwise (always so when all are -1)."""
    return _estar_at(p, (f, g, h), N)


# ---------------------------------------------------------------------------
# archimedean factor
# ---------------------------------------------------------------------------

_GLA, _GLW = np.polynomial.legendre.leggauss(24)


def archimedean_E(
    a: float,
    b: float,
    c: float,
    t_f: float = 0.0,
    t_g: float = 0.0,
    t_h: float = 0.0,
    target: float = 0.0,
) -> complex:
    """(1/|c|) integral over 0 <= u, v, w <= 1 with a u + b v + c w = target
    of u^{i t_f} v^{i t_g} w^{i t_h} du dv."""
    if c == 0:
        raise DomainError("archimedean factor needs c != 0")

    def v_interval(u: float) -> tuple[float, float]:
        # w = (target - a u - b v)/c in [0, 1]
        lo_w = (target - a * u) / b  # v where w = 0
        hi_w = (target - a * u - c) / b  # v where w = 1
        v0, v1 = (min(lo_w, hi_w), max(lo_w, hi_w))
        return max(0.0, v0), min(1.0, v1)

    bps = {0.0, 1.0}
    for rhs in (target, target - b, target - c, target - b - c):
        if a != 0:
            u = rhs / a
            if 0.0 < u < 1.0:
                bps.add(u)
    edges = sorted(bps)

    def inner(u: float) -> complex:
        v0, v1 = v_interval(u)
        if v1 <= v0:
            return 0.0
        if t_g == 0.0 and t_h == 0.0:
            return v1 - v0
        m = 0.5 * (v0 + v1) + 0.5 * (v1 - v0) * _GLA
        w = (target - a * u - b * m) / c
        w = np.maximum(w, 1e-300)
        vals = np.exp(1j * (t_g * np.log(np.maximum(m, 1e-300)) + t_h * np.log(w)))
        return complex(0.5 * (v1 - v0) * np.sum(_GLW * vals))

    total = 0.0 + 0.0j
    for e0, e1 in zip(edges[:-1], edges[1:]):
        for lo, hi in zip(
            np.linspace(e0, e1, 9)[:-1], np.linspace(e0, e1, 9)[1:]
        ):
            m = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _GLA
            if t_f == 0.0:
                vals = np.array([inner(float(u)) for u in m])
            else:
                vals = np.array(
                    [inner(float(u)) * np.exp(1j * t_f * math.log(max(u, 1e-300))) for u in m]
                )
            total += 0.5 * (hi - lo) * np.sum(_GLW * vals)
    return complex(total / abs(c))


# ---------------------------------------------------------------------------
# density prediction
# ---------------------------------------------------------------------------


def _product_principal(psis: list[DirichletCharacter]) -> bool:
    """Is the product of the characters principal: do their indices, scaled
    to a common exponent, sum to 0 mod it on every common unit?"""
    m = math.lcm(*(psi.q for psi in psis))
    L = math.lcm(*(psi.group.exponent for psi in psis))
    ks = [psi.indices()[np.arange(m) % psi.q] for psi in psis]
    units = np.all([k >= 0 for k in ks], axis=0)
    total = sum(k * (L // psi.group.exponent) for k, psi in zip(ks, psis))
    return not np.any(total[units] % L)


@dataclass
class TripleReport:
    scale: int
    mode: str
    oracle_count: complex
    oracle_density: complex
    predicted_density: complex
    path: str  # "real-unit" or "generic"
    factors: dict = field(default_factory=dict)

    @property
    def abs_discrepancy(self) -> float:
        return abs(self.oracle_density - self.predicted_density)

    @property
    def rel_discrepancy(self) -> float | None:
        """|oracle - predicted| / |predicted|; None (undefined) when predicted is 0."""
        if self.predicted_density == 0:
            return None
        return self.abs_discrepancy / abs(self.predicted_density)


PMAX = 10**6  # the real-unit route takes the E* product over p <= PMAX


def predict_triples(
    prob: TripleProblem,
    z: float | None = None,
) -> TripleReport:
    """Density prediction against the exact convolution oracle.

    Real {-1,0,1}-valued weights with principal frames use the product of the
    three plain mean values times the E* local product (extended over all
    p <= PMAX where closed forms apply, with the truncation tail reported).
    Everything else takes the generic route: large-prime mean values times
    2 E(infinity) x^{it} delta times the finite-modulus local factors.
    """
    x = prob.scale
    if z is None:
        z = max(math.log(x), 2.0)
    _check_residue_tables(z, prob.a * prob.b * prob.c)
    count = triple_sum_fft(prob)
    density = count / (x * x / 2.0)

    frames = tuple(select_global_frame(fn, x) for fn in (prob.f, prob.g, prob.h))
    factors: dict = {"z": z}
    real_ok = (
        prob.f.exact_int
        and prob.g.exact_int
        and prob.h.exact_int
        and all(fr.r == 1 and abs(fr.t) < 1e-3 for fr in frames)
        and (prob.mode == "partition" or (prob.a, prob.b, prob.c) == (1, 1, 1))
    )

    if real_ok:
        mus = [complex(mu_mean(fn, x)).real for fn in (prob.f, prob.g, prob.h)]
        primes = get_sieve(PMAX).primes_upto(PMAX)
        N = prob.N if prob.mode == "partition" else None
        values = [fn.prime_values(primes) for fn in (prob.f, prob.g, prob.h)]
        closed, form = estar_table(primes, values, N)
        local = 1.0
        for k in np.unique(form[form > 0]):
            local *= float(np.prod(closed[form == k]))
        ep_list = []
        for p in primes[form == 0].tolist():
            val = estar_exact(int(p), prob.f, prob.g, prob.h, prob.mode, N)
            ep_list.append((int(p), val))
            local *= val
        predicted = mus[0] * mus[1] * mus[2] * local
        tail = 1.0 / (PMAX * math.log(PMAX))  # crude bound on sum_{p > PMAX} (p-1)^{-2}
        factors.update(
            {
                "mu": mus,
                "local_product": local,
                "exact_local_factors": ep_list,
                "pmax": PMAX,
                "tail_bound": tail,
            }
        )
        return TripleReport(x, prob.mode, count, complex(density), complex(predicted), "real-unit", factors)

    # generic route
    splits: list[SmallLargeSplit] = [
        split_small_large(fn, fr.psi, fr.t, z)
        for fn, fr in zip((prob.f, prob.g, prob.h), frames)
    ]
    means = [complex(mu_mean(sp.F_l, x)) for sp in splits]
    delta = 1.0 if _product_principal([fr.psi for fr in frames]) else 0.0
    tsum = sum(fr.t for fr in frames)
    if prob.mode == "linear":
        einf = archimedean_E(prob.a, prob.b, -prob.c, frames[0].t, frames[1].t, frames[2].t, 0.0)
    else:
        einf = archimedean_E(1.0, 1.0, 1.0, frames[0].t, frames[1].t, frames[2].t, 1.0)
    ps = [int(p) for p in get_sieve(z).primes_upto(z).tolist()]
    for p in sorted({p for p, _ in factor(prob.a * prob.b * prob.c)} - set(ps)):
        ps.append(p)
    ep = []
    local = 1.0 + 0.0j
    for p in sorted(ps):
        val = euler_factor_E(p, prob, frames, z)
        ep.append((p, complex(val)))
        local *= val
    predicted = (
        means[0]
        * means[1]
        * means[2]
        * 2.0
        * einf
        * np.exp(1j * tsum * math.log(x))
        * delta
        * local
    )
    factors.update(
        {
            "large_means": [[m.real, m.imag] for m in means],
            "Einf": [einf.real, einf.imag],
            "delta_principal": delta,
            "Ep": [(p, [v.real, v.imag]) for p, v in ep],
            "frame_r": [fr.r for fr in frames],
            "frame_t": [fr.t for fr in frames],
        }
    )
    return TripleReport(x, prob.mode, count, complex(density), complex(predicted), "generic", factors)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def delta0() -> float:
    """-1 + 2 log(1 + sqrt(e)) - 4 int_1^sqrt(e) log(t)/(t+1) dt = 0.656999..."""
    from scipy.integrate import quad

    val, err = quad(lambda u: math.log(u) / (u + 1.0), 1.0, math.sqrt(math.e), epsabs=1e-13)
    if err > 1e-10:
        raise RuntimeError(f"delta0 quadrature error {err}")
    return -1.0 + 2.0 * math.log(1.0 + math.sqrt(math.e)) - 4.0 * val


def cor2_constants() -> tuple[float, float]:
    """(kappa, kappa') = ((1+delta0)^3/8, (1-delta0)^3/8)."""
    d = delta0()
    return (1.0 + d) ** 3 / 8.0, (1.0 - d) ** 3 / 8.0


def _alpha_P(P: tuple[int, ...]) -> float:
    return math.prod((p - 1.0) / (p + 1.0) for p in P)


def _C_P(P: tuple[int, ...]) -> float:
    return math.prod(_c2_factor(p) for p in P)


def _onepattern_value(P: tuple[int, ...], t: float) -> float:
    """(1/8)(1 + a t - a^2 t^2 - C a^3 t^3) with a = alpha_P, C = C_P."""
    a, C = _alpha_P(P), _C_P(P)
    return (1.0 + a * t - a * a * t * t - C * a**3 * t**3) / 8.0


def c2_product(pmax: int = 10**6) -> float:
    """prod over p <= pmax of |1 - 8 p^2 / ((p-1)^2 (p^2+1))| (ascending p)."""
    p = get_sieve(max(pmax, 1)).primes_upto(pmax).astype(np.float64)
    terms = np.abs(_c2_factor(p))
    return float(np.exp(np.sum(np.log(terms))))


def _onepattern_max(t_max: float) -> tuple[float, dict]:
    """The max of _onepattern_value over small prime sets P and 2001 points t
    in [0, t_max], with its argmax."""
    csets = [(), (2,), (3,), (5,), (2, 3), (2, 5), (3, 5)]
    P, t = max(
        ((P, t) for P in csets for t in np.linspace(0, t_max, 2001)),
        key=lambda pt: _onepattern_value(pt[0], pt[1]),
    )
    return _onepattern_value(P, t), {"P": list(P), "t": float(t)}


def extremal_table(pmax: int = 10**6) -> dict:
    """The extremal sign-pattern constants, each reproduced by maximizing the
    cubic density expression over small prime sets and the allowed t range."""
    d0 = delta0()
    val_pp, argmax_pp = _onepattern_max(1)
    val_mm, argmax_mm = _onepattern_max(d0)
    return {
        "delta0": d0,
        "kappa": cor2_constants()[0],
        "kappa_prime": cor2_constants()[1],
        "C2_product": c2_product(pmax),
        "eight_forty_fifths": val_pp,
        "eight_forty_fifths_argmax": argmax_pp,
        "two_minus_one_max": val_mm,
        "two_minus_one_argmax": argmax_mm,
        "mixed_max": {"mu1": (1.0 + d0) / 2.0, "mu2": ((1.0 + d0) / 2.0) ** 2},
    }


# ---------------------------------------------------------------------------
# sign patterns
# ---------------------------------------------------------------------------


def signpattern_density(
    f: MultFunc,
    g: MultFunc,
    h: MultFunc,
    eps1: int,
    eps2: int,
    eps3: int,
    x: int,
) -> tuple[float, float]:
    """(oracle, predicted) density of a + b = c <= x with f(a) = eps1,
    g(b) = eps2, h(c) = eps3, for {-1,1}-valued weights (a zero of f, g or
    h contributes the factor 1; complex weights are a domain error).

    Oracle: the exact integer
    sum_{a+b=c<=x} (1 + eps1 f(a))(1 + eps2 g(b))(1 + eps3 h(c)), divided by
    8 x^2/2, from one exact convolution of the 0/1/2-valued arrays
    1 + eps1 f and 1 + eps2 g, weighted by 1 + eps3 h(c).
    Prediction: the independent-product form corrected by (C_P - 1) on the
    triple term, P = {p <= log x : f(p) = g(p) = h(p) = -1}.
    """
    if any(e not in (-1, 1) for e in (eps1, eps2, eps3)):
        raise DomainError("sign pattern entries must be +-1")
    if not (f.exact_int and g.exact_int and h.exact_int):
        raise DomainError("sign patterns need {-1,0,1}-valued weights")
    x = int(x)
    z = math.log(x)

    def weights(fn: MultFunc, eps: int) -> np.ndarray:
        w = 1.0 + eps * eval_range(fn, x).astype(np.float64)
        w[0] = 0.0
        return w

    wf = weights(f, eps1)
    wg = wf if g is f and eps2 == eps1 else weights(g, eps2)
    conv = _convolve(wf, wg)[1 : x + 1]
    wh = 1 + eps3 * eval_range(h, x)[1:].astype(np.int64)
    oracle = int(np.dot(conv, wh)) / (8.0 * (x * x / 2.0))

    deltas = [complex(mu_mean(fn, x)).real for fn in (f, g, h)]
    primes = get_sieve(max(z, 1)).primes_upto(z)
    minus = np.logical_and.reduce([fn.prime_values(primes) == -1 for fn in (f, g, h)])
    CP = _C_P(tuple(primes[minus].tolist()))
    predicted = (
        (1.0 + eps1 * deltas[0]) * (1.0 + eps2 * deltas[1]) * (1.0 + eps3 * deltas[2])
        + eps1 * eps2 * eps3 * deltas[0] * deltas[1] * deltas[2] * (CP - 1.0)
    ) / 8.0
    return float(oracle), float(predicted)


# ---------------------------------------------------------------------------
# mean of F_s over a sumset (the friable-convolution identity)
# ---------------------------------------------------------------------------


def _friable_integers(z: float, limit: int) -> list[int]:
    ps = [int(p) for p in get_sieve(limit).primes_upto(z).tolist()]
    out = []

    def rec(i: int, val: int):
        if i == len(ps):
            out.append(val)
            return
        p = ps[i]
        while True:
            rec(i + 1, val)
            if val > limit // p:
                break
            val *= p

    rec(0, 1)
    return sorted(out)


def fs_mean_over_sumset(
    split: SmallLargeSplit,
    A: np.ndarray,
    B: np.ndarray,
) -> tuple[complex, complex]:
    """(unfolded value, direct value) for the mean of F_s(a + b) over A x B.

    F_s(n) = n^{it} ((kappa restricted to z-friable support) * psi)(n), so the
    mean unfolds into kappa-weighted psi-sums over multiples; the sum over
    friable m is finite since m never exceeds max(A) + max(B).
    """
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    smax = int(A.max() + B.max())
    ia = np.zeros(int(A.max()) + 1)
    ib = np.zeros(int(B.max()) + 1)
    ia[A] = 1.0
    ib[B] = 1.0
    wts = _convolve(ia, ib).astype(np.float64)
    denom = float(len(A) * len(B))

    fs_vals = eval_range(split.F_s, smax).astype(np.complex128)
    direct = complex(np.sum(wts * fs_vals) / denom)

    kappa = KappaFunction(split.f, split.psi, split.t)
    psi_tab = split.psi.values()
    r = split.psi.q
    t = split.t
    unfolded = 0.0 + 0.0j
    for m in _friable_integers(split.z, smax):
        km = kappa.eval(m)
        if abs(km) < 1e-15:
            continue
        mult = np.arange(m, smax + 1, m)
        w = wts[mult]
        nz = w != 0
        if not np.any(nz):
            continue
        mult = mult[nz]
        w = w[nz]
        vals = psi_tab[(mult // m) % r] * np.exp(1j * t * np.log(mult.astype(np.float64)))
        unfolded += km * np.sum(w * vals)
    return complex(unfolded / denom), direct


# ---------------------------------------------------------------------------
# principality gate (residue sums over a composite modulus)
# ---------------------------------------------------------------------------


def residue_triple_gate(
    N: int,
    frames: tuple[Frame, Frame, Frame],
    coeffs: tuple[int, int, int] = (1, 1, -1),
) -> complex:
    """(1/N^2) sum over u, v, w mod N with a u + b v + c w = 0 of
    f-dagger(u) g-dagger(v) h-dagger(w), each dagger built per prime power of
    N from its frame's f_j with the frame's character riding along.  Vanishes
    exactly when the product of the frame characters is non-principal."""
    n = np.arange(N)

    def dagger_table(fr: Frame) -> np.ndarray:
        tab = np.ones(N, dtype=np.complex128)
        for p, e in factor(N):
            tab *= _power_weights(fr.f_j.prime_value(p), e)[_capped_valuations(p, e)[n % p**e]]
        return tab * fr.psi.values()[n % fr.psi.q]

    tables = [dagger_table(fr) for fr in frames]
    return residue_triple_sum(N, tables, list(coeffs))
