"""Exact exponential sums R_f(alpha, x) and their main-term predictors.

The oracles are honest O(x) summations with compensated accumulation.  A sum
of f against a function of period q (R_f at a/q with beta = 0, the twisted
and AP sums, S_f(x, chi)) is multfunc.periodic_sum, exact for {-1,0,1}-valued
f.  The predictors assemble, per ranked frame (psi_j mod r_j, t_j), the term

    conj(psi_j)(a) g(psi_j) kappa_j(q/r_j) I(x, beta, t_j) S_{f_j}(x) / phi(q)

plus the literal error budget; they report the discrepancy against the
oracle rather than asserting any unproved bound.  Every main term, including
the single-frame M_f of arc_main_term (arc_decompose_Rf and the CLI scan),
comes from one builder: frame_term multiplies a coefficient by I at the
frame's x and t and by the frame's S_{f_j}(x), and divides by phi(q).  The
consumer supplies only the coefficient; the pretentious.Frame supplies
kappa, f_j and S.  theorem1_coefficient is the closed-form coefficient shown
above; predict_twisted sums twisted_coefficient over the divisors of q for
any h of period q, and ap_sum is predict_twisted with h the indicator of
a mod q.  Arcs are classified by continued-fraction convergents.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .characters import DirichletCharacter, PeriodicFunction, periodic_from_table, pseudo_gauss
from .errors import DomainError
from .multfunc import MultFunc, eval_range, fsum_complex, k_factor, mean_value, periodic_sum
from .oscint import I_value
from .pretentious import Frame, _frame, rank_characters, select_frames, select_global_frame
from .sieve import divisors, euler_phi, get_sieve

TAU = (2.0 - math.sqrt(2.0)) / 3.0
ETA = 1.0 - 2.0 / math.pi


# ---------------------------------------------------------------------------
# exact sums
# ---------------------------------------------------------------------------


def direct_sum(f: MultFunc, alpha: float, x: int) -> complex:
    """R_f(alpha, x) = sum_{n <= x} f(n) e(n alpha), exact summation."""
    vals = eval_range(f, x).astype(np.complex128)
    n = np.arange(x + 1)
    ph = np.exp(2j * np.pi * np.mod(n * float(alpha), 1.0))
    z = vals * ph
    return fsum_complex(z)


def direct_sum_rational(f: MultFunc, a: int, q: int, beta: float, x: int) -> complex:
    """R_f(a/q + beta, x) with the rational phase folded exactly mod q.

    At beta = 0 this is periodic_sum with the table e(an/q), n mod q: exact
    class sums for {-1,0,1}-valued f, correctly rounded against the roots.
    """
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    if beta == 0.0:
        return periodic_sum(f, roots[(np.arange(q) * (a % q)) % q], x)
    vals = eval_range(f, x)
    n = np.arange(x + 1)
    cvals = vals.astype(np.complex128)
    z = cvals * roots[(n * (a % q)) % q]
    z = z * np.exp(2j * np.pi * np.mod(n * beta, 1.0))
    return fsum_complex(z)


def friable_sum(f: MultFunc, alpha: float, x: int, y: float) -> complex:
    """R restricted to y-friable n (largest prime factor <= y; n = 1 counts)."""
    vals = eval_range(f, x).astype(np.complex128)
    n = np.arange(x + 1)
    mask = get_sieve(max(x, 1)).lpf[: x + 1] <= y
    mask[0] = False
    z = vals[mask] * np.exp(2j * np.pi * np.mod(n[mask] * float(alpha), 1.0))
    return fsum_complex(z)


# ---------------------------------------------------------------------------
# arcs
# ---------------------------------------------------------------------------


def _convergents(fr: Fraction) -> list[tuple[int, int]]:
    num, den = fr.numerator, fr.denominator
    h0, k0, h1, k1 = 0, 1, 1, 0
    out = []
    while den:
        a = num // den
        num, den = den, num - a * den
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        out.append((h1, k1))
    return out


@dataclass
class ArcDecomposition:
    alpha: float
    a: int
    q: int
    beta: float
    x: int
    eps: float
    Q: float
    Q1: float
    Q3: float
    regime: str  # "major" iff some convergent with q0 <= Q1 puts alpha in its arc
    major_sec6: bool  # literal narrow-arc tag: denominator <= x/Q
    in_qrange_window: bool  # |beta| <= log q loglog q / x with q <= Q1

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "a": self.a,
            "q": self.q,
            "beta": self.beta,
            "x": self.x,
            "eps": self.eps,
            "Q": self.Q,
            "Q1": self.Q1,
            "Q3": self.Q3,
            "regime": self.regime,
            "major_sec6": self.major_sec6,
            "in_qrange_window": self.in_qrange_window,
        }


def thresholds(x: int, eps: float = 0.1) -> tuple[float, float]:
    """(Q, Q1) for scale x >= 3 and 0 < eps <= 1: Q = x/(log x)^{tau - eps},
    Q1 = (log x)^2 (loglog x)^{1+eps}.  The eps bound keeps Q1, the largest
    arc denominator of a scan or energy grid, below about 4,000 up to x = 2^30."""
    if x < 3:
        raise DomainError(f"thresholds need x >= 3, got {x}")
    if not 0 < eps <= 1:
        raise DomainError(f"eps must lie in (0, 1], got {eps}")
    lx = math.log(x)
    Q = x / lx ** (TAU - eps)
    Q1 = lx * lx * math.log(lx) ** (1.0 + eps)
    return Q, Q1


def arc_halfwidth(q: int, x: int) -> float:
    """Half-width of the regime window around a/q: log(x) / (q x).

    The asymptotic window (log x)^{tau-eps}/(q x) moves by less than one FFT
    grid cell between adjacent test scales, so energy trends computed with it
    are dominated by quantization; log x keeps arcs pairwise disjoint for
    q <= Q1 (q <= x/(2 log x) guarantees window points are convergents) while
    growing fast enough to resolve.
    """
    return math.log(x) / (q * x)


def _qrange_width(q: int, x: int) -> float:
    if q < 3:
        return 0.0
    return max(0.0, math.log(q) * math.log(math.log(q))) / x


def classify_alpha(alpha, x: int, eps: float = 0.1) -> ArcDecomposition:
    """Dirichlet approximation of alpha by its continued-fraction convergents.

    Returns the last convergent with denominator <= Q (so |beta| <= 1/(qQ)
    automatically).  The regime is "major" when alpha lies within
    arc_halfwidth of any convergent with denominator <= Q1; at computable
    scales the literal narrow-arc threshold x/Q stays below 2, which would
    make every nontrivial rational minor, so that tag is reported separately
    as major_sec6.
    """
    if x < 3:
        raise DomainError("classify_alpha needs x >= 3")
    fr = Fraction(alpha) if not isinstance(alpha, Fraction) else alpha
    fr = fr - Fraction(math.floor(fr))
    Q, Q1 = thresholds(x, eps)
    convs = _convergents(fr) or [(0, 1)]
    kept = [(p, q) for (p, q) in convs if q <= Q] or [convs[0]]
    a, q = kept[-1]
    alpha_f = float(fr)
    beta = float(fr - Fraction(a, q))
    major = False
    sec6 = False
    for p0, q0 in kept:
        d = abs(fr - Fraction(p0, q0))
        if q0 <= Q1 and d <= Fraction(arc_halfwidth(q0, x)):
            major = True
        if q0 <= x / Q and d <= Fraction(1) / (Fraction(q0) * Fraction(Q)):
            sec6 = True
    q3 = (
        x / (q * math.log(q) * math.log(math.log(q)))
        if q >= 3 and math.log(math.log(q)) > 0
        else float("inf")
    )
    return ArcDecomposition(
        alpha=alpha_f,
        a=a,
        q=q,
        beta=beta,
        x=x,
        eps=eps,
        Q=Q,
        Q1=Q1,
        Q3=q3,
        regime="major" if major else "minor",
        major_sec6=sec6,
        in_qrange_window=(q <= Q1 and abs(beta) <= _qrange_width(q, x)),
    )


# ---------------------------------------------------------------------------
# prediction reports
# ---------------------------------------------------------------------------


@dataclass
class FrameTerm:
    j: int
    chi_exponents: tuple[int, ...]
    r: int
    t: float
    coefficient: complex  # everything multiplying I * S / phi(q)
    I: complex
    S: complex
    value: complex

    def to_dict(self) -> dict:
        return {
            "j": self.j,
            "chi": list(self.chi_exponents),
            "r": self.r,
            "t": self.t,
            "coefficient": [self.coefficient.real, self.coefficient.imag],
            "I": [self.I.real, self.I.imag],
            "S": [self.S.real, self.S.imag],
            "value": [self.value.real, self.value.imag],
        }


@dataclass
class PredictionReport:
    oracle: complex
    predicted: complex
    terms: list[FrameTerm]
    err_budget: float

    @property
    def abs_discrepancy(self) -> float:
        return abs(self.oracle - self.predicted)

    @property
    def rel_discrepancy(self) -> float | None:
        """|oracle - predicted| / |oracle|; None (undefined) when the oracle is 0."""
        if self.oracle == 0:
            return None
        return self.abs_discrepancy / abs(self.oracle)

    def to_dict(self) -> dict:
        return {
            "oracle": [self.oracle.real, self.oracle.imag],
            "predicted": [self.predicted.real, self.predicted.imag],
            "terms": [t.to_dict() for t in self.terms],
            "err_budget": self.err_budget,
            "abs_discrepancy": self.abs_discrepancy,
            "rel_discrepancy": self.rel_discrepancy,
        }


def err_budget(x: int, q: int, J: int) -> float:
    """The literal error-term shape with all implied constants set to 1:
    x (q/phi(q)) (loglog x)^2 ((log x)^{-(1-1/sqrt J)} + (log x)^{-eta}/sqrt q)."""
    lx = math.log(x)
    llx = math.log(lx)
    return (
        x
        * (q / euler_phi(q))
        * llx**2
        * (lx ** -(1.0 - 1.0 / math.sqrt(J)) + lx**-ETA / math.sqrt(q))
    )


# ---------------------------------------------------------------------------
# the frame main-term builder
# ---------------------------------------------------------------------------


def theorem1_coefficient(fr: Frame, a: int, q: int) -> complex:
    """conj(psi)(a) g(psi) kappa(q/r) at a/q for the frame (psi mod r, t)."""
    psi = fr.psi
    return psi.conjugate()(a) * psi.gauss_sum() * fr.kappa.eval(q // fr.r)


def frame_term(j: int, fr: Frame, coeff: complex, beta: float, q: int) -> FrameTerm:
    """The main term coeff I(x, beta, t) S_{f_j}(x) / phi(q) of frame fr at its x."""
    Ival = I_value(fr.x, beta, fr.t)
    value = coeff * Ival * fr.S / euler_phi(q)
    return FrameTerm(j, fr.chi.exponents, fr.r, fr.t, complex(coeff), Ival, complex(fr.S), value)


def _frame_terms(
    frames: list[Frame],
    beta: float,
    q: int,
    coefficient: Callable[[Frame], complex],
) -> tuple[list[FrameTerm], complex]:
    """frame_term for each frame with coefficient(frame), and their sum in frame order."""
    terms = [frame_term(j, fr, coefficient(fr), beta, q) for j, fr in enumerate(frames, start=1)]
    return terms, sum((t.value for t in terms), 0.0 + 0.0j)


# ---------------------------------------------------------------------------
# Theorem-style predictors
# ---------------------------------------------------------------------------


def predict_theorem1(
    f: MultFunc,
    a: int,
    q: int,
    beta: float,
    x: int,
    J: int = 3,
    eps: float = 0.1,
) -> PredictionReport:
    """Main-term prediction for R_f(a/q + beta, x) from the top J-1 frames."""
    if q < 1 or gcd(a, q) != 1:
        raise DomainError(f"predict_theorem1 needs gcd(a, q) = 1, got ({a}, {q})")
    _, Q1 = thresholds(x, eps)
    if q > Q1:
        import warnings

        warnings.warn(f"q={q} is outside the supported range q <= Q1 = {Q1:.1f}; computing anyway")
    frames = select_frames(f, x, q, J)
    terms, total = _frame_terms(frames, beta, q, lambda fr: theorem1_coefficient(fr, a, q))
    oracle = direct_sum_rational(f, a, q, beta, x)
    budget = (1.0 + abs(beta) * x) * err_budget(x, q, J)
    return PredictionReport(oracle=oracle, predicted=total, terms=terms, err_budget=budget)


def twisted_coefficient(h: PeriodicFunction, fr: Frame) -> complex:
    """c_j = sum over r_j | n | q of k_j(n) kappa_j(q/n) G_h(n; psi_j)."""
    q = h.period
    total = 0.0 + 0.0j
    for n in divisors(q):
        if n % fr.r:
            continue
        total += k_factor(fr.f_j, n) * fr.kappa.eval(q // n) * pseudo_gauss(h, n, fr.psi)
    return total


def predict_twisted(
    f: MultFunc,
    h: PeriodicFunction,
    x: int,
    J: int = 3,
) -> PredictionReport:
    """Prediction for sum_{n <= x} f(n) h(n), h of period q, via pseudo-Gauss sums."""
    q = h.period
    frames = select_frames(f, x, q, J)
    terms, total = _frame_terms(frames, 0.0, q, lambda fr: twisted_coefficient(h, fr))
    oracle = periodic_sum(f, h.table, x)
    return PredictionReport(oracle=oracle, predicted=total, terms=terms, err_budget=float("nan"))


def ap_sum(f: MultFunc, a: int, q: int, x: int, J: int = 3) -> PredictionReport:
    """Prediction for the sum of f over n <= x, n = a mod q: predict_twisted
    with h the indicator of a mod q, and the AP error-term shape
    x/phi(q) (loglog x)^2 (log x)^{-eta} as the budget."""
    if gcd(a, q) != 1:
        raise DomainError(f"ap_sum needs gcd(a, q) = 1, got ({a}, {q})")
    rep = predict_twisted(f, periodic_from_table(q, np.arange(q) == a % q), x, J)
    lx = math.log(x)
    rep.err_budget = x / euler_phi(q) * math.log(lx) ** 2 * lx**-ETA
    return rep


def s_f_chi_predict(
    f: MultFunc,
    chi: DirichletCharacter,
    ell: int,
    x: int,
) -> PredictionReport:
    """S_f(x/ell, chi) against I(x,0,t)/ell^{1+it} k_j(q) S_{f_j}(x), where f_j is f twisted
    by the primitive psi inducing chi and t, and k_j(q) = prod_{p|q}(1 - f_j(p)/p)."""
    fr = _frame(f, x, chi, chi.primitive()[0])
    term = frame_term(1, fr, k_factor(fr.f_j, chi.q) / ell ** (1 + 1j * fr.t), 0.0, 1)
    oracle = mean_value(f, x // ell, chi)
    return PredictionReport(
        oracle=complex(oracle), predicted=complex(term.value), terms=[term], err_budget=float("nan")
    )


# ---------------------------------------------------------------------------
# M_f / E_f decomposition and minor-arc energy
# ---------------------------------------------------------------------------


@dataclass
class ArcSplit:
    arc: ArcDecomposition
    R: complex
    M: complex
    E: complex
    frame_r: int
    r_divides_q: bool


def arc_main_term(frame: Frame, arc: ArcDecomposition) -> complex:
    """M_f at the arc from one frame at the arc's x: the Theorem-1 term at
    a/q + beta on a major arc with r | q, and 0 otherwise."""
    if arc.regime != "major" or arc.q % frame.r:
        return 0.0 + 0.0j
    return frame_term(1, frame, theorem1_coefficient(frame, arc.a, arc.q), arc.beta, arc.q).value


def arc_decompose_Rf(f: MultFunc, alpha, x: int, eps: float = 0.1) -> ArcSplit:
    """R_f = M_f + E_f with the single global frame; M_f = 0 on minor arcs
    and carries the r | q indicator on major ones."""
    arc = classify_alpha(alpha, x, eps)
    frame = select_global_frame(f, x)
    R = direct_sum_rational(f, arc.a, arc.q, arc.beta, x)
    M = complex(arc_main_term(frame, arc))
    return ArcSplit(arc, R, M, complex(R - M), frame.r, arc.q % frame.r == 0)


def exponential_sum_grid(f: MultFunc, x: int, M: int) -> np.ndarray:
    """R_f(k/M, x) for k = 0..M-1 via one FFT of the coefficient vector.

    For M <= x the coefficients are folded mod M first (e(nk/M) only sees
    n mod M), so the values stay exact for any grid size.
    """
    vals = eval_range(f, x).astype(np.complex128)
    if M >= x + 1:
        buf = np.zeros(M, dtype=np.complex128)
        buf[: x + 1] = vals
    else:
        n = np.arange(x + 1) % M
        buf = np.bincount(n, weights=vals.real, minlength=M).astype(np.complex128)
        buf += 1j * np.bincount(n, weights=vals.imag, minlength=M)
    return np.fft.ifft(buf) * M


def _mark_major(M: int, x: int, eps: float) -> np.ndarray:
    """Boolean mask over the grid k/M of membership in some arc with q <= Q1.

    Arc a/q covers the grid points ceil((a/q - w) M) .. floor((a/q + w) M)
    mod M, w = arc_halfwidth(q, x), for 0 <= a <= q coprime to q; the runs
    are laid down together as +1/-1 marks whose cumulative sum is the cover.
    """
    _, Q1 = thresholds(x, eps)
    qs = range(1, int(Q1) + 1)
    if not qs:
        return np.zeros(M, dtype=bool)
    q = np.repeat(qs, [k + 1 for k in qs])
    a = np.concatenate([np.arange(k + 1) for k in qs])
    keep = np.gcd(a, q) == 1
    a, q = a[keep], q[keep]
    w = arc_halfwidth(q, x)
    lo = np.ceil((a / q - w) * M).astype(np.int64)
    hi = np.floor((a / q + w) * M).astype(np.int64)
    lo, hi = lo[lo <= hi], hi[lo <= hi]
    if np.any(hi - lo + 1 >= M):
        return np.ones(M, dtype=bool)
    start = lo % M
    stop = start + (hi - lo) + 1  # exclusive; past M the run wraps to 0
    wrap = stop > M
    marks = np.zeros(M + 1, dtype=np.int32)
    np.add.at(marks, start, 1)
    np.add.at(marks, np.minimum(stop, M), -1)
    np.add.at(marks, stop[wrap] - M, -1)
    marks[0] += np.count_nonzero(wrap)
    return np.cumsum(marks[:M], dtype=np.int32) > 0


@dataclass
class EnergyReport:
    x: int
    M: int
    eps: float
    total_energy: float  # (1/M) sum |R|^2 = sum |f(n)|^2 exactly for M > 2x
    coefficient_energy: float
    minor_energy: float
    major_energy: float
    minor_ratio: float  # minor energy / x

    def to_dict(self) -> dict:
        return {
            "x": self.x,
            "M": self.M,
            "eps": self.eps,
            "total_energy": self.total_energy,
            "coefficient_energy": self.coefficient_energy,
            "minor_energy": self.minor_energy,
            "major_energy": self.major_energy,
            "minor_ratio": self.minor_ratio,
        }


def minor_arc_energy(
    f: MultFunc,
    x: int,
    M: int | None = None,
    eps: float = 0.1,
) -> EnergyReport:
    """Grid measurement of int over minor arcs of |R_f|^2.

    M >= 2x + 1 makes the grid mean of |R|^2 equal the integral exactly
    (|R|^2 is a trigonometric polynomial of degree 2x), so total agrees with
    the coefficient energy sum |f(n)|^2 to rounding.

    For {-1,0,1}-valued f the coefficients are real, so |R(k/M)| = |R(-k/M)|
    and one rfft gives the half spectrum k = 0..M//2: bin k stands for the
    grid points k and M - k, each weighted by its own arc mask, with bins 0
    and M/2 (M even) counted once.  Complex f takes the full grid.
    """
    if x < 3:
        raise DomainError(f"minor_arc_energy needs x >= 3, got {x}")
    if M is None:
        # 4x beyond the exactness bound: spacing ~ x/M in the scaled frequency
        # must resolve the arc windows, not just make Parseval exact
        from scipy.fft import next_fast_len

        M = int(next_fast_len(8 * (x + 1)))
    if M < 2 * x + 1:
        raise DomainError(f"grid size {M} below the exactness bound 2x+1 = {2 * x + 1}")
    mask = _mark_major(M, x, eps)
    vals = eval_range(f, x)
    if vals.dtype == np.int8:
        p2 = np.abs(np.fft.rfft(vals, M)) ** 2
        K = len(p2)
        mirrored = np.ones(K)  # 1 where bin k also stands for M - k
        mirrored[0] = 0.0
        if M % 2 == 0:
            mirrored[-1] = 0.0
        major_w = mask[:K] + mirrored * np.concatenate(([False], mask[: M - K : -1]))
        total = float(np.sum(p2 * (1.0 + mirrored)) / M)
        major = float(np.sum(p2 * major_w) / M)
        minor = float(np.sum(p2 * (1.0 + mirrored - major_w)) / M)
        coeff = float(np.count_nonzero(vals))
    else:
        p2 = np.abs(exponential_sum_grid(f, x, M)) ** 2
        total = float(np.sum(p2) / M)
        major = float(np.sum(p2[mask]) / M)
        minor = float(np.sum(p2[~mask]) / M)
        coeff = float(np.sum(np.abs(vals.astype(np.complex128)) ** 2))
    return EnergyReport(
        x=x,
        M=M,
        eps=eps,
        total_energy=total,
        coefficient_energy=coeff,
        minor_energy=minor,
        major_energy=major,
        minor_ratio=minor / x,
    )


# ---------------------------------------------------------------------------
# diagnostic bounds and identities
# ---------------------------------------------------------------------------


@dataclass
class BoundReport:
    arc: ArcDecomposition
    absR: float
    bound_general: float  # x/log x + x sqrt(log R loglog R / R), R = min(q, x/q)
    bound_folklore: float  # x/log x + x/sqrt(q)
    bound_refined: float  # x/log x + x/sqrt(q(1+|beta|x))
    ratios: dict


def bound_report(f: MultFunc, alpha, x: int, eps: float = 0.1) -> BoundReport:
    """|R_f| against the three bound shapes with unit implied constants."""
    arc = classify_alpha(alpha, x, eps)
    R = abs(direct_sum_rational(f, arc.a, arc.q, arc.beta, x))
    lx = math.log(x)
    Rq = min(arc.q, x / max(arc.q, 1))
    if Rq >= 3:
        gen = x / lx + x * math.sqrt(math.log(Rq) * math.log(math.log(Rq)) / Rq)
    else:
        gen = float("inf")
    folk = x / lx + x / math.sqrt(arc.q)
    refined = x / lx + x / math.sqrt(arc.q * (1.0 + abs(arc.beta) * x))
    ratios = {
        "general": R / gen if math.isfinite(gen) else 0.0,
        "folklore": R / folk,
        "refined": R / refined,
    }
    return BoundReport(arc, R, gen, folk, refined, ratios)


def identity_41_residual(f: MultFunc, a: int, q: int, beta: float, x: int) -> float:
    """Relative residual of the exact Abel-summation identity
    R_f(x, a/q + beta) = e(beta x) R_f(x, a/q) - 2 pi i beta
    int_1^x e(beta v) R_f(v, a/q) dv."""
    vals = eval_range(f, x).astype(np.complex128)
    n = np.arange(x + 1)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    base = vals * roots[(n * (a % q)) % q]
    P = np.cumsum(base)
    lhs = direct_sum_rational(f, a, q, beta, x)
    if beta == 0.0:
        return abs(lhs - P[x]) / x
    k = np.arange(1, x)
    seg = (np.exp(2j * np.pi * beta * (k + 1)) - np.exp(2j * np.pi * beta * k)) / (
        2j * np.pi * beta
    )
    integral = np.sum(P[k] * seg)
    rhs = np.exp(2j * np.pi * beta * x) * P[x] - 2j * np.pi * beta * integral
    return float(abs(lhs - rhs)) / x


def pls_tail(f: MultFunc, x: int, q: int, J: int = 3) -> float:
    """sum over chi mod q outside the top J-1 of |S_f(x, chi)|^2; x >= 3, J >= 1."""
    if x < 3:
        raise DomainError(f"pls_tail needs x >= 3, got {x}")
    if J < 1:
        raise DomainError(f"the frame count J must be >= 1, got {J}")
    ranking = rank_characters(f, math.sqrt(x), q)
    total = 0.0
    for chi, _ in ranking.entries[J - 1 :]:
        total += abs(mean_value(f, x, chi)) ** 2
    return total
