"""Frames of f at scale x: the twist parameters (psi, t) and what they fix.

The score of a candidate twist is the Euler-product modulus
|F(1 + 1/log x + it)| of the twisted function over primes up to x, and t
maximizes it over [-log x, log x].  Ranking characters mod q instead uses the
windowed partial-sum statistic s_f(X, chi) = max |S_f(v, chi)| / v sampled on
a geometric grid, which is what the arithmetic-progression and
exponential-sum predictors order their frames by.  A Frame carries f and x
with (psi, t), and builds each main-term input of the frame once: the twisted
f_j, its kappa and S_{f_j}(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .characters import DirichletCharacter, enumerate_characters
from .errors import DomainError
from .multfunc import KappaFunction, MultFunc, eval_range, mean_value, twist
from .sieve import get_sieve

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _prime_data(f: MultFunc, x: int, sigma: float):
    primes = get_sieve(x).primes_upto(x)
    fp = np.asarray(f.prime_values(primes), dtype=np.complex128)
    keep = np.abs(fp) > 1e-15
    primes, fp = primes[keep], fp[keep]
    lnp = np.log(primes.astype(np.float64))
    w = np.abs(fp) * np.exp(-sigma * lnp)
    theta = np.angle(fp)
    return lnp, w, theta


def _log_modulus(ts: np.ndarray, lnp, w, theta) -> np.ndarray:
    """log |F(sigma + it)| for each t, F the Euler product over the primes."""
    out = np.empty(len(ts))
    w2 = w * w
    chunk = max(1, int(4e6 // max(len(lnp), 1)))
    for i in range(0, len(ts), chunk):
        tt = ts[i : i + chunk]
        phases = theta[None, :] - tt[:, None] * lnp[None, :]
        out[i : i + chunk] = -0.5 * np.sum(np.log1p(w2 - 2.0 * w * np.cos(phases)), axis=1)
    return out


def dirichlet_modulus(f: MultFunc, x: int, t: float) -> float:
    """|F(1 + 1/log x + it)| as a truncated Euler product over p <= x."""
    if x < 3:
        raise DomainError(f"dirichlet_modulus needs x >= 3, got {x}")
    sigma = 1.0 + 1.0 / math.log(x)
    lnp, w, theta = _prime_data(f, x, sigma)
    if len(lnp) == 0:
        return 1.0
    return float(np.exp(_log_modulus(np.array([t]), lnp, w, theta)[0]))


_COARSE_CUT = 100_000


@lru_cache(maxsize=512)
def select_t(f: MultFunc, x: int) -> float:
    """The t in [-T, T], T = log x, maximizing |F(1 + 1/log x + it)|.

    Uniform grid of step 1/(4 log x) (symmetric, containing 0) plus a
    golden-section refinement to width 1e-4 around the best grid point.
    Ties resolve to the smallest t.

    For large x the grid is scanned in two exact stages: primes above 1e5
    perturb the log-score by at most B = sum (w + w^2), so only grid points
    whose truncated score is within 2B of the truncated maximum can carry
    the true maximum; those are re-scored with all primes.
    """
    if x < 3:
        raise DomainError(f"select_t needs x >= 3, got {x}")
    T = math.log(x)
    sigma = 1.0 + 1.0 / math.log(x)
    lnp, w, theta = _prime_data(f, x, sigma)
    if len(lnp) == 0:
        return 0.0  # empty Euler product: |F| = 1 for every t
    step = 1.0 / (4.0 * math.log(x))
    K = int(math.floor(T / step))
    ts = np.arange(-K, K + 1) * step
    cut = math.log(_COARSE_CUT)
    if lnp[-1] > cut and len(lnp) > 2 * _COARSE_CUT ** 0.5:
        head = lnp <= cut
        tail_b = float(np.sum(w[~head] + w[~head] ** 2))
        coarse = _log_modulus(ts, lnp[head], w[head], theta[head])
        cand = np.nonzero(coarse >= np.max(coarse) - 2.0 * tail_b)[0]
        scores_c = _log_modulus(ts[cand], lnp, w, theta)
        best_c = int(np.argmax(scores_c))
        best = int(cand[best_c])
        t_best, s_best = float(ts[best]), float(scores_c[best_c])
    else:
        scores = _log_modulus(ts, lnp, w, theta)
        best = int(np.argmax(scores))
        t_best, s_best = float(ts[best]), float(scores[best])

    lo = max(-T, t_best - step)
    hi = min(T, t_best + step)
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)

    def g(t):
        return float(_log_modulus(np.array([t]), lnp, w, theta)[0])

    fc, fd = g(c), g(d)
    while (b - a) > 1e-4:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = g(d)
    for t, s in ((c, fc), (d, fd)):
        if s > s_best + 1e-13:
            t_best, s_best = t, s
    return t_best


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Frame:
    """The frame of f at scale x: chi mod q ranked for f, its inducing
    primitive psi mod r, and the maximizing t for the twisted function.

    The main-term inputs of the frame are built here once, on first use:
    kappa, f_j = f conj(psi) n^{-it} and S_{f_j}(x).  A consumer supplies
    only its coefficient (expsum.frame_term)."""

    f: MultFunc
    x: int
    chi: DirichletCharacter
    psi: DirichletCharacter
    t: float
    score: float
    s_value: float = float("nan")

    @property
    def r(self) -> int:
        return self.psi.q

    @cached_property
    def kappa(self) -> KappaFunction:
        return KappaFunction(self.f, self.psi, self.t)

    @property
    def f_j(self) -> MultFunc:
        return self.kappa.f_j

    @cached_property
    def S(self) -> complex:
        """S_{f_j}(x)."""
        return mean_value(self.f_j, self.x)


@dataclass
class CharacterRanking:
    q: int
    X: float
    entries: list[tuple[DirichletCharacter, float]]  # (chi, s_f) descending

    def top(self, J: int) -> list[tuple[DirichletCharacter, float]]:
        return self.entries[: J - 1]


RANK_POINTS = 32


def rank_characters(f: MultFunc, X: float, q: int) -> CharacterRanking:
    """Order characters mod q by s_f(X, chi) = max |S_f(v, chi)|/v over a
    geometric grid of up to RANK_POINTS points in [sqrt(X), X^2]; q may not
    exceed the top of that window.  Each character's table is built, used
    and dropped (chi.table), so the ranking holds bare characters."""
    hi = int(math.ceil(X * X))
    if q > hi:
        raise DomainError(f"modulus {q} exceeds the ranking window X^2 = {hi}")
    pts = np.unique(
        np.rint(np.geomspace(math.sqrt(X), X * X, RANK_POINTS)).astype(np.int64)
    )
    pts = pts[pts >= 1]
    vals = eval_range(f, hi)
    n = np.arange(hi + 1)
    entries = []
    for idx, chi in enumerate(enumerate_characters(q)):
        tab = chi.table()
        if tab.dtype == vals.dtype == np.int8:
            sums = np.cumsum(vals.astype(np.int64) * tab[n % q])
        else:
            sums = np.cumsum(vals.astype(np.complex128) * np.conj(tab)[n % q])
        s = float(np.max(np.abs(sums[pts]) / pts))
        entries.append((idx, chi, s))
    entries.sort(key=lambda e: (-e[2], e[0]))
    return CharacterRanking(q, X, [(chi, s) for _, chi, s in entries])


def _frame(
    f: MultFunc,
    x: int,
    chi: DirichletCharacter,
    psi: DirichletCharacter,
    s_value: float = float("nan"),
) -> Frame:
    """The frame of chi (induced by the primitive psi): t maximizes the
    Euler-product modulus of f twisted by psi at scale x."""
    g = twist(f, psi, 0.0)
    t = select_t(g, x)
    return Frame(f, x, chi, psi, t, dirichlet_modulus(g, x, t), s_value)


def select_frames(
    f: MultFunc,
    x: int,
    q: int,
    J: int = 3,
) -> list[Frame]:
    """Top J-1 frames for f mod q: rank by s_f(sqrt(x), .), then pick each
    frame's t as the maximizer for the psi-twisted function at scale x.
    J = 1 gives no frames; J < 1 and x < 3 are domain errors."""
    if x < 3:
        raise DomainError(f"select_frames needs x >= 3, got {x}")
    if J < 1:
        raise DomainError(f"the frame count J must be >= 1, got {J}")
    ranking = rank_characters(f, math.sqrt(x), q)
    return [_frame(f, x, chi, chi.primitive()[0], s) for chi, s in ranking.top(J)]


R_MAX = 12


def primitive_candidates() -> list[DirichletCharacter]:
    """Every primitive character with modulus up to R_MAX."""
    out = []
    for r in range(1, R_MAX + 1):
        if r % 4 == 2:
            continue  # no primitive characters for r = 2 mod 4
        for chi in enumerate_characters(r):
            if chi.is_primitive:
                out.append(chi)
    return out


@lru_cache(maxsize=128)
def select_global_frame(f: MultFunc, x: int) -> Frame:
    """Best (psi, t) over all primitive psi with modulus up to R_MAX,
    scored by the twisted Euler-product modulus at scale x."""
    best: Frame | None = None
    for psi in primitive_candidates():
        fr = _frame(f, x, psi, psi)
        if best is None or fr.score > best.score * (1 + 1e-12):
            best = fr
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# pretentious distance and the bounded-distance criterion
# ---------------------------------------------------------------------------


def pretentious_distance(
    f: MultFunc,
    psi: DirichletCharacter,
    t: float,
    y: float,
    x: float,
) -> float:
    """sum over y < p <= x of (1 - Re f(p) conj(psi)(p) p^{-it}) / p."""
    primes = get_sieve(max(int(x), 1)).primes_upto(x)
    primes = primes[primes > y]
    if len(primes) == 0:
        return 0.0
    re = np.real(twist(f, psi, t).prime_values(primes))
    return float(np.sum((1.0 - re) / primes))


@dataclass
class BrudernReport:
    x: int
    frame: Frame
    distance_x: float
    distance_x2: float
    growth: float
    threshold: float
    bounded: bool

    @property
    def verdict(self) -> str:
        return "bounded" if self.bounded else "growing"


BRUDERN_THRESHOLD = 0.5


def brudern_check(f: MultFunc, x: int) -> BrudernReport:
    """Bounded-distance criterion: compare the distance at scales x and x^2
    at the best frame; growth above BRUDERN_THRESHOLD means the distance
    diverges (minor arcs then carry a positive share of the energy, and
    conversely).
    """
    x2 = x * x
    # frame selected at the base scale; the growth test then probes [x, x^2]
    frame = select_global_frame(f, x)
    d1 = pretentious_distance(f, frame.psi, frame.t, 1.5, x)
    d2 = d1 + pretentious_distance(f, frame.psi, frame.t, x, x2)
    growth = d2 - d1
    return BrudernReport(
        x=x,
        frame=frame,
        distance_x=d1,
        distance_x2=d2,
        growth=growth,
        threshold=BRUDERN_THRESHOLD,
        bounded=growth <= BRUDERN_THRESHOLD,
    )


# ---------------------------------------------------------------------------
# numerical residuals for the two partial-sum identities used downstream
# ---------------------------------------------------------------------------


def lemsumt_residual(f: MultFunc, x: int) -> float:
    """|S_f(x) - x^{it}/(1+it) S_{f n^{-it}}(x)| / x at t = t_f(x, log x)."""
    t = select_t(f, x)
    s_plain = mean_value(f, x)
    tw = twist(f, DirichletCharacter(1, ()), t)
    s_tw = mean_value(tw, x)
    pred = np.exp(1j * t * math.log(x)) / (1 + 1j * t) * s_tw
    return float(abs(s_plain - pred)) / x


def adapt_residual(f: MultFunc, x: int, w: float) -> float:
    """|S_f(x/w) - w^{-(1+it)} S_f(x)| / (x/w) at t = t_f(x, log x)."""
    t = select_t(f, x)
    s_small = mean_value(f, int(x / w))
    s_big = mean_value(f, x)
    pred = w ** (-(1 + 1j * t)) * s_big
    return float(abs(s_small - pred)) / (x / w)


def frame_stability(f: MultFunc, q: int, xs: list[int]) -> list[tuple[int, ...]]:
    """Exponent tuple of the top-ranked character mod q at each scale."""
    out = []
    for x in xs:
        ranking = rank_characters(f, math.sqrt(x), q)
        out.append(ranking.entries[0][0].exponents)
    return out
