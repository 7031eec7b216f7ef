"""The normalized oscillatory integral I(x, beta, t) = (1/x) int_0^x e(beta v) v^{it} dv.

Closed forms exist on the beta = 0 and t = 0 axes; elsewhere we use panel
quadrature sized so that no panel sees more than 1/8 of an e(beta v) period,
with a log substitution v = e^u near 0 where v^{it} oscillates without bound.
The integrand is unimodular, so |I| <= 1 always; the sharper decay in
|beta| x and |t| is exercised by bound checks rather than assumed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_MAX_PANELS = 400_000


def _e(z):
    return np.exp(2j * np.pi * z)


def I_value(x: float, beta: float, t: float) -> complex:
    """I(x, beta, t); exact closed form when beta = 0 or t = 0."""
    if x <= 0:
        raise DomainError(f"I(x, beta, t) needs x > 0, got x={x}")
    if beta == 0.0:
        return complex(np.exp(1j * t * math.log(x)) / (1 + 1j * t))
    if t == 0.0:
        z = beta * x
        if abs(z) < 1e-8:
            # series around z = 0; the quotient form loses precision
            return complex(1.0 + 1j * np.pi * z - (2 * np.pi * z) ** 2 / 6.0)
        return complex((_e(z) - 1) / (2j * np.pi * z))
    return I_quadrature(x, beta, t)


def _panel_integrate(a: np.ndarray, b: np.ndarray, func) -> complex:
    """Sum of int_a[i]^b[i] func over panels, 16-point Gauss-Legendre each."""
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    pts = mid + half * _GL_NODES[None, :]
    vals = func(pts)
    return complex(np.sum(half * vals * _GL_WEIGHTS[None, :]))


def I_quadrature(x: float, beta: float, t: float) -> complex:
    """Panel-quadrature evaluation of I on any (x, beta, t), x > 0."""
    if x <= 0:
        raise DomainError(f"I(x, beta, t) needs x > 0, got x={x}")
    ab = abs(beta)
    v0 = x if ab == 0 else min(x, 1.0 / (8.0 * ab))
    total = 0.0 + 0.0j

    # [x*1e-12, v0] in log coordinates; the truncated tail is below 1e-12 * x
    lo, hi = math.log(x * 1e-12), math.log(v0)
    slope = abs(t) + 2 * np.pi * ab * v0 + 1.0
    n_log = max(8, int(math.ceil((hi - lo) * slope / (np.pi / 4))))
    edges = np.linspace(lo, hi, n_log + 1)

    def glog(u):
        return np.exp((1.0 + 1j * t) * u + 2j * np.pi * beta * np.exp(u))

    total += _panel_integrate(edges[:-1], edges[1:], glog)

    if v0 < x:
        step = min(1.0 / (8.0 * ab), x / 64.0)
        n_lin = int(math.ceil((x - v0) / step))
        if n_lin > _MAX_PANELS:
            warnings.warn(
                f"I quadrature clamped to {_MAX_PANELS} panels at |beta| x = {ab * x:.3g}; "
                "accuracy degrades beyond the panel budget"
            )
            n_lin = _MAX_PANELS
        edges = np.linspace(v0, x, n_lin + 1)

        def glin(v):
            return np.exp(1j * (2 * np.pi * beta * v + t * np.log(v)))

        total += _panel_integrate(edges[:-1], edges[1:], glin)

    return complex(total / x)


def I_bound(x: float, beta: float, t: float) -> float:
    """8 min(1, 1/sqrt|t|, (1 + sqrt|t|)/(|beta| x)).

    The implied constant is pinned empirically at 8; bound violations are
    test failures prompting a constant review, not silent passes.
    """
    if x <= 0:
        raise DomainError("I_bound needs x > 0")
    b = 1.0
    if t != 0:
        b = min(b, 1.0 / math.sqrt(abs(t)))
    if beta != 0:
        b = min(b, (1.0 + math.sqrt(abs(t))) / (abs(beta) * x))
    return 8.0 * b


# ---------------------------------------------------------------------------
# fast evaluation of I(1, gamma, t) on a uniform gamma grid (for Plancherel)
# ---------------------------------------------------------------------------

_DELTA_SMALL = 1e-3
_N_MID = 1 << 20
_L_FFT = 1 << 23


def _series_small(gammas: np.ndarray, t: float) -> np.ndarray:
    """int_0^delta w^{it} e(gamma w) dw, delta = _DELTA_SMALL, by the entire
    series in (2 pi i gamma delta)."""
    delta = _DELTA_SMALL
    z = 2j * np.pi * gammas * delta
    out = np.zeros(len(gammas), dtype=np.complex128)
    term = np.ones(len(gammas), dtype=np.complex128)
    for k in range(0, 80):
        out += term / (k + 1 + 1j * t)
        term = term * z / (k + 1)
    return out * delta * np.exp(1j * t * math.log(delta))


def I_gamma_grid(gamma_max: float, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(gammas, I(1, gammas, t)) on a symmetric uniform grid covering [-gamma_max, gamma_max].

    Midpoint-rule samples of w^{it} on [delta, 1] are turned into all the
    required Fourier values by one zero-padded FFT; [0, delta] is handled by
    the series, which converges for the whole grid since |2 pi gamma delta|
    stays modest.
    """
    delta, n, L = _DELTA_SMALL, _N_MID, _L_FFT
    h = (1.0 - delta) / n
    dgamma = 1.0 / (L * h)
    if 2 * np.pi * gamma_max * delta > 30:
        raise DomainError("gamma_max too large for the small-interval series")
    kmax = int(math.ceil(gamma_max / dgamma))
    if kmax >= L // 2:
        raise DomainError("gamma_max exceeds the FFT band")
    w = delta + (np.arange(n) + 0.5) * h
    g = np.exp(1j * t * np.log(w))
    spectrum = np.fft.fft(g, n=L)
    ks = np.arange(-kmax, kmax + 1)
    gammas = ks * dgamma
    idx = (-ks) % L
    main = h * np.exp(2j * np.pi * gammas * (delta + 0.5 * h)) * spectrum[idx]
    return gammas, main + _series_small(gammas, t)


@dataclass
class PlancherelReport:
    delta: float
    t: float
    x: float
    value: float
    deviation: float
    empirical_constant: float


def plancherel_check(delta: float, t: float, x: float) -> PlancherelReport:
    """x int_{-Delta/x}^{Delta/x} |I(x, beta, t)|^2 dbeta, reported with its
    deficit from 1 and the implied constant it witnesses.

    Substituting gamma = x beta, the integral equals
    int_{-Delta}^{Delta} |I(1, gamma, t)|^2 dgamma, which is what we compute;
    the scaling law is asserted separately against the panel quadrature.
    """
    if delta <= 0 or x <= 0:
        raise DomainError("plancherel_check needs delta > 0 and x > 0")
    from scipy.integrate import simpson

    gammas, vals = I_gamma_grid(delta, t)
    mask = np.abs(gammas) <= delta
    y = np.abs(vals[mask]) ** 2
    value = float(simpson(y, x=gammas[mask]))
    deviation = 1.0 - value
    return PlancherelReport(
        delta=delta,
        t=t,
        x=x,
        value=value,
        deviation=deviation,
        empirical_constant=deviation * delta / (1.0 + abs(t)),
    )
