"""Benchmark-side reference values and result checks.

Every check recomputes its expected value here, from a function's values at
primes (its definition) and this module's own sieve.  No check trusts the
library function whose call was timed.  A failed check raises CheckFailed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


class CheckFailed(AssertionError):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def own_spf(limit: int) -> np.ndarray:
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    idx = np.nonzero(spf == 0)[0]
    spf[idx] = idx
    return spf


class Reference:
    """f(n) for n <= limit by peeling smallest prime factors, cached per f."""

    def __init__(self, limit: int):
        self.limit = max(limit, 16)
        self.spf = own_spf(self.limit)
        n = np.arange(self.limit + 1)
        self.primes = np.nonzero((self.spf == n) & (n >= 2))[0]
        self._vals: dict[object, np.ndarray] = {}

    def values(self, f, x: int) -> np.ndarray:
        """v[n] = f(n) for 0 <= n <= x (v[0] = 0); int8 when f is {-1,0,1}-valued."""
        require(x <= self.limit, f"reference limit {self.limit} below x={x}")
        have = self._vals.get(f)
        if have is None or len(have) <= x:
            fp = f.prime_values(self.primes)
            exact = f.exact_int and fp.dtype == np.int8
            table = np.zeros(self.limit + 1, dtype=np.int8 if exact else np.complex128)
            table[self.primes] = fp
            out = np.ones(self.limit + 1, dtype=table.dtype)
            m = np.arange(self.limit + 1)
            act = np.nonzero(m > 1)[0]
            while len(act):
                p = self.spf[m[act]]
                out[act] *= table[p]
                m[act] //= p
                act = act[m[act] > 1]
            out[0] = 0
            self._vals[f] = have = out
        return have[: x + 1]

    def forget(self, f) -> None:
        self._vals.pop(f, None)

    # -- exponential sums ----------------------------------------------------

    def rational_sum(self, f, a: int, q: int, beta: float, x: int) -> tuple[complex, float]:
        """(R_f(a/q + beta, x), allowed error), summed by residue class mod q.

        For {-1,0,1}-valued f at beta = 0 the class sums are exact integers
        and the combination with the q roots is done in exact rationals, so
        the only allowed error is the rounding of a q-term sum.
        """
        v = self.values(f, x)
        n = np.arange(x + 1)
        roots = np.exp(2j * np.pi * np.arange(q) / q)
        r = n % q
        rot = roots[(np.arange(q) * (a % q)) % q]
        if v.dtype == np.int8 and beta == 0.0:
            counts = np.bincount(r, weights=v.astype(np.float64), minlength=q)
            cls = [int(c) for c in counts]
            re = sum(Fraction(c) * Fraction(float(w.real)) for c, w in zip(cls, rot))
            im = sum(Fraction(c) * Fraction(float(w.imag)) for c, w in zip(cls, rot))
            tol = q * 2.0**-52 * sum(abs(c) for c in cls)
            return complex(float(re), float(im)), tol
        z = v.astype(np.complex128)
        if beta != 0.0:
            z = z * np.exp(2j * np.pi * np.mod(n * beta, 1.0))
        cre = np.bincount(r, weights=z.real, minlength=q)
        cim = np.bincount(r, weights=z.imag, minlength=q)
        return complex(np.sum((cre + 1j * cim) * rot)), 1e-9 * x

    def check_rational_sum(self, got: complex, f, a: int, q: int, beta: float, x: int) -> None:
        ref, tol = self.rational_sum(f, a, q, beta, x)
        err = abs(complex(got) - ref)
        require(err <= tol, f"R_f({a}/{q}+{beta!r}, {x}) off by {err:.3g} > {tol:.3g}")

    # -- Euler-product scores ------------------------------------------------

    def log_modulus(self, f, psi, x: int, t: float) -> float:
        """log |F(1 + 1/log x + it)| for f twisted by conj(psi), primes p <= x."""
        p = self.primes[self.primes <= x]
        g = np.asarray(f.prime_values(p), dtype=np.complex128)
        if psi.q > 1:
            g = g * np.conj(psi.values()[p % psi.q])
        sigma = 1.0 + 1.0 / math.log(x)
        z = g * np.exp(-(sigma + 1j * t) * np.log(p.astype(np.float64)))
        return float(-0.5 * np.sum(np.log1p(np.abs(z) ** 2 - 2.0 * z.real)))

    def check_frame(self, frame, f, x: int, probes: list[float]) -> None:
        """The frame's score is |F| at its t, and no probe t (nor 0) beats it."""
        own = self.log_modulus(f, frame.psi, x, frame.t)
        require(
            abs(math.log(frame.score) - own) <= 1e-9,
            f"frame score {frame.score!r} != own |F| {math.exp(own)!r} at t={frame.t}",
        )
        for t in [0.0, *probes]:
            other = self.log_modulus(f, frame.psi, x, t)
            require(other <= own + 1e-9, f"|F| at t={t} exceeds frame score at t={frame.t}")

    # -- triple counts -------------------------------------------------------

    def triple_count(self, fs, x: int, mode: str, weights=None):
        """Sum of w_f(l) w_g(m) w_h(n) over l + m = n <= x (linear) or
        l + m + n = x (partition), by one real convolution.  Exact for
        integer weights."""
        arrs = list(weights) if weights is not None else [self.values(fn, x) for fn in fs]
        exact = all(a.dtype.kind in "iu" for a in arrs)
        a, b, c = (np.asarray(v[: x + 1]) for v in arrs)
        L = 1 << (2 * x + 2).bit_length()
        if exact:
            conv = np.rint(np.fft.irfft(np.fft.rfft(a.astype(np.float64), L) * np.fft.rfft(b.astype(np.float64), L), L))
            conv = conv.astype(np.int64)[: 2 * x + 1]
            if mode == "linear":
                return int(np.dot(conv[1 : x + 1], c[1 : x + 1].astype(np.int64)))
            n = np.arange(1, x - 1)
            return int(np.dot(conv[x - n], c[n].astype(np.int64)))
        conv = np.fft.ifft(np.fft.fft(a.astype(np.complex128), L) * np.fft.fft(b.astype(np.complex128), L))
        if mode == "linear":
            return complex(np.sum(conv[1 : x + 1] * c[1 : x + 1]))
        n = np.arange(1, x - 1)
        return complex(np.sum(conv[x - n] * c[n]))

    def triple_loop(self, fs, x: int, mode: str, weights=None):
        """The same sum as a direct double loop (small x only)."""
        arrs = list(weights) if weights is not None else [self.values(fn, x) for fn in fs]
        a, b, c = (np.asarray(v[: x + 1]) for v in arrs)
        exact = all(v.dtype.kind in "iu" for v in (a, b, c))
        a, b, c = ((v.astype(np.int64) if exact else v.astype(np.complex128)) for v in (a, b, c))
        total = 0
        for ell in range(1, x + 1):
            if mode == "linear":
                m = np.arange(1, x - ell + 1)
                total += a[ell] * np.sum(b[m] * c[ell + m])
            elif ell <= x - 2:
                m = np.arange(1, x - ell)
                total += a[ell] * np.sum(b[m] * c[x - ell - m])
        return int(total) if exact else complex(total)

    def check_count(self, got: complex, want, scale: int) -> None:
        if isinstance(want, int):
            require(complex(got) == complex(want), f"triple count {got} != exact {want}")
        else:
            err = abs(complex(got) - want)
            require(err <= 1e-9 * scale * scale, f"triple count off by {err:.3g}")


def sign_weights(ref: Reference, fs, eps, x: int) -> list[np.ndarray]:
    """1 + eps_i f_i(n): twice the indicator of f_i(n) = eps_i for +-1 values."""
    out = []
    for fn, e in zip(fs, eps):
        w = 1 + e * ref.values(fn, x).astype(np.int64)
        w[0] = 0
        out.append(w)
    return out


def scan_reference(ref: Reference, f, x: int, M: int, rows: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """|R_f(k/M, x)| for every k by a forward FFT of the conjugated class
    sums, and the same for the listed rows by direct summation."""
    v = ref.values(f, x).astype(np.complex128)
    n = np.arange(x + 1)
    cls = np.bincount(n % M, weights=v.real, minlength=M) - 1j * np.bincount(n % M, weights=v.imag, minlength=M)
    full = np.abs(np.fft.fft(cls))
    direct = np.array([abs(np.sum(v * np.exp(2j * np.pi * ((n * k) % M) / M))) for k in rows])
    return full, direct
