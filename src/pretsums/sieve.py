"""Smallest-prime-factor sieve and integer factorization support.

Everything downstream evaluates completely multiplicative functions through
one shared SieveTable, so this module is the only place that touches raw
prime generation.  get_sieve(n) and factor(n) are the only ways to reach a
table: a caller asks for the size it needs, the one cached table grows to
serve it, and no function takes a table as an argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError


@dataclass
class SieveTable:
    """spf[n] is the least prime dividing n (spf[p] = p for primes)."""

    limit: int
    spf: np.ndarray
    _primes: np.ndarray | None = field(default=None, repr=False)
    _lpf: np.ndarray | None = field(default=None, repr=False)

    @property
    def primes(self) -> np.ndarray:
        if self._primes is None:
            idx = np.arange(self.limit + 1, dtype=self.spf.dtype)
            self._primes = np.nonzero((self.spf == idx) & (idx >= 2))[0]
        return self._primes

    @property
    def lpf(self) -> np.ndarray:
        """lpf[n] is the largest prime factor of n; lpf[1] = 1."""
        if self._lpf is None:
            lpf = np.zeros(self.limit + 1, dtype=np.int32)
            lpf[1] = 1
            for p in self.primes:
                lpf[p::p] = p
            self._lpf = lpf
        return self._lpf

    def factor(self, n: int) -> list[tuple[int, int]]:
        """Prime factorization of n as [(p, e), ...] with p ascending."""
        if n < 1 or n > self.limit:
            raise DomainError(f"factor: n={n} outside [1, {self.limit}]")
        out = []
        spf = self.spf
        while n > 1:
            p = int(spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return out

    def is_prime(self, n: int) -> bool:
        return 2 <= n <= self.limit and int(self.spf[n]) == n

    def primes_upto(self, x: float) -> np.ndarray:
        p = self.primes
        return p[p <= x]


def _build_spf(limit: int) -> np.ndarray:
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    rest = np.nonzero(spf == 0)[0]
    spf[rest] = rest
    if limit >= 1:
        spf[1] = 1
    spf[0] = 0
    return spf


MAX_LIMIT = 1 << 30  # spf and lpf are int32

_TABLE: SieveTable | None = None


def get_sieve(limit: int) -> SieveTable:
    """The shared sieve with spf up to at least `limit` (rounded up to reuse)."""
    global _TABLE
    if limit < 1:
        raise DomainError(f"sieve limit must be >= 1, got {limit}")
    if limit > MAX_LIMIT:
        raise DomainError(f"sieve limit {limit} exceeds {MAX_LIMIT}")
    if _TABLE is not None and _TABLE.limit >= limit:
        return _TABLE
    # Round up so nearby requests share one table; the big one serves every request.
    cap = 1
    while cap < limit:
        cap *= 2
    cap = max(cap, 1 << 10)
    _TABLE = SieveTable(cap, _build_spf(cap))
    return _TABLE


def factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n as [(p, e), ...] with p ascending; [] for n = 1."""
    return get_sieve(max(n, 2)).factor(n)


def euler_phi(n: int) -> int:
    if n < 1:
        raise DomainError(f"euler_phi: n={n} < 1")
    out = 1
    for p, e in factor(n):
        out *= (p - 1) * p ** (e - 1)
    return out


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, e in factor(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def mobius(n: int) -> int:
    mu = 1
    for _, e in factor(n):
        if e > 1:
            return 0
        mu = -mu
    return mu
