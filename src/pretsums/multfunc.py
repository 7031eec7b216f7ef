"""Completely multiplicative functions with values in the closed unit disc.

A MultFunc is determined by its values on primes, and a kind defines them by
one method, `prime_values` over an array of primes; the scalar `prime_value`
reads that array, and a prime rule's only membership test is its `mask`.
Everything here evaluates through a shared smallest-prime-factor sieve.
A function is exact when `prime_values` returns int8 (values -1, 0, 1) and
complex otherwise; that dtype is the only signal of exactness (`exact_int`
reads it).  Exact functions run on an integer fast path (int8 ranges, int64
sums), which the sign-pattern applications rely on.

`twist` is the one source of twisted prime values f(p) conj(psi)(p) p^{-it}:
the kappa and k factors of a frame, S_{f_j}(x), the local daggers and the
pretentious distance all read them from the twisted function, so they agree
to the last bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .characters import DirichletCharacter
from .errors import DomainError
from .sieve import factor, get_sieve


# ---------------------------------------------------------------------------
# prime predicates (rules picking out sets of primes)
# ---------------------------------------------------------------------------


class PrimeRule:
    def mask(self, primes: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class AllPrimes(PrimeRule):
    def mask(self, primes: np.ndarray) -> np.ndarray:
        return np.ones(len(primes), dtype=bool)


@dataclass(frozen=True)
class ResidueRule(PrimeRule):
    """Primes p with p mod modulus in residues."""

    modulus: int
    residues: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise DomainError(f"residue rule modulus must be >= 1, got {self.modulus}")

    def mask(self, primes: np.ndarray) -> np.ndarray:
        return np.isin(primes % self.modulus, np.array(self.residues))


@dataclass(frozen=True)
class ThresholdRule(PrimeRule):
    """Primes p <= bound (op "le") or p > bound (op "gt")."""

    op: str
    bound: float

    def mask(self, primes: np.ndarray) -> np.ndarray:
        return primes <= self.bound if self.op == "le" else primes > self.bound


@dataclass(frozen=True)
class ListRule(PrimeRule):
    primes: frozenset[int]

    def mask(self, primes: np.ndarray) -> np.ndarray:
        return np.isin(primes, np.array(sorted(self.primes)))


# ---------------------------------------------------------------------------
# multiplicative function kinds
# ---------------------------------------------------------------------------


class MultFunc:
    """Base: completely multiplicative, |f(n)| <= 1, f(1) = 1."""

    def prime_values(self, primes: np.ndarray) -> np.ndarray:
        """f(p) for an int64 array of primes: int8 for {-1,0,1}-valued kinds."""
        raise NotImplementedError

    def prime_value(self, p: int) -> complex:
        """f(p) from `prime_values`; a Python int for {-1,0,1}-valued kinds."""
        return self.prime_values(np.array([p], dtype=np.int64))[0].item()

    @property
    def exact_int(self) -> bool:
        """True when f takes only the values -1, 0, 1: `prime_values` is int8."""
        return self.prime_values(np.empty(0, dtype=np.int64)).dtype == np.int8


@dataclass(frozen=True)
class One(MultFunc):
    def prime_values(self, primes: np.ndarray) -> np.ndarray:
        return np.ones(len(primes), dtype=np.int8)


@dataclass(frozen=True)
class SignRule(MultFunc):
    """f(p) = -1 where the rule matches, +1 elsewhere."""

    rule: PrimeRule

    def prime_values(self, primes: np.ndarray) -> np.ndarray:
        out = np.ones(len(primes), dtype=np.int8)
        out[self.rule.mask(primes)] = -1
        return out


@dataclass(frozen=True)
class Indicator(MultFunc):
    """f(p) = 1 where the rule matches, 0 elsewhere: indicator of the
    integers generated by the matching primes."""

    rule: PrimeRule

    def prime_values(self, primes: np.ndarray) -> np.ndarray:
        return self.rule.mask(primes).astype(np.int8)


@dataclass(frozen=True)
class CharacterMF(MultFunc):
    chi: DirichletCharacter

    def prime_values(self, primes: np.ndarray) -> np.ndarray:
        return self.chi.values()[primes % self.chi.q]


@dataclass(frozen=True)
class ArchTwist(MultFunc):
    """f(p) = p^{it}."""

    t: float

    def prime_values(self, primes: np.ndarray) -> np.ndarray:
        if self.t == 0.0:
            return np.ones(len(primes), dtype=np.int8)
        return np.exp(1j * self.t * np.log(primes.astype(np.float64)))


@dataclass(frozen=True)
class PrimeTable(MultFunc):
    """Explicit table p -> value; unlisted primes default to 1."""

    items: tuple[tuple[int, complex], ...]

    def __post_init__(self):
        sieve = get_sieve(max([2, *(p for p, _ in self.items)]))
        for p, v in self.items:
            if not sieve.is_prime(p):
                raise DomainError(f"prime table key {p} is not a prime")
            if abs(v) > 1 + 1e-12:
                raise DomainError(f"|f({p})| = {abs(v)} exceeds 1")

    def prime_values(self, primes: np.ndarray) -> np.ndarray:
        d = dict(self.items)
        vals = [d.get(int(p), 1) for p in primes]
        if all(v in (-1, 0, 1) for _, v in self.items):
            return np.array([int(complex(v).real) for v in vals], dtype=np.int8)
        return np.array(vals, dtype=np.complex128)


@dataclass(frozen=True)
class RandomSign(MultFunc):
    """Seed-fixed random f(p) in {-1, +1}, stable across sieve sizes."""

    seed: int

    def prime_values(self, primes: np.ndarray) -> np.ndarray:
        x = primes.astype(np.uint64) ^ np.uint64(self.seed * 0x9E3779B97F4A7C15 % (1 << 64))
        with np.errstate(over="ignore"):
            z = x + np.uint64(0x9E3779B97F4A7C15)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            z = z ^ (z >> np.uint64(31))
        return (1 - 2 * (z & np.uint64(1)).astype(np.int8)).astype(np.int8)


@dataclass(frozen=True)
class PiecewiseZ(MultFunc):
    """f(p) = below(p) for p <= z, above(p) for p > z."""

    below: MultFunc
    above: MultFunc
    z: float

    def prime_values(self, primes: np.ndarray) -> np.ndarray:
        lo = self.below.prime_values(primes)
        hi = self.above.prime_values(primes)
        return np.where(primes <= self.z, lo, hi)


@dataclass(frozen=True)
class ProductMF(MultFunc):
    factors: tuple[MultFunc, ...]

    def prime_values(self, primes: np.ndarray) -> np.ndarray:
        """int8 while the factors are; complex from the first complex factor on."""
        out = np.ones(len(primes), dtype=np.int8)
        for f in self.factors:
            out = out * f.prime_values(primes)
        return out


def legendre(q: int) -> CharacterMF:
    """The quadratic residue character mod an odd prime q."""
    sieve = get_sieve(max(q, 2))
    if q < 3 or not sieve.is_prime(q) or q % 2 == 0:
        raise DomainError(f"legendre symbol modulus must be an odd prime, got {q}")
    from .characters import character_group

    grp = character_group(q)
    half = grp.components[0].order // 2
    return CharacterMF(DirichletCharacter(q, (half,)))


def liouville() -> SignRule:
    return SignRule(AllPrimes())


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def eval_at(f: MultFunc, n: int) -> complex:
    """f(n) via the prime factorization of n."""
    out: complex = 1
    for p, e in factor(n):
        out *= f.prime_value(p) ** e
    return out


_RANGE_CACHE: dict[tuple, np.ndarray] = {}
_CACHE_LIMIT = 24


def eval_range(f: MultFunc, x: int) -> np.ndarray:
    """Array v with v[n] = f(n) for 1 <= n <= x; v[0] = 0.

    One sieve pass: every prime power q = p^j <= x multiplies the slice
    v[q::q] by f(p), so v[n] picks up f(p) exactly v_p(n) times.  Exact int8
    output for {-1,0,1}-valued kinds, complex128 otherwise.  A cached int8
    array of f over a longer range serves x as its read-only prefix; complex
    arrays are not sliced, because numpy rounds a complex product in a vector
    loop and in its scalar tail differently, so a prefix can differ from a
    fresh evaluation in the last bit.
    """
    if x < 0:
        raise DomainError(f"eval_range: x={x} < 0")
    key = (f, x)
    if key in _RANGE_CACHE:
        return _RANGE_CACHE[key]
    for (g, n), vals in _RANGE_CACHE.items():
        if n > x and vals.dtype == np.int8 and g == f:
            return vals[: x + 1]
    primes = get_sieve(max(x, 1)).primes_upto(x)
    pv = f.prime_values(primes)
    vals = np.ones(x + 1, dtype=np.int8 if pv.dtype == np.int8 else np.complex128)
    vals[0] = 0
    for p, fp in zip(primes.tolist(), pv.tolist()):
        q = p
        while q <= x:
            vals[q::q] *= fp
            q *= p
    vals.flags.writeable = False
    if len(_RANGE_CACHE) >= _CACHE_LIMIT:
        _RANGE_CACHE.pop(next(iter(_RANGE_CACHE)))
    _RANGE_CACHE[key] = vals
    return vals


def fsum_complex(arr: np.ndarray) -> complex:
    """Compensated (math.fsum) sum of a real or complex array, as a complex."""
    if np.iscomplexobj(arr):
        return complex(math.fsum(arr.real), math.fsum(arr.imag))
    return complex(math.fsum(arr), 0.0)


def _exact_dot(c: np.ndarray, w: np.ndarray) -> float:
    """sum c[k] w[k], correctly rounded, for int64 c with |c| < 2^53.

    c splits into 2^26-multiples and a remainder below 2^26, and w into two
    26-bit halves (Veltkamp), so each of the four partial products is exact
    in float64 and math.fsum rounds their sum once.
    """
    c_hi = (c >> 26) << 26
    c_lo = c - c_hi
    s = w * 134217729.0  # 2^27 + 1
    w_hi = s - (s - w)
    w_lo = w - w_hi
    return math.fsum(np.concatenate([c_hi * w_hi, c_hi * w_lo, c_lo * w_hi, c_lo * w_lo]))


def periodic_sum(f: MultFunc, table: np.ndarray, x: int) -> int | complex:
    """sum_{n <= x} f(n) table[n mod q], q = len(table).

    For {-1,0,1}-valued f, f is summed per residue class mod q in int64 and
    only the q class sums meet the table: an exact int for an integer table,
    else the correctly rounded real and imaginary parts (_exact_dot).  Other
    f sum the products with math.fsum.
    """
    vals = eval_range(f, x)
    q = len(table)
    if vals.dtype != np.int8:
        # Keep this one expression: from 16,384 entries numpy reuses the
        # gathered temporary in place, which computes table * f, and numpy's
        # complex product is not bitwise commutative.
        return fsum_complex(vals * table[np.arange(x + 1) % q])
    padded = np.zeros(-(-(x + 1) // q) * q, dtype=np.int8)
    padded[: x + 1] = vals
    classes = padded.reshape(-1, q).sum(axis=0, dtype=np.int64)
    if np.issubdtype(table.dtype, np.integer):
        return int(classes @ table.astype(np.int64))
    return complex(_exact_dot(classes, table.real), _exact_dot(classes, table.imag))


def mean_value(
    f: MultFunc,
    x: int,
    chi: DirichletCharacter | None = None,
) -> complex:
    """S_f(x, chi) = sum_{n <= x} f(n) conj(chi)(n); plain S_f(x) if chi is None."""
    if x <= 0:
        return 0
    if chi is None or chi.q == 1:
        vals = eval_range(f, x)
        if vals.dtype == np.int8:
            return int(np.sum(vals, dtype=np.int64))
        return fsum_complex(vals[1:])
    return periodic_sum(f, np.conj(chi.values()), x)


def mu_mean(f: MultFunc, x: int) -> complex:
    """mu(f, x) = S_f(x) / x."""
    if x <= 0:
        raise DomainError("mu_mean needs x >= 1")
    return mean_value(f, x) / x


# ---------------------------------------------------------------------------
# twists and small/large splits
# ---------------------------------------------------------------------------


def twist(f: MultFunc, psi: DirichletCharacter, t: float) -> MultFunc:
    """f_*(p) = f(p) conj(psi)(p) p^{-it}; the identity twist returns f itself."""
    if psi.q == 1 and t == 0.0:
        return f
    factors: list[MultFunc] = [f]
    if psi.q > 1:
        factors.append(CharacterMF(psi.conjugate()))
    if t != 0.0:
        factors.append(ArchTwist(-t))
    return ProductMF(tuple(factors)) if len(factors) > 1 else f


@dataclass(frozen=True)
class SmallLargeSplit:
    """F_s carries f on primes <= z and psi(p) p^{it} above; F_l complements."""

    f: MultFunc
    psi: DirichletCharacter
    t: float
    z: float
    F_s: MultFunc
    F_l: MultFunc


def split_small_large(f: MultFunc, psi: DirichletCharacter, t: float, z: float) -> SmallLargeSplit:
    if z < 2:
        raise DomainError(f"split threshold z={z} must be >= 2")
    pattern: list[MultFunc] = [CharacterMF(psi)] if psi.q > 1 else []
    if t != 0.0:
        pattern.append(ArchTwist(t))
    pat: MultFunc = ProductMF(tuple(pattern)) if len(pattern) > 1 else (pattern[0] if pattern else One())
    F_s = PiecewiseZ(f, pat, z)
    F_l = PiecewiseZ(One(), twist(f, psi, t), z)
    return SmallLargeSplit(f, psi, t, z, F_s, F_l)


def structure_split(f: MultFunc, t: float, z: float) -> tuple[MultFunc, MultFunc]:
    """f^(s)(p) = f(p) p^{-it} below z and 1 above; f^(l) complements."""
    small = twist(f, DirichletCharacter(1, ()), t)
    f_s = PiecewiseZ(small, One(), z)
    f_l = PiecewiseZ(ArchTwist(t), f, z)
    return f_s, f_l


# ---------------------------------------------------------------------------
# kappa and k factors for a frame (psi mod r, t)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KappaFunction:
    """Multiplicative kappa with f(n)/n^{it} = (kappa * chi)(n).

    At p | r:  kappa(p^b) = f(p)^b p^{-ibt}.
    At p !| r: kappa(p^b) = psi(p)^b (f_j(p)^b - f_j(p)^{b-1}) with
               f_j(p) = f(p) conj(psi)(p) p^{-it}.
    """

    f: MultFunc
    psi: DirichletCharacter
    t: float

    @cached_property
    def f_j(self) -> MultFunc:
        """The twisted f_j, built once: every kappa(p^b) off r reads its prime values."""
        return twist(self.f, self.psi, self.t)

    def at_prime_power(self, p: int, b: int) -> complex:
        if b == 0:
            return 1
        if self.psi.q % p == 0:
            return (self.f.prime_value(p) ** b) * cmath.exp(-1j * b * self.t * math.log(p))
        psip = self.psi(p)
        fj = self.f_j.prime_value(p)
        prev = fj ** (b - 1) if b > 1 else 1
        return complex((psip**b) * (fj**b - prev))

    def eval(self, m: int) -> complex:
        out: complex = 1
        for p, b in factor(m):
            out *= self.at_prime_power(p, b)
        return out


def k_factor(f_j: MultFunc, m: int) -> complex:
    """prod over p | m of (1 - f_j(p)/p); the argument is the twisted f_j."""
    out: complex = 1
    for p, _ in factor(m):
        out *= 1 - f_j.prime_value(p) / p
    is_c = isinstance(out, complex)
    if is_c and out.imag == 0:
        return out.real
    return out


# ---------------------------------------------------------------------------
# extremal construction: align the large primes with a target direction
# ---------------------------------------------------------------------------


def build_adaptive_extremal(base: MultFunc, alpha: float, x: int) -> MultFunc:
    """Redefine f on primes in (x/2, x] as e(theta - p alpha), where e(theta)
    points along the sum of f(n) e(n alpha) over n <= x with no prime factor
    above x/2.  Tie-break: theta = 0 when that sum vanishes.
    """
    sieve = get_sieve(max(x, 1))
    vals = eval_range(base, x).astype(np.complex128)
    n = np.arange(x + 1)
    smooth = sieve.lpf[: x + 1] <= x / 2
    smooth[0] = False
    s = complex(np.sum(vals[smooth] * np.exp(2j * np.pi * alpha * n[smooth])))
    theta = 0.0 if s == 0 else math.atan2(s.imag, s.real) / (2 * math.pi)
    items = []
    for p in sieve.primes_upto(x).tolist():
        if p > x / 2:
            items.append((p, cmath.exp(2j * math.pi * (theta - p * alpha))))
    return PiecewiseZ(base, PrimeTable(tuple(items)), x / 2)
