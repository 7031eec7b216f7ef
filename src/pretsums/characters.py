"""Dirichlet characters mod q, conductors, Gauss sums, and periodic functions.

A character is an exponent tuple against a fixed generator list, one cyclic
component per generator: the least primitive root mod p that stays primitive
mod p^2 (hence for every power) for odd p^e, -1 for 4 | q, and 5 as well for
8 | q.  The exponent tuple is also the CLI index, so runs are reproducible.
Every value is read from one integer index: chi(n) = e(k(n)/L) on units, L the
exponent of the group, and k = -1 off units.

The conductor is prod_p p^{c_p}, c_p the largest v_p(o) + level over the
components at p on which chi has order o > 1 (level 2 for the generator 5,
else 1).  `restrict(m)`, for m | q, reads the exponent at each generator g of
(Z/m)* off k(n) with n = g modulo the p-part of q and n = 1 modulo the rest:
the primitive character is restrict(conductor), and restrict(p^e) is the
local factor at p^e || q.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property
from math import gcd, lcm, prod

import numpy as np

from .errors import DomainError
from .sieve import euler_phi, factor


# ---------------------------------------------------------------------------
# group structure
# ---------------------------------------------------------------------------


@cache
def _generator(p: int) -> int:
    """Least g that generates both (Z/p)* and (Z/p^2)*."""
    phi_p = p - 1
    fac = [q for q, _ in factor(phi_p)]
    for g in range(2, p * p):
        if g % p == 0:
            continue
        if any(pow(g, phi_p // q, p) == 1 for q in fac):
            continue
        if p * p < 1 << 62 and pow(g, phi_p, p * p) == 1:
            continue
        return g
    raise RuntimeError(f"no primitive root found for {p}")


@dataclass(frozen=True)
class _Component:
    prime: int
    modulus: int  # p^e
    order: int
    gen: int  # the primitive root for odd p, -1 for the sign, 5 for 2^e with e >= 3
    level: int = 1  # c_p = v_p(order of chi on it) + level: 2 for the 5-factor


class CharacterGroup:
    """Unit-group structure mod q: generators, dlog tables and roots of unity."""

    def __init__(self, q: int):
        if q < 1:
            raise DomainError(f"character group modulus must be >= 1, got {q}")
        self.q = q
        comps: list[_Component] = []
        for p, e in factor(q):
            pe = p**e
            if p != 2:
                comps.append(_Component(p, pe, (p - 1) * p ** (e - 1), _generator(p)))
            elif e >= 2:
                comps.append(_Component(2, pe, 2, -1))
                if e >= 3:
                    comps.append(_Component(2, pe, 2 ** (e - 2), 5, level=2))
        self.components = tuple(comps)
        self.exponent = lcm(*(c.order for c in comps))

    @cached_property
    def dlogs(self) -> list[np.ndarray]:
        """Per component, the exponent of its generator in each residue mod
        its modulus (-1 off units); mod 2^e a unit is (-1)^s 5^b."""
        tables = []
        for c in self.components:
            dl = np.full(c.modulus, -1, dtype=np.int64)
            if c.gen == -1:
                dl[1::4], dl[3::4] = 0, 1
            else:
                x = 1
                for k in range(c.order):
                    dl[x] = k
                    if c.prime == 2:
                        dl[c.modulus - x] = k
                    x = (x * c.gen) % c.modulus
            tables.append(dl)
        return tables

    @cached_property
    def nonunits(self) -> np.ndarray:
        return np.gcd(np.arange(self.q), self.q) != 1

    @cached_property
    def roots(self) -> np.ndarray:
        """e(k/L) for k = 0..L-1, exact at 1, -1, i and -i."""
        L = self.exponent
        roots = np.exp(2j * np.pi * np.arange(L) / L)
        roots[0] = 1.0
        if L % 2 == 0:
            roots[L // 2] = -1.0
        if L % 4 == 0:
            roots[L // 4] = 1j
            roots[3 * L // 4] = -1j
        roots.flags.writeable = False
        return roots


@cache
def character_group(q: int) -> CharacterGroup:
    return CharacterGroup(q)


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirichletCharacter:
    """Character mod q, indexed by exponents against the fixed generators."""

    q: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        orders = [c.order for c in character_group(self.q).components]
        if len(self.exponents) != len(orders) or any(
            not 0 <= a < o for a, o in zip(self.exponents, orders)
        ):
            raise DomainError(
                f"character mod {self.q} takes one exponent in [0, order) per order "
                f"{orders}, got {self.exponents}"
            )

    @property
    def group(self) -> CharacterGroup:
        return character_group(self.q)

    def index(self, n: int) -> int:
        """k(n): chi(n) = e(k/L) when gcd(n, q) = 1, else -1."""
        if gcd(n, self.q) != 1:
            return -1
        grp = self.group
        k = 0
        for a, c, dl in zip(self.exponents, grp.components, grp.dlogs):
            k += a * (grp.exponent // c.order) * dl.item(n % c.modulus)
        return k % grp.exponent

    def indices(self) -> np.ndarray:
        """k(n) for n = 0..q-1."""
        grp = self.group
        n = np.arange(self.q)
        k = np.zeros(self.q, dtype=np.int64)
        for a, c, dl in zip(self.exponents, grp.components, grp.dlogs):
            k += a * (grp.exponent // c.order) * dl[n % c.modulus]
        k %= grp.exponent
        k[grp.nonunits] = -1
        return k

    def __call__(self, n: int) -> complex:
        k = self.index(n)
        if self.order <= 2:
            return 0 if k < 0 else (1 if k == 0 else -1)
        return 0j if k < 0 else self.group.roots.item(k)

    def values(self) -> np.ndarray:
        """chi(n) for n = 0..q-1, cached and read-only: int8 for a real
        character, complex128 otherwise (see `table`)."""
        return self._values

    @cached_property
    def _values(self) -> np.ndarray:
        tab = self.table()
        tab.flags.writeable = False
        return tab

    def table(self) -> np.ndarray:
        """chi(n) for n = 0..q-1, built afresh from the indices and kept
        nowhere: int8 for a real character, complex128 otherwise."""
        k = self.indices()
        if self.is_real:
            return (k == 0).astype(np.int8) - (k > 0)  # 1 at k = 0, -1 at k = L/2, 0 off units
        tab = self.group.roots[k]
        tab[k < 0] = 0
        return tab

    @property
    def is_principal(self) -> bool:
        return all(a == 0 for a in self.exponents)

    @cached_property
    def order(self) -> int:
        return lcm(*(c.order // gcd(a, c.order) for a, c in zip(self.exponents, self.group.components)))

    @property
    def is_real(self) -> bool:
        return self.order <= 2

    def conjugate(self) -> "DirichletCharacter":
        comps = self.group.components
        exps = tuple((-a) % c.order for a, c in zip(self.exponents, comps))
        return DirichletCharacter(self.q, exps)

    # -- conductor / restriction ------------------------------------------------

    def _conductor_exponents(self) -> dict[int, int]:
        """p -> c_p, the largest v_p(o) + level over the components at p on
        which chi has order o > 1."""
        c_p: dict[int, int] = {}
        for a, c in zip(self.exponents, self.group.components):
            o = c.order // gcd(a, c.order)
            if o > 1:
                v = 0
                while o % c.prime == 0:
                    o //= c.prime
                    v += 1
                c_p[c.prime] = max(c_p.get(c.prime, 0), v + c.level)
        return c_p

    def conductor(self) -> int:
        return prod(p**c for p, c in self._conductor_exponents().items())

    def restrict(self, m: int) -> "DirichletCharacter":
        """The character mod m | q carrying chi's factors at the primes of m,
        each of which must be defined mod the p-part of m (as for m = the
        conductor, or m = p^e || q)."""
        c_p = self._conductor_exponents()
        if m < 1 or self.q % m or any(m % p == 0 and m % p**c for p, c in c_p.items()):
            raise DomainError(f"character mod {self.q} does not restrict to modulus {m}")
        L = self.group.exponent
        parts = {p: p**e for p, e in factor(self.q)}
        exps = []
        for c in character_group(m).components:
            pe = parts[c.prime]
            rest = self.q // pe
            n = 1 + rest * ((c.gen - 1) * pow(rest, -1, pe) % pe)
            exps.append(self.index(n) * c.order // L)
        return DirichletCharacter(m, tuple(exps))

    def primitive(self) -> tuple["DirichletCharacter", int]:
        """The primitive character inducing this one, with its modulus."""
        r = self.conductor()
        return self.restrict(r), r

    @property
    def is_primitive(self) -> bool:
        return self.conductor() == self.q

    # -- sums -------------------------------------------------------------------

    def gauss_sum(self) -> complex:
        return self._gauss_sum

    @cached_property
    def _gauss_sum(self) -> complex:
        return gauss_sum(self)


def enumerate_characters(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod q, principal first, ordered by exponents."""
    if q < 1:
        raise DomainError(f"modulus must be >= 1, got {q}")
    if q > 10**6:
        raise DomainError(f"modulus {q} exceeds the supported bound 10^6")
    grp = character_group(q)
    ranges = [range(c.order) for c in grp.components]
    return [DirichletCharacter(q, exps) for exps in itertools.product(*ranges)]


def gauss_sum(chi: DirichletCharacter) -> complex:
    """g(chi) = sum over a mod q of chi(a) e(a/q); equals 1 at q = 1."""
    q = chi.q
    vals = chi.values()
    m = np.arange(q)
    return complex(np.sum(vals * np.exp(2j * np.pi * m / q)))


def additive_char_expand(b: int, q: int) -> tuple[dict[DirichletCharacter, complex], complex]:
    """Coefficients chi -> conj(chi)(b) g(chi) / phi(q), plus their sum.

    The sum reconstructs e(b/q); only defined for gcd(b, q) = 1 (for shared
    factors the expansion over characters mod q breaks down and a different
    treatment is required).
    """
    if q < 1:
        raise DomainError("modulus must be positive")
    if gcd(b, q) != 1:
        raise DomainError(f"additive_char_expand requires gcd(b, q) = 1, got ({b}, {q})")
    phi = euler_phi(q)
    coeffs: dict[DirichletCharacter, complex] = {}
    for chi in enumerate_characters(q):
        coeffs[chi] = chi.conjugate()(b) * gauss_sum(chi) / phi
    return coeffs, complex(sum(coeffs.values()))


# ---------------------------------------------------------------------------
# periodic functions (period q, optionally with per-prime-power structure)
# ---------------------------------------------------------------------------


def _e(x: np.ndarray | float) -> np.ndarray | complex:
    return np.exp(2j * np.pi * np.asarray(x, dtype=np.float64))


class PeriodicFunction:
    """Function of period q given by a value table.

    weil_md carries the strength (m + d) entering the square-root cancellation
    bound for size-one functions; factors holds the per-prime-power tables
    h_p when the function splits as a product over p^e || q.
    """

    def __init__(
        self,
        period: int,
        table,
        weil_md: int | None = None,
        factors: dict[int, np.ndarray] | None = None,
    ):
        if period < 1:
            raise DomainError("period must be >= 1")
        tab = np.asarray(table, dtype=np.complex128)
        if tab.shape != (period,):
            raise DomainError(f"table length {tab.shape} does not match period {period}")
        self.period = period
        self.table = tab
        self.weil_md = weil_md
        self.factors = factors

    def __call__(self, n: int) -> complex:
        return complex(self.table[n % self.period])

    def minimal_period(self) -> int:
        from .sieve import divisors

        for d in divisors(self.period):
            if d == self.period:
                break
            reps = self.period // d
            if np.allclose(np.tile(self.table[:d], reps), self.table, atol=1e-12):
                return d
        return self.period

    def crt_consistent(self) -> bool:
        """Does the factor product reproduce the table exactly (to rounding)?"""
        if not self.factors:
            return True
        n = np.arange(self.period)
        prod = np.ones(self.period, dtype=np.complex128)
        for pe, tab in self.factors.items():
            prod *= tab[n % pe]
        return bool(np.max(np.abs(prod - self.table)) < 1e-9)


def _crt_multipliers(q: int) -> dict[int, int]:
    """pe -> inverse of q/pe mod pe, so that x/q = sum_p x*c_p/pe mod 1."""
    out = {}
    for p, e in factor(q):
        pe = p**e
        out[pe] = pow(q // pe, -1, pe)
    return out


def periodic_one() -> PeriodicFunction:
    return PeriodicFunction(1, [1.0], weil_md=None, factors={})


def periodic_exp_fraction(q: int) -> PeriodicFunction:
    """h(n) = e(n/q)."""
    return periodic_exp_poly(q, (0, 1, 0))


def periodic_exp_poly(q: int, coeffs: tuple[int, int, int]) -> PeriodicFunction:
    """h(n) = e(g(n)/q) with g(n) = a n^2 + b n + c."""
    a, b, c = coeffs
    n = np.arange(q)
    g = (a * n * n + b * n + c) % q
    deg = 2 if a % q else (1 if b % q else 0)
    factors = {}
    if q > 1:
        for pe, cp in _crt_multipliers(q).items():
            u = np.arange(pe)
            gp = (a * u * u + b * u + c) % pe
            factors[pe] = _e(gp * cp / pe)
    return PeriodicFunction(q, _e(g / q), weil_md=deg, factors=factors)


def periodic_kloosterman(q: int, a: int, b: int) -> PeriodicFunction:
    """h(n) = e((a n + b nbar)/q) on units mod q, 0 elsewhere."""
    tab = np.zeros(q, dtype=np.complex128)
    for n in range(q):
        if gcd(n, q) == 1:
            nbar = pow(n, -1, q)
            tab[n] = np.exp(2j * np.pi * ((a * n + b * nbar) % q) / q)
    factors = {}
    if q > 1:
        for pe, cp in _crt_multipliers(q).items():
            ft = np.zeros(pe, dtype=np.complex128)
            for u in range(pe):
                if gcd(u, pe) == 1:
                    ub = pow(u, -1, pe)
                    ft[u] = np.exp(2j * np.pi * ((cp * (a * u + b * ub)) % pe) / pe)
            factors[pe] = ft
    return PeriodicFunction(q, tab, weil_md=2, factors=factors)


def periodic_char_shift(chi: DirichletCharacter, shift: int) -> PeriodicFunction:
    """h(n) = chi(n + shift)."""
    q = chi.q
    n = np.arange(q)
    tab = chi.values()[(n + shift) % q]
    factors = {}
    for p, e in factor(q):
        pe = p**e
        local = chi.restrict(pe)
        u = np.arange(pe)
        factors[pe] = local.values()[(u + shift) % pe]
    return PeriodicFunction(q, tab, weil_md=1, factors=factors)


def periodic_product(h1: PeriodicFunction, h2: PeriodicFunction) -> PeriodicFunction:
    if h1.period == 1:
        return h2 if h2.period != 1 else periodic_one()
    if h2.period == 1:
        return h1
    if h1.period != h2.period:
        raise DomainError("periodic product requires equal periods")
    md = None
    if h1.weil_md is not None and h2.weil_md is not None:
        md = h1.weil_md + h2.weil_md
    factors = None
    if h1.factors is not None and h2.factors is not None:
        if set(h1.factors) == set(h2.factors):
            factors = {pe: h1.factors[pe] * h2.factors[pe] for pe in h1.factors}
    return PeriodicFunction(h1.period, h1.table * h2.table, weil_md=md, factors=factors)


def periodic_from_table(q: int, table) -> PeriodicFunction:
    return PeriodicFunction(q, table, weil_md=None, factors=None)


# ---------------------------------------------------------------------------
# pseudo-Gauss sums
# ---------------------------------------------------------------------------


def pseudo_gauss(h: PeriodicFunction, D: int, psi: DirichletCharacter) -> complex:
    """G_h(D; psi) = sum_{a=1}^{D} psi(a) h(a q / D), requiring r | D | q."""
    q = h.period
    if D < 1 or q % D != 0:
        raise DomainError(f"pseudo_gauss requires D | q, got D={D}, q={q}")
    if D % psi.q != 0:
        raise DomainError(f"pseudo_gauss requires r | D, got r={psi.q}, D={D}")
    s = q // D
    a = np.arange(1, D + 1)
    pv = psi.values()[a % psi.q]
    hv = h.table[(a * s) % q]
    return complex(np.sum(pv * hv))


def pseudo_gauss_dagger(h: PeriodicFunction, m: int, psi: DirichletCharacter) -> complex:
    """G_h^dag(m; psi) = sum over reduced residues b mod m of psi(b) h(b q / m)."""
    q = h.period
    if m < 1 or q % m != 0:
        raise DomainError(f"pseudo_gauss_dagger requires m | q, got m={m}, q={q}")
    s = q // m
    b = np.arange(1, m + 1)
    b = b[np.gcd(b, m) == 1]
    pv = psi.values()[b % psi.q]
    hv = h.table[(b * s) % q]
    return complex(np.sum(pv * hv))


# ---------------------------------------------------------------------------
# Weil-type bound report
# ---------------------------------------------------------------------------


@dataclass
class WeilReport:
    q: int
    md: int
    per_prime: list[tuple[int, int, float, float, bool]]  # (p, e, |sum|, bound, ok)
    total_abs: float
    total_bound: float
    ok: bool


def weil_bound_check(h: PeriodicFunction) -> WeilReport:
    """Check |sum of h mod p^e| <= (m+d) p^{e/2} per factor and globally."""
    q = h.period
    if h.weil_md is None:
        raise DomainError("weil_bound_check needs a function with (m+d) structure")
    factors = h.factors
    if not factors:
        fac = factor(q)
        if len(fac) == 1:
            factors = {q: h.table}
        else:
            raise DomainError("weil_bound_check needs per-prime-power factors")
    md = h.weil_md
    rows = []
    ok = True
    for pe, tab in sorted(factors.items()):
        hp = PeriodicFunction(pe, tab)
        if hp.minimal_period() != pe:
            raise DomainError(f"factor mod {pe} does not have minimal period {pe}")
        [(p, e)] = factor(pe)
        s = abs(complex(np.sum(tab)))
        bound = md * pe**0.5
        rows.append((p, e, s, bound, s <= bound + 1e-9))
        ok &= s <= bound + 1e-9
    total = abs(complex(np.sum(h.table)))
    total_bound = (md ** len(factors)) * q**0.5
    ok &= total <= total_bound + 1e-9
    return WeilReport(q, md, rows, total, total_bound, ok)
