"""Dirichlet characters mod q, conductors, Gauss sums, and periodic functions.

Characters are represented by exponent tuples against a fixed generator basis:
one cyclic component per odd prime power, and the pair (-1, 5) for 2^e with
e >= 3.  The exponent tuple in this basis is also the CLI index, so runs are
reproducible.  Generators for odd p are chosen as the least primitive root
mod p that stays primitive mod p^2 (hence primitive for every power), which
keeps the inducing-character maps a pure exponent rescaling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

import numpy as np

from .errors import DomainError
from .sieve import euler_phi, factor

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# group structure
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
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
    power: int  # e in p^e
    modulus: int  # p^e
    order: int
    kind: str  # "odd", "four", "sign", "five"


class CharacterGroup:
    """Unit-group structure mod q plus cached dlog and value tables."""

    def __init__(self, q: int):
        if q < 1:
            raise DomainError(f"character group modulus must be >= 1, got {q}")
        self.q = q
        self.phi = euler_phi(q)
        comps: list[_Component] = []
        for p, e in factor(q):
            pe = p**e
            if p == 2:
                if e == 2:
                    comps.append(_Component(2, e, 4, 2, "four"))
                elif e >= 3:
                    comps.append(_Component(2, e, pe, 2, "sign"))
                    comps.append(_Component(2, e, pe, 2 ** (e - 2), "five"))
                # e == 1: trivial unit group, no component
            else:
                comps.append(_Component(p, e, pe, (p - 1) * p ** (e - 1), "odd"))
        self.components = tuple(comps)
        self.exponent = lcm(*(c.order for c in comps)) if comps else 1
        self._dlogs: list[np.ndarray] | None = None
        self._value_cache: dict[tuple[int, ...], np.ndarray] = {}
        self._int_cache: dict[tuple[int, ...], np.ndarray | None] = {}
        self._gauss_cache: dict[tuple[int, ...], complex] = {}

    # -- discrete logs ------------------------------------------------------

    def _build_dlogs(self) -> list[np.ndarray]:
        tables = []
        done_mod: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for c in self.components:
            if c.kind == "odd":
                dl = np.full(c.modulus, -1, dtype=np.int64)
                g, x = _generator(c.prime), 1
                for k in range(c.order):
                    dl[x] = k
                    x = (x * g) % c.modulus
                tables.append(dl)
            elif c.kind == "four":
                dl = np.full(4, -1, dtype=np.int64)
                dl[1], dl[3] = 0, 1
                tables.append(dl)
            else:
                # 2^e, e >= 3: n = (-1)^s 5^b; build both coordinates once
                if c.modulus not in done_mod:
                    m = c.modulus
                    sign = np.full(m, -1, dtype=np.int64)
                    five = np.full(m, -1, dtype=np.int64)
                    x = 1
                    for b in range(m // 4):
                        sign[x], five[x] = 0, b
                        sign[m - x], five[m - x] = 1, b
                        x = (x * 5) % m
                    done_mod[m] = (sign, five)
                tables.append(done_mod[c.modulus][0 if c.kind == "sign" else 1])
        return tables

    @property
    def dlogs(self) -> list[np.ndarray]:
        if self._dlogs is None:
            self._dlogs = self._build_dlogs()
        return self._dlogs

    # -- value tables ---------------------------------------------------------

    def value_table(self, exponents: tuple[int, ...]) -> np.ndarray:
        """chi(n) for n = 0..q-1 as complex128."""
        if exponents in self._value_cache:
            return self._value_cache[exponents]
        q, L = self.q, self.exponent
        if q == 1:
            tab = np.ones(1, dtype=np.complex128)
        else:
            idx = np.arange(q)
            num = np.zeros(q, dtype=np.int64)
            units = np.ones(q, dtype=bool)
            for a, comp, dl in zip(exponents, self.components, self.dlogs):
                k = dl[idx % comp.modulus]
                units &= k >= 0
                num += (a * (L // comp.order)) * np.where(k >= 0, k, 0)
            num %= L
            if q % 2 == 0:
                units[idx % 2 == 0] = False
            roots = np.exp(2j * np.pi * np.arange(L) / L)
            roots[0] = 1.0
            if L % 2 == 0:
                roots[L // 2] = -1.0
            if L % 4 == 0:
                roots[L // 4] = 1j
                roots[3 * L // 4] = -1j
            tab = np.where(units, roots[num], 0.0)
        self._value_cache[exponents] = tab
        return tab

    def int_table(self, exponents: tuple[int, ...]) -> np.ndarray | None:
        """Exact int8 table when the character is real, else None."""
        if exponents in self._int_cache:
            return self._int_cache[exponents]
        out: np.ndarray | None = None
        if self.char_order(exponents) <= 2:
            tab = self.value_table(exponents)
            out = np.rint(tab.real).astype(np.int8)
        self._int_cache[exponents] = out
        return out

    def char_order(self, exponents: tuple[int, ...]) -> int:
        o = 1
        for a, comp in zip(exponents, self.components):
            o = lcm(o, comp.order // gcd(a, comp.order))
        return o

    def prime_part_character(self, exponents: tuple[int, ...], pe: int) -> "DirichletCharacter":
        """The character mod p^e carrying this character's components at p.

        q must factor as pe * (coprime part); the returned character is the
        local factor chi_p in chi = prod_p chi_p.
        """
        sub = character_group(pe)
        exps = []
        for c2 in sub.components:
            i = next(
                j
                for j, c in enumerate(self.components)
                if c.modulus == c2.modulus and c.kind == c2.kind
            )
            exps.append(exponents[i])
        return DirichletCharacter(pe, tuple(exps))


_GROUPS: dict[int, CharacterGroup] = {}


def character_group(q: int) -> CharacterGroup:
    if q not in _GROUPS:
        _GROUPS[q] = CharacterGroup(q)
    return _GROUPS[q]


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

    def __call__(self, n: int) -> complex:
        tab = self.group.int_table(self.exponents)
        if tab is not None:
            return int(tab[n % self.q])
        return complex(self.group.value_table(self.exponents)[n % self.q])

    def values(self) -> np.ndarray:
        return self.group.value_table(self.exponents)

    def values_exact(self) -> np.ndarray | None:
        return self.group.int_table(self.exponents)

    @property
    def is_principal(self) -> bool:
        return all(a == 0 for a in self.exponents)

    @property
    def order(self) -> int:
        return self.group.char_order(self.exponents)

    @property
    def is_real(self) -> bool:
        return self.order <= 2

    def conjugate(self) -> "DirichletCharacter":
        comps = self.group.components
        exps = tuple((-a) % c.order for a, c in zip(self.exponents, comps))
        return DirichletCharacter(self.q, exps)

    # -- conductor / primitive -------------------------------------------------

    def conductor(self) -> int:
        r = 1
        comps = self.group.components
        exps = self.exponents
        i = 0
        while i < len(comps):
            c = comps[i]
            if c.kind == "sign":
                a0, a1 = exps[i], exps[i + 1]
                if a1 % comps[i + 1].order != 0:
                    o1 = comps[i + 1].order // gcd(a1, comps[i + 1].order)
                    r *= 4 * o1
                elif a0 % 2 != 0:
                    r *= 4
                i += 2
                continue
            a = exps[i] % c.order
            if a != 0:
                if c.kind == "four":
                    r *= 4
                else:
                    o = c.order // gcd(a, c.order)
                    v = 0
                    while o % c.prime == 0:
                        o //= c.prime
                        v += 1
                    r *= c.prime ** (v + 1)
            i += 1
        return r

    def primitive(self) -> tuple["DirichletCharacter", int]:
        """The primitive character inducing this one, with its modulus."""
        r = self.conductor()
        if r == 1:
            return DirichletCharacter(1, ()), 1
        sub = character_group(r)
        comps = self.group.components
        exps = self.exponents
        new_exps = []
        for c2 in sub.components:
            if c2.prime == 2 and c2.kind in ("sign", "five"):
                i = next(j for j, c in enumerate(comps) if c.prime == 2 and c.kind == c2.kind)
                a = exps[i]
                if c2.kind == "sign":
                    new_exps.append(a % 2)
                else:
                    src_order = comps[i].order
                    new_exps.append((a * c2.order) // src_order)
            elif c2.kind == "four":
                # conductor 4 part: either from a mod-4 component or the sign of 2^e
                i = next(
                    j for j, c in enumerate(comps) if c.prime == 2 and c.kind in ("four", "sign")
                )
                new_exps.append(exps[i] % 2)
            else:
                i = next(j for j, c in enumerate(comps) if c.prime == c2.prime)
                a = exps[i] % comps[i].order
                new_exps.append((a * c2.order) // comps[i].order)
        return DirichletCharacter(r, tuple(new_exps)), r

    @property
    def is_primitive(self) -> bool:
        return self.conductor() == self.q

    # -- sums -------------------------------------------------------------------

    def gauss_sum(self) -> complex:
        cache = self.group._gauss_cache
        if self.exponents not in cache:
            cache[self.exponents] = gauss_sum(self)
        return cache[self.exponents]


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
    if q == 1:
        return 1.0 + 0.0j
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
        label: str = "table",
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
        self.label = label

    def __call__(self, n: int) -> complex:
        return complex(self.table[n % self.period])

    def values_on(self, n: np.ndarray) -> np.ndarray:
        return self.table[np.mod(n, self.period)]

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
    return PeriodicFunction(1, [1.0], weil_md=None, factors={}, label="one")


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
    return PeriodicFunction(
        q, _e(g / q), weil_md=deg, factors=factors, label=f"expmod:poly={a},{b},{c}"
    )


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
    return PeriodicFunction(q, tab, weil_md=2, factors=factors, label=f"kloosterman:{a},{b}")


def periodic_char_shift(chi: DirichletCharacter, shift: int) -> PeriodicFunction:
    """h(n) = chi(n + shift)."""
    q = chi.q
    n = np.arange(q)
    tab = chi.values()[(n + shift) % q]
    factors = {}
    grp = chi.group
    for p, e in factor(q):
        pe = p**e
        local = grp.prime_part_character(chi.exponents, pe)
        u = np.arange(pe)
        factors[pe] = local.values()[(u + shift) % pe]
    return PeriodicFunction(q, tab, weil_md=1, factors=factors, label="charshift")


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
    return PeriodicFunction(
        h1.period,
        h1.table * h2.table,
        weil_md=md,
        factors=factors,
        label=f"{h1.label}*{h2.label}",
    )


def periodic_from_table(q: int, table) -> PeriodicFunction:
    return PeriodicFunction(q, table, weil_md=None, factors=None, label="table")


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
    mask = np.array([gcd(int(x), m) == 1 for x in b])
    b = b[mask]
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
    omega = 0
    for pe, tab in sorted(factors.items()):
        hp = PeriodicFunction(pe, tab)
        if hp.minimal_period() != pe:
            raise DomainError(f"factor mod {pe} does not have minimal period {pe}")
        p = factor(pe)[0][0]
        e = 0
        t = pe
        while t > 1:
            t //= p
            e += 1
        s = abs(complex(np.sum(tab)))
        bound = md * pe**0.5
        rows.append((p, e, s, bound, s <= bound + 1e-9))
        ok &= s <= bound + 1e-9
        omega += 1
    total = abs(complex(np.sum(h.table)))
    total_bound = (md**omega) * q**0.5 if omega else float(q)
    ok &= total <= total_bound + 1e-9
    return WeilReport(q, md, rows, total, total_bound, ok)
