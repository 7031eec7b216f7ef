"""Mini-language for multiplicative functions and periodic twists on the CLI.

Function specs (joined with `*` for products):

    one                  constant 1
    minus-all            f(p) = -1 on every prime
    legendre:Q           quadratic residue character mod the odd prime Q
    char:Q:E1,E2,...     character mod Q by exponent tuple in the generator basis
    nit:T                f(p) = p^{iT}
    smoothset:RULE       indicator of integers generated by the matching primes
    sign:RULE            f(p) = -1 on matching primes, +1 elsewhere
    randpm:SEED          seed-fixed random +-1 values
    table:FILE           lines "p re im", primes ascending, unlisted default 1

Prime rules:

    all | mod:M:r1+r2+... | le:Y | gt:Y | in:p1+p2+...

Periodic specs (period q given separately; joined with `*`):

    expmod:poly=A,B,C    e((A n^2 + B n + C)/q)
    kloosterman:A,B      e((A n + B nbar)/q) on units
    charshift:E1,E2,...:SHIFT   chi(n + SHIFT), chi mod q by exponents
    table:FILE           q lines "n re im"
"""

from __future__ import annotations

import math
from pathlib import Path

from .characters import (
    DirichletCharacter,
    PeriodicFunction,
    periodic_char_shift,
    periodic_exp_poly,
    periodic_from_table,
    periodic_kloosterman,
    periodic_one,
    periodic_product,
)
from .errors import DomainError, ParseError
from .multfunc import (
    AllPrimes,
    ArchTwist,
    CharacterMF,
    Indicator,
    ListRule,
    MultFunc,
    One,
    PrimeRule,
    PrimeTable,
    ProductMF,
    RandomSign,
    ResidueRule,
    SignRule,
    ThresholdRule,
    legendre,
    liouville,
)


def finite_float(text: str) -> float:
    """float(text), with ValueError for NaN and +-inf as for any non-number."""
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"non-finite number {text!r}")
    return v


def parse_rule(text: str) -> PrimeRule:
    if text == "all":
        return AllPrimes()
    head, _, rest = text.partition(":")
    try:
        if head == "mod":
            m, _, res = rest.partition(":")
            return ResidueRule(int(m), tuple(int(r) for r in res.split("+")))
        if head in ("le", "gt"):
            return ThresholdRule(head, finite_float(rest))
        if head == "in":
            return ListRule(frozenset(int(p) for p in rest.split("+")))
    except DomainError:
        raise
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad prime rule {text!r}: {exc}") from exc
    raise ParseError(f"unknown prime rule {text!r}")


def _parse_atom(token: str) -> MultFunc:
    if token == "one":
        return One()
    if token == "minus-all":
        return liouville()
    head, _, rest = token.partition(":")
    if head == "legendre":
        try:
            q = int(rest)
        except ValueError as exc:
            raise ParseError(f"bad legendre spec {token!r}") from exc
        return legendre(q)
    if head == "char":
        q_s, _, exps_s = rest.partition(":")
        try:
            q = int(q_s)
            exps = tuple(int(e) for e in exps_s.split(",")) if exps_s else ()
        except ValueError as exc:
            raise ParseError(f"bad char spec {token!r}") from exc
        return CharacterMF(DirichletCharacter(q, exps))
    if head == "nit":
        try:
            return ArchTwist(finite_float(rest))
        except ValueError as exc:
            raise ParseError(f"bad nit spec {token!r}") from exc
    if head == "smoothset":
        return Indicator(parse_rule(rest))
    if head == "sign":
        return SignRule(parse_rule(rest))
    if head == "randpm":
        try:
            return RandomSign(int(rest))
        except ValueError as exc:
            raise ParseError(f"bad randpm spec {token!r}") from exc
    if head == "table":
        return _load_prime_table(rest)
    raise ParseError(f"unknown function spec token {token!r}")


def _table_rows(path: str, kind: str, key: str):
    """(int, complex) for each line `key re im` of a table file; blank and `#`
    lines are skipped.  kind names the table in parse errors."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read table file {path!r}: {exc}") from exc
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"{kind} line needs '{key} re im', got {line!r}")
        try:
            row = int(parts[0]), complex(finite_float(parts[1]), finite_float(parts[2]))
        except ValueError as exc:
            raise ParseError(f"bad {kind} line {line!r}: {exc}") from exc
        yield row


def _load_prime_table(path: str) -> PrimeTable:
    items = []
    last_p = 0
    for p, v in _table_rows(path, "table", "p"):
        if p <= last_p:
            raise ParseError(f"table primes must be ascending, got {p} after {last_p}")
        last_p = p
        items.append((p, v))
    return PrimeTable(tuple(items))


def parse_multfunc(spec: str) -> MultFunc:
    """Parse a function spec, with `*` products."""
    parts = [p for p in spec.split("*") if p]
    if not parts:
        raise ParseError("empty function spec")
    atoms = [_parse_atom(p) for p in parts]
    if len(atoms) == 1:
        return atoms[0]
    return ProductMF(tuple(atoms))


def _parse_periodic_atom(token: str, q: int) -> PeriodicFunction:
    if token == "one":
        return periodic_one()
    head, _, rest = token.partition(":")
    if head == "expmod":
        if not rest.startswith("poly="):
            raise ParseError(f"expmod needs poly=A,B,C, got {token!r}")
        try:
            a, b, c = (int(v) for v in rest[len("poly=") :].split(","))
        except ValueError as exc:
            raise ParseError(f"bad expmod spec {token!r}") from exc
        return periodic_exp_poly(q, (a, b, c))
    if head == "kloosterman":
        try:
            a, b = (int(v) for v in rest.split(","))
        except ValueError as exc:
            raise ParseError(f"bad kloosterman spec {token!r}") from exc
        return periodic_kloosterman(q, a, b)
    if head == "charshift":
        exps_s, _, shift_s = rest.rpartition(":")
        try:
            exps = tuple(int(e) for e in exps_s.split(",")) if exps_s else ()
            shift = int(shift_s)
        except ValueError as exc:
            raise ParseError(f"bad charshift spec {token!r}") from exc
        return periodic_char_shift(DirichletCharacter(q, exps), shift)
    if head == "table":
        return _load_periodic_table(rest, q)
    raise ParseError(f"unknown periodic spec token {token!r}")


def _load_periodic_table(path: str, q: int) -> PeriodicFunction:
    import numpy as np

    tab = np.zeros(q, dtype=np.complex128)
    seen = set()
    for n, v in _table_rows(path, "periodic table", "n"):
        tab[n % q] = v
        seen.add(n % q)
    if len(seen) != q:
        raise ParseError(f"periodic table must list all {q} residues, got {len(seen)}")
    return periodic_from_table(q, tab)


def parse_periodic(spec: str, q: int) -> PeriodicFunction:
    """Parse a periodic-function spec of period q >= 1, with `*` products."""
    if q < 1:
        raise DomainError(f"period q must be >= 1, got {q}")
    parts = [p for p in spec.split("*") if p]
    if not parts:
        raise ParseError("empty periodic spec")
    out = _parse_periodic_atom(parts[0], q)
    for p in parts[1:]:
        out = periodic_product(out, _parse_periodic_atom(p, q))
    return out
