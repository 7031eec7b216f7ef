import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pretsums.characters import (
    DirichletCharacter,
    additive_char_expand,
    enumerate_characters,
    gauss_sum,
    periodic_char_shift,
    periodic_exp_fraction,
    periodic_exp_poly,
    periodic_from_table,
    periodic_kloosterman,
    periodic_one,
    periodic_product,
    pseudo_gauss,
    pseudo_gauss_dagger,
    weil_bound_check,
)
from pretsums.errors import DomainError
from pretsums.multfunc import legendre
from pretsums.sieve import divisors, euler_phi, factor, mobius


def test_enumeration_counts():
    assert len(enumerate_characters(1)) == 1
    assert all(enumerate_characters(1)[0](n) == 1 for n in range(5))
    assert len(enumerate_characters(8)) == 4
    for q in (2, 3, 4, 6, 9, 12, 16, 24, 45, 49, 360):
        chars = enumerate_characters(q)
        assert len(chars) == euler_phi(q)
        assert chars[0].is_principal
    with pytest.raises(DomainError):
        enumerate_characters(0)


@given(q=st.integers(min_value=1, max_value=100))
def test_orthogonality(q):
    chars = enumerate_characters(q)
    V = np.array([c.values() for c in chars])
    G = V @ V.conj().T
    assert np.allclose(G, euler_phi(q) * np.eye(len(chars)), atol=1e-9)


def test_pairwise_orthogonality_mod12():
    chars = enumerate_characters(12)
    for i, ci in enumerate(chars):
        for j, cj in enumerate(chars):
            s = sum(ci(n) * np.conj(cj(n)) for n in range(12))
            expect = euler_phi(12) if i == j else 0.0
            assert abs(s - expect) < 1e-9


def test_character_axioms():
    for q in (5, 8, 12, 45):
        for chi in enumerate_characters(q):
            for m in range(1, q + 1):
                for n in range(1, q + 1):
                    assert abs(chi(m * n) - chi(m) * chi(n)) < 1e-9
                assert abs(chi(m + q) - chi(m)) < 1e-12
                if math.gcd(m, q) > 1:
                    assert chi(m) == 0
                else:
                    assert abs(abs(chi(m)) - 1) < 1e-12


def test_character_exponents_validated():
    """One exponent per generator component, each in [0, order)."""
    bad = ((5, (1, 2, 3)), (5, ()), (5, (4,)), (5, (-1,)), (8, (1,)), (8, (0, 2)), (1, (0,)))
    for q, exps in bad:
        with pytest.raises(DomainError):
            DirichletCharacter(q, exps)
    with pytest.raises(DomainError):
        DirichletCharacter(0, ())
    assert DirichletCharacter(8, (1, 1)).q == 8 and DirichletCharacter(1, ()).is_principal


def test_conductor():
    for q in (5, 7):
        for chi in enumerate_characters(q):
            psi, r = chi.primitive()
            if chi.is_principal:
                assert r == 1
            else:
                assert r == q and psi.exponents == chi.exponents
    # the character mod 12 induced by the quadratic character mod 3
    found = False
    for chi in enumerate_characters(12):
        psi, r = chi.primitive()
        for n in range(12):
            if math.gcd(n, 12) == 1:
                assert abs(chi(n) - psi(n)) < 1e-12
        if r == 3:
            found = True
    assert found
    # conductors divide the modulus and the induced character is primitive
    for q in (8, 16, 24, 40, 72):
        for chi in enumerate_characters(q):
            psi, r = chi.primitive()
            assert q % r == 0
            assert psi.is_primitive


def test_characters_match_their_definitions():
    """Conductor, primitive character and local factors against their
    definitions, read off the integer indices: chi(n) = e(k(n)/L)."""
    for q in [*range(1, 151), 256, 720, 1008]:
        L = enumerate_characters(q)[0].group.exponent
        n = np.arange(q)
        units = np.array([math.gcd(int(v), q) == 1 for v in n])
        local = [(p**e, np.arange(q) % p**e) for p, e in factor(q)]
        for chi in enumerate_characters(q):
            k = chi.indices()
            assert np.array_equal(k < 0, ~units)
            # the least d | q with chi(n) = 1 on every unit n = 1 (mod d)
            least = next(d for d in divisors(q) if not np.any(k[units & ((n - 1) % d == 0)]))
            assert chi.conductor() == least, (q, chi.exponents)
            psi, r = chi.primitive()
            assert r == least and psi.is_primitive
            kp = psi.indices()[n % r]
            assert np.array_equal(kp[units] * L, k[units] * psi.group.exponent), (q, chi.exponents)
            total = np.zeros(q, dtype=np.int64)
            for pe, res in local:
                loc = chi.restrict(pe)
                total += loc.indices()[res] * (L // loc.group.exponent)
            assert np.array_equal(total[units] % L, k[units]), (q, chi.exponents)
    # a factor that is not defined mod the p-part of m, and m not dividing q
    for q, exps, m in ((8, (0, 1), 4), (12, (1, 0), 6), (9, (1,), 3), (12, (0, 0), 5)):
        with pytest.raises(DomainError):
            DirichletCharacter(q, exps).restrict(m)
    assert DirichletCharacter(12, (1, 0)).restrict(4) == DirichletCharacter(4, (1,))


def test_value_tables_are_int8_exactly_for_real_characters():
    """values() and table() are int8 for a real character and complex128
    otherwise, and equal chi(n) entrywise."""
    for q in range(1, 61):
        for chi in enumerate_characters(q):
            want = [chi(n) for n in range(q)]
            for tab in (chi.values(), chi.table()):
                assert tab.dtype == (np.int8 if chi.is_real else np.complex128), (q, chi.exponents)
                assert tab.tolist() == want, (q, chi.exponents)


def test_gauss_sums():
    assert abs(gauss_sum(enumerate_characters(2)[0]) - (-1)) < 1e-12
    g5 = gauss_sum(legendre(5).chi)
    assert abs(g5 - math.sqrt(5)) < 1e-9
    # |g(psi)| = sqrt(r) for all primitive psi, r <= 200
    for r in range(1, 201):
        for chi in enumerate_characters(r):
            if chi.is_primitive:
                assert abs(abs(gauss_sum(chi)) - math.sqrt(r)) < 1e-8, (r, chi.exponents)


def test_gauss_factorization():
    """g(chi) = g(psi) psi(d/r) mu(d/r) for chi mod d induced by psi mod r."""
    for d in range(2, 101):
        for chi in enumerate_characters(d):
            psi, r = chi.primitive()
            lhs = gauss_sum(chi)
            rhs = gauss_sum(psi) * psi(d // r) * mobius(d // r)
            assert abs(lhs - rhs) < 1e-8, (d, chi.exponents)


def test_additive_char_expand():
    coeffs, rec = additive_char_expand(1, 1)
    assert abs(rec - 1) < 1e-15
    _, rec = additive_char_expand(1, 4)
    assert abs(rec - 1j) < 1e-12
    _, rec = additive_char_expand(3, 8)
    assert abs(rec - cmath.exp(2j * cmath.pi * 3 / 8)) < 1e-12
    for q in range(1, 101):
        for b in range(1, q + 1):
            if math.gcd(b, q) == 1:
                _, rec = additive_char_expand(b, q)
                assert abs(rec - cmath.exp(2j * cmath.pi * b / q)) < 1e-12
    with pytest.raises(DomainError):
        additive_char_expand(2, 8)


def test_pseudo_gauss_matches_gauss():
    # h(n) = e(n/q), D = q, psi primitive: the definitions coincide
    for q in (5, 7, 12):
        h = periodic_exp_fraction(q)
        for chi in enumerate_characters(q):
            if chi.is_primitive:
                assert abs(pseudo_gauss(h, q, chi) - gauss_sum(chi)) < 1e-9


def test_pseudo_gauss_single_term():
    h = periodic_kloosterman(7, 1, 1)
    triv = DirichletCharacter(1, ())
    assert abs(pseudo_gauss(h, 1, triv) - h(0)) < 1e-15


def test_pseudo_gauss_kloosterman_oracle():
    """Double-loop oracle for G_h(7; legendre mod 7), h Kloosterman."""
    p = 7
    h = periodic_kloosterman(p, 1, 1)
    chi = legendre(p).chi
    direct = 0j
    for a in range(1, p + 1):
        # psi(a) h(a * (q/D)) with D = q = p
        direct += chi(a) * h(a % p)
    assert abs(pseudo_gauss(h, p, chi) - direct) < 1e-12
    with pytest.raises(DomainError):
        pseudo_gauss(h, 3, chi)  # 3 does not divide 7
    with pytest.raises(DomainError):
        pseudo_gauss(periodic_exp_fraction(14), 2, chi)  # r = 7 does not divide D = 2


def test_pseudo_gauss_dagger():
    h = periodic_exp_fraction(12)
    triv = DirichletCharacter(1, ())
    assert abs(pseudo_gauss_dagger(h, 1, triv) - h(0)) < 1e-15
    # h = 1, psi principal mod 1, m = p prime: counts reduced residues
    hone = periodic_from_table(5, np.ones(5))
    assert abs(pseudo_gauss_dagger(hone, 5, triv) - 4) < 1e-12


def test_dagger_inclusion_exclusion(sieve):
    """G_h^dag(m; psi) = sum_{d | m} mu(d) psi(d) G_h(m/d; psi)."""
    rng = np.random.default_rng(0)
    h = periodic_from_table(12, rng.normal(size=12) + 1j * rng.normal(size=12))
    chi3 = [c.primitive()[0] for c in enumerate_characters(3) if not c.is_principal][0]
    for psi in (DirichletCharacter(1, ()), chi3):
        m = 12
        lhs = pseudo_gauss_dagger(h, m, psi)
        rhs = 0j
        for d in divisors(m):
            if psi(d) == 0 or mobius(d) == 0:
                continue
            rhs += mobius(d) * psi(d) * pseudo_gauss(h, m // d, psi)
        assert abs(lhs - rhs) < 1e-9, psi.q


def test_weil_bounds():
    # quadratic exponential mod 11: |sum| = sqrt(11) within the (m+d) bound
    h = periodic_exp_poly(11, (1, 0, 0))
    rep = weil_bound_check(h)
    assert rep.ok
    assert abs(rep.total_abs - math.sqrt(11)) < 1e-9
    # Kloosterman mod 13: |S| <= 2 sqrt(13)
    rep = weil_bound_check(periodic_kloosterman(13, 1, 1))
    assert rep.ok and rep.total_abs <= 2 * math.sqrt(13) + 1e-9
    # degenerate constant factor: precondition error
    with pytest.raises(DomainError):
        weil_bound_check(periodic_exp_poly(11, (0, 0, 1)))
    # no (m+d) structure on a bare table
    with pytest.raises(DomainError):
        weil_bound_check(periodic_from_table(6, np.ones(6)))


def test_crt_factor_structure():
    # product-structured functions recombine exactly
    for h in (
        periodic_kloosterman(15, 1, 1),
        periodic_exp_poly(45, (2, 1, 3)),
        periodic_char_shift([c for c in enumerate_characters(12) if not c.is_principal][0], 3),
    ):
        assert h.factors
        assert h.crt_consistent()
    # product of two structured functions stays structured
    h1 = periodic_exp_poly(15, (1, 0, 0))
    h2 = periodic_kloosterman(15, 2, 1)
    h = periodic_product(h1, h2)
    assert h.crt_consistent()
    assert h.weil_md == h1.weil_md + h2.weil_md


def test_periodic_product_period_one():
    h = periodic_kloosterman(7, 1, 1)
    assert periodic_product(h, periodic_one()) is h


def test_minimal_period():
    t = np.tile([1.0, -1.0], 6)
    assert periodic_from_table(12, t).minimal_period() == 2
    assert periodic_kloosterman(7, 1, 1).minimal_period() == 7
