import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pretsums.characters import DirichletCharacter, enumerate_characters
from pretsums.errors import DomainError
from pretsums.multfunc import (
    AllPrimes,
    ArchTwist,
    CharacterMF,
    Indicator,
    KappaFunction,
    ListRule,
    One,
    PiecewiseZ,
    PrimeTable,
    ProductMF,
    RandomSign,
    ResidueRule,
    SignRule,
    ThresholdRule,
    build_adaptive_extremal,
    eval_at,
    eval_range,
    k_factor,
    legendre,
    liouville,
    mean_value,
    periodic_sum,
    split_small_large,
    structure_split,
    twist,
)
from pretsums import multfunc
from pretsums import sieve as sieve_module
from pretsums.sieve import divisors, factor, get_sieve


def test_eval_basic(sieve):
    assert eval_at(liouville(), 12) == -1
    assert eval_at(One(), 97) == 1
    v = eval_at(ArchTwist(1.0), 8)
    assert abs(v - cmath.exp(1j * math.log(8))) < 1e-12
    assert abs(abs(v) - 1.0) < 1e-12


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        eval_at(One(), 0)


def test_eval_range_examples(sieve):
    assert list(eval_range(One(), 5)[1:]) == [1, 1, 1, 1, 1]
    r = eval_range(legendre(3), 4)
    assert r.dtype == np.int8
    assert list(r[1:]) == [1, -1, 0, 1]
    assert list(eval_range(One(), 1)[1:]) == [1]
    assert len(eval_range(One(), 0)) == 1  # no valid indices


def test_eval_range_matches_pointwise(sieve):
    for f in (legendre(7), RandomSign(3), ArchTwist(0.7), Indicator(ResidueRule(4, (1,)))):
        r = eval_range(f, 300)
        for n in (1, 2, 17, 90, 128, 300):
            assert abs(complex(r[n]) - complex(eval_at(f, n))) < 1e-12


@pytest.mark.parametrize("f", [legendre(7), ArchTwist(0.7)])
def test_eval_range_prefix_of_cached_range(sieve, monkeypatch, f):
    """After a longer range, a shorter one is read-only and equal to a fresh
    evaluation to the last bit: an int8 prefix of the cached array (no new
    entry), a complex array evaluated afresh (nit:0.7 at 5000 rounds one
    value of its prefix differently)."""
    monkeypatch.setattr(multfunc, "_RANGE_CACHE", {})
    eval_range(f, 5000)
    short = eval_range(f, 300)
    assert len(short) == 301 and not short.flags.writeable
    assert len(multfunc._RANGE_CACHE) == (1 if f.exact_int else 2)
    multfunc._RANGE_CACHE.clear()
    fresh = eval_range(f, 300)
    assert short.dtype == fresh.dtype == (np.int8 if f.exact_int else np.complex128)
    assert np.array_equal(short, fresh)


@given(
    m=st.integers(min_value=2, max_value=500),
    n=st.integers(min_value=2, max_value=500),
    seed=st.integers(min_value=0, max_value=5),
)
def test_multiplicativity_fuzz(m, n, seed):
    if math.gcd(m, n) != 1:
        return
    f = RandomSign(seed)
    vals = eval_range(f, 250000)
    assert vals[m * n] == vals[m] * vals[n]
    g = ArchTwist(1.3)
    gv = eval_range(g, 250000)
    assert abs(gv[m * n] - gv[m] * gv[n]) < 1e-12


def test_unit_disc_bound(sieve):
    for f in (RandomSign(9), ArchTwist(2.0), legendre(11)):
        vals = eval_range(f, 5000)
        assert float(np.max(np.abs(vals.astype(np.complex128)))) <= 1 + 1e-12


def test_twist_identity_and_cancellation(sieve):
    f = liouville()
    assert twist(f, DirichletCharacter(1, ()), 0.0) is f
    # f = chi: twisting by chi gives |chi|^2 with values in {0, 1}
    chi5 = legendre(5).chi
    tw = twist(legendre(5), chi5, 0.0)
    vals = eval_range(tw, 100)
    assert set(np.round(np.asarray(vals, dtype=np.complex128).real).astype(int).tolist()) <= {0, 1}
    # f(p) = psi(p) p^{it} exactly: the twist is 1 away from the conductor
    t = 0.4
    items = tuple(
        (int(p), complex(chi5(int(p)) * cmath.exp(1j * t * math.log(int(p)))))
        for p in sieve.primes_upto(100).tolist()
    )
    g = PrimeTable(items)
    tg = twist(g, chi5, t)
    for p in (2, 3, 7, 11, 13):
        assert abs(tg.prime_value(p) - 1) < 1e-12


def test_split_small_large(sieve):
    chi5 = legendre(5).chi
    sp = split_small_large(liouville(), chi5, 0.3, 10.0)
    a = eval_range(sp.F_s, 3000)
    b = eval_range(sp.F_l, 3000)
    c = eval_range(liouville(), 3000)
    assert float(np.max(np.abs(a * b - c))) < 1e-12
    # F_l is 1 below z on primes
    for p in (2, 3, 5, 7):
        assert sp.F_l.prime_value(p) == 1
    # sign function split: F_s keeps f below z, switches to psi p^{it} above
    sp2 = split_small_large(liouville(), chi5, 0.0, 10.0)
    for p in (2, 3, 5, 7):
        assert sp2.F_s.prime_value(p) == -1
    assert abs(sp2.F_s.prime_value(11) - chi5(11)) < 1e-12
    with pytest.raises(DomainError):
        split_small_large(One(), chi5, 0.0, 1.0)


def test_structure_split(sieve):
    f = liouville()
    fs, fl = structure_split(f, 0.5, 7.0)
    a = eval_range(fs, 2000)
    b = eval_range(fl, 2000)
    assert float(np.max(np.abs(a * b - eval_range(f, 2000)))) < 1e-12
    # t = 0 degenerates to a plain cut at z
    fs0, _ = structure_split(f, 0.0, 7.0)
    assert fs0.prime_value(5) == -1 and fs0.prime_value(11) == 1
    # f(p) = p^{it} for all p makes f^(s) trivial
    g = ArchTwist(0.8)
    gs, _ = structure_split(g, 0.8, 7.0)
    for p in (2, 3, 5):
        assert abs(gs.prime_value(p) - 1) < 1e-12
    # spot value: f^(s)(3) = f(3) 3^{-it}
    leg7 = legendre(7)
    fs7, _ = structure_split(leg7, 0.5, 5.0)
    assert abs(fs7.prime_value(3) - leg7.prime_value(3) * cmath.exp(-0.5j * math.log(3))) < 1e-14


@pytest.mark.parametrize(
    "f,psi_q,t",
    [
        ("lam", 5, 0.3),
        ("leg7", 5, 0.0),
        ("one", 1, 0.0),
        ("rand", 8, 1.2),
    ],
)
def test_kappa_convolution_identity(sieve, f, psi_q, t):
    """f(n)/n^{it} = sum_{de=n} kappa(d) chi(e) for n <= 1000, at 1e-9."""
    funcs = {"lam": liouville(), "leg7": legendre(7), "one": One(), "rand": RandomSign(3)}
    fn = funcs[f]
    if psi_q == 1:
        psi = DirichletCharacter(1, ())
    elif psi_q == 5:
        psi = legendre(5).chi
    else:
        psi = [c.primitive()[0] for c in enumerate_characters(8) if not c.is_principal][0]
    kap = KappaFunction(fn, psi, t)
    fv = eval_range(fn, 1000).astype(np.complex128)
    worst = 0.0
    for n in range(1, 1001):
        tot = 0
        for d in divisors(n):
            tot += kap.eval(d) * psi(n // d)
        lhs = fv[n] * cmath.exp(-1j * t * math.log(n)) if t else fv[n]
        worst = max(worst, abs(tot - lhs))
    assert worst < 1e-9


def test_kappa_examples(sieve):
    kap = KappaFunction(One(), DirichletCharacter(1, ()), 0.0)
    assert kap.eval(1) == 1
    # f = 1, psi principal: kappa(p) = f(p) - 1 = 0, so kappa(m) = 0 for m > 1
    for m in (2, 3, 4, 6, 100):
        assert abs(kap.eval(m)) < 1e-15
    # f(p) = psi(p) p^{it}: kappa vanishes off the conductor
    chi5 = legendre(5).chi
    items = tuple((int(p), complex(chi5(int(p)))) for p in sieve.primes_upto(50).tolist())
    kap2 = KappaFunction(PrimeTable(items), chi5, 0.0)
    for p in (2, 3, 7, 11):
        assert abs(kap2.at_prime_power(p, 1)) < 1e-12
        assert abs(kap2.at_prime_power(p, 2)) < 1e-12


def test_k_factor(sieve):
    assert k_factor(One(), 1) == 1
    assert abs(k_factor(One(), 6) - (1 - 1 / 2) * (1 - 1 / 3)) < 1e-15
    f2 = PrimeTable(((2, -1),))
    assert abs(k_factor(f2, 4) - 1.5) < 1e-15
    # k and kappa agree with direct products over p | m
    f = RandomSign(5)
    for m in (2, 12, 360, 9973, 10000):
        direct = 1.0
        for p, _ in sieve.factor(m):
            direct *= 1 - f.prime_value(p) / p
        assert abs(k_factor(f, m) - direct) < 1e-12


def test_periodic_sum_against_a_loop(sieve):
    """periodic_sum equals the plain sum of f(n) table[n mod q]: the integer
    sum, as an int, for {-1,0,1}-valued f and an integer table; math.fsum of
    the exact products for a complex table."""
    rng = np.random.default_rng(3)
    for f in (legendre(5), liouville(), RandomSign(2)):
        f_all = [eval_at(f, n) for n in range(1, 998)]
        for q in (1, 4, 7, 12):
            itab = rng.integers(-1, 2, q).astype(np.int8)
            ctab = np.exp(2j * np.pi * rng.random(q))
            for x in (0, 1, q - 1, q, 997):
                fv = f_all[:x]
                got = periodic_sum(f, itab, x)
                assert type(got) is int and got == sum(v * int(itab[n % q]) for n, v in enumerate(fv, 1))
                want = complex(
                    math.fsum(v * ctab[n % q].real for n, v in enumerate(fv, 1)),
                    math.fsum(v * ctab[n % q].imag for n, v in enumerate(fv, 1)),
                )
                assert periodic_sum(f, ctab, x) == want


def test_mean_value(sieve):
    assert mean_value(One(), 100, None) == 100
    assert mean_value(One(), 0, None) == 0
    chi3 = [c for c in enumerate_characters(3) if not c.is_principal][0]
    assert abs(mean_value(One(), 300, chi3)) < 1e-12
    # brute-force oracle
    leg5 = legendre(5)
    direct = sum(eval_at(leg5, n) for n in range(1, 10**4 + 1))
    assert mean_value(leg5, 10**4, None) == direct


def test_prime_table_rules():
    f = PrimeTable(((2, -1), (3, 0.5 + 0.1j)))
    assert f.prime_value(2) == -1 and f.prime_value(5) == 1
    with pytest.raises(DomainError):
        PrimeTable(((2, 3.0),))
    rule = ThresholdRule("gt", 10.0)
    g = SignRule(rule)
    assert g.prime_value(11) == -1 and g.prime_value(7) == 1


def _splitmix_sign(seed: int, p: int) -> int:
    """RandomSign's definition in plain integers: the low bit of splitmix64."""
    mask = (1 << 64) - 1
    z = ((p ^ (seed * 0x9E3779B97F4A7C15 & mask)) + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return 1 - 2 * ((z ^ (z >> 31)) & 1)


def _chi7(p: int) -> complex:
    """char:7:1, the character mod 7 with chi(3) = e(1/6) (3 generates (Z/7)*)."""
    if p == 7:
        return 0
    return cmath.exp(2j * math.pi * next(k for k in range(6) if pow(3, k, 7) == p % 7) / 6)


def _legendre(q: int, p: int) -> int:
    return 0 if p % q == 0 else (1 if pow(p, (q - 1) // 2, q) == 1 else -1)


_RULES = {
    "all": (AllPrimes(), lambda p: True),
    "mod": (ResidueRule(4, (1,)), lambda p: p % 4 == 1),
    "le": (ThresholdRule("le", 10.0), lambda p: p <= 10),
    "gt": (ThresholdRule("gt", 10.0), lambda p: p > 10),
    "in": (ListRule(frozenset({3, 11})), lambda p: p in (3, 11)),
}
_KINDS = {  # name: (f, f(p) by its definition, whether f takes only -1, 0, 1)
    "one": (One(), lambda p: 1, True),
    **{f"sign:{k}": (SignRule(r), lambda p, m=m: 1 - 2 * m(p), True) for k, (r, m) in _RULES.items()},
    **{f"smoothset:{k}": (Indicator(r), lambda p, m=m: int(m(p)), True) for k, (r, m) in _RULES.items()},
    "legendre:5": (legendre(5), lambda p: _legendre(5, p), True),
    "char:7:1": (CharacterMF(DirichletCharacter(7, (1,))), _chi7, False),
    "nit:0": (ArchTwist(0.0), lambda p: 1, True),
    "nit:0.7": (ArchTwist(0.7), lambda p: cmath.exp(0.7j * math.log(p)), False),
    "table:int": (PrimeTable(((2, -1), (3, 0))), lambda p: {2: -1, 3: 0}.get(p, 1), True),
    "table:complex": (PrimeTable(((2, -1), (5, 0.6j))), lambda p: {2: -1, 5: 0.6j}.get(p, 1), False),
    "randpm:9": (RandomSign(9), lambda p: _splitmix_sign(9, p), True),
    "piecewise": (
        PiecewiseZ(RandomSign(4), legendre(3), 20.0),
        lambda p: _splitmix_sign(4, p) if p <= 20 else _legendre(3, p),
        True,
    ),
    "product:int": (ProductMF((liouville(), legendre(3))), lambda p: -_legendre(3, p), True),
    "product:complex": (
        ProductMF((RandomSign(2), CharacterMF(DirichletCharacter(7, (1,))), ArchTwist(-1.5))),
        lambda p: _splitmix_sign(2, p) * _chi7(p) * cmath.exp(-1.5j * math.log(p)),
        False,
    ),
}


@pytest.mark.parametrize("name", sorted(_KINDS))
def test_prime_value_of_every_kind_and_rule(sieve, name):
    """prime_value reads prime_values and agrees with each kind's definition;
    exactly the {-1,0,1}-valued kinds give int8 values, exact_int and Python
    int prime values, as eval_at needs."""
    f, want, exact = _KINDS[name]
    assert f.exact_int is exact
    primes = sieve.primes_upto(300)
    vals = f.prime_values(primes)
    assert vals.dtype == (np.int8 if exact else np.complex128)
    for k, p in enumerate(primes.tolist()):
        v = f.prime_value(p)
        assert v == vals[k]
        if exact:
            assert type(v) is int and v == want(p), (name, p, v)
        else:
            assert type(v) is complex and abs(v - want(p)) < 1e-14, (name, p, v)
    if exact:
        assert eval_at(f, 2 * 3 * 3 * 101) == want(2) * want(3) ** 2 * want(101)


def test_constructors_reject_undefined_inputs():
    with pytest.raises(DomainError):
        ResidueRule(0, (1,))
    with pytest.raises(DomainError):
        ResidueRule(-4, (1,))
    with pytest.raises(DomainError):
        PrimeTable(((2, -1), (4, 1)))
    with pytest.raises(DomainError):
        PrimeTable(((1, 1),))
    assert PrimeTable(((2, -1), (10007, 1))).prime_value(10007) == 1


def test_random_sign_stable_across_ranges(sieve):
    f = RandomSign(77)
    small = eval_range(f, 1000)
    big = eval_range(f, 50000)
    assert np.array_equal(small, big[:1001])


def test_adaptive_extremal_builder(sieve):
    """The aligned-phase construction drives R_f to the x/log x scale."""
    x = 10**4
    alpha = 2**0.5 - 1
    f = build_adaptive_extremal(One(), alpha, x)
    vals = eval_range(f, x).astype(np.complex128)
    n = np.arange(x + 1)
    R = np.sum(vals * np.exp(2j * np.pi * alpha * n))
    assert abs(R) > 0.3 * x / math.log(x)
    assert float(np.max(np.abs(vals))) <= 1 + 1e-9


def test_get_sieve_and_factor(monkeypatch):
    for n in (1, 100, 5000, 10**5 + 3):
        assert get_sieve(n).limit >= n
    big = get_sieve(10**5)
    assert get_sieve(10) is big and get_sieve(10**5) is big
    assert factor(1) == []
    assert factor(360) == [(2, 3), (3, 2), (5, 1)]
    # an over-large request is refused before anything is allocated
    monkeypatch.setattr(sieve_module, "_build_spf", lambda n: pytest.fail(f"allocated {n}"))
    with pytest.raises(DomainError):
        get_sieve(2**30 + 1)
