import itertools
import math

import numpy as np
import pytest

from pretsums.characters import DirichletCharacter
from pretsums.circle import (
    TripleProblem,
    _C_P,
    _capped_valuations,
    _dagger_weights,
    _product_principal,
    archimedean_E,
    c2_product,
    cor2_constants,
    delta0,
    estar,
    estar_N,
    estar_exact,
    estar_table,
    euler_factor_E,
    extremal_table,
    fs_mean_over_sumset,
    local_triple_sum,
    predict_triples,
    residue_triple_gate,
    residue_triple_sum,
    signpattern_density,
    smallest_cap_exponent,
    triple_sum_direct,
    triple_sum_fft,
)
from pretsums.errors import DomainError
from pretsums.funcspec import parse_multfunc
from pretsums.multfunc import (
    Indicator,
    ListRule,
    One,
    RandomSign,
    ResidueRule,
    SignRule,
    ThresholdRule,
    legendre,
    liouville,
    split_small_large,
    twist,
)
from pretsums.pretentious import Frame, primitive_candidates, select_global_frame


def test_triple_counts_basic(sieve):
    p = TripleProblem(One(), One(), One(), 1, 1, 1, x=4)
    assert triple_sum_direct(p) == 6
    assert triple_sum_fft(p) == 6
    p = TripleProblem(One(), One(), One(), mode="partition", N=6)
    assert triple_sum_direct(p) == 10
    assert triple_sum_fft(p) == 10
    p = TripleProblem(One(), One(), One(), 1, 1, 1, x=2)
    assert triple_sum_direct(p) == 1  # 1 + 1 = 2 only
    with pytest.raises(DomainError):
        TripleProblem(One(), One(), One(), 0, 1, 1, x=10)
    with pytest.raises(DomainError):
        TripleProblem(One(), One(), One(), mode="partition", N=10, a=2)


def test_dual_path_exact(sieve):
    rng = np.random.default_rng(2)
    for _ in range(8):
        fs = [RandomSign(int(rng.integers(1, 1000))) for _ in range(3)]
        a, b, c = (int(rng.integers(1, 4)) for _ in range(3))
        p = TripleProblem(*fs, a, b, c, x=700)
        assert triple_sum_direct(p) == triple_sum_fft(p)
    # indicator weights too
    f0 = Indicator(ResidueRule(2, (1,)))
    p = TripleProblem(f0, One(), One(), 1, 1, 1, x=100)
    assert triple_sum_direct(p) == triple_sum_fft(p)
    # partition mode with signs
    p = TripleProblem(liouville(), RandomSign(5), One(), mode="partition", N=900)
    assert triple_sum_direct(p) == triple_sum_fft(p)


def test_dual_path_complex(sieve):
    from pretsums.multfunc import ArchTwist

    p = TripleProblem(ArchTwist(0.5), One(), liouville(), 1, 2, 1, x=400)
    d = triple_sum_direct(p)
    f = triple_sum_fft(p)
    assert abs(d - f) < 1e-6 * 400**2


def test_archimedean_factor():
    assert abs(archimedean_E(1, 1, -1) - 0.5) < 1e-9
    assert abs(archimedean_E(2, 3, -5) - 0.2) < 1e-9
    assert abs(archimedean_E(3, 2, -4) - 11 / 48) < 1e-9
    assert abs(archimedean_E(1, 1, 1, target=1.0) - 0.5) < 1e-9
    with pytest.raises(DomainError):
        archimedean_E(1, 1, 0)


def test_archimedean_monte_carlo():
    rng = np.random.default_rng(3)
    n = 10**6
    for a, b, c in ((3, 2, -4), (1, 2, -2)):
        u, v = rng.uniform(size=(2, n))
        w = (a * u + b * v) / -c
        mc = float(np.mean((w >= 0) & (w <= 1))) / abs(c)
        exact = archimedean_E(a, b, c).real
        sigma = math.sqrt(0.25 / n) / abs(c)
        assert abs(mc - exact) < 4 * sigma + 1e-4


def test_local_factor_brute_force(sieve):
    """Pushforward-convolution local sums against raw triple loops mod p^3."""
    f, g, h = One(), liouville(), legendre(5)
    frames = tuple(select_global_frame(fn, 10**4) for fn in (f, g, h))
    for p, (a, b, c) in [(2, (3, 1, 2)), (3, (3, 1, 2)), (5, (1, 1, 1)), (3, (1, 1, 1))]:
        e = 3
        pe = p**e
        wf, wg, wh = (_dagger_weights(fr, p, e) for fr in frames)
        v = _capped_valuations(p, e)
        brute = 0j
        for u in range(pe):
            for vv in range(pe):
                rhs = (-(a * u + b * vv)) % pe
                for w in range(pe):
                    if (c * w) % pe == rhs:
                        brute += wf[v[u]] * wg[v[vv]] * wh[v[w]]
        brute /= pe**2
        mine = local_triple_sum(p, e, [wf, wg, wh], [a, b, -c], 0)
        assert abs(brute - mine) < 1e-9


def test_dagger_weights_spike_on_conductor():
    """Powers of f(p) p^{-it} off the conductor, the k = 0 spike on it."""
    f = legendre(5)
    fr = Frame(f=f, x=1000, chi=f.chi, psi=f.chi, t=0.3, score=1.0)
    assert np.array_equal(_dagger_weights(fr, 5, 3), [1, 0, 0, 0])
    base = f.prime_value(3) * np.exp(-0.3j * math.log(3))
    assert np.allclose(_dagger_weights(fr, 3, 3), [base**k for k in range(4)], rtol=0, atol=1e-15)


def test_euler_factor_ones(sieve):
    frames = (select_global_frame(One(), 10**4),) * 3
    prob = TripleProblem(One(), One(), One(), 1, 1, 1, x=10**4)
    for p in (2, 3, 7):
        assert abs(euler_factor_E(p, prob, frames, math.log(10**4)) - 1.0) < 1e-9


def test_cap_exponent():
    assert smallest_cap_exponent(2, 12.0) == 8  # 2^8 = 256 > 144
    assert smallest_cap_exponent(13, 12.0) == 2


def test_estar_closed_forms(sieve):
    lam = liouville()
    assert estar(3, One(), lam, lam) == 1.0
    assert abs(estar(3, lam, lam, lam) - (-0.8)) < 1e-12
    f0 = Indicator(ResidueRule(4, (1,)))
    assert abs(estar(3, f0, f0, f0) - 0.75) < 1e-12
    assert abs(estar_N(3, f0, f0, f0, 10**5 + 3) - 1.125) < 1e-12
    assert abs(estar_N(3, f0, f0, f0, 3 * 7) - 0.75) < 1e-12


def test_estar_closed_vs_exact(sieve):
    lam = liouville()
    for p in (3, 5, 7):
        assert abs(estar(p, lam, lam, lam) - estar_exact(p, lam, lam, lam, cap=1 << 16)) < 1e-3
    f0 = Indicator(ResidueRule(4, (1,)))
    assert abs(estar(3, f0, f0, f0) - estar_exact(3, f0, f0, f0, cap=1 << 16)) < 1e-3
    assert (
        abs(estar_N(3, f0, f0, f0, 10**5 + 3) - estar_exact(3, f0, f0, f0, "partition", 10**5 + 3, cap=1 << 16))
        < 1e-3
    )
    # the all-(-1) partition factor has no closed form; exact sum must converge
    a = estar_exact(3, lam, lam, lam, "partition", 100, cap=1 << 12)
    b = estar_exact(3, lam, lam, lam, "partition", 100, cap=1 << 16)
    assert abs(a - b) < 1e-3


def test_constants():
    d0 = delta0()
    assert abs(d0 - 0.656999) < 1e-5
    # independent midpoint oracle for the integral
    n = 10**7
    t = 1.0 + (np.arange(n) + 0.5) * (math.sqrt(math.e) - 1.0) / n
    mid = float(np.sum(np.log(t) / (t + 1.0))) * (math.sqrt(math.e) - 1.0) / n
    d0_mid = -1.0 + 2.0 * math.log(1.0 + math.sqrt(math.e)) - 4.0 * mid
    assert abs(d0 - d0_mid) < 1e-7
    # integrand vanishes at the left endpoint
    assert math.log(1.0) / 2.0 == 0.0
    k, kp = cor2_constants()
    assert abs(k - 0.56869) < 1e-4
    assert abs(kp - 0.005044) < 1e-5
    assert abs((1 + d0) ** 3 / 8 + (1 - d0) ** 3 / 8 - (k + kp)) < 1e-12


def test_extremal_table(sieve):
    tab = extremal_table(10**6)
    assert abs(tab["C2_product"] - 1.322) < 0.003
    assert abs(tab["eight_forty_fifths"] - 8 / 45) < 1e-6
    assert tab["eight_forty_fifths_argmax"]["P"] == [2]
    assert abs(tab["two_minus_one_max"] - 0.15611) < 1e-3
    assert tab["two_minus_one_argmax"]["P"] == [3]
    assert abs(tab["mixed_max"]["mu1"] - (1 + tab["delta0"]) / 2) < 1e-12


def test_c2_truncation_stability(sieve):
    """Refining the cutoff moves the product by less than the tail scale."""
    a = c2_product(10**5)
    b = c2_product(10**6)
    assert abs(a - b) < 1e-3


def test_predict_triples_ones(sieve):
    prob = TripleProblem(One(), One(), One(), 1, 1, 1, x=2000)
    rep = predict_triples(prob)
    assert rep.path == "real-unit"
    assert abs(rep.predicted_density - 1.0) < 1e-12
    assert abs(rep.oracle_density - 1.0) < 2e-3


def test_predict_triples_z_stability(sieve):
    """For f = g = h = 1 every local factor is 1, so refining z is inert."""
    prob = TripleProblem(One(), One(), One(), 1, 1, 1, x=2000)
    a = predict_triples(prob, z=5.0)
    b = predict_triples(prob, z=50.0)
    assert abs(a.predicted_density - b.predicted_density) < 1e-12


def test_predict_triples_nonprincipal_gate(sieve):
    prob = TripleProblem(legendre(5), One(), One(), 1, 1, 1, x=2 * 10**4)
    rep = predict_triples(prob)
    assert rep.path == "generic"
    assert rep.factors["delta_principal"] == 0.0
    assert abs(rep.predicted_density) < 1e-12
    assert abs(rep.oracle_density) < 0.02


def test_abc1_modified_set(sieve):
    """With 2 adjoined to the generating primes the local formula tracks the
    count; the pure 1-mod-4 set is degenerate (both sides vanish)."""
    A2 = Indicator(ResidueRule(4, (1, 2)))
    prob = TripleProblem(A2, A2, A2, 1, 1, 1, x=10**5)
    rep = predict_triples(prob)
    assert rep.path == "real-unit"
    assert rep.rel_discrepancy < 0.06
    A = Indicator(ResidueRule(4, (1,)))
    rep0 = predict_triples(TripleProblem(A, A, A, 1, 1, 1, x=2 * 10**4))
    assert rep0.oracle_density == 0 and abs(rep0.predicted_density) < 1e-15


def test_signpattern(sieve):
    one = One()
    oracle, pred = signpattern_density(one, one, one, -1, -1, -1, 10**4)
    assert oracle == 0.0 and abs(pred) < 1e-12
    oracle, pred = signpattern_density(one, one, one, 1, 1, 1, 10**4)
    assert abs(pred - 1.0) < 1e-12 and abs(oracle - 1.0) < 1e-3
    f2 = SignRule(ListRule(frozenset({2})))
    oracle, pred = signpattern_density(f2, f2, f2, -1, -1, -1, 10**5)
    assert abs(oracle - pred) / pred < 0.05
    with pytest.raises(DomainError):
        signpattern_density(one, one, one, 0, 1, 1, 100)


def _eight_term_density(f, g, h, eps, x):
    """The sign-pattern density as the eight expanded triple counts."""
    one = One()
    total = 0
    for sf, sg, sh in itertools.product((False, True), repeat=3):
        prob = TripleProblem(f if sf else one, g if sg else one, h if sh else one, 1, 1, 1, x=x)
        w = (eps[0] if sf else 1) * (eps[1] if sg else 1) * (eps[2] if sh else 1)
        total += w * int(triple_sum_fft(prob).real)
    return total / (8.0 * (x * x / 2.0))


@pytest.mark.parametrize(
    "specs",
    [
        ("randpm:3", "legendre:7", "minus-all"),  # f != g != h, zeros in g
        ("legendre:7", "randpm:5", "randpm:6"),  # f with zeros
        ("randpm:4",),  # f = g = h, one object
    ],
)
def test_signpattern_matches_eight_term_expansion(sieve, specs):
    fs = [parse_multfunc(s) for s in specs]
    f, g, h = fs if len(fs) == 3 else fs * 3
    x = 2003
    for eps in itertools.product((-1, 1), repeat=3):
        oracle, _ = signpattern_density(f, g, h, *eps, x)
        assert oracle == _eight_term_density(f, g, h, eps, x)


def test_signpattern_rejects_complex_weights(sieve):
    with pytest.raises(DomainError):
        signpattern_density(legendre(5), parse_multfunc("char:5:1"), One(), 1, 1, 1, 100)


@pytest.mark.parametrize("spec", ["randpm:4", "legendre:7", "char:5:1"])
def test_triple_fft_self_convolution_matches_direct(sieve, spec):
    """f = g (one object) transforms the shared array once; a != b must not."""
    f = parse_multfunc(spec)
    g = legendre(5)
    probs = [
        TripleProblem(f, f, f, 1, 1, 1, x=400),
        TripleProblem(f, f, g, 2, 2, 3, x=300),
        TripleProblem(f, f, f, 2, 1, 1, x=300),
        TripleProblem(f, f, f, 1, 3, 2, x=300),
        TripleProblem(f, f, f, mode="partition", N=401),
        TripleProblem(f, f, g, mode="partition", N=300),
    ]
    for prob in probs:
        direct, fft = triple_sum_direct(prob), triple_sum_fft(prob)
        if f.exact_int:
            assert direct == fft
        else:
            assert abs(direct - fft) <= 1e-9 * prob.scale**2


def test_fs_mean_over_sumset(sieve):
    triv = DirichletCharacter(1, ())
    # F_s = 1: mean is exactly 1
    sp1 = split_small_large(One(), triv, 0.0, 5.0)
    lem, direct = fs_mean_over_sumset(sp1, np.array([1]), np.array([1]))
    assert abs(direct - 1.0) < 1e-12 and abs(lem - 1.0) < 1e-12
    # singleton sets: mean = F_s(2)
    f = SignRule(ThresholdRule("le", 7.0))
    sp = split_small_large(f, triv, 0.0, 7.0)
    lem, direct = fs_mean_over_sumset(sp, np.array([1]), np.array([1]))
    assert abs(direct - sp.F_s.prime_value(2)) < 1e-12
    # A = B = 1..1000 with a sign function: the unfolded sum equals the direct mean
    A = np.arange(1, 1001)
    lem, direct = fs_mean_over_sumset(sp, A, A)
    assert abs(lem - direct) < 1e-9
    # twisted frame
    sp2 = split_small_large(liouville(), legendre(5).chi, 0.3, 10.0)
    lem, direct = fs_mean_over_sumset(sp2, np.arange(1, 500), np.arange(2, 700, 3))
    assert abs(lem - direct) < 1e-9


def test_principality_gate(sieve):
    triv = DirichletCharacter(1, ())
    fr1 = Frame(f=One(), x=1000, chi=triv, psi=triv, t=0.0, score=1.0)
    chi5 = legendre(5).chi
    fr5 = Frame(f=One(), x=1000, chi=chi5, psi=chi5, t=0.0, score=1.0)
    # non-principal product: the residue sum vanishes exactly
    g = residue_triple_gate(60, (fr5, fr1, fr1))
    assert abs(g) < 1e-9
    # all-principal: the sum is the full (weighted) solution density
    g = residue_triple_gate(60, (fr1, fr1, fr1))
    assert abs(g - 1.0) < 1e-9


def test_product_principal_matches_float_oracle():
    """The exact index test against the product of value tables compared
    with 1 to a tolerance, on every triple of global-frame candidates."""

    def float_oracle(psis):
        m = math.lcm(*(psi.q for psi in psis))
        vals = np.ones(m, dtype=np.complex128)
        for psi in psis:
            vals = vals * psi.values()[np.arange(m) % psi.q]
        units = np.abs(vals) > 0.5
        return not np.any(units) or bool(np.max(np.abs(vals[units] - 1.0)) < 1e-9)

    cands = primitive_candidates()
    principal = 0
    for psis in itertools.product(cands, repeat=3):
        exact = _product_principal(list(psis))
        assert exact == float_oracle(psis), [(psi.q, psi.exponents) for psi in psis]
        principal += exact
    assert (len(cands), principal) == (27, 209)


@pytest.mark.parametrize("n", [8, 9, 12, 25])
def test_residue_triple_sum_brute_force(n):
    """The kernel against the triple loop, with multipliers that are not
    units mod n (n itself among them) and nonzero targets."""
    rng = np.random.default_rng(n)
    tables = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(3)]
    u, v, w = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    terms = tables[0][u] * tables[1][v] * tables[2][w]
    for mults, target in [((1, 1, -1), 0), ((2, 3, -1), 1), ((4, 6, 5), 3), ((n, 10, -15), n - 1)]:
        solved = (mults[0] * u + mults[1] * v + mults[2] * w - target) % n == 0
        brute = np.sum(terms[solved]) / n**2
        assert abs(residue_triple_sum(n, tables, list(mults), target) - brute) < 1e-12


@pytest.mark.parametrize("N", [30, 60])
def test_residue_triple_gate_brute_force(N):
    """Coefficients (2, 3, -1), twisted frames with t != 0: the gate against a
    triple loop over daggers built from their definition (capped valuations
    matter at 4 | 60)."""
    coeffs = (2, 3, -1)
    triv = DirichletCharacter(1, ())
    chi5 = legendre(5).chi
    fns = (liouville(), One(), legendre(5))
    frames = tuple(
        Frame(f=fn, x=1000, chi=psi, psi=psi, t=t, score=1.0)
        for fn, psi, t in zip(fns, (chi5, triv, chi5), (0.0, 0.4, -0.25))
    )

    def dagger(fn, fr, m):
        star = twist(fn, fr.psi, fr.t)
        val = fr.psi(m % fr.psi.q)
        for p, e in {30: ((2, 1), (3, 1), (5, 1)), 60: ((2, 2), (3, 1), (5, 1))}[N]:
            k = 0
            while k < e and m % p ** (k + 1) == 0:
                k += 1
            val *= star.prime_value(p) ** k
        return val

    tabs = [[dagger(fn, fr, m) for m in range(N)] for fn, fr in zip(fns, frames)]
    brute = 0j
    for u, v in itertools.product(range(N), repeat=2):
        # c = -1: w is solved from a u + b v = w
        brute += tabs[0][u] * tabs[1][v] * tabs[2][(coeffs[0] * u + coeffs[1] * v) % N]
    brute /= N**2
    assert abs(brute) > 1e-3
    assert abs(residue_triple_gate(N, frames, coeffs) - brute) < 1e-12


def test_estar_table_matches_exact_sum():
    """Every closed form of the table, and NaN exactly where none applies, for
    all 27 sign patterns in both equations."""
    lam, zero = liouville(), Indicator(ListRule(frozenset()))
    by_value = {-1: lam, 0: zero, 1: One()}
    primes = np.array([3, 5])
    for pattern in itertools.product((-1, 0, 1), repeat=3):
        values = [np.full(len(primes), v) for v in pattern]
        for N in (None, 3 * 5 * 7, 10**5 + 3):
            vals, form = estar_table(primes, values, N)
            has_form = 1 in pattern or pattern == (0, 0, 0) or (N is None and pattern == (-1, -1, -1))
            assert np.all((form > 0) == has_form) and np.all(np.isnan(vals) != has_form)
            if not has_form:
                continue
            fns = [by_value[v] for v in pattern]
            mode = "linear" if N is None else "partition"
            for p, val in zip(primes.tolist(), vals):
                assert abs(val - estar_exact(p, *fns, mode, N)) < 1e-3


def test_real_unit_route_all_minus_one_branch(sieve):
    """f = g = h = -1 at 3 only: the all-(-1) closed form in the linear
    product, the exact sum in the partition one."""
    f = parse_multfunc("sign:in:3")
    rep = predict_triples(TripleProblem(f, f, f, 1, 1, 1, x=5003))
    assert rep.path == "real-unit"
    assert rep.factors["local_product"] == _C_P((3,))
    assert abs(rep.factors["local_product"] - (-0.8)) < 1e-15
    assert rep.factors["exact_local_factors"] == []
    rep = predict_triples(TripleProblem(f, f, f, mode="partition", N=5003))
    assert rep.path == "real-unit"
    assert rep.factors["exact_local_factors"] == [(3, estar_exact(3, f, f, f, "partition", 5003))]
