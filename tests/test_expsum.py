import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from pretsums.characters import (
    enumerate_characters,
    periodic_exp_fraction,
    periodic_from_table,
    periodic_kloosterman,
    periodic_one,
)
from pretsums.cli import jsonable
from pretsums.errors import DomainError
from pretsums import expsum
from pretsums.expsum import (
    _mark_major,
    ap_sum,
    arc_decompose_Rf,
    arc_halfwidth,
    bound_report,
    classify_alpha,
    direct_sum,
    direct_sum_rational,
    err_budget,
    exponential_sum_grid,
    frame_term,
    friable_sum,
    identity_41_residual,
    minor_arc_energy,
    pls_tail,
    predict_theorem1,
    predict_twisted,
    PredictionReport,
    s_f_chi_predict,
    theorem1_coefficient,
    thresholds,
    twisted_coefficient,
)
from pretsums.funcspec import parse_multfunc
from pretsums.multfunc import (
    ArchTwist,
    KappaFunction,
    One,
    ProductMF,
    RandomSign,
    _exact_dot,
    eval_range,
    k_factor,
    legendre,
    liouville,
    mean_value,
    periodic_sum,
    twist,
)
from pretsums.pretentious import Frame, _frame, select_frames

FIB = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584,
       4181, 6765, 10946, 17711, 28657, 46368, 75025, 121393, 196418, 317811, 514229}


def test_direct_sums(sieve):
    assert abs(direct_sum(One(), 0.0, 100) - 100) < 1e-12
    assert abs(direct_sum(One(), 0.5, 4)) < 1e-12
    # relation to the Gauss sum over complete periods
    leg7 = legendre(7)
    g7 = leg7.chi.gauss_sum()
    v = direct_sum_rational(leg7, 1, 7, 0.0, 700)
    assert abs(v - 100 * g7) < 1e-9


def test_friable_sum(sieve):
    assert abs(friable_sum(One(), 0.3, 50, 50) - direct_sum(One(), 0.3, 50)) < 1e-12
    assert abs(friable_sum(One(), 0.25, 10, 1) - np.exp(0.5j * np.pi)) < 1e-12
    assert abs(friable_sum(One(), 0.0, 100, 2) - 7) < 1e-12


def test_friable_bound_15(sieve):
    """Empirical check of the friable-sum bound shape (unit constants)."""
    x, y = 10**5, 30.0
    for f in (liouville(), RandomSign(1)):
        for a, q in ((1, 3), (2, 7)):
            v = abs(friable_sum(f, a / q, x, y))
            bound = (
                math.sqrt(x * y)
                + (x / math.sqrt(q) + math.sqrt(x * q * math.log(2 * x / q))) * math.log(y)
                + x / math.exp(0.5 * math.sqrt(math.log(x) * math.log(math.log(x))))
            )
            assert v <= bound


def test_classify_alpha(sieve):
    arc = classify_alpha(Fraction(1, 3), 10**6)
    assert (arc.a, arc.q, arc.regime) == (1, 3, "major")
    golden = classify_alpha((5**0.5 - 1) / 2, 10**6)
    assert golden.q in FIB
    arc = classify_alpha(1 / 3 + 1e-7, 10**6)
    assert (arc.a, arc.q) == (1, 3) and abs(arc.beta - 1e-7) < 1e-12
    arc = classify_alpha(0.0, 10**6)
    assert (arc.a, arc.q) == (0, 1) and arc.regime == "major"
    with pytest.raises(DomainError):
        classify_alpha(0.5, 2)


@pytest.mark.parametrize("x", [1, 2])
def test_predict_theorem1_rejects_tiny_x(x):
    """log log x is not real or Q1 is 0 below 3: a domain error, not a traceback."""
    with pytest.raises(DomainError):
        thresholds(x)
    with pytest.raises(DomainError):
        predict_theorem1(One(), 1, 1, 0.0, x)


def test_thresholds_take_eps_in_zero_one():
    """eps outside (0, 1] is a domain error before any arc is laid down."""
    _, Q1 = thresholds(2**30, 1.0)
    assert 3900 < Q1 < 4100
    for eps in (0.0, -1.0, 1.0001, 400.0):
        with pytest.raises(DomainError):
            thresholds(1000, eps)
        with pytest.raises(DomainError):
            classify_alpha(Fraction(1, 3), 1000, eps)
        with pytest.raises(DomainError):
            minor_arc_energy(One(), 100, eps=eps)


@given(st.floats(min_value=0.0, max_value=0.999999))
def test_classify_invariants(alpha):
    x = 10**5
    arc = classify_alpha(alpha, x)
    Q, Q1 = thresholds(x)
    assert 1 <= arc.q <= Q
    assert math.gcd(arc.a, arc.q) == 1
    assert abs(arc.beta) <= 1.0 / (arc.q * Q) + 1e-15
    assert abs(arc.alpha - (arc.a / arc.q + arc.beta)) < 1e-12


def test_predict_theorem1_character(sieve):
    """f a primitive character: the single-frame main term is near exact."""
    rep = predict_theorem1(legendre(5), 1, 5, 0.0, 10**5, J=3)
    assert rep.rel_discrepancy < 1e-3
    # leading frame carries r = 5 and t ~ 0
    lead = rep.terms[0]
    assert lead.r == 5 and abs(lead.t) < 1e-3
    # S_{f_1}(x) counts integers coprime to 5
    coprime = sum(1 for n in range(1, 10**5 + 1) if n % 5)
    assert abs(lead.S - coprime) < 1e-6


def test_predict_theorem1_degenerate(sieve):
    rep = predict_theorem1(One(), 0, 1, 0.0, 10**4, J=3)
    assert rep.abs_discrepancy < 1e-9
    with pytest.raises(DomainError):
        predict_theorem1(One(), 2, 4, 0.0, 10**4)


def test_predict_theorem1_decay(sieve):
    rels = []
    for x in (10**4, 10**5):
        rep = predict_theorem1(legendre(5), 2, 5, 0.0, x, J=3)
        rels.append(rep.abs_discrepancy / x)
        assert rep.abs_discrepancy <= rep.err_budget
    assert rels[1] <= rels[0]


def test_err_budget_shape():
    assert err_budget(10**5, 4, 3) > 0
    assert err_budget(10**5, 4, 6) < err_budget(10**5, 4, 2)


def test_predict_twisted_trivial(sieve):
    rep = predict_twisted(One(), periodic_one(), 10**4)
    assert rep.abs_discrepancy < 1e-9


def test_predict_twisted_reduces_to_theorem1(sieve):
    """h(n) = e(n/q): the pseudo-Gauss coefficients collapse to the Gauss sum."""
    x = 10**4
    for f, q in ((legendre(5), 5), (legendre(5), 10), (liouville(), 12)):
        h = periodic_exp_fraction(q)
        frames = select_frames(f, x, q, 3)
        for fr in frames:
            c = twisted_coefficient(h, fr)
            kap = KappaFunction(f, fr.psi, fr.t)
            expect = fr.psi.gauss_sum() * kap.eval(q // fr.r)
            assert abs(c - expect) < 1e-9, (q, fr.r)
        rep_t = predict_twisted(f, h, x, 3)
        rep_1 = predict_theorem1(f, 1, q, 0.0, x, 3)
        assert abs(rep_t.predicted - rep_1.predicted) < 1e-6


def test_predict_twisted_kloosterman(sieve):
    """|sum f h| tracked and coefficients within the size-one bound."""
    q = 7
    f = legendre(q)
    h = periodic_kloosterman(q, 1, 1)
    rep = predict_twisted(f, h, 10**5, 3)
    from pretsums.sieve import euler_phi

    md = h.weil_md
    for term in rep.terms:
        # |c_{j,q}| <= (m+d)^{omega(r_j)} q^2 / phi(q)^2 (coefficient includes 1/phi later)
        omega = len([p for p, _ in sieve.factor(term.r)]) if term.r > 1 else 0
        bound = (md**omega) * q * q / euler_phi(q)
        assert abs(term.coefficient) <= bound + 1e-9
    assert rep.abs_discrepancy < 0.1 * abs(rep.oracle) + 50


def test_ap_sum(sieve):
    rep = ap_sum(One(), 1, 4, 10**5, 3)
    assert rep.oracle == 25000
    assert abs(rep.predicted - 25000) / 25000 < 1e-3
    d = periodic_sum(legendre(3), np.ones(1, dtype=np.int8), 10**4)
    rep = ap_sum(legendre(3), 0, 1, 10**4, 3)
    assert abs(rep.oracle - d) < 1e-12
    rels = []
    for x in (10**4, 10**5):
        rep = ap_sum(legendre(3), 1, 4, x, 3)
        rels.append(rep.abs_discrepancy / x)
    assert rels[1] <= rels[0]
    with pytest.raises(DomainError):
        ap_sum(One(), 2, 4, 100, 3)


def test_ap_sum_is_predict_twisted_with_the_ap_indicator(sieve):
    """ap_sum is predict_twisted at h = 1_{a mod q}, bit for bit, plus its budget."""
    for f, a, q, x in ((legendre(5), 2, 7, 20000), (parse_multfunc("randpm:2*char:7:2"), 3, 4, 997)):
        rep = ap_sum(f, a, q, x, 3)
        tw = predict_twisted(f, periodic_from_table(q, np.arange(q) == a), x, 3)
        assert rep.oracle == tw.oracle and rep.predicted == tw.predicted
        assert rep.terms == tw.terms
        assert math.isfinite(rep.err_budget) and math.isnan(tw.err_budget)


def test_s_f_chi_predict(sieve):
    chi06 = enumerate_characters(6)[0]
    rep = s_f_chi_predict(One(), chi06, 1, 10**5)
    coprime = sum(1 for n in range(1, 10**5 + 1) if math.gcd(n, 6) == 1)
    assert rep.oracle == coprime
    assert abs(rep.predicted - 10**5 / 3) / (10**5 / 3) < 2e-3
    # ell = 1, chi mod 1: degenerates to the partial-sum identity
    triv = enumerate_characters(1)[0]
    rep = s_f_chi_predict(legendre(5), triv, 1, 10**4)
    assert rep.abs_discrepancy / 10**4 < 1e-3
    # chi mod 10 induced by the quadratic character mod 5, ell = 2
    quad5 = legendre(5).chi
    chi10 = next(
        c
        for c in enumerate_characters(10)
        if c.primitive()[1] == 5 and c.primitive()[0].exponents == quad5.exponents
    )
    rep = s_f_chi_predict(legendre(5), chi10, 2, 10**5)
    assert rep.rel_discrepancy < 1e-2


@pytest.mark.parametrize("spec", ["legendre:5", "randpm:2*char:7:2", "nit:0.5*legendre:5"])
def test_frame_owns_main_term_inputs(sieve, spec):
    """A frame's f_j, kappa and S_{f_j}(x) are the twist of its f at its
    (psi, t) and x, and the predictors' terms carry the S and t of their frames."""
    f, x, q = parse_multfunc(spec), 20000, 35
    frames = select_frames(f, x, q, 3)
    for fr in frames:
        assert fr.f is f and fr.x == x and fr.r == fr.psi.q
        assert fr.S == mean_value(twist(f, fr.psi, fr.t), x)
        assert fr.f_j is fr.kappa.f_j
        assert fr.kappa == KappaFunction(f, fr.psi, fr.t)
    for rep in (predict_theorem1(f, 2, q, 0.0, x, 3), predict_twisted(f, periodic_exp_fraction(q), x, 3)):
        assert [(tm.r, tm.t, tm.S) for tm in rep.terms] == [(fr.r, fr.t, complex(fr.S)) for fr in frames]


def test_s_f_chi_predict_is_frame_term_of_its_frame(sieve):
    chi = next(c for c in enumerate_characters(15) if c.primitive()[1] == 5)
    for f, ell in ((legendre(5), 2), (parse_multfunc("randpm:2*char:7:2"), 3)):
        rep = s_f_chi_predict(f, chi, ell, 20000)
        fr = _frame(f, 20000, chi, chi.primitive()[0])
        term = frame_term(1, fr, k_factor(fr.f_j, chi.q) / ell ** (1 + 1j * fr.t), 0.0, 1)
        assert rep.terms == [term] and rep.predicted == term.value


def test_identity_41(sieve):
    assert identity_41_residual(legendre(5), 2, 5, 3e-6, 10**4) < 1e-3
    assert identity_41_residual(RandomSign(6), 1, 3, 1e-5, 10**4) < 1e-3


def test_arc_decompose(sieve):
    # minor arc: M = 0 and E = R
    split = arc_decompose_Rf(liouville(), (5**0.5 - 1) / 2, 10**4)
    assert split.M == 0 and abs(split.E - split.R) < 1e-12
    # major arc for a character: M tracks R
    split = arc_decompose_Rf(legendre(5), Fraction(1, 5), 10**4)
    assert split.arc.regime == "major" and split.r_divides_q
    assert abs(split.M) > 0.5 * abs(split.R)
    assert abs(split.E) < 0.1 * abs(split.R)
    # alpha = 0 for f = 1: M at the x scale, E small
    split = arc_decompose_Rf(One(), 0.0, 10**4)
    assert abs(split.M - 10**4) < 1 and abs(split.E) < 1


def test_parseval_exact(sieve):
    x = 2**14
    rep = minor_arc_energy(One(), x)
    assert abs(rep.total_energy - rep.coefficient_energy) / rep.coefficient_energy < 1e-6
    rep = minor_arc_energy(RandomSign(3), 2**12)
    assert abs(rep.total_energy - 2**12) / 2**12 < 1e-6
    with pytest.raises(DomainError):
        minor_arc_energy(One(), 2**12, M=2**12)


def test_grid_folding(sieve):
    f = RandomSign(11)
    x, M = 2000, 64
    grid = exponential_sum_grid(f, x, M)
    for k in (0, 1, 17, 63):
        assert abs(grid[k] - direct_sum(f, k / M, x)) < 1e-8


def test_theorem1_complex_frame_every_numerator():
    # the coefficient carries conj(psi)(a): for a non-real frame character
    # mod 5, psi(a) in its place would rotate the prediction at a = 2, 3
    f = parse_multfunc("char:5:1")
    for a in (1, 2, 3, 4):
        rep = predict_theorem1(f, a, 5, 0.0, 20000)
        assert rep.terms[0].chi == (1,)
        assert rep.rel_discrepancy < 1e-3, a


def test_mask_matches_classifier():
    for x, M in [(4096, 5 * 2**11), (4096, 257), (4096, 4097), (2048, 64), (512, 16)]:
        mask = _mark_major(M, x, 0.1)
        for k in range(M):
            arc = classify_alpha(Fraction(k, M), x)
            assert (arc.regime == "major") == bool(mask[k]), (x, M, k)


def _loop_mark_major(M: int, x: int, eps: float) -> np.ndarray:
    """One index range per arc a/q, laid down in a Python loop."""
    _, Q1 = thresholds(x, eps)
    mask = np.zeros(M, dtype=bool)
    for q in range(1, int(Q1) + 1):
        w = arc_halfwidth(q, x)
        for a in range(q + 1):
            if math.gcd(a, q) != 1:
                continue
            lo = int(math.ceil((a / q - w) * M))
            hi = int(math.floor((a / q + w) * M))
            if lo <= hi:
                mask[np.arange(lo, hi + 1) % M] = True
    return mask


@pytest.mark.parametrize("x", [4, 100, 2**12, 2**14])
def test_mark_major_matches_loop(x):
    for M in (int(next_fast_len(8 * (x + 1))), 2 * x + 1, 2 * x + 3):
        assert np.array_equal(_mark_major(M, x, 0.1), _loop_mark_major(M, x, 0.1))


@pytest.mark.parametrize("spec", ["randpm:3", "legendre:7", "one"])
@pytest.mark.parametrize("asymmetric", [False, True])
def test_half_spectrum_energy_matches_full_grid(sieve, monkeypatch, spec, asymmetric):
    """The rfft half spectrum gives the full-grid sums of |R(k/M)|^2, with
    each grid point weighted by its own mask entry (the mask need not be
    symmetric under k -> M - k)."""
    f = parse_multfunc(spec)
    x = 1501  # R(1/2) != 0, so the bin M/2 of an even M carries weight
    nonzero = int(np.count_nonzero(eval_range(f, x)))
    for M in (None, 2 * x + 1, 2 * x + 2, 4 * x + 3):  # default, odd and even
        size = M if M is not None else int(next_fast_len(8 * (x + 1)))
        mask = _mark_major(size, x, 0.1)
        if asymmetric:
            mask = mask ^ (np.random.default_rng(size).random(size) < 0.1)
            monkeypatch.setattr(expsum, "_mark_major", lambda M_, x_, eps_: mask)
        rep = minor_arc_energy(f, x, M)
        assert rep.M == size
        p2 = np.abs(exponential_sum_grid(f, x, size)) ** 2
        want = (np.sum(p2) / size, np.sum(p2[mask]) / size, np.sum(p2[~mask]) / size)
        got = (rep.total_energy, rep.major_energy, rep.minor_energy)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * abs(w)
        assert rep.coefficient_energy == nonzero


@pytest.mark.parametrize("spec", ["randpm:5", "legendre:7", "minus-all"])
def test_direct_sum_rational_exact_class_sums(sieve, spec):
    """At beta = 0 the int8 path returns the correctly rounded value of the
    exact class-sum combination (well inside q 2^-52 sum |c|)."""
    f = parse_multfunc(spec)
    x = 30011
    vals = eval_range(f, x)
    for a, q in ((0, 1), (1, 2), (2, 5), (3, 7), (5, 12), (6, 13), (17, 101)):
        roots = np.exp(2j * np.pi * np.arange(q) / q)
        cls = [int(np.sum(vals[r::q], dtype=np.int64)) for r in range(q)]
        w = [roots[(r * a) % q] for r in range(q)]
        re = sum(Fraction(c) * Fraction(float(z.real)) for c, z in zip(cls, w))
        im = sum(Fraction(c) * Fraction(float(z.imag)) for c, z in zip(cls, w))
        got = direct_sum_rational(f, a, q, 0.0, x)
        tol = q * 2.0**-52 * sum(abs(c) for c in cls)
        assert abs(got.real - float(re)) <= tol and abs(got.imag - float(im)) <= tol
        assert got == complex(float(re), float(im))


def test_exact_dot_large_counts():
    """Each pair c w - 1 * fl(c w) leaves only the rounding error of the
    product, which a sum of rounded products would lose."""
    rng = np.random.default_rng(1)
    for bits in (10, 30, 52):
        c0 = rng.integers(2 ** (bits - 1), 2**bits, 32)
        w0 = rng.standard_normal(32)
        c = np.concatenate([c0, -np.ones(32, dtype=np.int64)])
        w = np.concatenate([w0, c0 * w0])
        want = sum(Fraction(int(a)) * Fraction(float(b)) for a, b in zip(c, w))
        assert _exact_dot(c, w) == float(want)


def test_energy_behavior(sieve):
    lam = minor_arc_energy(liouville(), 2**12)
    one = minor_arc_energy(One(), 2**12)
    assert lam.minor_ratio > 0.5
    assert one.minor_ratio < 0.05


def test_bound_report(sieve):
    rep = bound_report(One(), 0.5, 10**4)
    assert rep.absR <= 1 + 1e-9
    assert rep.ratios["folklore"] < 0.01
    rep = bound_report(legendre(5), Fraction(1, 5), 10**5)
    assert rep.ratios["refined"] < 1.2  # x/sqrt(q(1+|beta|x)) scale
    rep = bound_report(RandomSign(5), 0.37, 10**4)
    assert rep.ratios["general"] < 1.0


def test_pls_tail_decay(sieve):
    """Mass outside the top frames shrinks relative to x^2."""
    for f, q in ((legendre(5), 5), (One(), 12)):
        vals = [pls_tail(f, 10**k, q, 3) / 10 ** (2 * k) for k in (4, 5)]
        assert vals[1] <= vals[0]


def test_pls_tail_rejects_a_frame_count_below_one(sieve):
    """J = 1 sums every character; J < 1 and x < 3 are domain errors, as in select_frames."""
    f = legendre(5)
    every = sum(abs(mean_value(f, 10**4, chi)) ** 2 for chi in enumerate_characters(5))
    assert pls_tail(f, 10**4, 5, 1) == pytest.approx(every, rel=1e-12)
    for J in (0, -1):
        with pytest.raises(DomainError):
            pls_tail(f, 10**4, 5, J)
    for x in (2, -3):
        with pytest.raises(DomainError):
            pls_tail(f, x, 5, 3)


@pytest.mark.parametrize("order", [3, 6])
@pytest.mark.parametrize("t", [0.0, 0.4, -2.2])
def test_kappa_reads_the_prime_values_of_s_fj(sieve, order, t):
    """The kappa of theorem1_coefficient multiplies in bit for bit the f_j(p)
    that eval_range(twist(f, psi, t)) uses for S_{f_j}(x), at p not dividing r."""
    psi = next(c for c in enumerate_characters(7) if c.order == order)
    x = 2000
    for f in (liouville(), RandomSign(3), ProductMF((RandomSign(5), ArchTwist(0.7)))):
        fr = Frame(f=f, x=x, chi=psi, psi=psi, t=t, score=1.0)
        kappa = fr.kappa
        v = eval_range(twist(f, psi, t), x)
        gauss = psi.conjugate()(1) * psi.gauss_sum()
        for p in sieve.primes_upto(x).tolist():
            if p == 7:
                continue
            fj, psip = complex(v[p]), psi(p)
            assert kappa.at_prime_power(p, 1) == psip * (fj - 1), (f, p)
            assert kappa.at_prime_power(p, 2) == psip**2 * (fj**2 - fj), (f, p)
            coeff = theorem1_coefficient(fr, 1, 7 * p)
            assert coeff == gauss * (psip * (fj - 1)), (f, p)


def test_rel_discrepancy_undefined_at_zero():
    zero = PredictionReport(oracle=0j, predicted=0.5 + 0j, terms=[], err_budget=1.0)
    assert zero.rel_discrepancy is None and jsonable(zero)["rel_discrepancy"] is None
    rep = PredictionReport(oracle=2 + 0j, predicted=1.5 + 0j, terms=[], err_budget=1.0)
    assert rep.rel_discrepancy == 0.25
