import math
import subprocess
import sys

import numpy as np
import pytest

from pretsums.characters import DirichletCharacter
from pretsums.errors import DomainError
from pretsums.multfunc import (
    ArchTwist,
    One,
    PrimeTable,
    RandomSign,
    legendre,
    liouville,
)
from pretsums.pretentious import (
    adapt_residual,
    brudern_check,
    dirichlet_modulus,
    frame_stability,
    lemsumt_residual,
    pretentious_distance,
    rank_characters,
    select_frames,
    select_global_frame,
    select_t,
)
from pretsums import sieve as sieve_module
from pretsums.sieve import get_sieve

TRIV = DirichletCharacter(1, ())


def test_dirichlet_modulus_zeta_oracle(sieve):
    """Euler product for f = 1 against a direct sum over x-smooth integers."""
    x = 30
    sigma = 1 + 1 / math.log(x)
    ps = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    limit = 30.0**9
    total = 0.0
    stack = [(0, 1.0)]
    while stack:
        i, val = stack.pop()
        if i == len(ps):
            total += val**-sigma
            continue
        v = val
        while v <= limit:
            stack.append((i + 1, v))
            v *= ps[i]
    dm = dirichlet_modulus(One(), x, 0.0)
    assert abs(dm / total - 1) < 0.02


def test_dirichlet_modulus_comparisons(sieve):
    x = 10**4
    assert dirichlet_modulus(liouville(), x, 0.0) < dirichlet_modulus(One(), x, 0.0)
    with pytest.raises(DomainError):
        dirichlet_modulus(One(), 2, 0.0)


def test_select_t_basics(sieve):
    assert select_t(One(), 10**4) == 0.0
    # construction oracle: f(p) = p^{i t0} recovers t0
    t = select_t(ArchTwist(1.0), 10**4)
    assert abs(t - 1.0) < 1e-3
    # real f with small distance: the score at t* dominates the score at 0
    f = PrimeTable(((2, -1),))
    t = select_t(f, 10**4)
    s_star = dirichlet_modulus(f, 10**4, t)
    assert s_star >= dirichlet_modulus(f, 10**4, 0.0) - 1e-12


def test_select_t_rejects_negative_range():
    """The range is [-log x, log x]; x >= 3 is required, which rejects every
    x whose range is negative or empty (x = 1) along with x = 2."""
    for x in (2, 1, 0, -4):
        with pytest.raises(DomainError):
            select_t(liouville(), x)


def test_select_t_argmax_dominates_grid(sieve):
    """Refinement never lands below any grid point."""
    x = 3000
    for f in (liouville(), RandomSign(4), legendre(7)):
        t_star = select_t(f, x)
        s_star = dirichlet_modulus(f, x, t_star)
        step = 1.0 / (4 * math.log(x))
        K = int(math.log(x) / step)
        ts = np.arange(-K, K + 1) * step
        scores = [dirichlet_modulus(f, x, float(t)) for t in ts]
        assert s_star >= max(scores) - 1e-9


def test_rank_characters(sieve):
    leg5 = legendre(5)
    rk = rank_characters(leg5, math.sqrt(10**5), 5)
    assert rk.entries[0][0].exponents == leg5.chi.exponents
    assert abs(rk.entries[0][1] - 0.8) < 0.06
    rk1 = rank_characters(One(), math.sqrt(10**4), 5)
    assert rk1.entries[0][0].is_principal
    # s-values non-increasing for any input
    ss = [e[1] for e in rank_characters(RandomSign(8), 100.0, 12).entries]
    assert all(ss[i] >= ss[i + 1] for i in range(len(ss) - 1))
    with pytest.raises(DomainError):
        rank_characters(One(), 10.0, sieve.limit + 1)


def test_rank_characters_independent_of_cached_sieve(monkeypatch):
    """The modulus bound comes from the ranking window X^2, not from the
    size of whatever sieve table an earlier call left in the cache."""
    monkeypatch.setattr(sieve_module, "_TABLE", None)
    for warm in (False, True):
        if warm:
            get_sieve(10**5)
        with pytest.raises(DomainError):
            rank_characters(One(), 10.0, 2003)
        assert len(rank_characters(One(), 50.0, 2003).entries) == 2002


def test_rank_characters_keeps_no_tables():
    """While a ranking of the 2002 characters mod 2003 is alive, less than
    8 MB stays traced (their value tables would take 64 MB), and less than
    1 MB once it is dropped.  A fresh process, so no earlier call has built
    them already; a small ranking first loads what numpy imports lazily."""
    code = (
        "import gc, tracemalloc\n"
        "from pretsums.multfunc import One\n"
        "from pretsums.pretentious import rank_characters\n"
        "rank_characters(One(), 50.0, 7)\n"
        "tracemalloc.start()\n"
        "before = tracemalloc.get_traced_memory()[0]\n"
        "ranking = rank_characters(One(), 50.0, 2003)\n"
        "assert len(ranking.entries) == 2002\n"
        "alive = tracemalloc.get_traced_memory()[0] - before\n"
        "del ranking\n"
        "gc.collect()\n"
        "print(alive, tracemalloc.get_traced_memory()[0] - before)\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    alive, dropped = map(int, r.stdout.split())
    assert alive < 8 << 20, r.stdout
    assert dropped < 1 << 20, r.stdout


def test_select_frames(sieve):
    frames = select_frames(legendre(5), 10**5, 5, 3)
    assert frames[0].r == 5 and abs(frames[0].t) < 1e-3
    assert frames[0].chi.exponents == legendre(5).chi.exponents
    # ranking dominance: top frame's s-value is the max
    assert all(frames[0].s_value >= fr.s_value for fr in frames)
    # the top J - 1 frames: none at J = 1, and J < 1 is rejected, as is x < 3
    assert select_frames(legendre(5), 10**5, 5, 1) == []
    with pytest.raises(DomainError):
        select_frames(legendre(5), 10**5, 5, 0)
    with pytest.raises(DomainError):
        select_frames(legendre(5), -4, 5, 3)


def test_pretentious_distance(sieve):
    leg5 = legendre(5)
    assert pretentious_distance(leg5, leg5.chi, 0.0, 5, 10**6) == 0.0
    assert pretentious_distance(One(), TRIV, 0.0, 2, 10**6) == 0.0
    d = pretentious_distance(liouville(), TRIV, 0.0, 1, 10**6)
    primes = sieve.primes_upto(10**6)
    assert abs(d - float(np.sum(2.0 / primes))) < 1e-9
    # nonnegative and nondecreasing in x
    f = RandomSign(2)
    last = 0.0
    for x in (10**3, 10**4, 10**5):
        cur = pretentious_distance(f, TRIV, 0.0, 2, x)
        assert cur >= last - 1e-12
        last = cur


def test_brudern_check(sieve):
    rb = brudern_check(One(), 1000)
    assert rb.bounded and rb.growth == 0.0
    rl = brudern_check(liouville(), 1000)
    assert not rl.bounded
    assert abs(rl.growth - 2 * math.log(2)) < 0.8  # ~ 2 sum_{x<p<=x^2} 1/p
    r5 = brudern_check(legendre(5), 1000)
    assert r5.bounded and r5.frame.r == 5


def test_lemsumt_and_adapt_decay(sieve):
    """Residuals of the two partial-sum identities shrink through the scales."""
    for f in (legendre(5), liouville()):
        res = [lemsumt_residual(f, 10**k) for k in (4, 5, 6)]
        assert res[2] < res[0]
        assert res[2] < 5e-3
    for w in (2.0, 10.0):
        res = [adapt_residual(legendre(3), 10**k, w) for k in (4, 5, 6)]
        assert res[2] < res[0]
    res = [adapt_residual(legendre(3), 10**k, math.log(10**k)) for k in (4, 5, 6)]
    assert res[2] < res[0]


def test_frame_stability(sieve):
    tops = frame_stability(legendre(5), 5, [10**3, 10**4, 10**5])
    assert tops[0] == tops[1] == tops[2]


def test_global_frame(sieve):
    fr = select_global_frame(legendre(5), 10**4)
    assert fr.r == 5
    fr = select_global_frame(One(), 10**4)
    assert fr.r == 1 and fr.t == 0.0
