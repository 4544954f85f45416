"""Stable sampling and series machinery against quadrature and paired-run oracles."""

import math

import numpy as np
import pytest

from stabletree.rng import substream
from stabletree.stable import (
    choose_num_terms,
    gamma_power_tail_sum,
    lepage_remainder_bound,
    lepage_weights,
    sample_sas,
    scaled_frechet_cdf,
    stable_tail_constant,
    stable_tail_constant_quadrature,
)

from oracles import lepage_weights_reference, sample_sas_cms_reference


def test_params_validation():
    rng = substream(300, "params")
    for alpha, scale in ((2.0, 1.0), (0.0, 1.0), (1.0, -1.0)):
        with pytest.raises(ValueError):
            sample_sas(rng, alpha, scale, size=3)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.3, 1.9])
def test_sample_sas_into_out(alpha):
    # filling out= gives the allocating call's values bit for bit and leaves the
    # same stream; at alpha = 1 both are tan of rng.uniform(-pi/2, pi/2), which
    # is -pi/2 + pi * random() (the CMS oracle checks the other alphas)
    key = ("out", int(alpha * 10))
    rng_new, rng_out = substream(310, *key), substream(310, *key)
    out = np.empty(50_000)
    got = sample_sas(rng_out, alpha, 1.7, size=len(out), out=out)
    assert got is out
    assert np.array_equal(got, sample_sas(rng_new, alpha, 1.7, size=len(out)))
    if alpha == 1.0:
        u = substream(310, *key).uniform(-math.pi / 2, math.pi / 2, size=len(out))
        assert np.array_equal(got, 1.7 * np.tan(u))
    assert repr(rng_out.bit_generator.state) == repr(rng_new.bit_generator.state)
    for bad in (np.empty(49_999), np.empty(len(out), dtype=np.float32)):
        with pytest.raises(ValueError):
            sample_sas(rng_out, alpha, 1.7, size=len(out), out=bad)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.3, 1.9])
def test_sample_sas_rows_match_per_row_calls(alpha):
    # one call over the rows of a 2-D out, one generator per row, into work
    # buffers: every row holds its own call's values, bit for bit, and leaves
    # its stream where that call does; at alpha != 1 both are the CMS expression
    keys = [("rows", int(alpha * 10), rep) for rep in range(5)]
    block = np.empty((5, 3007))
    out, work = block[:, 7:], np.empty((3, 5, 3000))  # rows of a wider buffer, as the plan fills
    rngs = [substream(314, *key) for key in keys]
    assert sample_sas(rngs, alpha, 1.7, out=out, work=work) is out
    for row, rng, key in zip(out, rngs, keys):
        ref = substream(314, *key)
        assert row.tobytes() == sample_sas(ref, alpha, 1.7, size=len(row)).tobytes()
        assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)
        if alpha != 1.0:
            cms = 1.7 * sample_sas_cms_reference(substream(314, *key), alpha, len(row))
            assert row.tobytes() == cms.tobytes()
    with pytest.raises(ValueError):
        sample_sas(rngs[:4], alpha, 1.7, out=out, work=work)
    if alpha != 1.0:
        for bad in (np.empty((3, 5, 2999)), np.empty((2, 5, 3000)), np.empty((3, 5, 3000), np.float32)):
            with pytest.raises(ValueError):
                sample_sas(rngs, alpha, 1.7, out=out, work=bad)


def _sas_tail(alpha: float, x: float) -> float:
    """P(|X| > x) for SaS(1) at alpha < 1, from the convergent series of the stable tail:
    (2/pi) sum_k (-1)^(k+1) Gamma(k alpha) / k! sin(k pi alpha / 2) x^(-k alpha)."""
    y = math.exp(-alpha * math.log(x))
    return 2.0 / math.pi * sum(
        (-1) ** (k + 1) * math.gamma(k * alpha) / math.factorial(k)
        * math.sin(k * math.pi * alpha / 2.0) * y**k
        for k in range(1, 40)
    )


@pytest.mark.parametrize("alpha", [0.005, 0.01])
def test_sample_sas_near_alpha_zero(alpha):
    # the CMS factors leave the float range; the draws still hold no NaN and no
    # spurious 0, and inf only as often as |X| exceeds the largest float
    from scipy.stats import binomtest

    size = 400_000
    x = sample_sas(np.random.Generator(np.random.Philox(5)), alpha, 1.0, size=size)
    assert not np.isnan(x).any()
    assert not (x == 0.0).any()
    ci = binomtest(int(np.isinf(x).sum()), size).proportion_ci(0.999)
    assert ci.low <= _sas_tail(alpha, np.finfo(float).max) <= ci.high


@pytest.mark.parametrize("alpha", [0.5, 1.3, 1.9])
def test_sample_sas_finite_values_are_the_cms_expression(alpha):
    # the repair near alpha = 0 touches no finite nonzero value, and the terms
    # computed in out and one scratch array are the fresh-array expression bit for bit
    key = ("cms", int(alpha * 10))
    ref = sample_sas_cms_reference(substream(311, *key), alpha, 100_000)
    assert np.isfinite(ref).all() and (ref != 0.0).all()
    x = sample_sas(substream(311, *key), alpha, 1.0, size=len(ref))
    assert x.tobytes() == ref.tobytes()
    out = np.empty(len(ref))
    sample_sas(substream(311, *key), alpha, 1.0, size=len(ref), out=out)
    assert out.tobytes() == ref.tobytes()


def test_tiny_scale_degenerates():
    rng = substream(301, "tiny")
    x = sample_sas(rng, 1.2, 1e-12, size=1000)
    assert np.max(np.abs(x)) < 1e-6


def test_cauchy_median():
    rng = substream(302, "cauchy")
    x = sample_sas(rng, 1.0, 1.0, size=100_000)
    assert abs(np.median(np.abs(x)) - 1.0) < 0.02


@pytest.mark.parametrize("alpha,x0", [(0.8, 100.0), (1.5, 20.0)])
def test_empirical_tail_constant(alpha, x0):
    # x^alpha P(|X| > x) approaches the tail constant
    rng = substream(303, "tail", int(alpha * 10))
    x = sample_sas(rng, alpha, 1.0, size=1_000_000)
    emp = x0**alpha * np.mean(np.abs(x) > x0)
    assert abs(emp - stable_tail_constant(alpha)) < 0.1 * stable_tail_constant(alpha)


def test_tail_constant_closed_form():
    assert stable_tail_constant(1.0) == 2.0 / math.pi
    assert abs(stable_tail_constant(0.5) - 0.797885) < 1e-6
    assert abs(stable_tail_constant(1.5) - 0.398942) < 1e-6


def test_tail_constant_quadrature_agreement():
    for alpha in (0.3, 0.7, 1.0, 1.3, 1.7):
        assert abs(stable_tail_constant(alpha) - stable_tail_constant_quadrature(alpha)) < 1e-8


def test_tail_constant_continuity_at_one():
    left = stable_tail_constant(1.0 - 1e-9)
    right = stable_tail_constant(1.0 + 1e-9)
    assert abs(left - 2 / math.pi) < 1e-6 and abs(right - 2 / math.pi) < 1e-6


def test_tail_constant_no_cancellation_near_one():
    # the closed form's numerator and denominator both vanish at alpha = 1
    for eps in (1e-13, 1e-15):
        for alpha in (1.0 - eps, 1.0 + eps):
            rel = abs(stable_tail_constant(alpha) - 2 / math.pi) / (2 / math.pi)
            assert rel < 1e-12


def test_frechet_cdf():
    # c = 1 is the standard Frechet law P(Z_alpha <= x) = exp(-x^-alpha)
    assert scaled_frechet_cdf(1.0, 0.7, 1.0) == pytest.approx(math.exp(-1))
    assert scaled_frechet_cdf(-1.0, 0.7, 1.0) == 0.0
    xs = np.linspace(0.1, 50, 200)
    vals = scaled_frechet_cdf(xs, 1.3, 1.0)
    assert np.all(np.diff(vals) >= 0) and vals[-1] > 0.97
    assert scaled_frechet_cdf(4.0, 1.0, 4.0) == pytest.approx(math.exp(-1))


def test_lepage_weights_blocks():
    # one block draws all arrival-time increments, then all signs
    alpha = 1.3
    (one,) = lepage_weights(substream(304, "lw"), alpha, 50)
    ref = substream(304, "lw")
    gam = np.cumsum(ref.standard_exponential(50))
    eps = ref.integers(0, 2, size=50) * 2 - 1
    assert np.array_equal(one, eps * gam ** (-1.0 / alpha))
    # the arrival times run on across blocks, so |weights| fall strictly throughout
    blocks = list(lepage_weights(substream(305, "lw"), alpha, 1000, block=300))
    assert [len(b) for b in blocks] == [300, 300, 300, 100]
    w = np.concatenate(blocks)
    assert np.all(np.diff(np.abs(w)) < 0)
    assert set(np.sign(w)) == {-1.0, 1.0}
    assert list(lepage_weights(substream(305, "lw"), alpha, 0)) == []


@pytest.mark.parametrize("block", [None, 300])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.3, 1.9])
def test_lepage_weights_match_reference(alpha, block):
    # computed in place, the weights are the one-expression blocks bit for bit;
    # blocks of 300 are the Pareto field's path
    key = ("ref", int(alpha * 10), block or 0)
    got = list(lepage_weights(substream(313, *key), alpha, 1000, block))
    ref = list(lepage_weights_reference(substream(313, *key), alpha, 1000, block))
    sizes = [1000] if block is None else [300, 300, 300, 100]
    assert [len(w) for w in got] == [len(w) for w in ref] == sizes
    for g, r in zip(got, ref):
        assert g.tobytes() == r.tobytes()


def test_lepage_matches_direct_sampler():
    # f = 1 with a probability control measure is SaS(1)
    alpha = 1.0
    n_terms, reps = 5000, 60_000
    vals = np.empty(reps)
    chunk = 3000
    got = 0
    c = stable_tail_constant(alpha)
    while got < reps:
        b = min(chunk, reps - got)
        rng = substream(306, "series", got)
        gam = np.cumsum(rng.standard_exponential((b, n_terms)), axis=1)
        eps = rng.integers(0, 2, size=(b, n_terms)) * 2 - 1
        vals[got : got + b] = c * np.sum(eps / gam, axis=1)
        got += b
    ref = sample_sas(substream(307, "ref"), alpha, 1.0, size=1_000_000)
    for q in (0.25, 0.5, 0.75, 0.9):
        sv = np.quantile(vals, q)
        rv = np.quantile(ref, q)
        tol = 0.03 * max(1.0, abs(rv))
        assert abs(sv - rv) < tol, (q, sv, rv)


def test_remainder_bound_covers_paired_runs():
    alpha = 1.1
    n = 400
    rng = substream(308, "pair")
    hits = 0
    runs = 400
    bound = lepage_remainder_bound(n, alpha, f_rms=1.0)
    for _ in range(runs):
        gam = np.cumsum(rng.standard_exponential(2 * n))
        eps = rng.integers(0, 2, size=2 * n) * 2 - 1
        terms = eps * gam ** (-1.0 / alpha)
        diff = abs(terms[n:].sum())  # X_{2N} - X_N without the common prefix
        hits += diff <= bound
    assert hits / runs >= 0.99


def test_gamma_power_tail_sum_closed_form():
    import mpmath as mp

    # a = 2 (alpha = 1) telescopes to 1/(N - 1), up to the rounding of the lgamma pair
    for n in (3, 10, 1000, 10**6):
        rounding = 8 * np.finfo(float).eps * max(1.0, math.lgamma(n))
        assert gamma_power_tail_sum(n, 2.0) == pytest.approx(1.0 / (n - 1), rel=rounding)
    # other a against the series itself, summed by Euler-Maclaurin
    with mp.workdps(20):
        for a in (5 / 3, 2.5, 10 / 3):
            for n in (10, 500):
                ref = mp.nsum(
                    lambda i: mp.gamma(i - a) / mp.gamma(i),
                    [n + 1, mp.inf],
                    method="euler-maclaurin",
                )
                assert gamma_power_tail_sum(n, a) == pytest.approx(float(ref), rel=1e-10)


def test_choose_num_terms_monotone():
    # goals 1e-3 * target_scale: 0.1 and 0.03
    n1 = choose_num_terms(1.0, 1.0, 100.0)
    n2 = choose_num_terms(1.0, 1.0, 30.0)
    assert n2 > n1
    assert lepage_remainder_bound(n1, 1.0, 1.0) <= 1e-2 * 10.0
    # the reported bound shrinks as terms are added
    for alpha in (0.7, 1.0, 1.6):
        assert lepage_remainder_bound(800, alpha, 1.0) < lepage_remainder_bound(400, alpha, 1.0)
    # up to N = 2/alpha the discarded terms may have infinite variance
    assert lepage_remainder_bound(2, 1.0, 1.0) == math.inf
    assert math.isfinite(lepage_remainder_bound(3, 1.0, 1.0))
    from stabletree.errors import ResourceBudgetError

    with pytest.raises(ResourceBudgetError):
        choose_num_terms(1.0, 1.0, 0.1)  # a goal of 1e-4 would need ~1e9 terms


def test_sign_symmetry():
    rng = substream(312, "sym")
    for size in (10_000, 100_000):
        x = sample_sas(rng, 0.9, 1.0, size=size)
        assert abs(np.mean(np.sign(x))) <= 3.5 / math.sqrt(size)
