"""Stable sampling and series machinery against quadrature and paired-run oracles."""

import math

import numpy as np
import pytest

from stabletree.rng import substream
from stabletree.stable import (
    NuAlphaTruncation,
    SeriesConfig,
    StableParams,
    choose_num_terms,
    frechet_cdf,
    lepage_integral,
    lepage_remainder_bound,
    sample_sas,
    sample_truncated_prm,
    scaled_frechet_cdf,
    stable_tail_constant,
    stable_tail_constant_quadrature,
)
from stabletree.stats import two_sample_ks_pvalue


def test_params_validation():
    with pytest.raises(ValueError):
        StableParams(2.0)
    with pytest.raises(ValueError):
        StableParams(0.0)


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
    assert frechet_cdf(1.0, 0.7) == pytest.approx(math.exp(-1))
    assert frechet_cdf(-1.0, 0.7) == 0.0
    xs = np.linspace(0.1, 50, 200)
    vals = frechet_cdf(xs, 1.3)
    assert np.all(np.diff(vals) >= 0) and vals[-1] > 0.97
    assert scaled_frechet_cdf(4.0, 1.0, 4.0) == pytest.approx(math.exp(-1))


def test_lepage_zero_function():
    r = lepage_integral(np.zeros(100), 1.0, SeriesConfig(), substream(304, "z"))
    assert r.value == 0.0


def test_lepage_exact_homogeneity():
    f = np.linspace(0.5, 1.5, 400)
    a = lepage_integral(f, 1.2, SeriesConfig(), substream(305, "h"))
    b = lepage_integral(2 * f, 1.2, SeriesConfig(), substream(305, "h"))
    assert b.value == 2 * a.value  # power-of-two scaling is exact


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


def test_choose_num_terms_monotone():
    n1 = choose_num_terms(1.0, 1.0, 10.0, tol=1e-2)
    n2 = choose_num_terms(1.0, 1.0, 10.0, tol=3e-3)
    assert n2 > n1
    assert lepage_remainder_bound(n1, 1.0, 1.0) <= 1e-2 * 10.0
    # the reported bound shrinks as terms are added
    for alpha in (0.7, 1.0, 1.6):
        assert lepage_remainder_bound(800, alpha, 1.0) < lepage_remainder_bound(400, alpha, 1.0)
    from stabletree.errors import ResourceBudgetError

    with pytest.raises(ResourceBudgetError):
        choose_num_terms(1.0, 1.0, 10.0, tol=1e-5)  # would need ~1e9 terms


def test_truncated_prm_intensity():
    tr = NuAlphaTruncation(1.0, 0.1)
    rng = substream(309, "prm")
    counts = []
    for _ in range(10_000):
        atoms = sample_truncated_prm(tr, {"site": 1.0}, rng)
        counts.append(sum(1 for _, j in atoms if abs(j) > 1.0))
    assert abs(np.mean(counts) - 2.0) < 0.05


def test_truncated_prm_edge_cases():
    rng = substream(310, "prme")
    tr = NuAlphaTruncation(1.0, 1.0)  # epsilon at the observation level
    atoms = sample_truncated_prm(tr, {"s": 3.0}, rng)
    assert all(abs(j) > 1.0 for _, j in atoms)
    assert sample_truncated_prm(tr, {"s": 0.0}, rng) == []


def test_truncated_prm_restriction_invariance():
    # atoms above c have the same law whether epsilon = c or epsilon < c
    rng = substream(311, "prmks")
    c = 1.0
    a = []
    b = []
    while len(a) < 10_000:
        a.extend(
            abs(j)
            for _, j in sample_truncated_prm(NuAlphaTruncation(1.2, c), {"s": 40.0}, rng)
            if abs(j) > c
        )
    while len(b) < 10_000:
        b.extend(
            abs(j)
            for _, j in sample_truncated_prm(NuAlphaTruncation(1.2, 0.25), {"s": 3.0}, rng)
            if abs(j) > c
        )
    assert two_sample_ks_pvalue(a[:10_000], b[:10_000]) > 0.01


def test_sign_symmetry():
    rng = substream(312, "sym")
    for size in (10_000, 100_000):
        x = sample_sas(rng, 0.9, 1.0, size=size)
        assert abs(np.mean(np.sign(x))) <= 3.5 / math.sqrt(size)
