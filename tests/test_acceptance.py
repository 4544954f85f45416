"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time
from fractions import Fraction

import numpy as np

from stabletree.boundary import disjoint_translates_report, sample_boundary, verify_weakly_wandering
from stabletree.fields import (
    BoundaryField,
    FieldSimulator,
    ParetoField,
    ShiftField,
    maxima_experiment,
    mma_from_levels,
    mma_point_mass,
    norming_constant_mc,
)
from stabletree.free_group import (
    Word,
    ball_size,
    enumerate_ball,
    enumerate_sphere,
    letters_in_order,
    sphere_size,
)
from stabletree.limit_process import (
    PiecewiseConstant,
    laplace_functional,
    maxima_constant,
    maxima_constant_comparison,
)
from stabletree.rng import substream
from stabletree.stable import (
    SeriesConfig,
    stable_tail_constant,
    stable_tail_constant_quadrature,
)
from stabletree.stats import ks_distance
from stabletree.subgraphs import (
    anchor_pmf,
    anchor_pmf_tail,
    membership,
    required_steps,
    sample_anchor,
    subgraph_sphere_count,
    word_ray_path,
)

from oracles import chi2_pvalue, min_busemann_over_ball


def _verdict(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def test_a1_exact_combinatorics():
    t0 = time.monotonic()
    ok = True
    for d in (2, 3):
        for n in range(0, 9):
            ok &= sum(1 for _ in enumerate_ball(d, n)) == ball_size(d, n)
            ok &= sum(1 for _ in enumerate_sphere(d, n)) == sphere_size(d, n)
    elapsed = time.monotonic() - t0
    _verdict(
        "A1",
        ok and elapsed < 10.0,
        f"enumerated |E_n|, |C_n| match closed forms for d in {{2,3}}, n <= 8 "
        f"({elapsed:.1f}s < 10s)",
    )


def _ray_extensions(d, prefix_last, first_excluded, length):
    """All reduced continuations of the given length, first letter constrained."""
    if length == 0:
        return [()]
    out = []
    stack = [()]
    while stack:
        cur = stack.pop()
        last = cur[-1] if cur else prefix_last
        for g in letters_in_order(d):
            if g == -last:
                continue
            if not cur and g == first_excluded:
                continue
            nxt = cur + (g,)
            if len(nxt) == length:
                out.append(nxt)
            else:
                stack.append(nxt)
    return out


def _sphere_members_via_candidates(path, s):
    """|subgraph intersect C_s| for a positive anchor, by membership filtering.

    Any member u satisfies, for every path vertex v_j (a prefix of the ray
    word of length level+j), d(u, v_j) - j = s + level - 2 conf(u, ray) + gap
    with gap >= 0, so membership forces conf(u, ray) >= (s + level) / 2.
    That superset is enumerated directly and filtered through the
    membership predicate; a shell just below the bound is checked negative.
    """
    d = path.rank
    level = path.level
    ray = path.vertices[-1].letters
    c0 = -((-(s + level)) // 2)  # ceil
    members = 0
    for c in range(c0, s + 1):
        prefix = ray[:c]
        if c == s:
            members += 1 if membership(Word(d, prefix), path) else 0
            continue
        last = prefix[-1] if prefix else None
        for ext in _ray_extensions(d, last, ray[c], s - c):
            if membership(Word(d, prefix + ext), path):
                members += 1
    # negative shell: exact confluence c0 - 1 words must not be members
    c = c0 - 1
    if c >= 1:
        prefix = ray[:c]
        shell = _ray_extensions(d, prefix[-1], ray[c], s - c)
        for ext in shell[:5]:
            assert not membership(Word(d, prefix + ext), path)
    return members


def test_a2_vertex_count_identity():
    t0 = time.monotonic()
    rng = substream(2026, "a2")
    failures = 0
    checked = 0
    for d in (2, 3):
        for level in (1, 2, 3, 4):
            for i in range(100):
                path = word_ray_path(level, d, required_steps(level + 8, level), rng)
                for k in range(0, 9):
                    expected = subgraph_sphere_count(level, k, d)
                    got = _sphere_members_via_candidates(path, level + k)
                    checked += 1
                    if got != expected:
                        failures += 1
    elapsed = time.monotonic() - t0
    _verdict(
        "A2",
        failures == 0 and elapsed < 120.0,
        f"{checked} sphere counts across d in {{2,3}}, levels 1..4, k <= 8, "
        f"100 subgraphs each: {failures} exceptions ({elapsed:.0f}s < 120s)",
    )


def test_a3_anchor_distribution():
    exact_total = sum(anchor_pmf(-j, 2) for j in range(0, 60)) + anchor_pmf_tail(-60, 2)
    exact3 = sum(anchor_pmf(-j, 3) for j in range(0, 60)) + anchor_pmf_tail(-60, 3)
    rng = substream(2026, "a3")
    n = 100_000
    draws = np.array([sample_anchor(2, rng) for _ in range(n)])
    kmin = -9
    # disjoint bins: one per level 0, -1, ..., kmin + 1, then the tail <= kmin
    obs = [int(np.sum(draws == -j)) for j in range(0, -kmin)] + [int(np.sum(draws <= kmin))]
    exp = [float(anchor_pmf(-j, 2)) * n for j in range(0, -kmin)] + [
        float(anchor_pmf_tail(kmin, 2)) * n
    ]
    p = chi2_pvalue(obs, exp)
    _verdict(
        "A3",
        exact_total == Fraction(1) and exact3 == Fraction(1) and p > 0.01,
        f"pmf total == 1 exactly (d=2,3); sampler chi-square p = {p:.3f} > 0.01 on 1e5 draws",
    )


def test_a4_dominant_ray_identity():
    rng = substream(2026, "a4")
    ok = True
    for d in (2, 3):
        for _ in range(1000):
            omega = sample_boundary(d, 10, rng).prefix()
            for n in range(1, 11):
                # exact integer comparison of the ball maximum of the weight
                if min_busemann_over_ball(d, n, omega) != -n:
                    ok = False
    _verdict(
        "A4",
        ok,
        "max over E_n of (2d-1)^(-B_omega) equals (2d-1)^n exactly "
        "(1000 rays, n <= 10, d in {2,3})",
    )


def test_a5_norming_constants():
    ok = True
    for n in range(0, 11):
        ok &= BoundaryField(2, 1.0).norming_constant(n) == 3**n
        ok &= BoundaryField(3, 1.0).norming_constant(n) == 5**n
        ok &= ShiftField(2, 1.0).norming_constant(n) == 2 * n + 1
    est = norming_constant_mc(ParetoField(2, 1.0, 3.0), 4, 10_000, substream(2026, "a5"))
    ratio = est.value / ball_size(2, 4) ** (1.0 / 3.0)
    target = math.gamma(2.0 / 3.0)
    rel = abs(ratio - target) / target
    _verdict(
        "A5",
        ok and rel < 0.05,
        f"closed forms exact for n <= 10; Pareto MC ratio {ratio:.4f} vs "
        f"Gamma(2/3) = {target:.4f} (rel err {rel:.3f} < 0.05)",
    )


def test_a6_boundary_frechet_limit():
    t0 = time.monotonic()
    res = maxima_experiment(BoundaryField(2, 1.0), 7, 1000, SeriesConfig(), seed=2026)
    elapsed = time.monotonic() - t0
    c = 2.0 / math.pi
    ks = ks_distance(res.scaled, lambda x: np.exp(-c / np.maximum(x, 1e-300)))
    _verdict(
        "A6",
        ks <= 0.08 and elapsed < 600.0,
        f"KS(M_n/3^7, exp(-(2/pi)/x)) = {ks:.4f} <= 0.08 with N = {res.num_terms} "
        f"series terms by the 1e-3 remainder rule ({elapsed:.0f}s < 600s)",
    )


def test_a7_shift_degeneracy():
    medians = {}
    for n in (4, 6, 8):
        res = maxima_experiment(ShiftField(2, 1.0), n, 500, None, seed=2026 + n)
        medians[n] = float(np.median(res.scaled))
    ok = medians[4] > medians[6] > medians[8] and medians[8] < 0.05
    _verdict(
        "A7",
        ok,
        f"median of M_n/3^n strictly decreasing {medians[4]:.4f} > {medians[6]:.4f} "
        f"> {medians[8]:.4f} and < 0.05 at n = 8 (500 reps)",
    )


def test_a8_iid_site_maxima_and_constant():
    n = 6
    worst = 0.0
    details = []
    for alpha in (0.8, 1.0, 1.5):
        model = mma_point_mass(2, alpha)
        res = maxima_experiment(model, n, 2000, None, seed=2026 + int(10 * alpha))
        for s in (1.0, 2.0, 4.0):
            p_hat = float(np.mean(res.scaled <= s))
            p_lim = math.exp(-4.0 * s ** (-alpha))
            worst = max(worst, abs(p_hat - p_lim))
        kx = maxima_constant(model)
        in_ci = abs(kx.alpha_power - 4.0) <= 1e-9
        details.append(f"alpha={alpha}: K = {kx.value:.4f} (= 4^(1/alpha): {in_ci})")
        assert in_ci and abs(kx.value - 4.0 ** (1.0 / alpha)) < 1e-9
    _verdict(
        "A8",
        worst <= 0.03,
        f"|P(M_n/3^(n/alpha) <= s) - exp(-4 s^-alpha)| worst {worst:.4f} <= 0.03 "
        f"at s in {{1,2,4}}; " + "; ".join(details),
    )


def test_a9_laplace_functional():
    model = mma_from_levels(2, 1.0, {0: 1.0, 1: 0.6})
    tests = [
        PiecewiseConstant.threshold(1.0, 0.8),
        PiecewiseConstant.threshold(0.7, 1.5),
        PiecewiseConstant((-2.0, -0.6, 0.6, 2.0), (1.5, 0.5, 0.0, 0.5, 1.5)),
    ]
    n, reps = 6, 5000
    sim = FieldSimulator(model, n, None)
    scale = 3.0 ** (-n)
    acc = np.zeros(len(tests))
    for rep in range(reps):
        v = sim.values(substream(2026, "a9", rep)) * scale
        for i, g in enumerate(tests):
            acc[i] += math.exp(-float(np.sum(g(v))))
    worst_emp = 0.0
    worst_sym = 0.0
    for i, g in enumerate(tests):
        ana = laplace_functional(model, g)
        worst_emp = max(worst_emp, abs(acc[i] / reps - ana.value))
        worst_sym = max(worst_sym, abs(ana.level_symmetric_value - ana.value))
    _verdict(
        "A9",
        worst_emp <= 0.02 and worst_sym <= 1e-10,
        f"empirical E e^(-N_n(g)) at n=6 (5000 reps) within {worst_emp:.4f} <= 0.02 of the "
        f"analytic value; level-symmetric reduction agrees to {worst_sym:.1e}",
    )


def test_a10_tail_constant():
    worst = 0.0
    for k in range(1, 10):
        alpha = 0.2 * k
        worst = max(
            worst, abs(stable_tail_constant(alpha) - stable_tail_constant_quadrature(alpha))
        )
    exact_at_one = stable_tail_constant(1.0) == 2.0 / math.pi
    _verdict(
        "A10",
        worst <= 1e-8 and exact_at_one,
        f"closed form vs quadrature within {worst:.2e} <= 1e-8 on alpha = 0.2..1.8; "
        f"alpha = 1 value is 2/pi to double precision",
    )


def test_a11_boundary_exactness():
    rep = verify_weakly_wandering(2, 12)
    deficits = [Fraction(1) - c for c in rep.covered_by_cap]
    geometric = all(b <= Fraction(9, 10) * a for a, b in zip(deficits[1:], deficits[2:]))
    ok = rep.pairwise_disjoint and geometric and rep.covered_measure + rep.deficit == 1
    counts_ok = True
    for d in (2, 3):
        for n in range(1, 9):
            tr = disjoint_translates_report(d, n)
            counts_ok &= tr.pairwise_disjoint
            counts_ok &= tr.num_exhibited == sphere_size(d, n - 1)
            counts_ok &= tr.num_translates >= sphere_size(d, n - 1)
    _verdict(
        "A11",
        ok and counts_ok,
        f"weakly wandering cover exact to depth 12 (deficit {float(rep.deficit):.4f}, "
        f"geometric decay); |C_(n-1)| pairwise-disjoint translates exhibited for "
        f"n <= 8, d in {{2,3}}, all in exact rationals",
    )


def test_a12_constant_discrepancy_report():
    comp1 = maxima_constant_comparison(mma_point_mass(2, 1.0))
    ok = comp1["formulas_agree"] and comp1["general_alpha_power"] == 4.0
    ok &= abs(comp1["level_symmetric_alpha_power"] - 4.0) < 1e-12
    ratios = {}
    for alpha in (0.8, 1.5):
        comp = maxima_constant_comparison(mma_point_mass(2, alpha))
        ratios[alpha] = comp["ratio_alpha_power"]
        ok &= not comp["formulas_agree"]  # the mismatch must be flagged
        ok &= abs(comp["ratio_alpha_power"] - 2.0 ** (alpha - 1.0)) < 1e-9
    _verdict(
        "A12",
        ok,
        f"general and level-symmetric constants agree at alpha=1 (both 4); flagged "
        f"ratio 2^(alpha-1) at alpha=0.8 ({ratios[0.8]:.4f}) and 1.5 ({ratios[1.5]:.4f})",
    )
