"""Ray subgraphs: sampling law, membership, counts, and the anchor distribution."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabletree.errors import PathTooShortError, ResourceBudgetError
from stabletree.free_group import ball_layout, enumerate_ball, enumerate_sphere, identity, word
from stabletree.rng import substream
from stabletree.stats import chi2_pvalue
from stabletree.subgraphs import (
    RayPath,
    anchor_pmf,
    anchor_pmf_tail,
    count_sphere_members,
    enumerate_ray_paths,
    membership,
    ray_path_count,
    ray_path_radius,
    required_steps,
    sample_anchor,
    sample_ray_path,
    sampled_traces,
    subgraph_sphere_count,
)


def test_path_level_profiles():
    rng = substream(401, "prof")
    p0 = sample_ray_path(0, 2, 6, rng)
    assert p0.vertices[0] == identity(2)
    assert [len(v) for v in p0.vertices] == list(range(7))
    p2 = sample_ray_path(2, 2, 5, rng)
    assert [len(v) for v in p2.vertices] == [2, 3, 4, 5, 6, 7]
    pm = sample_ray_path(-2, 2, 6, rng)
    assert [len(v) for v in pm.vertices] == [2, 1, 0, 1, 2, 3, 4]
    assert pm.vertices[1] == word(2, pm.vertices[0].letters[:-1])
    assert pm.vertices[2] == identity(2)


def test_anchor_uniform_on_sphere():
    rng = substream(402, "anchor")
    sphere = list(enumerate_sphere(2, 2))
    counts = {v: 0 for v in sphere}
    n = 10_000
    for _ in range(n):
        counts[sample_ray_path(2, 2, 1, rng).vertices[0]] += 1
    p = chi2_pvalue(list(counts.values()), [n / len(sphere)] * len(sphere))
    assert p > 0.01


def test_path_validation():
    with pytest.raises(ValueError):
        RayPath(level=0, rank=2, vertices=(word(2, [1]),))  # wrong start level
    with pytest.raises(ValueError):
        RayPath(level=0, rank=2, vertices=(identity(2), word(2, [1, 2])))  # not adjacent


def test_membership_examples():
    vs = tuple(word(2, [1] * k) for k in range(13))
    p = RayPath(level=0, rank=2, vertices=vs)
    assert not membership(word(2, [2]), p)
    assert membership(word(2, [1, 2]), p)
    for k in range(4):
        assert membership(vs[k], p)
    with pytest.raises(PathTooShortError):
        membership(word(2, [2] * 11), p)  # needs 13 steps, path has 12


def test_membership_stable_under_extension():
    rng = substream(403, "ext")
    for level in (-2, 0, 1):
        for _ in range(20):
            key = int(rng.integers(1 << 30))
            long = sample_ray_path(level, 2, required_steps(3, level) + 6, substream(7, "p", key))
            short = RayPath(
                level=level, rank=2, vertices=long.vertices[: required_steps(3, level) + 1]
            )
            for t in (identity(2), word(2, [1, 2]), word(2, [-2, -2, 1])):
                assert membership(t, short) == membership(t, long)


def test_root_membership_by_sign():
    rng = substream(404, "root")
    for level in (0, -1, -3):
        p = sample_ray_path(level, 2, required_steps(0, level), rng)
        assert membership(identity(2), p)
    for level in (1, 2):
        p = sample_ray_path(level, 2, required_steps(0, level), rng)
        assert not membership(identity(2), p)


def test_sphere_counts_match_closed_form():
    rng = substream(405, "lemma")
    for d in (2, 3):
        for level in (1, 2):
            for k in range(0, 5 if d == 2 else 4):
                expected = subgraph_sphere_count(level, k, d)
                for _ in range(10):
                    p = sample_ray_path(level, d, required_steps(level + k, level), rng)
                    assert count_sphere_members(p, level + k) == expected


def test_sphere_count_validation():
    with pytest.raises(ValueError):
        subgraph_sphere_count(0, 2, 2)
    with pytest.raises(ValueError):
        subgraph_sphere_count(1, -1, 2)
    assert subgraph_sphere_count(1, 0, 2) == 1
    assert subgraph_sphere_count(1, 2, 2) == 3
    assert subgraph_sphere_count(1, 5, 2) == 9


def test_negative_levels_cover_small_balls():
    # a level -j subgraph contains the whole ball E_j, and level j misses E_(j-1)
    rng = substream(406, "cover")
    for j in (1, 2, 3):
        p = sample_ray_path(-j, 2, required_steps(j, -j), rng)
        assert sampled_traces([p], j)[0].all()
        q = sample_ray_path(j, 2, required_steps(j, j), rng)
        assert not sampled_traces([q], j - 1)[0].any()


def test_thin_table():
    # thinning a kernel table keeps the entries whose site lies on the trace
    rng = substream(407, "thin")
    p_neg = sample_ray_path(-1, 2, required_steps(0, -1), rng)
    assert sampled_traces([p_neg], 0)[0].tolist() == [True]
    p_pos = sample_ray_path(1, 2, required_steps(0, 1), rng)
    assert sampled_traces([p_pos], 0)[0].tolist() == [False]
    p0 = sample_ray_path(0, 2, required_steps(1, 0), substream(408, "t"))
    mask = sampled_traces([p0], 1)[0]
    assert mask[0]  # the identity, first in layout order
    assert mask.tolist() == [membership(t, p0) for t in enumerate_ball(2, 1)]
    with pytest.raises(PathTooShortError):
        sampled_traces([RayPath(level=0, rank=2, vertices=p0.vertices[:2])], 1)


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    m=st.integers(0, 3),
    level=st.integers(-3, 4),
    extra=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_determining_prefix_decides_membership(d, m, level, extra, seed):
    # the mask from the determining prefix equals membership on the longer path
    xi = sample_ray_path(level, d, required_steps(m, level) + extra, np.random.default_rng(seed))
    assert sampled_traces([xi], m)[0].tolist() == [membership(t, xi) for t in enumerate_ball(d, m)]


def test_anchor_pmf_values_and_total():
    assert anchor_pmf(0, 2) == Fraction(2, 3)
    assert anchor_pmf(-1, 2) == Fraction(2, 9)
    assert anchor_pmf(1, 2) == 0
    for d in (2, 3):
        total = sum(anchor_pmf(-j, d) for j in range(0, 25)) + anchor_pmf_tail(-25, d)
        assert total == Fraction(1)


def test_anchor_sampler_chi2():
    rng = substream(409, "mu")
    n = 100_000
    draws = np.array([sample_anchor(2, rng) for _ in range(n)])
    assert np.all(draws <= 0)
    kmin = -8
    obs = [int(np.sum(draws == -j)) for j in range(0, -kmin)]
    obs.append(int(np.sum(draws <= kmin + 1)))
    exp = [float(anchor_pmf(-j, 2)) * n for j in range(0, -kmin)]
    exp.append(float(anchor_pmf_tail(kmin + 1, 2)) * n)
    assert chi2_pvalue(obs, exp) > 0.01


def test_restriction_consistency():
    # dropping the last step of a longer path reproduces the shorter sampler's
    # law; both must match the exact uniform law on the 36 length-2 paths
    rng_a = substream(410, "consist-a")
    rng_b = substream(411, "consist-b")
    n = 4000
    cat_a = {}
    cat_b = {}
    for _ in range(n):
        long = sample_ray_path(1, 2, 3, rng_a)
        short = long.vertices[:3]
        cat_a[short] = cat_a.get(short, 0) + 1
        direct = sample_ray_path(1, 2, 2, rng_b)
        cat_b[direct.vertices] = cat_b.get(direct.vertices, 0) + 1
    keys = sorted(set(cat_a) | set(cat_b), key=str)
    assert len(keys) == 4 * 3 * 3
    exact = [n / len(keys)] * len(keys)
    assert chi2_pvalue([cat_a.get(k, 0) for k in keys], exact) > 0.01
    assert chi2_pvalue([cat_b.get(k, 0) for k in keys], exact) > 0.01


def test_enumerate_ray_paths_probabilities():
    # rows are distinct paths in canonical order, as many as the product of the
    # uniform choices, so each has probability 1/len; they are exactly the
    # paths the Word sampler draws
    rng = substream(412, "enum")
    for level in (-1, 0, 1):
        rows = [tuple(r) for r in enumerate_ray_paths(level, 2, 3).tolist()]
        assert len(set(rows)) == len(rows) == ray_path_count(level, 2, 3)
        assert rows == sorted(rows)
        lay = ball_layout(2, ray_path_radius(level, 3))
        drawn = {
            tuple(lay.word_to_index(v) for v in sample_ray_path(level, 2, 3, rng).vertices)
            for _ in range(2000)
        }
        assert drawn == set(rows)


def test_enumerate_ray_paths_budget_before_allocation():
    # 26,244 paths over the E_9 layout (39,365 nodes): refused before the layout is built
    ball_layout.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError):
            enumerate_ray_paths(4, 2, 5, budget=1000)
        assert tracemalloc.get_traced_memory()[1] < 100_000
    finally:
        tracemalloc.stop()
