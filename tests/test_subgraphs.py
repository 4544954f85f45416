"""Ray subgraphs: sampling law, membership, counts, and the anchor distribution."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ball_traces,
    chi2_pvalue,
    determining_steps,
    enumerate_ray_paths_reference,
    ray_path_count,
    ray_path_radius,
    sample_ray_path_reference,
)
from stabletree.boundary import sample_boundary
from stabletree.errors import PathTooShortError, ResourceBudgetError
from stabletree.free_group import (
    Word,
    ball_layout,
    ball_size,
    enumerate_ball,
    identity,
    multiply,
    word,
)
from stabletree.rng import substream
from stabletree.subgraphs import (
    RayPath,
    anchor_pmf,
    anchor_pmf_tail,
    check_sphere_counts,
    enumerate_ray_paths,
    membership,
    required_steps,
    sample_anchor,
    sample_ray_path,
    subgraph_sphere_count,
    trace_masks,
    word_ray_path,
)


def _word_path(level, d, num_steps, rng):
    """A ``Word`` ray path under the path-uniform law, at any level.

    At level <= 0 take a uniform reduced word z and the anchor
    a = (z_1..z_|level|)^-1: v_k = a z_1..z_k descends along a to e and then
    leaves along z, never stepping back.
    """
    if level >= 1:
        return word_ray_path(level, d, num_steps, rng)
    z = sample_boundary(d, num_steps, rng).letters
    a = Word(d, z[:-level]).inverse()
    vertices = tuple(multiply(a, Word(d, z[:k])) for k in range(num_steps + 1))
    return RayPath(level=level, rank=d, vertices=vertices)


def _word_rows(rows, level, d):
    """Index rows of one level as ``RayPath``s (the constructor checks the profile)."""
    words = list(enumerate_ball(d, ray_path_radius(level, rows.shape[1] - 1)))
    return [RayPath(level=level, rank=d, vertices=tuple(words[i] for i in r)) for r in rows]


def _masks(rows, level, d, m):
    packed = ball_traces(rows, level, d, m)
    return np.unpackbits(packed, axis=1, count=ball_size(d, m)).astype(bool)


def _prefix_mask(xi, m):
    """Trace on E_m of a ``Word`` path, from its determining prefix as layout indices."""
    steps = determining_steps(xi.level, m)
    lay = ball_layout(xi.rank, ray_path_radius(xi.level, steps))
    row = np.array([[lay.word_to_index(v) for v in xi.vertices[: steps + 1]]], dtype=np.int32)
    return _masks(row, xi.level, xi.rank, m)[0]


def test_path_level_profiles():
    rng = substream(401, "prof")
    paths = {}
    for level, steps, profile in (
        (0, 6, list(range(7))),
        (2, 5, [2, 3, 4, 5, 6, 7]),
        (-2, 6, [2, 1, 0, 1, 2, 3, 4]),
    ):
        rows = sample_ray_path_reference(level, 2, steps, rng, 200)
        assert rows.dtype == np.int32 and rows.shape == (200, steps + 1)
        assert (ball_layout(2, ray_path_radius(level, steps)).depth[rows] == profile).all()
        paths[level] = _word_rows(rows, level, 2)  # self-avoiding, adjacent steps
    for pm in paths[-2]:  # down the geodesic to e
        assert pm.vertices[1] == word(2, pm.vertices[0].letters[:-1])
        assert pm.vertices[2] == identity(2)


def test_anchor_uniform_on_sphere():
    rng = substream(402, "anchor")
    n = 10_000
    anchors = sample_ray_path(2, 2, rng, n)
    sphere = np.flatnonzero(ball_layout(2, 2).depth == 2)
    counts = [int(np.sum(anchors == i)) for i in sphere]
    assert sum(counts) == n
    p = chi2_pvalue(counts, [n / len(sphere)] * len(sphere))
    assert p > 0.01


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("m", [0, 1, 3])
def test_sphere_ends_match_zero_step_paths(d, m):
    # C_m and its draws are the oracle's zero-step level-m paths, on the same stream
    ends = enumerate_ray_paths(m, d)
    assert ends.dtype == np.int32
    assert np.array_equal(ends, enumerate_ray_paths_reference(m, d, 0)[:, 0])
    rng, ref = substream(415, "ends", d, m), substream(415, "ends", d, m)
    got = sample_ray_path(m, d, rng, 500)
    assert got.dtype == np.int32
    assert np.array_equal(got, sample_ray_path_reference(m, d, 0, ref, 500)[:, 0])
    np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)


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
            long = _word_path(level, 2, required_steps(3, level) + 6, substream(7, "p", key))
            short = RayPath(
                level=level, rank=2, vertices=long.vertices[: required_steps(3, level) + 1]
            )
            for t in (identity(2), word(2, [1, 2]), word(2, [-2, -2, 1])):
                assert membership(t, short) == membership(t, long)


def test_root_membership_by_sign():
    rng = substream(404, "root")
    for level in (0, -1, -3):
        p = _word_path(level, 2, required_steps(0, level), rng)
        assert membership(identity(2), p)
    for level in (1, 2):
        p = _word_path(level, 2, required_steps(0, level), rng)
        assert not membership(identity(2), p)


def test_sphere_counts_match_closed_form():
    for d in (2, 3):
        k_max = 4 if d == 2 else 3
        rows = check_sphere_counts(d, 2, k_max, 10, seed=405)
        assert [(r["level"], r["k"], r["expected"]) for r in rows] == [
            (level, k, subgraph_sphere_count(level, k, d))
            for level in (1, 2)
            for k in range(k_max + 1)
        ]
        assert all(r["all_match"] for r in rows)


def test_word_ray_path_law():
    # prefixes of a uniform reduced word: every level-1 path of 2 steps equally likely
    rng = substream(413, "word-law")
    n = 3600
    seen = {}
    for _ in range(n):
        xi = word_ray_path(1, 2, 2, rng)
        seen[xi.vertices] = seen.get(xi.vertices, 0) + 1
    assert len(seen) == ray_path_count(1, 2, 2)
    assert chi2_pvalue(list(seen.values()), [n / len(seen)] * len(seen)) > 0.01
    with pytest.raises(ValueError):
        word_ray_path(0, 2, 3, rng)


def test_sphere_count_validation():
    assert subgraph_sphere_count(0, 2, 2) == 3
    with pytest.raises(ValueError):
        subgraph_sphere_count(-2, 1, 2)  # the sphere C_-1
    with pytest.raises(ValueError):
        subgraph_sphere_count(1, -1, 2)
    assert subgraph_sphere_count(1, 0, 2) == 1
    assert subgraph_sphere_count(1, 2, 2) == 3
    assert subgraph_sphere_count(1, 5, 2) == 9


def test_negative_levels_cover_small_balls():
    # a level -j subgraph contains the whole ball E_j, and level j misses E_(j-1)
    rng = substream(406, "cover")
    for j in (1, 2, 3):
        neg = sample_ray_path_reference(-j, 2, determining_steps(-j, j), rng, 50)
        assert _masks(neg, -j, 2, j).all()
        pos = sample_ray_path_reference(j, 2, determining_steps(j, j - 1), rng, 50)
        assert not _masks(pos, j, 2, j - 1).any()


def test_thin_table():
    # thinning a kernel table keeps the entries whose site lies on the trace
    rng = substream(407, "thin")
    p_neg = sample_ray_path_reference(-1, 2, determining_steps(-1, 0), rng, 20)
    assert _masks(p_neg, -1, 2, 0).tolist() == [[True]] * 20
    p_pos = sample_ray_path_reference(1, 2, determining_steps(1, 0), rng, 20)
    assert _masks(p_pos, 1, 2, 0).tolist() == [[False]] * 20
    rows = sample_ray_path_reference(0, 2, required_steps(1, 0), substream(408, "t"), 20)
    masks = _masks(rows, 0, 2, 1)
    assert masks[:, 0].all()  # the identity, first in layout order
    for mask, p0 in zip(masks, _word_rows(rows, 0, 2)):
        assert mask.tolist() == [membership(t, p0) for t in enumerate_ball(2, 1)]
    with pytest.raises(PathTooShortError):
        ball_traces(rows[:, :1], 0, 2, 1)


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
    xi = _word_path(level, d, required_steps(m, level) + extra, np.random.default_rng(seed))
    assert _prefix_mask(xi, m).tolist() == [membership(t, xi) for t in enumerate_ball(d, m)]


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    m=st.integers(0, 3),
    level=st.integers(-5, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_trace_masks_match_path_traces(d, m, level, seed):
    # the rule on the path's vertex on C_m decides the same trace as the whole path
    level = min(level, m)
    steps = determining_steps(level, m)
    rows = sample_ray_path_reference(level, d, steps, np.random.default_rng(seed), 40)
    sites = np.flatnonzero(ball_layout(d, ray_path_radius(level, steps)).depth <= m)
    ends = np.searchsorted(sites, rows[:, -1])  # the last vertex, as an E_m index
    assert (ball_layout(d, m).depth[ends] == m).all()
    expected = _masks(rows, level, d, m).tolist()
    assert trace_masks(level, ends, d, m).tolist() == expected
    assert trace_masks(np.full(40, level), ends, d, m).tolist() == expected


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    level=st.integers(-3, 3),
    steps=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_sampled_rows_are_enumerated_rows(d, level, steps, seed):
    rows = sample_ray_path_reference(level, d, steps, np.random.default_rng(seed), 50)
    every = {tuple(r) for r in enumerate_ray_paths_reference(level, d, steps).tolist()}
    assert rows.dtype == np.int32 and rows.shape == (50, steps + 1)
    assert {tuple(r) for r in rows.tolist()} <= every


@pytest.mark.parametrize("level, steps", [(-2, 4), (0, 3), (2, 2)])
def test_sampled_rows_uniform(level, steps):
    every = enumerate_ray_paths_reference(level, 2, steps)
    n = 200 * len(every)
    rows = sample_ray_path_reference(level, 2, steps, substream(414, "uniform", level), n)
    index = {tuple(r): i for i, r in enumerate(every.tolist())}
    counts = np.bincount([index[tuple(r)] for r in rows.tolist()], minlength=len(every))
    assert chi2_pvalue(counts.tolist(), [200.0] * len(every)) > 0.01


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
    # disjoint bins: one per level 0, -1, ..., kmin + 1, then the tail <= kmin
    obs = [int(np.sum(draws == -j)) for j in range(0, -kmin)]
    obs.append(int(np.sum(draws <= kmin)))
    exp = [float(anchor_pmf(-j, 2)) * n for j in range(0, -kmin)]
    exp.append(float(anchor_pmf_tail(kmin, 2)) * n)
    assert chi2_pvalue(obs, exp) > 0.01


def test_restriction_consistency():
    # dropping the last step of a longer path reproduces the shorter sampler's
    # law; both must match the exact uniform law on the 36 length-2 paths
    rng_a = substream(410, "consist-a")
    rng_b = substream(411, "consist-b")
    n = 4000
    cat_a = {}
    cat_b = {}
    for long in _word_rows(sample_ray_path_reference(1, 2, 3, rng_a, n), 1, 2):
        short = long.vertices[:3]
        cat_a[short] = cat_a.get(short, 0) + 1
    for direct in _word_rows(sample_ray_path_reference(1, 2, 2, rng_b, n), 1, 2):
        cat_b[direct.vertices] = cat_b.get(direct.vertices, 0) + 1
    keys = sorted(set(cat_a) | set(cat_b), key=str)
    assert len(keys) == 4 * 3 * 3
    exact = [n / len(keys)] * len(keys)
    assert chi2_pvalue([cat_a.get(k, 0) for k in keys], exact) > 0.01
    assert chi2_pvalue([cat_b.get(k, 0) for k in keys], exact) > 0.01


def test_enumerate_ray_paths_probabilities():
    # rows are distinct paths in canonical order, as many as the product of the
    # uniform choices, so each has probability 1/len; they are exactly the
    # paths the sampler draws, and the Word paths built from reduced words
    rng = substream(412, "enum")
    for level in (-1, 0, 1):
        rows = [tuple(r) for r in enumerate_ray_paths_reference(level, 2, 3).tolist()]
        assert len(set(rows)) == len(rows) == ray_path_count(level, 2, 3)
        assert rows == sorted(rows)
        drawn = sample_ray_path_reference(level, 2, 3, rng, 2000)
        assert {tuple(r) for r in drawn.tolist()} == set(rows)
        lay = ball_layout(2, ray_path_radius(level, 3))
        words = {
            tuple(lay.word_to_index(v) for v in _word_path(level, 2, 3, rng).vertices)
            for _ in range(2000)
        }
        assert words == set(rows)


def test_enumerate_ray_paths_budget_before_allocation():
    # 26,244 paths over the E_9 layout (39,365 nodes): refused before the layout is built
    ball_layout.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError):
            enumerate_ray_paths_reference(4, 2, 5, budget=1000)
        assert tracemalloc.get_traced_memory()[1] < 100_000
    finally:
        tracemalloc.stop()
