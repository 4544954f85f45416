"""Cluster Poisson limit: sampling, Laplace functionals, maxima constant."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ball_traces,
    determining_steps,
    enumerate_ray_paths_reference,
    level_sum_exact,
    mma_from_levels,
    nu_alpha_integral_midpoints,
)
from stabletree import limit_process
from stabletree.errors import PathTooShortError, ResourceBudgetError
from stabletree.fields import MixedMovingAverage, mma_point_mass
from stabletree.free_group import (
    BallLayout,
    Word,
    allowed_next_letters,
    ball_layout,
    enumerate_ball,
    enumerate_sphere,
    identity,
    letters_in_order,
    word,
)
from stabletree.limit_process import (
    PiecewiseConstant,
    empirical_laplace,
    exact_restriction_classes,
    expected_atom_count,
    laplace_functional,
    level_weight,
    maxima_constant,
    maxima_constant_comparison,
    maxima_constant_level_symmetric,
    negative_tail_weight,
    nu_alpha_integral,
    sample_limit_point_process,
)
from stabletree.rng import substream
from stabletree.subgraphs import (
    RayPath,
    membership,
    required_steps,
    subgraph_sphere_count,
    trace_masks,
)


def test_piecewise_constant_validation():
    g = PiecewiseConstant.threshold(2.0, 1.5)
    assert g(2.0) == 2.0 and g(-2.0) == 2.0 and g(1.0) == 0.0
    assert g(np.array([-3.0, 0.5, 3.0])).tolist() == [2.0, 0.0, 2.0]
    with pytest.raises(ValueError):
        PiecewiseConstant((-1.0, 1.0), (1.0, 0.5, 1.0))  # nonzero around 0
    with pytest.raises(ValueError):
        PiecewiseConstant((0.0, 1.0), (0.0, 0.0, 1.0))  # 0 as breakpoint
    with pytest.raises(ValueError):
        PiecewiseConstant((1.0, -1.0), (0.0, 0.0, 0.0))


def test_nu_alpha_integral_closed_form():
    alpha, theta, s = 1.3, 0.8, 2.0
    g = PiecewiseConstant.threshold(theta, s)
    got = nu_alpha_integral(alpha, [1.0], g)
    assert got == pytest.approx((1 - math.exp(-theta)) * 2.0 * s ** (-alpha))
    # scaling a coefficient rescales the threshold
    got2 = nu_alpha_integral(alpha, [0.5], g)
    assert got2 == pytest.approx((1 - math.exp(-theta)) * 2.0 * (s / 0.5) ** (-alpha))
    assert nu_alpha_integral(alpha, [], g) == 0.0


# coefficient lists drawn from a small pool: repeats, zeros and both signs
coefficient_lists = st.lists(
    st.one_of(st.just(0.0), st.floats(0.05, 20.0), st.floats(-20.0, -0.05)), max_size=4
).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=12) if pool else st.just([]))


@st.composite
def piecewise_functions(draw):
    """A PiecewiseConstant with up to three breaks on each side, vanishing around 0."""
    neg = draw(st.lists(st.floats(0.05, 10.0), max_size=3, unique=True))
    pos = draw(st.lists(st.floats(0.05, 10.0), max_size=3, unique=True))
    size = len(neg) + len(pos) + 1
    values = draw(st.lists(st.floats(0.0, 5.0), min_size=size, max_size=size))
    values[len(neg)] = 0.0
    return PiecewiseConstant(sorted(-x for x in neg) + sorted(pos), values)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(0.0, 2.0, exclude_min=True, exclude_max=True), coefficient_lists, piecewise_functions()
)
def test_nu_alpha_integral_matches_midpoint_oracle(alpha, coeffs, g):
    want = nu_alpha_integral_midpoints(alpha, coeffs, g)
    assert nu_alpha_integral(alpha, coeffs, g) == pytest.approx(want, rel=1e-12, abs=0)


def test_level_weights():
    assert level_weight(2, 2) == 12.0
    assert level_weight(1, 2) == 4.0
    total = sum(level_weight(-j, 2) for j in range(0, 60)) + 0.0
    assert total + 1e-9 >= negative_tail_weight(0, 2) >= total - 1e-6
    assert negative_tail_weight(0, 2) == pytest.approx(2.0)


def test_maxima_constant_point_mass():
    for alpha in (0.8, 1.0, 1.5):
        res = maxima_constant(mma_point_mass(2, alpha))
        assert res.alpha_power == pytest.approx(4.0, abs=1e-12)
        assert res.value == pytest.approx(4.0 ** (1.0 / alpha))
    res3 = maxima_constant(mma_point_mass(3, 1.0))
    assert res3.alpha_power == pytest.approx(3.0)  # 2d/(d-1) at d=3


def test_maxima_constant_scaling():
    a = maxima_constant(mma_point_mass(2, 1.5))
    b = maxima_constant(mma_point_mass(2, 1.5, value=2.0))
    assert b.alpha_power == pytest.approx(2.0**1.5 * a.alpha_power)
    assert b.value == pytest.approx(2.0 * a.value)


def test_maxima_constant_degenerate():
    m = MixedMovingAverage.from_tables(2, 1.0, {"w0": 1.0}, {"w0": {}})
    with pytest.raises(ValueError):
        maxima_constant(m)


def test_level_symmetric_comparison():
    comp1 = maxima_constant_comparison(mma_point_mass(2, 1.0))
    assert comp1["formulas_agree"]
    assert comp1["level_symmetric_alpha_power"] == pytest.approx(4.0)
    for alpha in (0.8, 1.5):
        comp = maxima_constant_comparison(mma_point_mass(2, alpha))
        assert not comp["formulas_agree"]  # the mismatch must be flagged
        assert comp["ratio_alpha_power"] == pytest.approx(2.0 ** (alpha - 1.0))


def test_level_symmetric_requires_symmetry():
    m = MixedMovingAverage.from_tables(
        2, 1.0, {"w0": 1.0}, {"w0": {identity(2): 1.0, word(2, [1]): 0.5}}
    )
    with pytest.raises(ValueError):
        maxima_constant_level_symmetric(m)


def test_laplace_trivial_and_closed_form():
    m = mma_point_mass(2, 1.0)
    zero = PiecewiseConstant.threshold(0.0, 1.0)
    assert laplace_functional(m, zero).value == pytest.approx(1.0)
    theta, s = 1.3, 2.0
    lap = laplace_functional(m, PiecewiseConstant.threshold(theta, s))
    expect = math.exp(-2.0 * 2.0 * s ** (-1.0) * (1 - math.exp(-theta)))
    assert lap.value == pytest.approx(expect)
    assert lap.level_symmetric_value == pytest.approx(expect)


def test_laplace_level_symmetric_agreement():
    m = mma_from_levels(2, 1.2, {0: 1.0, 1: 0.6})
    g = PiecewiseConstant.threshold(0.9, 1.2)
    lap = laplace_functional(m, g)
    assert lap.level_symmetric_value == pytest.approx(lap.value, rel=1e-10)


def test_laplace_level_symmetric_d3_m3():
    # d = 3, m = 3: the largest level (-2) has 3,750 determining paths, all exact
    m = mma_from_levels(3, 1.0, {0: 1.0, 1: 0.5, 2: 0.25, 3: 0.1})
    lap = laplace_functional(m, PiecewiseConstant.threshold(1.0, 1.5))
    assert lap.level_symmetric_value == pytest.approx(lap.value, rel=1e-10)


def test_laplace_empirical_cross_oracle():
    m = mma_from_levels(2, 1.0, {0: 1.0, 1: 0.6})
    g = PiecewiseConstant.threshold(1.0, 1.5)
    ana = laplace_functional(m, g)
    emp = empirical_laplace(m, g, 6, 2000, seed=601)
    assert abs(emp - ana.value) < 0.02


@pytest.mark.parametrize("alpha", [0.8, 1.5])
def test_laplace_empirical_cross_oracle_off_alpha_one(alpha):
    # the two-atom kernel of the CI console checks, not level-symmetric: the
    # analytic Laplace functional (0.265 at alpha = 0.8, 0.596 at 1.5) against
    # the mean of exp(-N_6(g)) over exact draws through the alpha != 1 sampler.
    # exp(-N) lies in [0, 1], so its standard deviation is at most 1/2, and the
    # tolerance is four of those standard errors
    m = MixedMovingAverage.from_tables(
        2,
        alpha,
        {"a": 1.0, "b": 0.5},
        {"a": {word(2, []): 1.0, word(2, [1]): 0.5}, "b": {word(2, []): -0.8, word(2, [-2]): 0.3}},
    )
    g = PiecewiseConstant.threshold(0.5, 3.0)
    reps = 3000
    emp = empirical_laplace(m, g, 6, reps, seed=2730)
    assert abs(emp - laplace_functional(m, g).value) < 4 * 0.5 / math.sqrt(reps)


def count_above(atoms, c):
    """Atoms of the point measure with |x| > c."""
    return int(np.sum(np.abs(atoms) > c))


def test_sample_limit_point_process_point_mass():
    m = mma_point_mass(2, 1.0)
    rng = substream(602, "ns")
    counts = [count_above(sample_limit_point_process(m, 1.0, rng), 1.0) for _ in range(3000)]
    assert abs(np.mean(counts) - 4.0) < 0.15
    # doubling the threshold halves the count at alpha = 1
    counts2 = [count_above(sample_limit_point_process(m, 2.0, rng), 2.0) for _ in range(3000)]
    assert abs(np.mean(counts2) - 2.0) < 0.12
    # an absurd threshold empties the measure
    assert len(sample_limit_point_process(m, 1e9, rng)) == 0


def test_limit_process_zero_atom_probability():
    # P(no atoms above s) = exp(-K^alpha s^-alpha)
    m = mma_point_mass(2, 1.0)
    kx = maxima_constant(m).alpha_power
    rng = substream(603, "zero")
    for s in (2.0, 4.0):
        reps = 2500
        zeros = sum(
            1 for _ in range(reps) if count_above(sample_limit_point_process(m, s, rng), s) == 0
        )
        p = math.exp(-kx / s)
        se = math.sqrt(p * (1 - p) / reps)
        assert abs(zeros / reps - p) < 4 * se + 0.01


def test_expected_atom_count_matches_analytic():
    m = mma_from_levels(2, 1.0, {0: 1.0, 1: 0.5})
    ana = expected_atom_count(m, 1.0)
    rng = substream(604, "cnt")
    emp = np.mean([len(sample_limit_point_process(m, 1.0, rng)) for _ in range(3000)])
    assert abs(emp - ana.value) < 0.15


def test_limit_process_laplace_consistency():
    # empirical Laplace functional of the sampled limit process
    m = mma_point_mass(2, 1.0)
    g = PiecewiseConstant.threshold(1.0, 1.5)
    ana = laplace_functional(m, g).value
    rng = substream(605, "lapmc")
    acc = 0.0
    reps = 3000
    for _ in range(reps):
        atoms = sample_limit_point_process(m, 1.0, rng)
        acc += math.exp(-float(np.sum(g(atoms))))
    assert abs(acc / reps - ana) < 0.02


@pytest.mark.parametrize(
    "model, seed",
    [
        (  # not level-symmetric, two atoms, m = 2
            MixedMovingAverage.from_tables(
                2,
                1.3,
                {"a": 1.0, "b": 0.5},
                {
                    "a": {word(2, [1]): 2.0, word(2, [-2, 1]): -0.7},
                    "b": {word(2, []): 0.4, word(2, [2, 2]): 1.1},
                },
            ),
            606,
        ),
        (mma_from_levels(3, 1.0, {0: 1.0, 1: 0.6, 2: 0.3}), 607),
    ],
)
def test_sampled_atom_count_law(model, seed):
    # with m = 2 the anchor levels -1 and 0 at the root need sampled paths
    delta = 0.5
    exact = expected_atom_count(model, delta)
    rng = substream(seed, "law")
    counts = [len(sample_limit_point_process(model, delta, rng)) for _ in range(2000)]
    se = np.std(counts, ddof=1) / math.sqrt(len(counts))
    assert abs(np.mean(counts) - exact.value) <= 4 * se


def test_sample_limit_delta_validation():
    with pytest.raises(ValueError):
        sample_limit_point_process(mma_point_mass(2, 1.0), 0.0, substream(1, "x"))


def test_kernel_columns_built_once_and_read_only():
    model = mma_from_levels(2, 1.0, {0: 1.0, 1: 0.6, 2: 0.3})
    cols = model.kernel_columns
    assert model.kernel_columns is cols
    for _, pos, vals in cols:
        for arr in (pos, vals):
            with pytest.raises(ValueError):
                arr[0] = 0


def test_comparison_indexes_each_kernel_entry_once(monkeypatch):
    calls = []
    lookup = BallLayout.word_to_index

    def counted(self, w):
        calls.append(w)
        return lookup(self, w)

    monkeypatch.setattr(BallLayout, "word_to_index", counted)
    model = mma_from_levels(2, 1.0, {0: 1, 1: 0.6, 2: 0.3})
    comp = maxima_constant_comparison(model)
    assert comp["formulas_agree"]
    assert len(calls) == sum(len(entries) for _, entries in model.f_table) == 17


def _word_path_law(d, level, m):
    """Trace law on E_m by brute force over Word paths.

    Depth-first over every determining prefix, multiplying the uniform
    choice probabilities; each prefix is extended along its first
    continuation to the length that ``membership`` requires.
    """

    def continuations(path):
        cur, k = path[-1], len(path) - 1
        if level < 0 and k < -level:
            return [Word(d, cur.letters[:-1])]
        if cur.is_identity:
            back = path[-2] if len(path) >= 2 else None
            return [Word(d, (g,)) for g in letters_in_order(d) if Word(d, (g,)) != back]
        return [Word(d, cur.letters + (g,)) for g in allowed_next_letters(d, cur.letters[-1])]

    sites = list(enumerate_ball(d, m))
    anchors = [identity(d)] if level == 0 else list(enumerate_sphere(d, abs(level)))
    stack = [(Fraction(1, len(anchors)), [v]) for v in anchors]
    law = {}
    while stack:
        prob, path = stack.pop()
        if len(path) <= determining_steps(level, m):
            opts = continuations(path)
            stack.extend((prob / len(opts), path + [v]) for v in opts)
            continue
        while len(path) <= required_steps(m, level):
            path.append(continuations(path)[0])
        xi = RayPath(level=level, rank=d, vertices=tuple(path))
        trace = frozenset(t for t in sites if membership(t, xi))
        law[trace] = law.get(trace, Fraction(0)) + prob
    return law


@pytest.mark.parametrize("d, m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_restriction_classes_match_word_oracle(d, m):
    sites = list(enumerate_ball(d, m))
    for level in range(-m + 1, m + 1):
        classes = exact_restriction_classes(d, level, m)
        assert sum(p for p, _ in classes) == 1
        got = {frozenset(sites[i] for i in np.flatnonzero(mask)): p for p, mask in classes}
        assert len(got) == len(classes)
        assert got == _word_path_law(d, level, m)


def test_restriction_classes_budget():
    # the trace-class table of E_8 has 26,241 x 13,121 = 344M cells
    with pytest.raises(ResourceBudgetError):
        exact_restriction_classes(2, -7, 8)


def _path_classes(d, level, m):
    """The trace classes of every determining path, decided by the path oracle."""
    paths = enumerate_ray_paths_reference(level, d, determining_steps(level, m))
    packed = ball_traces(paths, level, d, m)
    rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    uniq, counts = np.unique(rows, return_counts=True)
    names = [str(t) for t in enumerate_ball(d, m)]
    masks = np.unpackbits(
        uniq.view(np.uint8).reshape(len(uniq), -1), axis=1, count=len(names)
    ).astype(bool)
    return sorted(
        ((Fraction(int(c), len(paths)), mask) for c, mask in zip(counts, masks)),
        key=lambda pr: (int(pr[1].sum()), str(sorted(names[i] for i in np.flatnonzero(pr[1])))),
    )


@pytest.mark.parametrize(
    "d, m", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3)]
)
def test_restriction_classes_match_path_oracle(d, m):
    # the C_m-vertex rule gives the classes of the whole determining paths, in order
    for level in range(-m + 1, m + 1):
        got = exact_restriction_classes(d, level, m)
        want = _path_classes(d, level, m)
        assert [p for p, _ in got] == [p for p, _ in want]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got, want))


def _class_law(paths, level, d, m):
    """{packed trace row: Fraction share of the paths}, for equally likely paths."""
    rows = [r.tobytes() for r in ball_traces(paths, level, d, m)]
    return {r: Fraction(rows.count(r), len(rows)) for r in set(rows)}


@pytest.mark.parametrize("d, m", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)])
def test_determining_steps_is_shortest(d, m):
    # one step more decides the same classes; one step less cannot decide the trace
    for level in range(-m + 1, m + 1):
        steps = determining_steps(level, m)
        classes = exact_restriction_classes(d, level, m)
        exact = {np.packbits(mask).tobytes(): p for p, mask in classes}
        assert _class_law(enumerate_ray_paths_reference(level, d, steps + 1), level, d, m) == exact
        if steps:
            with pytest.raises(PathTooShortError):
                ball_traces(enumerate_ray_paths_reference(level, d, steps - 1), level, d, m)


def test_sphere_counts_by_level_exact():
    # every class of every level meets each sphere in the closed-form count; a level
    # has one class per vertex of C_K, and a C_m vertex takes its C_K ancestor's class
    for d, m in [(2, 5), (3, 3), (4, 2)]:
        depth = ball_layout(d, m).depth
        ends = np.flatnonzero(depth == m)
        for level in range(-m, m + 1):
            expected = [
                subgraph_sphere_count(level, j - level, d) if j >= max(level, 0) else 0
                for j in range(m + 1)
            ]
            classes = exact_restriction_classes(d, level, m)
            for _, mask in classes:
                assert np.bincount(depth[mask], minlength=m + 1).tolist() == expected
            on_k = np.flatnonzero(depth == min(max(0, math.ceil((m + level) / 2)), m))
            assert [p for p, _ in classes] == [Fraction(1, len(on_k))] * len(on_k)
            # in preorder the ancestor on C_K is the last vertex of C_K at or before x
            ancestor = np.searchsorted(on_k, ends, side="right") - 1
            masks = trace_masks(level, ends, d, m)
            assert all(np.array_equal(masks[i], classes[a][1]) for i, a in enumerate(ancestor))


def _m5_kernel(rename=None):
    # an m = 5 kernel whose sup over the trace varies, with its letters renamed
    table = {(): 0.2, (1,): 1.0, (-2,): 0.5, (1, 2): 0.8, (2, 2, -1): 0.3,
             (1, 1, 2, 1, 2): 0.9, (-2, -1, -2, 1, 1): 0.6}
    rename = rename or {}
    tab = {word(2, [rename.get(g, g) for g in k]): v for k, v in table.items()}
    return MixedMovingAverage.from_tables(2, 1.0, {"w0": 1.0}, {"w0": tab})


def _two_atom_ci_kernel(alpha=1.0):
    # the two-atom kernel file of the CI console-script step
    tables = {"a": {(): 1.0, (1,): 0.5}, "b": {(): -0.8, (-2,): 0.3}}
    return MixedMovingAverage.from_tables(
        2, alpha, {"a": 1.0, "b": 0.5},
        {w: {word(2, k): v for k, v in tab.items()} for w, tab in tables.items()},
    )


@pytest.mark.parametrize("alpha", [0.8, 1.5])
def test_sampled_atom_count_matches_expected_off_alpha_one(alpha):
    # the mean number of sampled limit atoms above delta = 0.5 on the CI two-atom kernel
    # against the exact expected_atom_count (15.21 at alpha = 0.8, 20.29 at 1.5); the
    # tolerance is four t-standard errors of the mean count
    model, delta, reps = _two_atom_ci_kernel(alpha), 0.5, 1000
    rng = substream(2917, "atoms", int(alpha * 10))
    counts = [len(sample_limit_point_process(model, delta, rng)) for _ in range(reps)]
    se = np.std(counts, ddof=1) / math.sqrt(reps)
    assert abs(np.mean(counts) - expected_atom_count(model, delta).value) <= 4 * se


def _general_alpha_power(model):
    comp = maxima_constant_comparison(model)
    assert comp["general_exact"] is True
    return comp["general_alpha_power"]


def _limit_kx_kernel():
    # the m = 3 kernel of the limit-kx benchmark workload
    return mma_from_levels(2, 1.0, {0: 1.0, 1: 0.6, 2: 0.3, 3: 0.2})


LEVEL_SUM_PINS = {  # id -> (kernel, functional, pinned value)
    "limit-kx": (_limit_kx_kernel, _general_alpha_power, 30.4),
    "letter-swap-m5": (_m5_kernel, lambda k: maxima_constant(k).alpha_power, 14.34074074074074),
    # the exact level sum rounds to 6.9, but the class probabilities, the level weights
    # and each product of them are rounded to floats before the correctly rounded sums
    "two-atom-kx": (_two_atom_ci_kernel, _general_alpha_power, 6.8999999999999995),
    "two-atom-count": (_two_atom_ci_kernel, lambda k: expected_atom_count(k, 0.1).value, 82.0),
    "two-atom-laplace": (
        _two_atom_ci_kernel,
        lambda k: laplace_functional(k, PiecewiseConstant.threshold(1.0, 0.5)).exponent,
        9.327878522464653,
    ),
}


@pytest.mark.parametrize(
    "kernel, functional, pinned", list(LEVEL_SUM_PINS.values()), ids=list(LEVEL_SUM_PINS)
)
def test_limit_kx_kernel_pinned(kernel, functional, pinned):
    # exact level sums are bit-reproducible, level-symmetric kernel or not
    assert functional(kernel()) == pinned


@pytest.mark.parametrize(
    "kernel", [_limit_kx_kernel, _m5_kernel], ids=["limit-kx", "letter-swap-m5"]
)
def test_level_sum_pins_are_the_exact_sums_rounded(kernel):
    # at alpha = 1 the sum is rational: each stage adds correctly rounded, which gives the
    # exact sum's nearest float on these kernels
    exact = level_sum_exact(kernel(), lambda v: 2 * max(map(abs, v), default=Fraction(0)))
    assert maxima_constant(kernel()).alpha_power == float(exact)


def _compensated_sum(values, start=0):
    """The builtin sum of CPython 3.12 and later on floats: Neumaier's compensated sum."""
    total, comp = start, 0.0
    for x in values:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_level_sums_do_not_depend_on_the_builtin_sum(monkeypatch):
    # the pins hold on every supported Python: the level sums add by math.fsum, not by
    # the builtin sum, which compensates from 3.12 on and so rounds differently by version
    assert _compensated_sum([0.1] * 10) == 1.0  # left to right: 0.9999999999999999
    monkeypatch.setattr(limit_process, "sum", _compensated_sum, raising=False)
    for kernel, functional, pinned in LEVEL_SUM_PINS.values():
        assert functional(kernel()) == pinned


def test_maxima_constant_m5_exact():
    # every level of E_5 is enumerated: at most 26,244 determining paths per level
    model = mma_from_levels(2, 1.0, {0: 1.0, 1: 0.6, 2: 0.3, 3: 0.2, 4: 0.1, 5: 0.05})
    general = maxima_constant(model).alpha_power
    assert general == pytest.approx(maxima_constant_level_symmetric(model).alpha_power, rel=1e-12)


def test_maxima_constant_m5_letter_swap_invariance():
    # a1 <-> a2 is a tree automorphism fixing e, so it preserves the subgraph law;
    # on this m = 5 kernel the sup over the trace varies, so a sampled level would show
    swap = {1: 2, -1: -2, 2: 1, -2: -1}
    plain = maxima_constant(_m5_kernel()).alpha_power
    assert maxima_constant(_m5_kernel(swap)).alpha_power == pytest.approx(plain, rel=1e-12)


@pytest.mark.parametrize("d, m", [(2, 6), (2, 7), (3, 4)])
def test_maxima_constant_exact_beyond_path_enumeration(d, m):
    # every level exact where the determining paths of level -(m-1) number 93,750 or more
    model = mma_from_levels(d, 1.0, {j: 1.0 / (j + 1) for j in range(m + 1)})
    general = maxima_constant(model).alpha_power
    assert general == pytest.approx(maxima_constant_level_symmetric(model).alpha_power, rel=1e-12)


def test_level_sum_budget_before_enumeration(monkeypatch):
    # the trace-class table of E_8 has 344M cells: refused before any level is enumerated
    def refuse(*args):
        raise AssertionError("exact_restriction_classes called")

    monkeypatch.setattr(limit_process, "exact_restriction_classes", refuse)
    with pytest.raises(ResourceBudgetError):
        maxima_constant(mma_from_levels(2, 1.0, {j: 1.0 for j in range(9)}))


def test_sampler_budget_before_table():
    # a radius-8 kernel would need a 344M-cell class table: refused before it is allocated
    model = MixedMovingAverage.from_tables(
        2, 1.0, {"w0": 1.0}, {"w0": {identity(2): 1.0, word(2, [1] * 8): 0.5}}
    )
    ball_layout(2, 8)  # the 13,121-site layout is built outside the traced region
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError):
            sample_limit_point_process(model, 0.5, substream(608, "budget"))
        assert tracemalloc.get_traced_memory()[1] < 5_000_000
    finally:
        tracemalloc.stop()
