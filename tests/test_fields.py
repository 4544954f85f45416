"""Field models: norming constants, simulation laws, maxima experiments."""

import math
import pickle
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from stabletree import fields, mma_plan
from stabletree.errors import ResourceBudgetError
from stabletree.fields import (
    BoundaryField,
    FieldSimulator,
    MixedMovingAverage,
    ParetoField,
    ShiftField,
    maxima_experiment,
    mma_point_mass,
    scaling_constant,
)
from stabletree.free_group import (
    Word,
    ball_layout,
    ball_size,
    enumerate_ball,
    letters_in_order,
    multiply,
    parse_word,
    sphere_size,
    word,
)
from stabletree.rng import substream
from stabletree.stable import sample_sas

from oracles import (
    boundary_cylinder_sums,
    boundary_values_loop_reference,
    boundary_values_reference,
    kernel_table,
    mma_from_levels,
    mma_full_noise_reference,
    mma_values_reference,
    pareto_norming_mc,
    two_sample_ks_pvalue,
)


@dataclass
class FieldSample:
    """Field values over the ball E_n in canonical enumeration order."""

    model: object
    n: int
    values: np.ndarray
    depths: np.ndarray
    meta: dict = field(default_factory=dict)


def sample_field(sim, rng):
    """One replication of ``sim`` with the read-only depths of its layout."""
    depths = ball_layout(sim.model.d, sim.n).depth
    return FieldSample(sim.model, sim.n, sim.values(rng), depths, dict(sim.meta))


def simulate_field(model, n, num_terms, rng):
    """One replication over E_n, as a ``FieldSample`` carrying the site depths."""
    return sample_field(FieldSimulator(model, n, num_terms), rng)


def partial_maximum(sample):
    """max_{t in E_n} |X_t|."""
    return float(np.max(np.abs(sample.values)))


def boundary_maximum(sample):
    """max over the sphere C_n only; never exceeds the ball max."""
    return float(np.max(np.abs(sample.values[sample.depths == sample.n])))


def test_norming_closed_forms():
    for n in range(0, 11):
        assert BoundaryField(2, 1.0).norming_constant(n) == 3**n
        assert BoundaryField(3, 0.7).norming_constant(n) == 5**n
        assert ShiftField(2, 1.3).norming_constant(n) == 2 * n + 1
    assert mma_point_mass(2, 1.0).norming_constant(2) == ball_size(2, 2)
    # on E_0 the Pareto constant is E[P^alpha] = theta / (theta - alpha)
    assert ParetoField(2, 1.0, 3.0).norming_constant(0) == 1.5
    assert ParetoField(3, 0.8, 4.0).norming_constant(0) == 1.25


def test_norming_mma_shifted_kernel():
    # a point mass away from the identity still sweeps one ball of sites
    m = MixedMovingAverage.from_tables(
        2, 1.0, {"w0": 1.0}, {"w0": {word(2, [1, 2]): 2.0}}
    )
    assert m.norming_constant(3) == pytest.approx(2.0 * ball_size(2, 3))


def test_mma_norming_is_correctly_rounded():
    # the sites add correctly rounded: a sequential sum drifts 1.1e-9 and 3.7e-8 off
    model = mma_from_levels(2, 1.0, {0: 1, 1: 0.6, 2: 0.3})
    assert model.norming_constant(6) == 5831.0
    assert model.norming_constant(8) == 52487.0


PARETO_GRID = [(1.0, 3.0), (1.5, 2.5), (0.8, 4.0), (0.01, 3.0), (1.9, 1.95), (1.0, 400.0)]


def test_pareto_norming_matches_60_digits():
    # N B(N, 1 - alpha/theta) at 60 digits; the lgamma route is 110% off at d = 3, n = 20
    for d in (2, 3):
        for n in range(0, 21):
            size = ball_size(d, n)
            for alpha, theta in PARETO_GRID:
                with mpmath.workdps(60):
                    ref = size * mpmath.beta(size, 1 - mpmath.mpf(alpha) / theta)
                value = ParetoField(d, alpha, theta).norming_constant(n)
                assert abs(value - ref) <= 1e-12 * ref, (d, n, alpha, theta)


def test_pareto_norming_pins():
    assert ParetoField(2, 1.0, 3.0).norming_constant(4) == 7.371650445258639
    assert ParetoField(2, 0.8, 4.0).norming_constant(5) == 4.011055288904957
    # b_n^alpha / |E_n|^(alpha/theta) tends to Gamma(1 - alpha/theta), here with 161 sites
    ratio = ParetoField(2, 1.0, 3.0).norming_constant(4) / ball_size(2, 4) ** (1.0 / 3.0)
    assert abs(ratio - math.gamma(2.0 / 3.0)) < 1e-3 * math.gamma(2.0 / 3.0)


def test_pareto_norming_mc():
    # theta > 2 alpha: P^alpha has a finite variance, so batch means estimate it;
    # the bound is 4 standard errors of the batch means
    t = sstats.t.ppf(0.975, 19)  # batch_mean_ci: 20 batches, level 0.95
    for d, alpha, theta, n in ((2, 1.0, 3.0, 4), (2, 0.8, 4.0, 5)):
        model = ParetoField(d, alpha, theta)
        mean, lo, hi = pareto_norming_mc(model, n, 10_000, substream(2611, "norming-mc", n))
        se = (hi - lo) / (2 * t)
        assert abs(model.norming_constant(n) - mean) <= 4 * se


def test_pareto_norming_degenerate_theta():
    # theta -> inf collapses the Pareto to 1, so the max of powers is 1
    assert abs(ParetoField(2, 1.0, 400.0).norming_constant(3) - 1.0) < 0.02
    assert 1.0 < ParetoField(2, 1.0, 1e6).norming_constant(3) < 1.0 + 1e-4


@pytest.mark.parametrize("theta", [math.inf, math.nan])
def test_pareto_rejects_a_non_finite_theta(theta):
    # theta = inf ran a 9-term series and reported no remainder bound
    with pytest.raises(ValueError):
        ParetoField(2, 1.0, theta)


@pytest.mark.parametrize(
    "mass, value", [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan), (1.0, -math.inf)]
)
def test_mma_rejects_non_finite_masses_and_values(mass, value):
    # a NaN value gave the maxima constant K = NaN, an infinite mass K = inf
    with pytest.raises(ValueError):
        MixedMovingAverage.from_tables(2, 1.0, {"w0": mass}, {"w0": {word(2, []): value}})


def test_pareto_norming_monotone_in_n():
    for alpha, theta in PARETO_GRID:
        vals = [ParetoField(2, alpha, theta).norming_constant(n) for n in range(0, 9)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_pareto_submultiplicative_norming():
    # E_(n+k) lies in |E_k| translates of E_n, so b_(n+k) <= |E_k| b_n
    for alpha, theta in PARETO_GRID:
        model = ParetoField(2, alpha, theta)
        for n in range(0, 5):
            for k in range(1, 4):
                assert model.norming_constant(n + k) <= ball_size(2, k) * model.norming_constant(n)


def test_simulation_deterministic():
    for model in (
        BoundaryField(2, 1.0),
        ShiftField(2, 1.2),
        ParetoField(2, 1.0, 3.0),
        mma_point_mass(2, 0.9),
    ):
        a = simulate_field(model, 3, 300, substream(505, "det"))
        b = simulate_field(model, 3, 300, substream(505, "det"))
        assert np.array_equal(a.values, b.values)
        # a series this short has no finite remainder bound, but still runs
        tiny = simulate_field(model, 3, 2, substream(505, "det"))
        assert tiny.meta["remainder_bound"] is None


def test_mma_exactness_ignores_series_budget():
    m = mma_point_mass(2, 1.0)
    a = simulate_field(m, 3, 10, substream(506, "ex"))
    b = simulate_field(m, 3, 10_000, substream(506, "ex"))
    assert np.array_equal(a.values, b.values)
    assert a.meta == b.meta == {"num_terms": None, "remainder_bound": None, "scale": m.scale(3)}


def test_mma_hash_and_pickle_ignore_derived_arrays():
    model = mma_from_levels(2, 1.0, {0: 1.0, 1: 0.5})
    model.kernel_columns, model.level_profiles  # workers receive the model after this
    fresh = mma_from_levels(2, 1.0, {0: 1.0, 1: 0.5})
    assert hash(model) == hash(fresh)
    # the pickle carries the tables only, and the copy rebuilds read-only arrays
    assert len(pickle.dumps(model)) == len(pickle.dumps(fresh))
    copy = pickle.loads(pickle.dumps(model))
    assert copy == model and hash(copy) == hash(model)
    for _, pos, vals in copy.kernel_columns:
        assert not pos.flags.writeable and not vals.flags.writeable


def test_mma_scaling_equivariance():
    base = mma_from_levels(2, 1.0, {0: 1.0, 1: 0.5})
    doubled = mma_from_levels(2, 1.0, {0: 2.0, 1: 1.0})
    a = simulate_field(base, 3, None, substream(507, "sc"))
    b = simulate_field(doubled, 3, None, substream(507, "sc"))
    assert np.array_equal(2.0 * a.values, b.values)  # power-of-two scaling is exact


def test_mma_point_mass_is_iid_noise():
    # the kernel 1_{t=e} reduces the field to one noise value per site
    model = mma_point_mass(2, 1.0)
    scale = model.noise_scale("w0")
    pooled = []
    for rep in range(40):
        fs = simulate_field(model, 3, None, substream(508, "iid", rep))
        pooled.append(fs.values)
    pooled = np.concatenate(pooled)
    ref = sample_sas(substream(509, "iidref"), 1.0, scale, size=len(pooled) * 4)
    assert two_sample_ks_pvalue(pooled, ref) > 0.01
    # neighbouring sites carry independent signs
    fs = np.array([simulate_field(model, 2, None, substream(510, "sg", r)).values for r in range(4000)])
    s = np.sign(fs)
    corr = np.corrcoef(s[:, 0], s[:, 1])[0, 1]
    assert abs(corr) < 0.05


def test_boundary_field_marginal_is_sas_unit():
    # the derivative integrates to 1, so every site is SaS(1)
    model = BoundaryField(2, 1.0)
    sim = FieldSimulator(model, 2, 2500)
    vals = np.array([sim.values(substream(511, "marg", r)) for r in range(3000)])
    ref = sample_sas(substream(512, "margref"), 1.0, 1.0, size=80_000)
    for idx in (0, 1, 7):
        assert two_sample_ks_pvalue(vals[:, idx], ref) > 0.01


@pytest.mark.parametrize("alpha", [0.6, 1.0, 1.3, 1.9])
def test_boundary_values_match_exact_sums(alpha):
    # every site within 1e-12 of the dense cylinder sum over C_n, taken in exact
    # rationals, and one SaS draw of |C_n| values consumed per replication
    for d, n in ((2, 0), (2, 1), (2, 4), (3, 2), (3, 3)):
        model = BoundaryField(d, alpha)
        plan = model.draw(n, None)
        for rep in range(2):
            key = ("exact", d, n, int(alpha * 10), rep)
            rng_plan, rng_ref = substream(532, *key), substream(532, *key)
            got = plan(rng_plan)
            exact = boundary_cylinder_sums(model, n, rng_ref)
            assert repr(rng_plan.bit_generator.state) == repr(rng_ref.bit_generator.state)
            for value, ref in zip(got, exact, strict=True):
                assert abs(Fraction(value) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("alpha", [0.7, 1.0, 1.3])
@pytest.mark.parametrize("d,n", [(2, 4), (3, 3), (4, 2), (5, 2), (5, 0)])
def test_boundary_plan_matches_rank_by_rank_loop(d, n, alpha):
    # one replication and a pass of eight, drawn by one sample_sas call, give
    # the per-replication loop's values and maxima bit for bit
    model = BoundaryField(d, alpha)
    plan = model.draw(n, None)
    sphere = ball_layout(d, n).depth == n
    key = ("loop", d, n, int(alpha * 10))
    refs = [boundary_values_loop_reference(plan, substream(535, *key, rep)) for rep in range(9)]
    assert plan(substream(535, *key, 8)).tobytes() == refs[8].tobytes()
    pairs = plan.maxima([substream(535, *key, rep) for rep in range(8)])
    assert pairs == [(np.abs(r).max(), np.abs(r[sphere]).max()) for r in refs[:8]]


@pytest.mark.parametrize("alpha", [1.0, 1.3])
@pytest.mark.parametrize("d", [2, 3])
def test_boundary_plan_serves_passes_of_any_size(d, alpha):
    # one plan takes passes of 1, 8, 3 and then 9 rows, the last growing its
    # buffers: every row is the loop reference's replication bit for bit
    plan = BoundaryField(d, alpha).draw(4, None)
    key = ("passes", d, int(alpha * 10))
    first = 0
    for rows in (1, 8, 3, 9):
        reps = range(first, first + rows)
        levels = plan._levels([substream(536, *key, rep) for rep in reps])
        for row, rep in zip(levels, reps, strict=True):
            ref = boundary_values_loop_reference(plan, substream(536, *key, rep))
            assert row.tobytes() == ref[plan.order].tobytes()
        first += rows


def test_boundary_batched_maxima_match_one_per_pass(monkeypatch):
    # a replication's maxima do not depend on the others drawn in its pass
    # (two full passes and a short one) nor on the worker count
    model = BoundaryField(2, 1.3)
    reps = 2 * fields.MAXIMA_BATCH + 5
    batched = maxima_experiment(model, 5, reps, None, seed=533)
    workers = maxima_experiment(model, 5, reps, None, seed=533, workers=2)
    monkeypatch.setattr(fields, "MAXIMA_BATCH", 1)
    single = maxima_experiment(model, 5, reps, None, seed=533)
    assert batched.records == single.records == workers.records


@pytest.mark.parametrize(
    "d,n,reps,alpha",
    [(2, 8, 1072, 1.0), (2, 3, 50, 1.3), (2, 1, 20, 0.7), (2, 0, 10, 1.0), (3, 6, 300, 1.0)],
)
@pytest.mark.parametrize("batch", [1_000_000, 2 * 1072, 1])
def test_boundary_plan_matches_loop_reference(d, n, reps, alpha, batch):
    # the plan's maxima over passes of `batch` replications (one pass when it
    # exceeds reps) are those of reducing each replication's values in canonical
    # order, drawn one by one, bit for bit; each stream is consumed alike
    model = BoundaryField(d, alpha)
    plan = model.draw(n, None)
    sphere = ball_layout(d, n).depth == n
    rngs = [substream(530, "plan", rep) for rep in range(reps)]
    got = [pair for lo in range(0, reps, batch) for pair in plan.maxima(rngs[lo : lo + batch])]
    for pair, rng_plan, rep in zip(got, rngs, range(reps), strict=True):
        rng_ref = substream(530, "plan", rep)
        mags = np.abs(plan(rng_ref))
        assert pair == (mags.max(), mags[sphere].max())
        assert repr(rng_plan.bit_generator.state) == repr(rng_ref.bit_generator.state)


def test_boundary_exact_maxima_match_series_law():
    # two-sample KS at alpha = 1 of the exact draw's scaled ball maxima against
    # the LePage series loop, whose remainder bound at 400 terms is about 1% of M_4's scale
    model, n, reps = BoundaryField(2, 1.0), 4, 800
    exact = maxima_experiment(model, n, reps, None, seed=4152).scaled
    series = [
        np.abs(boundary_values_reference(model, n, 400, substream(4152, "series", rep))).max()
        for rep in range(reps)
    ]
    assert two_sample_ks_pvalue(exact, np.array(series) / model.scale(n)) > 0.01


def test_boundary_small_alpha_maxima_are_numbers():
    # at alpha = 0.1 the recursion factors reach 3^80 and the noise scale is
    # |C_8|^-10 = 4e-40; every maximum is a positive finite number
    sim = FieldSimulator(BoundaryField(2, 0.1), 8)
    pairs = sim.maxima([substream(534, "small", rep) for rep in range(8)])
    assert all(0.0 < sm <= bm < math.inf for bm, sm in pairs)


@pytest.mark.parametrize(
    "model,n,num_terms",
    [
        (BoundaryField(2, 1.0), 5, 300),
        (BoundaryField(3, 1.3), 3, 40),
        (BoundaryField(2, 0.7), 0, 10),
        (ShiftField(2, 1.0), 4, None),
        (ParetoField(2, 1.0, 3.0), 3, 200),
        (mma_from_levels(2, 1.3, {0: 1.0, 1: -0.5}), 3, None),
    ],
)
def test_simulator_maxima_reduce_values(model, n, num_terms):
    # (ball max, sphere max) are the maxima of |values| bit for bit, from the same stream
    # for a batch of generators; exact models ignore the series length
    sim = FieldSimulator(model, n, num_terms)
    sphere = ball_layout(model.d, n).depth == n
    expected = []
    for rep in range(5):
        mags = np.abs(sim.values(substream(531, "maxima", rep)))
        expected.append((float(mags.max()), float(mags[sphere].max())))
    assert sim.maxima([substream(531, "maxima", rep) for rep in range(5)]) == expected


def test_boundary_field_left_stationarity():
    # the law at site t matches the law at site s.t
    from stabletree.free_group import ball_layout, multiply

    model = BoundaryField(2, 1.0)
    sim = FieldSimulator(model, 3, 2500)
    lay = ball_layout(2, 3)
    t = word(2, [2, 1])
    s = word(2, [1])
    it, ist = lay.word_to_index(t), lay.word_to_index(multiply(s, t))
    vals = np.array([sim.values(substream(513, "stat", r)) for r in range(3000)])
    assert two_sample_ks_pvalue(vals[:, it], vals[:, ist]) > 0.01


def test_boundary_field_peak_site():
    # the ball maximum bounds the sphere maximum; the exact draw takes no series
    model = BoundaryField(2, 1.0)
    fs = simulate_field(model, 6, 4000, substream(514, "peak"))
    assert partial_maximum(fs) >= boundary_maximum(fs)
    assert fs.meta == {"num_terms": None, "remainder_bound": None, "scale": model.scale(6)}


def test_maximum_trivial_cases():
    model = mma_point_mass(2, 1.0)
    fs = simulate_field(model, 0, None, substream(515, "n0"))
    assert partial_maximum(fs) == abs(fs.values[0])
    assert boundary_maximum(fs) == partial_maximum(fs)
    fs3 = simulate_field(model, 3, None, substream(516, "n3"))
    assert boundary_maximum(fs3) <= partial_maximum(fs3)


def test_site_budget():
    with pytest.raises(ResourceBudgetError):
        simulate_field(BoundaryField(2, 1.0), 14, None, substream(517, "big"))
    with pytest.raises(ResourceBudgetError):
        maxima_experiment(BoundaryField(2, 1.0), 14, 10, None, seed=0)
    # |E_12| = 1,062,881 noise sites: over the budget
    with pytest.raises(ResourceBudgetError):
        maxima_experiment(mma_point_mass(2, 1.0), 12, 2, None, seed=1)
    # a radius-2 kernel at n = 10 reads noise on E_12, but its draw lays out E_11: 354,293 sites
    model = mma_from_levels(2, 1.0, {0: 1.0, 1: 0.6, 2: 0.3})
    assert FieldSimulator(model, 10).values(substream(517, "e11")).shape == (ball_size(2, 10),)
    assert model.norming_constant(10) > 0


def test_maxima_experiment_boundary():
    res = maxima_experiment(
        BoundaryField(2, 1.0), 5, 250, None, seed=518, s_grid=[0.5, 1, 2, 4]
    )
    assert res.ks_distance is not None and res.ks_distance < 0.15
    assert all(bm >= sm for _, bm, sm, _ in res.records)
    assert len(res.records) == 250
    assert res.ecdf[0]["p_hat"] <= res.ecdf[-1]["p_hat"]


def test_maxima_experiment_worker_invariance():
    for model, n in ((ShiftField(2, 1.0), 4), (BoundaryField(2, 1.0), 5)):
        a = maxima_experiment(model, n, 40, None, seed=519, workers=1)
        b = maxima_experiment(model, n, 40, None, seed=519, workers=2)
        assert a.records == b.records


def test_maxima_experiment_starts_at_most_reps_workers(monkeypatch):
    # a pool never outnumbers the replications; the fake pool records its size and maps in-process
    import concurrent.futures

    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return map(fn, chunks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    model = BoundaryField(2, 1.0)
    capped = maxima_experiment(model, 3, 2, None, seed=519, workers=64)
    assert sizes == [2]
    assert capped.records == maxima_experiment(model, 3, 2, None, seed=519, workers=1).records


def test_shift_field_reduction():
    # sites with equal a_1 exponent share one value; others are independent
    from stabletree.free_group import ball_layout

    model = ShiftField(2, 1.0)
    lay = ball_layout(2, 3)
    fs = simulate_field(model, 3, None, substream(520, "shift"))
    k = lay.a1_exponent
    for kk in range(-3, 4):
        idx = np.where(k == kk)[0]
        assert np.all(fs.values[idx] == fs.values[idx[0]])
    # distinct exponents almost surely differ
    assert fs.values[lay.word_to_index(word(2, [1]))] != fs.values[
        lay.word_to_index(word(2, [1, 1]))
    ]


def test_shift_field_degenerate_maxima():
    res = maxima_experiment(ShiftField(2, 1.0), 8, 300, None, seed=521)
    assert float(np.median(res.scaled)) < 0.05


def two_atom_kernel(alpha=1.3):
    """A kernel that is not level-symmetric, with atoms of different supports."""
    return MixedMovingAverage.from_tables(
        2,
        alpha,
        {"a": 1.0, "b": 0.5},
        {
            "a": {word(2, [1]): 2.0, word(2, [-2, 1]): -0.7},
            "b": {word(2, []): 0.4, word(2, [2, 2]): 1.1},
        },
    )


def irregular_kernel(d, m, n):
    """A ``random_kernel`` of two atoms, radii m and (m + n) % 4, seeded by (d, m, n)."""
    rng = np.random.default_rng([4_871, d, m, n])
    return random_kernel(d, [0.7, 1.0, 1.3, 1.6][(m + n) % 4], [m, (m + n) % 4], rng)


# (d, m, n): both ranks, every first radius and n in 0..3; n < max(m_w, 1) leaves the group
# of sites that read only inner noise empty, and the kernels miss part of C_(m_w), so some
# sites of C_n reach no outer-shell node and draw no Z'_t
IRREGULAR = [(d, m, n) for d in (2, 3) for m in range(4) for n in range(4)]
MMA_PLAN_CASES = [
    (lambda: mma_from_levels(2, 1.0, {0: 1.0, 1: 0.6, 2: 0.3}), 8),
    # full support on E_3: below each site of C_n, classes of 2d - 1 and (2d - 1)^2 nodes
    pytest.param(lambda: mma_from_levels(2, 1.0, {0: 1.0, 1: 0.6, 2: 0.3, 3: 0.2}), 2, id="d2-levels3"),
    pytest.param(lambda: mma_from_levels(3, 1.0, {0: 1.0, 1: 0.6, 2: 0.3, 3: 0.2}), 1, id="d3-levels3"),
    (lambda: two_atom_kernel(1.3), 4),
    (lambda: mma_point_mass(2, 0.7), 5),
] + [
    pytest.param(lambda d=d, m=m, n=n: irregular_kernel(d, m, n), n, id=f"d{d}-m{m}-n{n}")
    for d, m, n in IRREGULAR
] + [
    # atoms whose tables hold only zeros, which ``from_tables`` drops: they read no noise and
    # get no slot
    pytest.param(
        lambda: MixedMovingAverage.from_tables(2, 1.3, {"w0": 1.0}, {"w0": {}}), 2, id="empty"
    ),
    pytest.param(
        lambda: MixedMovingAverage.from_tables(
            2, 0.8, {"a": 1.0, "b": 0.5}, {"a": {word(2, [1]): 0.0}, "b": {word(2, [2]): 1.1}}
        ),
        3,
        id="zeros-beside",
    ),
]


@pytest.mark.parametrize("make,n", MMA_PLAN_CASES)
def test_mma_plan_matches_loop_reference(make, n):
    # the buffered draw gives the word loop's values bit for bit and consumes
    # the same stream; a returned field does not share the plan's buffers
    model = make()
    plan, reference = model.draw(n, None), mma_values_reference(model, n)
    before = None
    for rep in range(5):
        rng_plan, rng_ref = substream(531, "plan", rep), substream(531, "plan", rep)
        got = plan(rng_plan)
        assert np.array_equal(got, reference(rng_ref))
        assert repr(rng_plan.bit_generator.state) == repr(rng_ref.bit_generator.state)
        if before is not None:
            assert np.array_equal(before[0], before[1])
        before = (got, got.copy())


@pytest.mark.parametrize("make,n", MMA_PLAN_CASES)
def test_mma_plan_blocks_hold_only_the_nonzero_reads(make, n):
    # per atom and site, its block column holds the entries' reads of a drawn slot in table
    # order, at f(w, v) noise_scale(w), times |class|^(1/alpha) for a class slot, then its
    # outer-shell slot at sigma_t, then only padding: slot 0 at value 0; the atoms' slots
    # follow slot 0 in turn, their groups come atom by atom, and no row of a block is
    # padding throughout
    model = make()
    plan = mma_plan._MMAPlan(model, n)
    order = np.argsort(plan.inv)  # the canonical position of each depth-major one
    cells = 0
    sphere = np.flatnonzero(ball_layout(model.d, n).depth == n)
    bases, want = [1], []  # per atom: its first slot, and each site's (slot, value) reads
    for scale, size, classes, entries, _, table in mma_plan._mma_slots(model, n):
        base, reads = bases[-1], table(0, len(order))
        factors = {i: f for lo, hi, _, f in classes for i in range(lo, hi)}
        want.append([[] for _ in order])
        for val, idx in zip(entries, reads):
            for k in np.flatnonzero(idx < size).tolist():
                i = int(idx[k])
                want[-1][k].append((base + i, val * scale * factors.get(i, 1.0)))
        sigma = mma_plan._outer_scales(reads[:, sphere] == size, entries, model.alpha, scale)
        for i, (k, s) in enumerate(zip(sphere[sigma > 0].tolist(), sigma[sigma > 0].tolist())):
            want[-1][k].append((base + size + i, s))
        bases.append(base + size + int(np.count_nonzero(sigma)))
    assert len(plan.noise) == bases[-1] and plan.noise[0] == 0.0
    seen, atom = set(), 0
    for start, slots, values in plan.groups:
        values = np.broadcast_to(values, slots.shape)
        j = int(np.searchsorted(bases, slots.max(), side="right")) - 1  # the atom of the group
        assert j >= atom
        atom, widths = j, []
        for c in range(slots.shape[1]):
            k = int(order[start + c])
            col = list(zip(slots[:, c].tolist(), values[:, c].tolist()))
            assert col == want[j][k] + [(0, 0.0)] * (len(col) - len(want[j][k]))
            widths.append(len(want[j][k]))
            assert (j, k) not in seen
            seen.add((j, k))
        assert max(widths) == len(slots)
        cells += slots.size
    assert all(not want[j][k] for j in range(len(want)) for k in range(len(order)) if (j, k) not in seen)
    if model.support_radius == 2 and n == 8:
        assert cells == 118_081  # against 17 |E_8| = 223,057 for one gather per entry


@pytest.mark.parametrize("make,n", MMA_PLAN_CASES)
def test_mma_plan_joint_law_is_exact(make, n):
    # no Monte Carlo: an SaS vector's law is fixed by the scale of theta . X over all theta.
    # The plan draws X = B Z from iid SaS(1) slots, so theta . X has the alpha-th power of its
    # scale sum_slot |sum_t theta_t B(t, slot)|^alpha, slot 0 left out; the full noise gives
    # sum_w noise_scale(w)^alpha sum_u |sum_t theta_t f(w, t^-1 u)|^alpha, word by word.  A
    # class factor |class| in place of |class|^(1/alpha), two atoms on shared slots or a
    # dropped sigma_t each break the equality at a random theta
    first = make()
    sites = list(enumerate_ball(first.d, n))
    theta = np.random.default_rng([9_203, first.d, n]).standard_normal(len(sites))
    sums = []  # per atom, sum_t theta_t f(w, t^-1 u) per noise node u that a site reads
    for w in first.atoms:
        column = {}
        for t, weight in zip(sites, theta.tolist()):
            for v, val in kernel_table(first, w).items():
                u = multiply(t, v)
                column[u] = column.get(u, 0.0) + weight * val
        sums.append(list(column.values()))
    for alpha in (0.8, 1.3):
        model = MixedMovingAverage(first.d, alpha, first.w_masses, first.f_table)
        plan = mma_plan._MMAPlan(model, n)
        by_depth = theta[np.argsort(plan.inv)]  # theta at each depth-major position
        coef = np.zeros(len(plan.noise))
        for start, slots, values in plan.groups:
            weights = by_depth[start : start + slots.shape[1]]
            np.add.at(coef, slots, np.broadcast_to(values, slots.shape) * weights)
        got = math.fsum((np.abs(coef[1:]) ** alpha).tolist())
        want = math.fsum(
            model.noise_scale(w) ** alpha * math.fsum(abs(c) ** alpha for c in column)
            for w, column in zip(model.atoms, sums)
        )
        assert got == pytest.approx(want, rel=1e-12)


def test_mma_draw_is_one_sample_sas_call(monkeypatch):
    # the slots of both atoms, inner, class and outer-shell, fill in one SaS(1) call per draw
    calls = []

    def counted(rng, alpha, scale=1.0, **kwargs):
        calls.append((scale, kwargs["size"]))
        return sample_sas(rng, alpha, scale, **kwargs)

    monkeypatch.setattr(mma_plan, "sample_sas", counted)
    plan = two_atom_kernel().draw(3, None)
    for rep in range(3):
        plan(substream(2024, "calls", rep))
    assert calls == [(1.0, len(plan.noise) - 1)] * 3


def test_mma_atom_without_entries_gets_no_slot():
    # an atom whose table holds only zeros draws nothing: alone its field is 0 with no
    # variate drawn, and beside another atom the field and b_n are that atom's alone
    empty = MixedMovingAverage.from_tables(2, 1.3, {"w0": 1.0}, {"w0": {}})
    plan = empty.draw(2, None)
    assert len(plan.noise) - 1 == 0
    assert not plan(substream(77, "empty", 0)).any()
    e = word(2, [])
    beside = MixedMovingAverage.from_tables(2, 1.3, {"w0": 1.0, "w1": 1.0}, {"w0": {}, "w1": {e: 1.0}})
    alone = MixedMovingAverage.from_tables(2, 1.3, {"w1": 1.0}, {"w1": {e: 1.0}})
    plans = beside.draw(2, None), alone.draw(2, None)
    assert len(plans[0].noise) == len(plans[1].noise) == 1 + 17
    for rep in range(3):
        got, want = (p(substream(77, "empty", rep)) for p in plans)
        assert got.tobytes() == want.tobytes()
    assert beside.norming_constant(2) == alone.norming_constant(2)


PINNED_DRAWS = [
    # (name, model factory, n, num_terms argument, resolved num_terms, scale, values at PIN_SITES)
    ("boundary", lambda: BoundaryField(2, 1.0), 5, None, None, 243.0,
     [-0.025154972575730017, 0.5658795907181786, 2.1940041169080216, -1.829445847463596]),
    ("shift", lambda: ShiftField(2, 1.3), 3, None, None, 12.619700538305079,
     [-0.20258999721916426, 0.6473696551469849, -1.5032963013723062, -0.20258999721916426]),
    # 25,000 terms over 485 sites run in three blocks of the series
    ("pareto", lambda: ParetoField(2, 1.0, 3.0), 5, 25_000, 25_000,
     7.856828007847996,
     [31.13669199605587, 18.709904882518916, 17.032973137388584, 21.5093807105853]),
    # one SaS(1) call for the slots of both atoms, every constant in the read values
    ("mma", two_atom_kernel, 3, None, None, 12.619700538305079,
     [0.8319273224893897, -30.625775564100092, -11.265208317134816, 2.2622608049753126]),
]


@pytest.mark.parametrize("name,make,n,terms_arg,num_terms,scale,expected", PINNED_DRAWS)
def test_pinned_draws(name, make, n, terms_arg, num_terms, scale, expected):
    # one replication per model at a fixed seed; rel 1e-12 absorbs platform ULP differences
    model = make()
    sim = FieldSimulator(model, n, terms_arg)
    values = sim.values(substream(2024, "pin", name))
    sites = [0, 1, len(values) // 2, len(values) - 1]
    assert sim.num_terms == num_terms
    assert scaling_constant(model, n) == pytest.approx(scale, rel=1e-12)
    assert values[sites].tolist() == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "reference,expected",
    [
        (mma_values_reference, PINNED_DRAWS[3][-1]),
        # the draw that read noise on all of E_(n+m), pinned before the outer shell collapsed
        (mma_full_noise_reference,
         [-7.669429648472467, -52.215104599585224, -12.756791886760276, 10.631871307099283]),
    ],
)
def test_mma_pins_match_references(reference, expected):
    values = reference(two_atom_kernel(), 3)(substream(2024, "pin", "mma"))
    sites = [0, 1, len(values) // 2, len(values) - 1]
    assert values[sites].tolist() == pytest.approx(expected, rel=1e-12)


def test_pareto_automatic_series_length():
    assert FieldSimulator(ParetoField(2, 1.0, 3.0), 5).num_terms == 442_368


@pytest.mark.parametrize("alpha,num_terms", [(0.8, 1024), (1.0, 48_640), (1.1, 688_128)])
def test_pareto_series_length_rule(alpha, num_terms):
    assert fields.approximations(ParetoField(2, alpha, 3.0), 8, None)["num_terms"] == num_terms
    # the boundary field is drawn exactly, at any alpha
    assert fields.approximations(BoundaryField(2, alpha), 8, None)["num_terms"] is None


@pytest.mark.parametrize("model", [BoundaryField(2, 1.0), ParetoField(2, 1.0, 3.0)])
def test_series_needs_one_term(model):
    with pytest.raises(ValueError):
        FieldSimulator(model, 3, 0)


def test_maxima_experiment_searches_the_rule_once(monkeypatch):
    calls = []
    rule = fields.choose_num_terms
    monkeypatch.setattr(fields, "choose_num_terms", lambda *args: calls.append(args) or rule(*args))
    res = maxima_experiment(ParetoField(2, 0.8, 3.0), 5, 3, None, seed=1, workers=1)
    assert len(calls) == 1 and res.approximations["num_terms"] == rule(*calls[0])


def brute_norming(model, n):
    """sum_w mass_w sum_{u in E_{n+m}} max{|f(w, v)|^alpha : u v^-1 in E_n}, word by word."""
    total = 0.0
    for w in model.atoms:
        bests = []
        for u in enumerate_ball(model.d, n + model.support_radius):
            best = 0.0
            for v, val in kernel_table(model, w).items():
                if len(multiply(u, v.inverse())) <= n:
                    best = max(best, abs(val) ** model.alpha)
            bests.append(best)
        total += model.mass(w) * float(sum(map(Fraction, bests)))  # each atom summed exactly
    return total


def brute_level_profile(model, w):
    tab = kernel_table(model, w)
    m = max(len(t) for t in tab)
    levels = {}
    for j in range(m + 1):
        vals = {tab.get(t, 0.0) for t in enumerate_ball(model.d, m) if len(t) == j}
        if len(vals) != 1:
            return None
        v = vals.pop()
        if v != 0.0:
            levels[j] = v
    return levels


def test_norming_and_level_profile_match_word_loops():
    kernels = [
        mma_point_mass(2, 1.0, value=-1.5),
        mma_from_levels(2, 0.8, {0: 1.0, 1: 0.6, 2: -0.3}),
        two_atom_kernel(),
    ]
    for model in kernels:
        for n in range(0, 4):
            assert model.norming_constant(n) == brute_norming(model, n)
        for w, profile in zip(model.atoms, model.level_profiles):
            assert profile == brute_level_profile(model, w)
    assert kernels[0].level_profiles == ({0: -1.5},)
    assert kernels[1].level_profiles == ({0: 1.0, 1: 0.6, 2: -0.3},)
    assert kernels[2].atoms[0] == "a"
    assert kernels[2].level_profiles[0] is None and not kernels[2].is_level_symmetric


def _small_for_words(case):
    make, n = getattr(case, "values", case)
    return n + make().support_radius <= 4


@pytest.mark.parametrize("make,n", filter(_small_for_words, MMA_PLAN_CASES))
def test_mma_norming_matches_word_loop(make, n):
    # the plan cases with n + m <= 4 for support radius m: classes and empty tables included
    model = make()
    assert model.norming_constant(n) == brute_norming(model, n)


def test_mma_norming_past_the_site_budget():
    # the pp-mma kernel at n = 11 lays out E_12
    model = mma_from_levels(2, 1.0, {0: 1.0, 1: 0.6, 2: 0.3})
    with pytest.raises(ResourceBudgetError, match=r"^\|E_12\| = 1062881 exceeds site budget 1000000$"):
        model.norming_constant(11)


words_up_to_2 = st.lists(st.sampled_from(letters_in_order(2)), max_size=2).map(
    lambda letters: word(2, letters)
)
tables = st.dictionaries(words_up_to_2, st.floats(-2, 2).filter(bool), min_size=1, max_size=5)


@settings(max_examples=25, deadline=None)
@given(tables, tables, st.integers(0, 3))
def test_mma_plan_matches_word_products(tab_a, tab_b, n):
    # an entry reads the slot of t v in E_(min(n, r-1)), r = n + m_w, in canonical order; the
    # zero slot ``size`` where |t v| = r; otherwise a class slot, which one node heads for
    # every read, or the zero slot ``size + 1``
    model = MixedMovingAverage.from_tables(2, 1.0, {"a": 1.0, "b": 2.0}, {"a": tab_a, "b": tab_b})
    sites = list(enumerate_ball(2, n))
    for w, (_, size, classes, values, _, table) in zip(model.atoms, mma_plan._mma_slots(model, n)):
        radius = n + max(len(v) for v in kernel_table(model, w))
        own = ball_size(2, min(n, radius - 1)) if radius else 0
        assert size == own + sum(hi - lo for lo, hi, _, _ in classes)
        assert values == list(kernel_table(model, w).values())
        heads = {}
        for v, idx in zip(kernel_table(model, w), table(0, len(sites))):
            for t, i in zip(sites, idx.tolist()):
                u = multiply(t, v)
                if len(u) <= min(n, radius - 1):
                    assert i == ball_layout(2, min(n, radius - 1)).word_to_index(u)
                elif len(u) == radius:
                    assert i == size
                elif i != size + 1:
                    assert own <= i < size and heads.setdefault(i, u) == u
        assert len(heads) == size - own


def random_kernel(d, alpha, radii, rng):
    """One atom per radius m_w in ``radii``, on a random support that reaches C_(m_w)
    but, for m_w >= 1, misses part of it, so no atom is level-symmetric."""
    f_table = {}
    for j, m in enumerate(radii):
        ball = list(enumerate_ball(d, m))
        sphere = [t for t in ball if len(t) == m]
        support = [sphere[i] for i in rng.choice(len(sphere), max(1, len(sphere) // 3), replace=False)]
        support += [t for t in ball if len(t) < m and rng.random() < 0.4]
        f_table[f"w{j}"] = {t: float(rng.choice([-1, 1]) * rng.uniform(0.1, 2.0)) for t in support}
    masses = {w: float(rng.uniform(0.5, 2.0)) for w in f_table}
    return MixedMovingAverage.from_tables(d, alpha, masses, f_table)


@pytest.mark.parametrize("d", [2, 3])
def test_mma_outer_shell_lemma(d):
    # by brute force over words: a noise site u on C_(n+m_w) is reached from E_n only by its
    # depth-n ancestor t, through v = t^-1 u; and the plan's inner terms and sigma_t keep
    # each site's whole alpha-norm sum_v |f(w, v)|^alpha
    rng = np.random.default_rng(8_812)
    for m in range(4):
        for n in range(4):
            alpha = [0.7, 1.0, 1.6][(m + n) % 3]
            radii = [m, int(rng.integers(0, m + 1))]
            model = random_kernel(d, alpha, radii, rng)
            assert all(prof is None for prof, r in zip(model.level_profiles, radii) if r)
            sites = list(enumerate_ball(d, n))
            plan = mma_plan._MMAPlan(model, n)
            order = np.argsort(plan.inv)  # the canonical position of each depth-major one
            base = 1  # the atom's first slot
            for w, (scale, size, _, values, _, slot_table) in zip(model.atoms, mma_plan._mma_slots(model, n)):
                table, slots = kernel_table(model, w), slot_table(0, len(sites))
                radius = n + max(len(v) for v in table)
                reached = {}
                for k, t in enumerate(sites):
                    for v, idx in zip(table, slots):
                        u = multiply(t, v)
                        assert (idx[k] == size) == (len(u) == radius)
                        if len(u) == radius:
                            reached.setdefault(u, []).append(t)
                for u, ts in reached.items():
                    assert ts == [Word(d, u.letters[:n])]
                # sigma_t is the value of the plan's read of one of the atom's slots past ``size``
                sigma, end = {}, base + size + np.count_nonzero((slots == size).any(axis=0))
                for start, block, cells in plan.groups:
                    for r, c in zip(*np.nonzero((block >= base + size) & (block < end))):
                        sigma[int(order[start + c])] = float(cells[r, c])
                assert len(sigma) == end - base - size
                base = end
                total = sum(abs(val) ** alpha for val in table.values())
                for k in range(len(sites)):
                    inner = sum(abs(val) ** alpha for val, idx in zip(values, slots) if idx[k] != size)
                    outer = (sigma.get(k, 0.0) / scale) ** alpha
                    assert inner + outer == pytest.approx(total, rel=1e-12)


def reader_column(u, table, n):
    """{(t, f(t^-1 u))} over the sites t of E_n that read the noise node u."""
    column = set()
    for v, val in table.items():
        t = multiply(u, v.inverse())
        if len(t) <= n:
            column.add((t, val))
    return frozenset(column)


@pytest.mark.parametrize("d", [2, 3])
def test_mma_noise_class_lemma(d):
    # by brute force over words: below each site A of C_n, the classes of _noise_classes hold
    # every node A x, n < |A x| < n + m_w, that some site reads, once, and no unread node;
    # a class's nodes have one reader column; the plan draws one slot per class.  Grouping the
    # read nodes by (A, depth) alone breaks the columns of these kernels, which are not
    # level-symmetric
    rng = np.random.default_rng(31_077)
    for m in range(4):
        for n in range(4):
            model = random_kernel(d, [0.7, 1.0, 1.6][(m + n) % 3], [m, int(rng.integers(0, m + 1))], rng)
            for w, (_, _, part_classes, _, _, _) in zip(model.atoms, mma_plan._mma_slots(model, n)):
                table = kernel_table(model, w)
                m_w = max(len(v) for v in table)
                offsets = [x for x in enumerate_ball(d, m_w - 1) if x.letters] if m_w >= 2 else []
                classes = mma_plan._noise_classes(d, n, table)
                groups, by_depth = [], []
                for a in enumerate_ball(d, n):
                    if len(a) < n:
                        continue
                    nodes = [u for u in (multiply(a, x) for x in offsets) if len(u) > n]
                    columns = {u: reader_column(u, table, n) for u in nodes}
                    read = [u for u in nodes if columns[u]]
                    suffix = Word(d, a.letters[n - min(n, m_w // 2) :])
                    found = [[multiply(a, x) for x in members] for members in classes.get(suffix, [])]
                    assert Counter(u for members in found for u in members) == Counter(read)
                    assert all(len({columns[u] for u in members}) == 1 for members in found)
                    groups += found
                    for depth in range(n + 1, n + m_w):
                        by_depth.append({columns[u] for u in read if len(u) == depth})
                assert any(len(cs) > 1 for cs in by_depth) == (m_w >= 2)
                assert {c: hi - lo for lo, hi, c, _ in part_classes} == Counter(map(len, groups))
    # a full-support level-symmetric kernel of radius m draws |E_n| + m |C_n| variates, n >= m
    for m in range(4):
        for n in range(m, 4):
            model = mma_from_levels(d, 1.3, {j: 1.0 / (j + 1) for j in range(m + 1)})
            plan = mma_plan._MMAPlan(model, n)
            assert len(plan.noise) - 1 == ball_size(d, n) + m * sphere_size(d, n)


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sup |F_a - F_b| of the empirical CDFs, per column of two (draws, columns) samples."""
    a, b = np.sort(a, axis=0), np.sort(b, axis=0)
    out = []
    for col_a, col_b in zip(a.T, b.T):
        grid = np.concatenate([col_a, col_b])
        cdf_a = np.searchsorted(col_a, grid, "right") / len(col_a)
        cdf_b = np.searchsorted(col_b, grid, "right") / len(col_b)
        out.append(np.abs(cdf_a - cdf_b).max())
    return np.array(out)


# the two-sample KS critical value at level 1e-4 for 3,000 draws a side: 2.23 sqrt(2 / 3000)
LAW_KS_TOL = 0.057


@pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5])
def test_mma_collapsed_draw_matches_full_noise_law(alpha):
    # the grouped draw against the draw that reads all of E_(n+m): KS per site of E_4 and on
    # the ball max.  The first kernel has one outer entry per atom; the second reaches
    # C_(n+2) through several entries per site, so a sigma_t that is not their alpha-norm
    # shows.  The third, level-symmetric of radius 3, groups each site's depth-5 and depth-6
    # descendants into classes of 3 and 9 nodes, so a class variate scaled by |class| instead
    # of |class|^(1/alpha) shows at alpha = 0.8 and 1.5; at alpha = 1 the two coincide
    kernels = [
        {"a": {"e": 1.0, "a1": 0.5}, "b": {"e": -0.8, "a2^-1": 0.3}},
        {"a": {"e": 1.0, "a1": 0.5, "a1.a1": 0.6, "a2.a1": -0.4, "a1^-1.a2": 0.3, "a2^-1.a2^-1": 0.9}},
    ]
    models = [
        MixedMovingAverage.from_tables(
            2,
            alpha,
            {w: 1.0 for w in tables},
            {w: {parse_word(2, t): v for t, v in tab.items()} for w, tab in tables.items()},
        )
        for tables in kernels
    ] + [mma_from_levels(2, alpha, {0: 1.0, 1: 0.6, 2: 0.3, 3: 0.2})]
    n, reps = 4, 3000
    for j, model in enumerate(models):
        rng_new, rng_full = substream(60_317, "collapsed", j), substream(60_317, "full", j)
        plan, full = model.draw(n, None), mma_full_noise_reference(model, n)
        new = np.array([plan(rng_new) for _ in range(reps)])
        old = np.array([full(rng_full) for _ in range(reps)])
        assert ks_two_sample(new, old).max() < LAW_KS_TOL
        ball_max = ks_two_sample(np.abs(new).max(axis=1)[:, None], np.abs(old).max(axis=1)[:, None])
        assert ball_max[0] < LAW_KS_TOL


def test_sample_depths_are_read_only():
    sim = FieldSimulator(BoundaryField(2, 1.0), 4, 50)
    fs = sample_field(sim, substream(7, "ro"))
    before = boundary_maximum(fs)
    with pytest.raises(ValueError):
        fs.depths[0] = 4
    with pytest.raises(ValueError):
        fs.depths[:] = 0
    again = sample_field(sim, substream(7, "ro"))
    assert boundary_maximum(again) == before
    assert np.array_equal(again.depths, [len(t) for t in enumerate_ball(2, 4)])
