"""Field models: norming constants, simulation laws, maxima experiments."""

import math
import pickle
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabletree import fields
from stabletree.errors import ResourceBudgetError, UnsupportedModelError
from stabletree.fields import (
    _MMAPlan,
    BoundaryField,
    FieldSimulator,
    MixedMovingAverage,
    ParetoField,
    ShiftField,
    maxima_experiment,
    mma_from_levels,
    mma_point_mass,
    norming_constant_mc,
    scaling_constant,
)
from stabletree.free_group import (
    ball_layout,
    ball_size,
    enumerate_ball,
    letters_in_order,
    multiply,
    word,
)
from stabletree.rng import substream
from stabletree.stable import SeriesConfig, sample_sas

from oracles import boundary_values_reference, mma_values_reference, two_sample_ks_pvalue


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


def simulate_field(model, n, cfg, rng):
    """One replication over E_n, as a ``FieldSample`` carrying the site depths."""
    return sample_field(FieldSimulator(model, n, cfg), rng)


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
    with pytest.raises(UnsupportedModelError):
        ParetoField(2, 1.0, 3.0).norming_constant(3)


def test_norming_mma_shifted_kernel():
    # a point mass away from the identity still sweeps one ball of sites
    m = MixedMovingAverage.from_tables(
        2, 1.0, {"w0": 1.0}, {"w0": {word(2, [1, 2]): 2.0}}
    )
    assert m.norming_constant(3) == pytest.approx(2.0 * ball_size(2, 3))


def test_pareto_norming_mc():
    model = ParetoField(2, 1.0, 3.0)
    est = norming_constant_mc(model, 4, 10_000, substream(501, "nmc"))
    ratio = est.value / ball_size(2, 4) ** (1.0 / 3.0)
    assert abs(ratio - math.gamma(2.0 / 3.0)) < 0.05 * math.gamma(2.0 / 3.0)
    assert est.ci_low < est.value < est.ci_high
    with pytest.raises(ValueError):
        norming_constant_mc(model, 4, 1, substream(501, "nmc"))
    with pytest.raises(UnsupportedModelError):
        norming_constant_mc(BoundaryField(2, 1.0), 3, 100, substream(501, "nmc"))


def test_pareto_norming_degenerate_theta():
    # theta -> inf collapses the Pareto to 1, so the max of powers is 1
    model = ParetoField(2, 1.0, 400.0)
    est = norming_constant_mc(model, 3, 2000, substream(502, "deg"))
    assert abs(est.value - 1.0) < 0.05


def test_pareto_norming_monotone_in_n():
    model = ParetoField(2, 1.0, 3.0)
    vals = [
        norming_constant_mc(model, n, 4000, substream(503, "mono", n)).value
        for n in (2, 3, 4)
    ]
    assert vals[0] < vals[1] < vals[2]


def test_pareto_submultiplicative_norming():
    model = ParetoField(2, 1.0, 3.0)
    b4 = norming_constant_mc(model, 4, 8000, substream(504, "sub", 4))
    b2 = norming_constant_mc(model, 2, 8000, substream(504, "sub", 2))
    assert b4.ci_low <= ball_size(2, 2) * b2.ci_high


def test_simulation_deterministic():
    for model in (
        BoundaryField(2, 1.0),
        ShiftField(2, 1.2),
        ParetoField(2, 1.0, 3.0),
        mma_point_mass(2, 0.9),
    ):
        cfg = SeriesConfig(num_terms=300)
        a = simulate_field(model, 3, cfg, substream(505, "det"))
        b = simulate_field(model, 3, cfg, substream(505, "det"))
        assert np.array_equal(a.values, b.values)
        # a series this short has no finite remainder bound, but still runs
        tiny = simulate_field(model, 3, SeriesConfig(num_terms=2), substream(505, "det"))
        assert tiny.meta.get("remainder_bound", math.inf) == math.inf


def test_mma_exactness_ignores_series_budget():
    m = mma_point_mass(2, 1.0)
    a = simulate_field(m, 3, SeriesConfig(num_terms=10), substream(506, "ex"))
    b = simulate_field(m, 3, SeriesConfig(num_terms=10_000), substream(506, "ex"))
    assert np.array_equal(a.values, b.values)
    assert a.meta.get("exact") is True


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
    cfg = SeriesConfig(num_terms=2500)
    sim = FieldSimulator(model, 2, cfg)
    vals = np.array([sim.values(substream(511, "marg", r)) for r in range(3000)])
    ref = sample_sas(substream(512, "margref"), 1.0, 1.0, size=80_000)
    for idx in (0, 1, 7):
        assert two_sample_ks_pvalue(vals[:, idx], ref) > 0.01


@pytest.mark.parametrize(
    "d,n,num_terms,alpha",
    [(2, 8, 1072, 1.0), (2, 3, 50, 1.3), (2, 1, 20, 0.7), (2, 0, 10, 1.0), (3, 6, 300, 1.0)],
)
@pytest.mark.parametrize("ray_block", [fields.RAY_BLOCK, 2 * 1072, 1])
def test_boundary_plan_matches_loop_reference(d, n, num_terms, alpha, ray_block, monkeypatch):
    # same values bit for bit, and the same random numbers consumed, whether the
    # levels are drawn in one group, in groups of two (n = 8) or one by one
    monkeypatch.setattr(fields, "RAY_BLOCK", ray_block)
    model = BoundaryField(d, alpha)
    plan = model.draw(n, num_terms)
    for rep in range(5):
        rng_plan, rng_ref = substream(530, "plan", rep), substream(530, "plan", rep)
        got = plan(rng_plan)
        assert np.array_equal(got, boundary_values_reference(model, n, num_terms, rng_ref))
        assert repr(rng_plan.bit_generator.state) == repr(rng_ref.bit_generator.state)


def test_boundary_field_left_stationarity():
    # the law at site t matches the law at site s.t
    from stabletree.free_group import ball_layout, multiply

    model = BoundaryField(2, 1.0)
    cfg = SeriesConfig(num_terms=2500)
    sim = FieldSimulator(model, 3, cfg)
    lay = ball_layout(2, 3)
    t = word(2, [2, 1])
    s = word(2, [1])
    it, ist = lay.word_to_index(t), lay.word_to_index(multiply(s, t))
    vals = np.array([sim.values(substream(513, "stat", r)) for r in range(3000)])
    assert two_sample_ks_pvalue(vals[:, it], vals[:, ist]) > 0.01


def test_boundary_field_peak_site():
    # the strongest site follows the dominant ray: value (2d-1)^(n/alpha) x weight
    model = BoundaryField(2, 1.0)
    fs = simulate_field(model, 6, SeriesConfig(num_terms=4000), substream(514, "peak"))
    assert partial_maximum(fs) >= boundary_maximum(fs) * 0.999999
    assert fs.meta["remainder_bound"] < 1e-3 * 3**6 * 10


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
    # |E_12| = 1,062,881 noise sites: over the default budget, within a raised one
    with pytest.raises(ResourceBudgetError):
        maxima_experiment(mma_point_mass(2, 1.0), 12, 2, None, seed=1)
    res = maxima_experiment(mma_point_mass(2, 1.0), 12, 2, None, seed=1, site_budget=2_000_000)
    assert len(res.records) == 2


def test_maxima_experiment_boundary():
    res = maxima_experiment(
        BoundaryField(2, 1.0), 5, 250, SeriesConfig(), seed=518, s_grid=[0.5, 1, 2, 4]
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


@pytest.mark.parametrize(
    "make,n",
    [
        (lambda: mma_from_levels(2, 1.0, {0: 1.0, 1: 0.6, 2: 0.3}), 8),
        (lambda: two_atom_kernel(1.3), 4),
        (lambda: mma_point_mass(2, 0.7), 5),
    ],
)
def test_mma_plan_matches_loop_reference(make, n):
    # the buffered draw gives the loop's values bit for bit and consumes the
    # same stream; a returned field does not share the plan's buffers
    plan = make().draw(n, None)
    before = None
    for rep in range(5):
        rng_plan, rng_ref = substream(531, "plan", rep), substream(531, "plan", rep)
        got = plan(rng_plan)
        assert np.array_equal(got, mma_values_reference(plan, rng_ref))
        assert repr(rng_plan.bit_generator.state) == repr(rng_ref.bit_generator.state)
        if before is not None:
            assert np.array_equal(before[0], before[1])
        before = (got, got.copy())


PINNED_DRAWS = [
    # (name, model factory, n, series config, num_terms, scaling constant, values at PIN_SITES)
    ("boundary", lambda: BoundaryField(2, 1.0), 5, None, 28672, 243.0,
     [0.7050078285695857, -1.3554705232631057, 1.425379237191039, 0.45450512181228087]),
    ("shift", lambda: ShiftField(2, 1.3), 3, None, None, 12.619700538305079,
     [-0.20258999721916426, 0.6473696551469849, -1.5032963013723062, -0.20258999721916426]),
    # 25,000 terms over 485 sites run in three blocks of the series
    ("pareto", lambda: ParetoField(2, 1.0, 3.0), 5, SeriesConfig(num_terms=25_000), 25_000,
     7.856828007847996,
     [31.13669199605587, 18.709904882518916, 17.032973137388584, 21.5093807105853]),
    ("mma", two_atom_kernel, 3, None, None, 12.619700538305079,
     [-7.669429648472467, -52.215104599585224, -12.756791886760276, 10.631871307099283]),
]


@pytest.mark.parametrize("name,make,n,cfg,num_terms,scale,expected", PINNED_DRAWS)
def test_pinned_draws(name, make, n, cfg, num_terms, scale, expected):
    # one replication per model at a fixed seed; rel 1e-12 absorbs platform ULP differences
    model = make()
    sim = FieldSimulator(model, n, cfg)
    values = sim.values(substream(2024, "pin", name))
    sites = [0, 1, len(values) // 2, len(values) - 1]
    assert sim.num_terms == num_terms
    assert scaling_constant(model, n) == pytest.approx(scale, rel=1e-12)
    assert values[sites].tolist() == pytest.approx(expected, rel=1e-12)


def test_pareto_automatic_series_length():
    assert FieldSimulator(ParetoField(2, 1.0, 3.0), 5).num_terms == 442_368


def brute_norming(model, n):
    """sum_w mass_w sum_{u in E_{n+m}} max{|f(w, v)|^alpha : u v^-1 in E_n}, word by word."""
    total = 0.0
    for w in model.atoms:
        acc = 0.0
        for u in enumerate_ball(model.d, n + model.support_radius):
            best = 0.0
            for v, val in model.table(w).items():
                if len(multiply(u, v.inverse())) <= n:
                    best = max(best, abs(val) ** model.alpha)
            acc += best
        total += model.mass(w) * acc
    return total


def brute_level_profile(model, w):
    tab = model.table(w)
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
        for w in model.atoms:
            assert model.level_profile(w) == brute_level_profile(model, w)
    assert kernels[0].level_profile("w0") == {0: -1.5}
    assert kernels[1].level_profile("w0") == {0: 1.0, 1: 0.6, 2: -0.3}
    assert kernels[2].level_profile("a") is None and not kernels[2].is_level_symmetric


words_up_to_2 = st.lists(st.sampled_from(letters_in_order(2)), max_size=2).map(
    lambda letters: word(2, letters)
)
tables = st.dictionaries(words_up_to_2, st.floats(-2, 2).filter(bool), min_size=1, max_size=5)


@settings(max_examples=25, deadline=None)
@given(tables, tables, st.integers(0, 3))
def test_mma_plan_matches_word_products(tab_a, tab_b, n):
    model = MixedMovingAverage.from_tables(2, 1.0, {"a": 1.0, "b": 2.0}, {"a": tab_a, "b": tab_b})
    lay = ball_layout(2, n + model.support_radius)
    sites = list(enumerate_ball(2, n))
    plan = _MMAPlan(model, n)
    assert plan.noise_ball == lay.size
    for w, (_, gathers) in zip(model.atoms, plan.parts):
        assert [val for val, _ in gathers] == list(model.table(w).values())
        for (v, _), (_, idx) in zip(model.table(w).items(), gathers):
            expected = [lay.word_to_index(multiply(t, v)) for t in sites]
            assert idx.tolist() == expected


def test_sample_depths_are_read_only():
    sim = FieldSimulator(BoundaryField(2, 1.0), 4, SeriesConfig(num_terms=50))
    fs = sample_field(sim, substream(7, "ro"))
    before = boundary_maximum(fs)
    with pytest.raises(ValueError):
        fs.depths[0] = 4
    with pytest.raises(ValueError):
        fs.depths[:] = 0
    again = sample_field(sim, substream(7, "ro"))
    assert boundary_maximum(again) == before
    assert np.array_equal(again.depths, [len(t) for t in enumerate_ball(2, 4)])
