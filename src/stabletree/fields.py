"""Built-in stationary SaS field models on the free group and their maxima.

Four models are provided.

* ``BoundaryField``: the field generated by the boundary action with the
  uniform boundary measure and kernel 1, simulated by the stable series
  X_t = c_alpha^(1/alpha) sum_i eps_i Gamma_i^(-1/alpha) (2d-1)^(-B_{omega_i}(t)/alpha)
  with iid uniform boundary rays omega_i shared across all sites of the ball.
* ``ShiftField``: the action where a_1 shifts the real line by 1 and the
  other generators act trivially, with kernel 1_(0,1].  The field factors
  through the a_1-exponent homomorphism onto Z and the induced integer-
  indexed values are iid SaS(1); we simulate the reduced form.
* ``ParetoField``: iid Pareto(theta) coordinate projections under the
  shift over the whole group (theta > alpha), simulated by the series with
  product-Pareto configurations, materialising only the ball coordinates.
* ``MixedMovingAverage``: X_t = sum_{w,u} f(w, t^-1 u) Z_{w,u} with a
  finitely supported tabulated kernel.  This simulation is exact (no
  series truncation): the noise variables are the per-site sums of the
  driving Poisson measure, iid SaS with scale (2 mass / c_alpha)^(1/alpha)
  per unit site, matching the series convention in which the marginal
  tail per site is 2 mass |f|^alpha x^-alpha.

Each model carries its own behaviour: the scale of the ball maximum, the
series rms that sets the truncation, the exact norming constant (the
alpha-th power of the integral of the ball-maximum of |f_t|, where a
closed form or finite enumeration exists), the limit CDF, the support
radius of its kernel and its per-replication draw.  :class:`FieldModel`
holds the defaults.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import ResourceBudgetError, UnsupportedModelError
from .free_group import ball_layout, ball_size, enumerate_ball, identity
from .rng import substream
from .stable import (
    SeriesConfig,
    choose_num_terms,
    lepage_remainder_bound,
    lepage_weights,
    sample_sas,
    scaled_frechet_cdf,
    stable_tail_constant,
)
from .stats import batch_mean_ci, empirical_cdf_table, ks_distance

DEFAULT_SITE_BUDGET = 1_000_000
RAY_BLOCK = 1_000_000  # ray letters drawn per group of levels in a boundary-field draw


class FieldModel:
    """Defaults for the field models, each of which overrides what differs.

    The defaults describe a field simulated by the series, with no kernel
    beyond the site itself, the ball-maximum scale (2d-1)^(n/alpha), and
    neither a closed-form norming constant nor a known limit law.
    """

    exact = False  # simulated without series truncation
    support_radius = 0  # the noise sites of E_n lie in E_(n + support_radius)

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("rank must be >= 2")
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("alpha must lie in (0, 2)")

    def scale(self, n: int) -> float:
        """The normalisation applied to the ball maximum M_n."""
        return (2 * self.d - 1) ** (n / self.alpha)

    def f_rms(self, n: int) -> float | None:
        """Largest rms over E_n of the series integrand.

        None for models simulated exactly and for integrands without a finite
        second moment; the remainder rule then has nothing to bound.
        """
        return None

    def norming_constant(self, n: int):
        """The alpha-th power of the ball-maximum norming constant, exactly."""
        raise UnsupportedModelError("no closed form for this model; use norming_constant_mc")

    def limit_cdf(self):
        """The known limit CDF of M_n / scale(n), or None."""
        return None

    def draw(self, n: int, num_terms: int | None):
        """A function of the generator returning one replication over E_n.

        Built once per simulator, so it may hold a plan for the draws.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class BoundaryField(FieldModel):
    """The boundary-action field, simulated by the series with shared rays.

    ``draw`` returns a :class:`_BoundaryPlan`, which fixes the per-level
    increments, subtree widths and depth scale once per simulator; each
    replication then draws the weights and the rays and sums one difference
    array.
    """

    d: int
    alpha: float

    def f_rms(self, n: int) -> float:
        return math.sqrt(_boundary_second_moment(self.d, self.alpha, n))

    def norming_constant(self, n: int):
        return (2 * self.d - 1) ** n

    def limit_cdf(self):
        return partial(scaled_frechet_cdf, alpha=self.alpha, c=stable_tail_constant(self.alpha))

    def draw(self, n: int, num_terms: int):
        return _BoundaryPlan(self, n, num_terms)


@dataclass(frozen=True)
class ShiftField(FieldModel):
    d: int
    alpha: float
    exact = True

    def norming_constant(self, n: int):
        # Lebesgue measure of the interval swept by the shifted unit cell
        return 2 * n + 1

    def draw(self, n: int, num_terms: int | None):
        return partial(_shift_values, self, n)


@dataclass(frozen=True)
class ParetoField(FieldModel):
    d: int
    alpha: float
    theta: float

    def __post_init__(self):
        super().__post_init__()
        if self.theta <= self.alpha:
            raise ValueError("Pareto exponent must exceed alpha")

    def scale(self, n: int) -> float:
        return ball_size(self.d, n) ** (1.0 / self.theta)

    def f_rms(self, n: int) -> float | None:
        # E[P^2] = theta / (theta - 2), infinite for theta <= 2
        return math.sqrt(self.theta / (self.theta - 2.0)) if self.theta > 2.0 else None

    def draw(self, n: int, num_terms: int):
        return partial(_pareto_values, self, n, num_terms)


@dataclass(frozen=True)
class MixedMovingAverage(FieldModel):
    """Tabulated mixed moving average with finite site support.

    ``w_masses`` maps atom names of the mixing space to positive masses;
    ``f_table`` maps atom names to {Word: value} tables with finite
    support.  ``support_radius`` is the smallest m with all supports in
    the ball E_m.
    """

    d: int
    alpha: float
    w_masses: tuple  # ((name, mass), ...) sorted
    f_table: tuple   # ((name, ((word, value), ...)), ...) sorted
    exact = True

    def __post_init__(self):
        super().__post_init__()
        for _, mass in self.w_masses:
            if mass <= 0:
                raise ValueError("atom masses must be > 0")

    def __reduce__(self):
        # rebuild from the tables, so a pickle never carries the cached arrays
        return type(self), (self.d, self.alpha, self.w_masses, self.f_table)

    @staticmethod
    def from_tables(d: int, alpha: float, w_masses: dict, f_table: dict) -> "MixedMovingAverage":
        names = sorted(w_masses)
        if sorted(f_table) != names:
            raise ValueError("w_masses and f_table must share atom names")
        masses = tuple((w, float(w_masses[w])) for w in names)
        tables = []
        for w in names:
            entries = tuple(
                sorted(
                    ((t, float(v)) for t, v in f_table[w].items() if v != 0.0),
                    key=lambda kv: (len(kv[0]), kv[0].letters),
                )
            )
            tables.append((w, entries))
        return MixedMovingAverage(d, alpha, masses, tuple(tables))

    @property
    def atoms(self):
        return [w for w, _ in self.w_masses]

    def mass(self, w: str) -> float:
        return dict(self.w_masses)[w]

    def table(self, w: str) -> dict:
        return dict(dict(self.f_table)[w])

    @cached_property
    def support_radius(self) -> int:
        return max((len(t) for _, entries in self.f_table for t, _ in entries), default=0)

    @cached_property
    def kernel_columns(self) -> tuple:
        """Per atom w: (mass, E_m positions of k = t^-1, values f(w, t)), in table order.

        ``values[mask[positions]]`` is the dense f'(w, .) over E_m restricted to
        a trace and read in table order, the order every functional sums in.
        Built once per model; the arrays are read-only because every caller
        shares them.
        """
        lay = ball_layout(self.d, self.support_radius)
        cols = []
        for (_, mass), (_, entries) in zip(self.w_masses, self.f_table):
            pos = np.array([lay.word_to_index(t.inverse()) for t, _ in entries], dtype=np.intp)
            vals = np.array([v for _, v in entries], dtype=float)
            pos.setflags(write=False)
            vals.setflags(write=False)
            cols.append((mass, pos, vals))
        return tuple(cols)

    @cached_property
    def level_profiles(self) -> tuple:
        """Per atom, in table order: {|t|: value} if f(w, .) is constant on
        spheres, else None.  |t^-1| = |t|, so the depths of the column
        positions are the levels."""
        depth = ball_layout(self.d, self.support_radius).depth
        profiles = []
        for _, pos, vals in self.kernel_columns:
            dense = np.zeros(len(depth))
            dense[pos] = vals
            spheres = [dense[depth == j] for j in range(self.support_radius + 1)]
            if any((s != s[0]).any() for s in spheres):
                profiles.append(None)
            else:
                profiles.append({j: float(s[0]) for j, s in enumerate(spheres) if s[0] != 0.0})
        return tuple(profiles)

    def level_profile(self, w: str):
        """{|t|: value} if f(w, .) is constant on spheres, else None."""
        return self.level_profiles[self.atoms.index(w)]

    @property
    def is_level_symmetric(self) -> bool:
        return all(prof is not None for prof in self.level_profiles)

    def noise_scale(self, w: str) -> float:
        """Series-convention SaS scale of one site's noise: (2 mass / c_alpha)^(1/alpha)."""
        return (2.0 * self.mass(w) / stable_tail_constant(self.alpha)) ** (1.0 / self.alpha)

    def norming_constant(self, n: int) -> float:
        """The finite sum over noise sites of the max kernel value over the ball."""
        if ball_size(self.d, n + self.support_radius) > DEFAULT_SITE_BUDGET:
            raise ResourceBudgetError("noise ball too large for exact enumeration")
        # noise site u takes the largest |f(w, v)|^alpha over the v with u = t v, t in E_n
        plan = _MMAPlan(self, n)
        total = 0.0
        for w, (_, gathers) in zip(self.atoms, plan.parts):
            best = np.zeros(plan.noise_ball)
            for val, idx in gathers:
                np.maximum.at(best, idx, abs(val) ** self.alpha)
            # a sequential sum, bit-identical to adding the sites one by one
            total += self.mass(w) * float(np.cumsum(best)[-1])
        return total

    def draw(self, n: int, num_terms: int | None):
        return _MMAPlan(self, n)


def mma_point_mass(d: int, alpha: float, value: float = 1.0, mass: float = 1.0) -> MixedMovingAverage:
    """The one-atom kernel f = value * 1_{t=e}: iid SaS noise site by site."""
    return MixedMovingAverage.from_tables(
        d, alpha, {"w0": mass}, {"w0": {identity(d): value}}
    )


def mma_from_levels(d: int, alpha: float, levels: dict, mass: float = 1.0) -> MixedMovingAverage:
    """Level-symmetric kernel f(t) = levels[|t|] (absent levels are 0)."""
    m = max(levels) if levels else 0
    tab = {}
    for t in enumerate_ball(d, m):
        v = levels.get(len(t), 0.0)
        if v != 0.0:
            tab[t] = v
    return MixedMovingAverage.from_tables(d, alpha, {"w0": mass}, {"w0": tab})


# ---------------------------------------------------------------------------
# Norming constants (alpha-th powers)
# ---------------------------------------------------------------------------

@dataclass
class EstimateCI:
    value: float
    ci_low: float
    ci_high: float
    reps: int


def norming_constant_mc(model: FieldModel, n: int, reps: int, rng: np.random.Generator) -> EstimateCI:
    """Monte Carlo estimate of the alpha-th power of the norming constant.

    For the Pareto field this is E[max of |E_n| iid Pareto(theta)^alpha];
    the CI comes from batch means.
    """
    if reps < 2:
        raise ValueError("need at least 2 replications")
    if not isinstance(model, ParetoField):
        raise UnsupportedModelError("Monte Carlo norming implemented for ParetoField")
    size = ball_size(model.d, n)
    vals = np.empty(reps)
    chunk = max(1, min(reps, 20_000_000 // max(size, 1)))
    done = 0
    while done < reps:
        b = min(chunk, reps - done)
        u = rng.random((b, size))
        m = u.min(axis=1) ** (-1.0 / model.theta)  # max of Pareto = min-uniform power
        vals[done : done + b] = m**model.alpha
        done += b
    mean, lo, hi = batch_mean_ci(vals)
    return EstimateCI(value=mean, ci_low=lo, ci_high=hi, reps=reps)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def _boundary_second_moment(d: int, alpha: float, n: int) -> float:
    """max_{|t| <= n} E[(2d-1)^(-2 B_omega(t)/alpha)] under the boundary measure."""
    rho = (2 * d - 1) ** (2.0 / alpha)
    best = 1.0
    for m in range(1, n + 1):
        # P(confluent >= j) = (2d)^-1 (2d-1)^-(j-1)
        acc = (1.0 - 1.0 / (2 * d)) * rho ** (-m)
        for j in range(1, m):
            pj = (1.0 / (2 * d)) * (2 * d - 1) ** (-(j - 1)) * (1.0 - 1.0 / (2 * d - 1))
            acc += pj * rho ** (2 * j - m)
        acc += (1.0 / (2 * d)) * (2 * d - 1) ** (-(m - 1)) * rho**m
        best = max(best, acc)
    return best


def resolve_num_terms(model: FieldModel, n: int, cfg: SeriesConfig | None) -> int | None:
    """Series length for the model, from the config or the remainder rule.

    Returns None for models simulated exactly (shift, mixed moving
    average).  The rule picks the smallest N whose analytic remainder
    bound is below tail_tolerance times the model's scale of M_n.
    """
    cfg = cfg or SeriesConfig()
    if model.exact:
        return None
    if cfg.num_terms is not None:
        return int(cfg.num_terms)
    f_rms = model.f_rms(n)
    if f_rms is None:
        raise UnsupportedModelError(
            "automatic truncation needs a finite second moment (theta > 2); "
            "set num_terms explicitly"
        )
    return choose_num_terms(model.alpha, f_rms, model.scale(n), tol=cfg.tail_tolerance)


class _BoundaryPlan:
    """Draw plan for the boundary field over E_n, built once per simulator.

    Shared rays: every site uses the same atoms (Gamma_i, eps_i, omega_i).
    A site whose confluent length with omega_i is c receives
    (2d-1)^(2c/alpha), the sum over the prefixes of omega_i of length
    j <= c of the increments q^j - q^(j-1), q = (2d-1)^(2/alpha).  The
    canonical preorder makes the subtree of every prefix one contiguous
    range, so a replication is one difference array: the weight sum s at 0,
    then per level j every +val_j at the prefix starts b_j and every -val_j
    at b_j + subtree[j], added in that order by ``np.add.at``.  The plan
    fixes the increments, the subtree widths and the scale
    c_alpha^(1/alpha) (2d-1)^(-|t|/alpha).

    A draw takes all LePage weights first, then the rays as (levels, N)
    matrices of child ranks: 2d choices for the first letter, 2d - 1 for
    each later one.  Bounded integers are drawn element by element, so one
    matrix is the same stream as one call per level.  The child of rank r
    of the node at index b sits at b + 1 + r * subtree[j], so a cumulative
    sum down the matrix gives the prefix starts.
    """

    def __init__(self, model: BoundaryField, n: int, num_terms: int):
        if num_terms < 1:
            raise ValueError("the series needs at least one term")
        d, alpha = model.d, model.alpha
        lay = ball_layout(d, n)
        self.alpha = alpha
        self.n = n
        self.num_terms = num_terms
        self.size = lay.size
        self.letters = 2 * d
        q = (2 * d - 1) ** (2.0 / alpha)
        self.increments = np.array([q ** (j + 1) - q**j for j in range(n)])[:, None]
        self.widths = np.array(lay.subtree[1 : n + 1], dtype=np.intp)[:, None]
        self.const = stable_tail_constant(alpha) ** (1.0 / alpha)
        self.depth_scale = (2.0 * d - 1.0) ** (-lay.depth / alpha)
        self.depth_scale.setflags(write=False)
        # groups of levels keep the update buffers near 2 * RAY_BLOCK entries;
        # every draw reuses them, so a plan serves one draw at a time
        self.group = max(1, min(n, RAY_BLOCK // num_terms))
        self.idx = np.empty((self.group, 2, num_terms), dtype=np.intp)
        self.upd = np.empty((self.group, 2, num_terms))

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        """One replication over E_n, in canonical order."""
        (wts,) = lepage_weights(rng, self.alpha, self.num_terms)
        acc = np.zeros(self.size + 1)  # the last bin takes the ends of the last subtrees
        acc[0] = wts.sum()
        prev = 0  # the prefix starts of the level before: the root
        for lo in range(0, self.n, self.group):
            hi = min(lo + self.group, self.n)
            idx, upd = self.idx[: hi - lo], self.upd[: hi - lo]
            starts = idx[:, 0]
            first = int(lo == 0)  # the root has 2d children, every other node 2d - 1
            if first:
                starts[0] = rng.integers(0, self.letters, size=len(wts))
            starts[first:] = rng.integers(0, self.letters - 1, size=(hi - lo - first, len(wts)))
            starts *= self.widths[lo:hi]
            starts += 1
            for row in starts:  # row by row: a cumsum down the strided columns is slower
                row += prev
                prev = row
            np.add(starts, self.widths[lo:hi], out=idx[:, 1])
            np.multiply(wts, self.increments[lo:hi], out=upd[:, 0])
            np.negative(upd[:, 0], out=upd[:, 1])
            np.add.at(acc, idx.ravel(), upd.ravel())
            prev = prev.copy()  # the next group overwrites the buffer
        out = np.cumsum(acc[:-1])
        out *= self.const
        out *= self.depth_scale
        return out


def _shift_values(model: ShiftField, n: int, rng) -> np.ndarray:
    lay = ball_layout(model.d, n)
    line = sample_sas(rng, model.alpha, 1.0, size=2 * n + 1)
    return line[lay.a1_exponent + n]


def _pareto_values(model: ParetoField, n: int, num_terms: int, rng) -> np.ndarray:
    lay = ball_layout(model.d, n)
    acc = np.zeros(lay.size)
    # blocks keep the (block x sites) matrix of Pareto draws near 5M entries
    block = max(1, 5_000_000 // lay.size)
    for wts in lepage_weights(rng, model.alpha, num_terms, block):
        acc += wts @ rng.random((len(wts), lay.size)) ** (-1.0 / model.theta)
    return stable_tail_constant(model.alpha) ** (1.0 / model.alpha) * acc


class _MMAPlan:
    """Gather indices for exact mixed-moving-average simulation.

    ``parts`` holds, per atom w, the noise scale and one (value, idx) pair per
    kernel entry (v, value): ``idx[k]`` is the index in E_{n+m} of t_k * v,
    with t_k the k-th site of E_n.  The sites of E_n are the nodes of depth
    <= n of the E_{n+m} layout, in the same canonical preorder.

    Every draw fills the plan's noise and gather buffers in place, so a plan
    serves one draw at a time; the field it returns is a fresh array.
    """

    def __init__(self, model: MixedMovingAverage, n: int):
        lay = ball_layout(model.d, n + model.support_radius)
        self.alpha = model.alpha
        self.noise_ball = lay.size
        sites = np.flatnonzero(lay.depth <= n)
        self.num_sites = len(sites)
        self.parts = [
            (
                model.noise_scale(w),
                [
                    (val, lay.right_translate(sites, v).astype(np.intp))
                    for v, val in model.table(w).items()
                ],
            )
            for w in model.atoms
        ]
        self.noise = np.empty(self.noise_ball)
        self.gathered = np.empty(self.num_sites)

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        """One exact replication over E_n: fresh noise per atom, gathered per kernel entry."""
        out = np.zeros(self.num_sites)
        tmp = self.gathered
        for scale, gathers in self.parts:
            z = sample_sas(rng, self.alpha, scale, size=self.noise_ball, out=self.noise)
            for val, idx in gathers:
                # the indices lie in E_{n+m} by construction; mode="raise" would
                # gather through a temporary copy
                np.take(z, idx, out=tmp, mode="clip")
                tmp *= val
                out += tmp
        return out


class FieldSimulator:
    """Reusable per-model simulation plan for repeated replications.

    Resolves the series length once and precomputes gather structures, so
    replication loops pay only the per-draw cost.
    """

    def __init__(
        self,
        model: FieldModel,
        n: int,
        cfg: SeriesConfig | None = None,
        site_budget: int = DEFAULT_SITE_BUDGET,
    ):
        cfg = cfg or SeriesConfig()
        radius = n + model.support_radius
        if ball_size(model.d, radius) > site_budget:
            raise ResourceBudgetError(
                f"|E_{radius}| = {ball_size(model.d, radius)} exceeds site budget {site_budget}"
            )
        self.model = model
        self.n = n
        self.num_terms = resolve_num_terms(model, n, cfg)
        self._draw = model.draw(n, self.num_terms)
        self.meta = {"num_terms": self.num_terms}
        f_rms = model.f_rms(n)
        if f_rms is not None:
            self.meta["remainder_bound"] = stable_tail_constant(model.alpha) ** (
                1.0 / model.alpha
            ) * lepage_remainder_bound(self.num_terms, model.alpha, f_rms)
        if model.exact:
            self.meta["exact"] = True

    def values(self, rng: np.random.Generator) -> np.ndarray:
        return self._draw(rng)


# ---------------------------------------------------------------------------
# Replicated maxima experiments
# ---------------------------------------------------------------------------

def scaling_constant(model: FieldModel, n: int) -> float:
    """The normalisation applied to M_n: (2d-1)^(n/alpha), or |E_n|^(1/theta)."""
    return model.scale(n)


@dataclass
class MaximaResult:
    n: int
    reps: int
    scale: float
    num_terms: int | None
    records: list  # (rep, ball max, sphere max, scaled ball max)
    quantiles: dict
    ecdf: list | None
    ks_distance: float | None
    elapsed_seconds: float

    @property
    def scaled(self) -> np.ndarray:
        return np.array([r[3] for r in self.records])


def _maxima_chunk(payload):
    model, n, cfg, seed, reps_slice, site_budget = payload
    sim = FieldSimulator(model, n, cfg, site_budget)
    sphere = np.flatnonzero(ball_layout(model.d, n).depth == n)
    out = []
    for rep in reps_slice:
        mags = np.abs(sim.values(substream(seed, "maxima", rep)))
        out.append((rep, float(mags.max()), float(mags[sphere].max())))
    return out


def maxima_experiment(
    model: FieldModel,
    n: int,
    reps: int,
    cfg: SeriesConfig | None,
    seed: int,
    s_grid=None,
    workers: int = 1,
    site_budget: int = DEFAULT_SITE_BUDGET,
) -> MaximaResult:
    """Replicated partial maxima M_n with scaling, ECDF table and KS diagnostic.

    Replications are independent units on disjoint RNG streams keyed by
    (seed, rep); the result is identical for any worker count.  The KS
    distance is taken against the model's limit CDF when it has one.
    """
    if reps < 2:
        raise ValueError("need at least 2 replications")
    t0 = time.monotonic()
    cfg = cfg or SeriesConfig()
    # resolve the series length once so every worker sees the same plan
    cfg = SeriesConfig(
        num_terms=resolve_num_terms(model, n, cfg), tail_tolerance=cfg.tail_tolerance
    )
    workers = max(1, workers)
    rep_ids = list(range(reps))
    chunks = [(model, n, cfg, seed, rep_ids[i::workers], site_budget) for i in range(workers)]
    if workers == 1:
        raw = _maxima_chunk(chunks[0])
    else:
        from concurrent.futures import ProcessPoolExecutor  # imported here: it loads multiprocessing

        raw = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_maxima_chunk, chunks):
                raw.extend(part)
        raw.sort(key=lambda r: r[0])
    scale = scaling_constant(model, n)
    records = [(rep, bm, sm, bm / scale) for rep, bm, sm in raw]
    scaled = np.array([r[3] for r in records])
    qs = {q: float(np.quantile(scaled, q)) for q in (0.1, 0.25, 0.5, 0.75, 0.9)}
    limit_cdf = model.limit_cdf()
    ecdf = None
    if s_grid is not None:
        ecdf = empirical_cdf_table(scaled, s_grid)
    ks = None
    if limit_cdf is not None:
        ks = ks_distance(scaled, limit_cdf)
    return MaximaResult(
        n=n,
        reps=reps,
        scale=scale,
        num_terms=cfg.num_terms,
        records=records,
        quantiles=qs,
        ecdf=ecdf,
        ks_distance=ks,
        elapsed_seconds=time.monotonic() - t0,
    )
