"""Built-in stationary SaS field models on the free group and their maxima.

Four models are provided.

* ``BoundaryField``: the field generated by the boundary action with the
  uniform boundary measure and kernel 1.  On E_n the integrand
  (2d-1)^(-B_omega(t)/alpha) depends on omega only through its length-n
  prefix, so the field is exactly the finite cylinder sum
  X_t = sum_{g in C_n} |C_n|^(-1/alpha) (2d-1)^(-B_g(t)/alpha) Z_g
  with iid SaS(1) noises Z_g, one per cylinder of length n; no series is
  truncated.
* ``ShiftField``: the action where a_1 shifts the real line by 1 and the
  other generators act trivially, with kernel 1_(0,1].  The field factors
  through the a_1-exponent homomorphism onto Z and the induced integer-
  indexed values are iid SaS(1); we simulate the reduced form.
* ``ParetoField``: iid Pareto(theta) coordinate projections under the
  shift over the whole group (theta > alpha), simulated by the series with
  product-Pareto configurations, materialising only the ball coordinates.
  It is the one model with a truncated series.
* ``MixedMovingAverage``: X_t = sum_{w,u} f(w, t^-1 u) Z_{w,u} with a
  finitely supported tabulated kernel.  This simulation is exact (no
  series truncation): the noise variables are the per-site sums of the
  driving Poisson measure, iid SaS with scale (2 mass / c_alpha)^(1/alpha)
  per unit site, matching the series convention in which the marginal
  tail per site is 2 mass |f|^alpha x^-alpha.  The noise of an atom's outer
  shell C_(n+m_w) is read by one site each, so each site of C_n draws its
  terms from that shell as one SaS variate, with their alpha-norm as scale.
  The other noise nodes outside E_n fall into classes that the sites read
  alike, and each class draws its sum as one SaS variate.  A draw is
  X = B Z with Z one vector of iid SaS(1) slots for all atoms, filled by
  one ``sample_sas`` call: the noise scale, |class|^(1/alpha) and the
  outer-shell alpha-norms all live in the values B reads the slots at.
  The draw plan lives in ``mma_plan``.

Each model carries its own behaviour: the scale of the ball maximum, its
truncated series if it has one (``series``), the exact norming constant
(``norming_constant``: the alpha-th power of the integral of the
ball-maximum of |f_t|, in closed form or by finite enumeration), the limit
CDF, the support radius of its kernel and its per-replication draw.
:class:`FieldModel` holds the defaults.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, repeat

import numpy as np

from .errors import ConfigError, ResourceBudgetError
from .free_group import ball_layout, ball_size, identity, sphere_size
from .mma_plan import _MMAPlan, _mma_slots
from .rng import substream
from .stable import (
    choose_num_terms,
    lepage_remainder_bound,
    lepage_weights,
    sample_sas,
    scaled_frechet_cdf,
    stable_tail_constant,
)
from .stats import empirical_cdf_table, ks_distance, quantiles

DEFAULT_SITE_BUDGET = 1_000_000  # largest ball a draw lays out, E_(max(n + m - 1, n)) for radius m
# replications per FieldSimulator.maxima call in a maxima run, for every model; at n = 8 the
# boundary plan's 16 rows of 13,121 levels fit a 2 MB L2, and 32 rows were slower
MAXIMA_BATCH = 16


class FieldModel:
    """Defaults for the field models, each of which overrides what differs.

    The defaults describe a field drawn exactly, with no series, no kernel
    beyond the site itself, the ball-maximum scale (2d-1)^(n/alpha) and no
    known limit law.  Every model gives its own exact ``norming_constant(n)``.
    """

    support_radius = 0  # the noise sites of E_n lie in E_(n + support_radius)

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("rank must be >= 2")
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("alpha must lie in (0, 2)")

    def scale(self, n: int) -> float:
        """The normalisation applied to the ball maximum M_n."""
        return (2 * self.d - 1) ** (n / self.alpha)

    def series(self, n: int, num_terms: int | None):
        """(series length, remainder bound) over E_n, or None for a field drawn exactly.

        An exact draw does not read ``num_terms``.
        """
        return None

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
    """The boundary-action field, drawn exactly as a sum over the cylinders of C_n.

    ``draw`` returns a :class:`_BoundaryPlan`, which fixes the level layout
    and the recursion factors once per simulator; each replication then
    draws one SaS noise per vertex of C_n and sums the field one tree level
    at a time.
    """

    d: int
    alpha: float

    def norming_constant(self, n: int):
        return (2 * self.d - 1) ** n

    def limit_cdf(self):
        return partial(scaled_frechet_cdf, alpha=self.alpha, c=stable_tail_constant(self.alpha))

    def draw(self, n: int, num_terms: int | None):
        return _BoundaryPlan(self, n)


@dataclass(frozen=True)
class ShiftField(FieldModel):
    d: int
    alpha: float

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
        if not self.alpha < self.theta < math.inf:
            raise ValueError("Pareto exponent must be finite and exceed alpha")

    def scale(self, n: int) -> float:
        return ball_size(self.d, n) ** (1.0 / self.theta)

    def norming_constant(self, n: int) -> float:
        """E[max of |E_n| iid P^alpha] = N B(N, 1 - alpha/theta), N = |E_n|.

        P^alpha is Pareto(theta/alpha), whose largest of N copies has that
        mean.  The beta function is taken at 30 digits: the float route
        through lgamma differences loses all digits by |E_20| at d = 3.
        """
        import mpmath as mp

        size = ball_size(self.d, n)
        with mp.workdps(30):
            return float(size * mp.beta(size, 1 - mp.mpf(self.alpha) / self.theta))

    def series(self, n: int, num_terms: int | None):
        """``num_terms``, or else the fixed rule's length, and its remainder bound.

        The rule picks the smallest N whose bound is below ``TAIL_TOLERANCE``
        times the scale of M_n.  The bound is c_alpha^(1/alpha) times
        :func:`lepage_remainder_bound`, at any site of E_n; it is None for
        theta <= 2, where E[P^2] is infinite and the rule cannot run, so
        there a missing ``num_terms`` is a ``ConfigError``.
        """
        if self.theta <= 2.0:
            if num_terms is None:
                msg = "theta <= 2 has no finite second moment, so no rule sets params.num_terms"
                raise ConfigError(msg, ["params.num_terms"])
            return int(num_terms), None
        rms = math.sqrt(self.theta / (self.theta - 2.0))  # E[P^2] = theta / (theta - 2)
        if num_terms is None:
            num_terms = choose_num_terms(self.alpha, rms, self.scale(n))
        c = stable_tail_constant(self.alpha) ** (1.0 / self.alpha)
        return int(num_terms), c * lepage_remainder_bound(num_terms, self.alpha, rms)

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

    def __post_init__(self):
        super().__post_init__()
        for _, mass in self.w_masses:
            if not 0 < mass < math.inf:
                raise ValueError("atom masses must be finite and > 0")
        if not all(math.isfinite(v) for _, entries in self.f_table for _, v in entries):
            raise ValueError("kernel values must be finite")

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

    @property
    def is_level_symmetric(self) -> bool:
        return all(prof is not None for prof in self.level_profiles)

    def noise_scale(self, w: str) -> float:
        """Series-convention SaS scale of one site's noise: (2 mass / c_alpha)^(1/alpha)."""
        return (2.0 * self.mass(w) / stable_tail_constant(self.alpha)) ** (1.0 / self.alpha)

    def norming_constant(self, n: int) -> float:
        """The finite sum over noise sites of the max kernel value over the ball."""
        _check_site_budget(self, n)
        # noise site u takes the largest |f(w, v)|^alpha over the v with u = t v, t in E_n;
        # a class's nodes share its slot's largest term, and a site of the outer shell,
        # read through the zero slot ``size``, has one such v; an atom with no entry adds 0
        total = 0.0
        atoms = (w for w, entries in self.f_table if entries)
        for w, (_, size, classes, values, _, table) in zip(atoms, _mma_slots(self, n)):
            slots = table(0, ball_size(self.d, n))
            terms = [abs(val) ** self.alpha for val in values]
            best = np.zeros(size + 2)
            for row, term in zip(slots, terms):  # a scalar per row keeps ufunc.at on its fast path
                np.maximum.at(best, row, term)
            outer = map(repeat, terms, np.count_nonzero(slots == size, axis=1).tolist())
            own = size - sum(hi - lo for lo, hi, _, _ in classes)
            members = [best[lo:hi].repeat(c).tolist() for lo, hi, c, _ in classes]
            total += self.mass(w) * math.fsum(chain(best[:own].tolist(), *members, *outer))
        return total

    def draw(self, n: int, num_terms: int | None):
        return _MMAPlan(self, n)


def mma_point_mass(d: int, alpha: float, value: float = 1.0) -> MixedMovingAverage:
    """The one-atom kernel f = value * 1_{t=e}: iid SaS noise site by site."""
    return MixedMovingAverage.from_tables(d, alpha, {"w0": 1.0}, {"w0": {identity(d): value}})


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def approximations(model: FieldModel, n: int, num_terms: int | None) -> dict:
    """The approximations of a run over E_n: series length, remainder bound and scale of M_n.

    ``num_terms < 1`` is a ``ValueError``.  The length and the bound come
    from the model's ``series``; both are None for a field drawn exactly, and
    the bound is None when it is infinite or absent.
    """
    if num_terms is not None and num_terms < 1:
        raise ValueError("num_terms must be >= 1")
    length, bound = model.series(n, num_terms) or (None, None)
    return {
        "num_terms": length,
        "remainder_bound": bound if bound is not None and math.isfinite(bound) else None,
        "scale": model.scale(n),
    }


class _BoundaryPlan:
    """Exact draw plan for the boundary field over E_n, built once per simulator.

    A leaf g of C_n and a site t of depth k with confluent length c give
    B_g(t) = k - 2c, so the term of g in X_t is rho^(2c - k) |C_n|^(-1/alpha) Z_g
    with rho = (2d-1)^(1/alpha).  With S(u) the sum of |C_n|^(-1/alpha) Z_g
    over the leaves g below u, the values follow one level recursion:
    X_e = S(e), and for |t| = k >= 1

        X_t = rho^-1 X_(parent(t)) + (rho^k - rho^(k-2)) S(t),

    since a leaf below t is confluent with t for k letters and with its
    parent for k - 1, and every other leaf is confluent with both for the
    same length.  The largest factor is rho^n, the scale of M_n, and every
    partial sum stays on the scale of the field itself.

    The plan keeps one row per replication of a pass, each row holding the
    levels side by side, level k the |C_k| nodes of depth k in rank-major
    order: the child of rank r of the node in slot s of level k - 1 sits in
    slot s + r |C_(k-1)|.  So the children of one rank fill a
    (rows, |C_(k-1)|) slice of the pass, laid out as the parents' level:
    the rank slices add up, one after another, to the parents' subtree
    sums, and the parents, times rho^-1 in a scratch buffer, are added to
    each rank slice in turn.  Every numpy call of the level work acts on
    such a 2-D slice or on a whole level.  One ``sample_sas`` call fills
    the leaves of every row of a pass, each row from its own replication's
    generator; the level work then runs once for the whole pass.  Every
    step acts on each row alone, element by element, so a replication's
    values do not depend on the other rows of its pass.  A maxima run
    passes ``MAXIMA_BATCH`` = 16 replications at a time, so the fixed cost
    of each numpy call of a pass, most of the cost on the small top levels,
    is paid once per 16 replications; at n = 8 the 16 rows take 1.7 MB.

    ``__call__`` scatters one replication into canonical preorder through
    the plan's ``order``.  ``maxima`` reads the row maxima of |X| as
    max(max X, -min X), with neither the scatter nor an abs pass; the
    sphere is the last level.  The buffers are reused, so a plan serves one
    pass at a time.
    """

    def __init__(self, model: BoundaryField, n: int):
        d, alpha = model.d, model.alpha
        self.alpha = alpha
        self.factors = [
            (2 * d - 1) ** (k / alpha) - (2 * d - 1) ** ((k - 2) / alpha) for k in range(1, n + 1)
        ]
        self.rho_inv = (2 * d - 1) ** (-1.0 / alpha)
        sizes = [sphere_size(d, k) for k in range(n + 1)]
        # |C_n|^(-1/alpha) = rho^-n (|C_n| / (2d-1)^n)^(-1/alpha), a float wherever rho^n is
        self.noise_scale = (sizes[n] / (2 * d - 1) ** n) ** (-1.0 / alpha) / model.scale(n)
        self.bounds = np.cumsum([0] + sizes)  # level k fills bounds[k]:bounds[k + 1]
        # per level k >= 1: its slice, its child ranks and its parents' slice
        self.families = [
            (self.bounds[k], self.bounds[k + 1], sizes[k] // sizes[k - 1], self.bounds[k - 1])
            for k in range(1, n + 1)
        ]
        # preorder index of every slot: the child of rank r of index b sits at b + 1 + r subtree[k]
        sub = ball_layout(d, n).subtree
        order = [np.zeros(1, dtype=np.intp)]
        for k, (_, _, ranks, _) in enumerate(self.families, start=1):
            order.append((order[-1] + 1 + np.arange(ranks)[:, None] * sub[k]).ravel())
        self.order = np.concatenate(order)
        self._grow(0)

    def _grow(self, rows: int) -> None:
        """Buffers for passes of up to ``rows`` replications."""
        *parents, leaves = np.diff(self.bounds)
        self.levels = np.empty((rows, self.bounds[-1]))
        self.scaled = np.empty((rows, max(parents, default=0)))  # rho^-1 times a level's parents
        # the uniforms, exponentials and scratch terms of sample_sas, which alpha = 1 does without
        self.work = None if self.alpha == 1.0 else np.empty((3, rows, leaves))

    def _levels(self, rngs) -> np.ndarray:
        """X for one replication per generator, one row each, in the plan's buffer."""
        rows = len(rngs)
        if len(self.levels) < rows:
            self._grow(rows)
        lv = self.levels[:rows]
        work = None if self.work is None else self.work[:, :rows]
        leaves = lv[:, self.bounds[-2] :]
        sample_sas(rngs, self.alpha, self.noise_scale, size=leaves.shape, out=leaves, work=work)
        # per level: the whole level, its (rows, |C_(k-1)|) rank slices and its parents
        blocks = [
            (lv[:, lo:hi], [lv[:, c : c + lo - up] for c in range(lo, hi, lo - up)], lv[:, up:lo])
            for lo, hi, _, up in self.families
        ]
        for _, (first, second, *rest), parents in reversed(blocks):  # subtree sums, bottom-up
            np.add(first, second, out=parents)
            for child in rest:
                parents += child
        for (level, children, parents), factor in zip(blocks, self.factors):  # X, top-down
            level *= factor
            scaled = np.multiply(parents, self.rho_inv, out=self.scaled[:rows, : parents.shape[1]])
            for child in children:
                child += scaled
        return lv

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        """One replication over E_n, in canonical order."""
        out = np.empty(len(self.order))
        out[self.order] = self._levels([rng])[0]
        return out

    def maxima(self, rngs) -> list:
        """(ball max, sphere max) of |X_t| for each generator's replication."""
        lv, split = self._levels(rngs), self.bounds[-2]
        sphere = _row_abs_max(lv[:, split:])
        ball = np.maximum(sphere, _row_abs_max(lv[:, :split])) if split else sphere
        return list(zip(ball.tolist(), sphere.tolist()))


def _row_abs_max(a: np.ndarray) -> np.ndarray:
    """max |a| of each row, as max(max a, -min a): the same floats with no abs pass."""
    return np.maximum(a.max(axis=1), -a.min(axis=1))


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


def _check_site_budget(model: FieldModel, n: int):
    """Raise ``ResourceBudgetError`` if a draw over E_n would lay out more than
    ``DEFAULT_SITE_BUDGET`` sites, in E_(max(n + m - 1, n)) for support radius m."""
    radius = max(n + model.support_radius - 1, n)
    sites = ball_size(model.d, radius)
    if sites > DEFAULT_SITE_BUDGET:
        raise ResourceBudgetError(
            f"|E_{radius}| = {sites} exceeds site budget {DEFAULT_SITE_BUDGET}"
        )


class FieldSimulator:
    """Reusable per-model simulation plan for repeated replications.

    Builds its ``meta``, the record of :func:`approximations`, once and
    precomputes the draw plan, so replication loops pay only the per-draw cost.
    Above ``DEFAULT_SITE_BUDGET`` sites in the ball the draw lays out,
    E_(max(n + m - 1, n)) for support radius m, it raises
    ``ResourceBudgetError``: an MMA draw holds the noise inside its outer
    shell C_(n+m), which it draws one variate per site of C_n.
    """

    def __init__(self, model: FieldModel, n: int, num_terms: int | None = None):
        _check_site_budget(model, n)
        self.model = model
        self.n = n
        self.meta = approximations(model, n, num_terms)
        self.num_terms = self.meta["num_terms"]
        self._draw = model.draw(n, self.num_terms)

    def values(self, rng: np.random.Generator) -> np.ndarray:
        return self._draw(rng)

    def maxima(self, rngs) -> list:
        """(ball max, sphere max) of |X_t| for one replication per generator.

        A draw that has its own ``maxima`` (the boundary plan) reduces the
        whole batch without building the field; otherwise the maxima of
        ``|values|``, one replication at a time, the sphere read through
        indices taken once per simulator.  Either way the floats are those
        of reducing ``values``.
        """
        own = getattr(self._draw, "maxima", None)
        if own is not None:
            return own(rngs)
        out = []
        for rng in rngs:
            mags = np.abs(self._draw(rng))
            out.append((float(mags.max()), float(mags[self._sphere].max())))
        return out

    @cached_property
    def _sphere(self) -> np.ndarray:
        return np.flatnonzero(ball_layout(self.model.d, self.n).depth == self.n)


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
    approximations: dict  # num_terms, remainder_bound and the scale of M_n
    records: list  # (rep, ball max, sphere max, scaled ball max)
    quantiles: dict
    ecdf: list | None
    ks_distance: float | None
    elapsed_seconds: float

    @property
    def scaled(self) -> np.ndarray:
        return np.array([r[3] for r in self.records])


def _maxima_chunk(payload):
    model, n, num_terms, seed, reps_slice = payload
    sim = FieldSimulator(model, n, num_terms)
    out = []
    for lo in range(0, len(reps_slice), MAXIMA_BATCH):
        reps = reps_slice[lo : lo + MAXIMA_BATCH]
        pairs = sim.maxima([substream(seed, "maxima", rep) for rep in reps])
        out.extend((rep, *pair) for rep, pair in zip(reps, pairs))
    return out


def maxima_experiment(
    model: FieldModel,
    n: int,
    reps: int,
    num_terms: int | None,
    seed: int,
    s_grid=None,
    workers: int = 1,
) -> MaximaResult:
    """Replicated partial maxima M_n with scaling, ECDF table and KS diagnostic.

    Replications are independent units on disjoint RNG streams keyed by
    (seed, rep); the result is identical for any worker count.  The KS
    distance is taken against the model's limit CDF when it has one.
    The approximations are built once, here, and every worker gets the
    series length as an int.  At most ``reps`` workers start.
    """
    if reps < 2:
        raise ValueError("need at least 2 replications")
    t0 = time.monotonic()
    approx = approximations(model, n, num_terms)
    workers = max(1, min(workers, reps))
    rep_ids = list(range(reps))
    chunks = [(model, n, approx["num_terms"], seed, rep_ids[i::workers]) for i in range(workers)]
    if workers == 1:
        raw = _maxima_chunk(chunks[0])
    else:
        from concurrent.futures import ProcessPoolExecutor  # imported here: it loads multiprocessing

        raw = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_maxima_chunk, chunks):
                raw.extend(part)
        raw.sort(key=lambda r: r[0])
    scale = approx["scale"]
    records = [(rep, bm, sm, bm / scale) for rep, bm, sm in raw]
    scaled = np.array([r[3] for r in records])
    levels = (0.1, 0.25, 0.5, 0.75, 0.9)
    qs = dict(zip(levels, quantiles(scaled, levels)))
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
        approximations=approx,
        records=records,
        quantiles=qs,
        ecdf=ecdf,
        ks_distance=ks,
        elapsed_seconds=time.monotonic() - t0,
    )
