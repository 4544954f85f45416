"""The randomly thinned cluster Poisson limit of ball-indexed extremes.

For a mixed moving average with finitely supported kernel f (support
radius m), the point processes N_n = sum_{t in E_n} delta at
(2d-1)^(-n/alpha) X_t converge to a cluster Poisson limit whose atoms are
kernels thinned to a random ray subgraph: an atom at amplitude j with
site u != e spawns the cluster {j f'(w, k) : k in xi}, xi drawn at anchor
level |u|, while atoms at u = e are amplified by (d/(d-1))^(1/alpha) and
use a random negative anchor level with the geometric law anchor_pmf.
Here f'(w, k) = f(w, k^-1).

All level sums run over anchor levels <= m only: for higher levels the
subgraph misses the kernel support entirely.  Levels <= -m contribute a
common, subgraph-independent term (the subgraph then covers the whole
support ball), so the negative tail is summed in closed form.  Each of the
2m intermediate levels is an exact expectation over the trace classes of
its subgraphs: the vertex where the path meets C_m is uniform there, and
only its ancestor on C_K, K = clip(ceil((m + level)/2), 0, m), matters, so
a level has |C_K| classes of probability 1/|C_K| (one class table per
(d, m), :func:`subgraphs.trace_class_table`).  Above ``CLASS_TABLE_BUDGET``
cells, ``ResourceBudgetError`` is raised before any level is evaluated.

The Laplace functional is evaluated for piecewise-constant test functions
vanishing near zero, with the amplitude integral done exactly by one
sorted sweep over its breakpoints (the intensity of |x| > u is 2 u^-alpha
per unit mass).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError
from .free_group import sphere_size
from .fields import FieldSimulator, MixedMovingAverage, SeriesConfig
from .rng import substream
from .subgraphs import (
    _exact_enumeration_feasible,
    class_table_budget_error,
    sample_anchor,
    sample_ray_path,
    subgraph_sphere_count,
    trace_class_table,
    trace_masks,
)


@dataclass
class PointMeasure:
    """A finite multiset of real atoms above a truncation threshold."""

    atoms: np.ndarray
    delta: float

    def count_above(self, c: float) -> int:
        return int(np.sum(np.abs(self.atoms) > c))

    def __len__(self):
        return len(self.atoms)


class PiecewiseConstant:
    """Nonnegative piecewise-constant test function on the punctured line.

    ``breaks`` are strictly increasing (0 may not be a breakpoint) and
    ``values[i]`` is the value on (breaks[i-1], breaks[i]]; the interval
    containing 0 must carry the value 0.
    """

    def __init__(self, breaks, values):
        self.breaks = tuple(float(b) for b in breaks)
        self.values = tuple(float(v) for v in values)
        if len(self.values) != len(self.breaks) + 1:
            raise ValueError("need len(values) == len(breaks) + 1")
        if any(b2 <= b1 for b1, b2 in zip(self.breaks, self.breaks[1:])):
            raise ValueError("breaks must be strictly increasing")
        if any(v < 0 for v in self.values):
            raise ValueError("test function must be nonnegative")
        if 0.0 in self.breaks:
            raise ValueError("0 may not be a breakpoint")
        i0 = int(np.searchsorted(self.breaks, 0.0, side="left"))
        if self.values[i0] != 0.0:
            raise ValueError("test function must vanish on a neighbourhood of 0")

    @staticmethod
    def threshold(theta: float, s: float) -> "PiecewiseConstant":
        """theta * 1(|x| > s)."""
        if s <= 0:
            raise ValueError("threshold must be positive")
        return PiecewiseConstant((-s, s), (theta, 0.0, theta))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.breaks, x, side="left")
        out = np.asarray(self.values)[idx]
        return out if out.ndim else float(out)


def nu_alpha_integral(alpha: float, coeffs, g: PiecewiseConstant) -> float:
    """integral of (1 - exp(-sum_k g(x c_k))) d nu_alpha(x), exactly.

    One sorted sweep per side s of the line.  As t grows from 0, s t c
    leaves the piece of 0, where g vanishes, and crosses break b at
    t = b / (s c) > 0, moving into the next piece away from 0.  Between
    consecutive events the integrand is constant, and each piece of the
    sweep has power-law mass t_i^-alpha - t_(i+1)^-alpha.  The events
    carry the moves of the piece counts, whose running sums stay exact
    integers, so h = sum_k g(s t c_k) is a sum of nonnegative terms and
    does not cancel.
    """
    cs = np.asarray(coeffs, dtype=float)
    cs = cs[cs != 0.0]
    breaks = np.asarray(g.breaks)
    values = np.asarray(g.values)
    left = np.arange(len(breaks))[:, None]  # piece i lies left of break i, piece i + 1 right
    total = 0.0
    for sc in (cs, -cs):
        t = breaks[:, None] / sc[None, :]
        hit = t > 0
        order = np.argsort(t[hit])
        ts = t[hit][order]
        leave = np.where(sc > 0, left, left + 1)[hit][order]
        enter = np.where(sc > 0, left + 1, left)[hit][order]
        h = np.zeros(len(ts))
        for piece, v in enumerate(values):
            if v != 0.0:
                h += v * np.cumsum((enter == piece).astype(np.int64) - (leave == piece))
        mass = ts ** (-alpha)
        mass[:-1] -= mass[1:]  # t_i^-alpha - t_(i+1)^-alpha; the last piece reaches infinity
        total += float(np.sum(-np.expm1(-h) * mass))
    return total


# ---------------------------------------------------------------------------
# Subgraph-restriction machinery for the level sums
# ---------------------------------------------------------------------------

def level_weight(level: int, d: int) -> float:
    """2d (2d-1)^(level-1): the sphere size for positive levels and its
    geometric continuation for the nonpositive ones."""
    return 2.0 * d * (2.0 * d - 1.0) ** (level - 1)


def negative_tail_weight(m: int, d: int) -> float:
    """sum of level weights over levels <= -m (closed form)."""
    return d / (d - 1.0) * (2.0 * d - 1.0) ** (-m)


def exact_restriction_classes(d: int, level: int, m: int):
    """Exact law of the subgraph's trace on E_m at the given anchor level.

    Returns [(Fraction probability, read-only boolean mask over E_m in
    layout order)]: the level's rows of :func:`subgraphs.trace_class_table`,
    one per vertex of C_K, each of probability 1/|C_K|.  The table raises
    ``ResourceBudgetError`` above ``CLASS_TABLE_BUDGET`` cells.
    """
    rows, bounds, _ = trace_class_table(d, m)
    i = max(level, -m) + m
    return [(Fraction(1, bounds[i + 1] - bounds[i]), r) for r in rows[bounds[i] : bounds[i + 1]]]


def _over_levels(d: int, m: int, term) -> float:
    """weight * term(level) summed over the anchor levels that reach E_m.

    Levels <= -m share one term, weighted by the closed-form negative tail;
    the levels -m+1..m follow one by one, in that order.
    """
    total = negative_tail_weight(m, d) * term(-m)
    for level in range(-m + 1, m + 1):
        total += level_weight(level, d) * term(level)
    return total


def level_sum(model: MixedMovingAverage, per_atom) -> float:
    """sum over anchor levels of weight * E_xi[ sum_w mass(w) per_atom(f'(w, .) on xi) ].

    ``per_atom`` maps one atom's kernel values, restricted to the trace
    of xi on E_m and read in table order, to a float.  Levels above the
    support radius m vanish because the subgraph misses the support;
    levels <= -m share the full-ball trace and are aggregated in closed
    form.  The intermediate levels are exact sums over their trace
    classes; the class table they share is checked against
    ``CLASS_TABLE_BUDGET`` before any level is evaluated.
    """
    d, m = model.d, model.support_radius
    if not _exact_enumeration_feasible(d, m):
        raise class_table_budget_error(d, m)
    def func(mask) -> float:
        acc = 0.0
        for mass, pos, vals in model.kernel_columns:
            acc += mass * per_atom(vals[mask[pos]])
        return acc

    def term(level) -> float:
        return sum(float(p) * func(r) for p, r in exact_restriction_classes(d, level, m))

    return _over_levels(d, m, term)


# ---------------------------------------------------------------------------
# Sampling the limit point process
# ---------------------------------------------------------------------------

def sample_limit_point_process(
    model: MixedMovingAverage,
    delta: float,
    rng: np.random.Generator,
) -> PointMeasure:
    """One draw of the limit cluster process restricted to {|x| > delta}.

    Sites u with |u| beyond the support radius m spawn empty clusters
    (their subgraphs miss the kernel support), so the site sum is cut at m
    exactly.  Per kernel atom w, with sup the largest |f(w, .)|, only
    amplitudes j with amp |j| sup > delta can leave an atom above delta;
    amp = (d/(d-1))^(1/alpha) at u = e and 1 elsewhere.  There are
    Poisson(2 mass amp^alpha (sup/delta)^alpha) of them per site, and amp j
    is a random sign times (delta/sup) U^(-1/alpha) at every site.  The
    counts of the root and of the spheres C_1..C_m, the amplitudes and the
    anchor levels (|u|, or the geometric negative level at u = e) are drawn
    as arrays, and so is one uniform vertex of C_m per atom, where its
    path meets C_m; :func:`trace_masks` turns level and vertex into the
    trace at the kernel's sites; the class-table budget is checked first.
    """
    if delta <= 0:
        raise ValueError("truncation level must be > 0")
    d, alpha, m = model.d, model.alpha, model.support_radius
    if not _exact_enumeration_feasible(d, m):
        raise class_table_budget_error(d, m)
    # sites per level 0..m, times amp^alpha at the root
    weights = np.array([d / (d - 1.0)] + [float(sphere_size(d, j)) for j in range(1, m + 1)])
    atoms = []
    for mass, pos, vals in model.kernel_columns:
        sup = float(np.abs(vals).max(initial=0.0))
        if sup == 0.0:
            continue
        counts = rng.poisson(weights * mass * 2.0 * (delta / sup) ** (-alpha))
        total = int(counts.sum())
        signs = rng.integers(0, 2, size=total) * 2 - 1
        amps = signs * (delta / sup) * rng.random(total) ** (-1.0 / alpha)
        levels = np.concatenate(
            [sample_anchor(d, rng, counts[0]), np.repeat(np.arange(1, m + 1), counts[1:])]
        )
        ends = sample_ray_path(m, d, rng, total)
        values = amps[:, None] * vals[None, :]
        atoms.append(values[trace_masks(levels, ends, d, m, pos) & (np.abs(values) > delta)])
    return PointMeasure(atoms=np.concatenate([np.zeros(0), *atoms]), delta=delta)


@dataclass
class AtomCount:
    value: float  # E[number of atoms above delta]


def expected_atom_count(model: MixedMovingAverage, delta: float) -> AtomCount:
    """Analytic E[number of atoms above delta] of the limit process."""
    alpha = model.alpha
    return AtomCount(
        value=level_sum(model, lambda v: 2.0 * float(np.sum((np.abs(v) / delta) ** alpha)))
    )


# ---------------------------------------------------------------------------
# Laplace functional
# ---------------------------------------------------------------------------

@dataclass
class LaplaceResult:
    value: float
    exponent: float
    level_symmetric_value: float | None = None


def laplace_functional(model: MixedMovingAverage, g: PiecewiseConstant) -> LaplaceResult:
    """E[exp(-N(g))] for the limit process and piecewise-constant g.

    The amplitude integral per subgraph class and the subgraph expectation
    (:func:`level_sum`) are both exact.  For a level-symmetric kernel the
    integrand does not depend on the subgraph and the functional is also
    evaluated in that reduced form, returned alongside for comparison.
    """
    # Tied sweep events carry zero mass, so the integral depends only on the
    # multiset of coefficients: the classes of a level share few of them.
    integrals = {}

    def per_atom(v) -> float:
        key = np.sort(v).tobytes()
        if key not in integrals:
            integrals[key] = nu_alpha_integral(model.alpha, v, g)
        return integrals[key]

    exponent = level_sum(model, per_atom)
    sym = _laplace_level_symmetric(model, g) if model.is_level_symmetric else None
    return LaplaceResult(value=math.exp(-exponent), exponent=exponent, level_symmetric_value=sym)


def _laplace_level_symmetric(model: MixedMovingAverage, g: PiecewiseConstant) -> float:
    """The reduced evaluation available under level symmetry.

    The cluster sum collapses to deterministic per-level multiplicities,
    so no subgraph integral remains; the level sum keeps its exact
    negative tail.
    """
    d, alpha, m = model.d, model.alpha, model.support_radius
    profiles = [
        np.array([prof.get(j, 0.0) for j in range(m + 1)]) for prof in model.level_profiles
    ]

    def term(level) -> float:
        counts = [
            subgraph_sphere_count(level, j - level, d) if j >= max(level, 0) else 0
            for j in range(m + 1)
        ]
        acc = 0.0
        for (_, mass), prof in zip(model.w_masses, profiles):
            acc += mass * nu_alpha_integral(alpha, np.repeat(prof, counts), g)
        return acc

    return math.exp(-_over_levels(d, m, term))


def empirical_laplace(
    model: MixedMovingAverage,
    g: PiecewiseConstant,
    n: int,
    reps: int,
    seed: int,
) -> float:
    """Mean of exp(-N_n(g)) over simulated fields, N_n the scaled point process."""
    sim = FieldSimulator(model, n, SeriesConfig())
    scale = (2.0 * model.d - 1.0) ** (-n / model.alpha)
    acc = 0.0
    for rep in range(reps):
        values = sim.values(substream(seed, "laplace", rep))
        acc += math.exp(-float(np.sum(g(values * scale))))
    return acc / reps


# ---------------------------------------------------------------------------
# The maxima constant
# ---------------------------------------------------------------------------

@dataclass
class MaximaConstantResult:
    value: float          # the constant itself
    alpha_power: float    # its alpha-th power (the quantity the level sum yields)


def maxima_constant(model: MixedMovingAverage) -> MaximaConstantResult:
    """The constant K with M_n / (2d-1)^(n/alpha) converging to K Z_alpha.

    K^alpha sums, over anchor levels, the weighted expectation of twice
    the alpha-th power of the cluster's largest kernel value on the random
    subgraph.  The negative level tail is aggregated in closed form.
    """
    alpha = model.alpha
    total = level_sum(model, lambda v: 2.0 * float(np.abs(v).max(initial=0.0)) ** alpha)
    return _from_alpha_power(total, alpha)


def maxima_constant_level_symmetric(model: MixedMovingAverage) -> MaximaConstantResult:
    """The reduced two-term formula available under level symmetry.

    With L(w) the overall sup of |f(w, .)| and h_w the record-level profile
    (level j carries the largest kernel magnitude at or beyond level j),

        K^alpha = 2^alpha/(d-1) * int L^alpha dnu + int ||2 h_w||_alpha^alpha dnu.

    Known to disagree with :func:`maxima_constant` away from alpha = 1
    even on the point-mass kernel; compare via
    :func:`maxima_constant_comparison`, which flags the discrepancy.
    """
    if not model.is_level_symmetric:
        raise ValueError("kernel is not level-symmetric")
    d, alpha = model.d, model.alpha
    total = 0.0
    for (_, mass), prof in zip(model.w_masses, model.level_profiles):
        if not prof:
            continue
        mmax = max(prof)
        big = max(abs(v) for v in prof.values())
        total += 2.0**alpha / (d - 1.0) * mass * big**alpha
        # record profile: level j carries max_{j' >= j} |q(j')|
        norm = 0.0
        for j in range(mmax + 1):
            rj = max(abs(prof.get(jp, 0.0)) for jp in range(j, mmax + 1))
            if rj > 0:
                norm += sphere_size(d, j) * (2.0 * rj) ** alpha
        total += mass * norm
    return _from_alpha_power(total, alpha)


def _from_alpha_power(total: float, alpha: float) -> MaximaConstantResult:
    """K from K^alpha.  A K beyond the float range (small alpha) is a
    configuration error, not a traceback."""
    if total <= 0:
        raise ValueError("degenerate kernel: the maxima constant vanishes")
    try:
        value = total ** (1.0 / alpha)
    except OverflowError as exc:
        raise ConfigError(
            f"the maxima constant {total:.6g}^(1/{alpha}) overflows a float", ["model.alpha"]
        ) from exc
    return MaximaConstantResult(value=value, alpha_power=total)


def maxima_constant_comparison(model: MixedMovingAverage) -> dict:
    """Evaluate both maxima-constant formulas and flag any mismatch.

    The general level-sum value is the designated reference; the reduced
    formula is reported with its ratio and never silently substituted.
    Both are exact, so they agree when they match to 3e-9 relative.
    """
    general = maxima_constant(model)
    out = {
        "general_alpha_power": general.alpha_power,
        "general_value": general.value,
        "general_exact": True,
    }
    if model.is_level_symmetric:
        sym = maxima_constant_level_symmetric(model)
        diff = abs(sym.alpha_power - general.alpha_power)
        agree = diff <= 3e-9 * abs(general.alpha_power) + 1e-12
        out.update(
            {
                "level_symmetric_alpha_power": sym.alpha_power,
                "level_symmetric_value": sym.value,
                "ratio_alpha_power": sym.alpha_power / general.alpha_power,
                "formulas_agree": bool(agree),
            }
        )
    else:
        out["level_symmetric_alpha_power"] = None
    return out
