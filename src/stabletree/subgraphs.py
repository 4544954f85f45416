"""Ray subgraphs of the Cayley tree and their uniform sampling law.

For an anchor level ell in Z, a ray subgraph is built from a self-avoiding
path (v_0, v_1, ...) whose distance-to-root profile is:

  ell = 0:  v_0 = e and |v_k| = k (the path leaves the root);
  ell > 0:  |v_0| = ell and |v_k| = ell + k (starts on the sphere C_ell and
            moves away from the root);
  ell < 0:  |v_0| = |ell|, descends the unique geodesic to e
            (v_|ell| = e) and then moves away again.

The subgraph is union_k V_k with V_k = {t : d(t, v_k) <= k}.  The sampling
law is path-uniform: the anchor vertex is uniform on C_|ell| and every free
step is uniform over the admissible continuations; restricting a longer
path reproduces the shorter path's law, which is the consistency that
defines the uniform measure on subgraph classes.

Membership of a vertex t is decided from a finite path: k -> d(t, v_k) - k
decreases (in steps of 2) until the ray passes the projection of t and is
constant afterwards, so the minimum is visible within |t| + 2|ell| + 2
steps.

Enumeration and sampling work on the vertex x where a path meets C_m.
A subgraph's trace on the ball E_m is a boolean mask over E_m in layout
order, and it depends on the path only through x: t is a member iff
|t| + ell - 2 lcp(t, x) <= 0, and x is uniform on C_m at every level.  So
:func:`enumerate_ray_paths` lists C_m and :func:`sample_ray_path` draws
from it, as layout indices.  Only x's ancestor on C_K,
K = clip(ceil((m + ell)/2), 0, m), matters: one class table per (d, m)
holds every level (:func:`trace_masks`).

The sphere-count lemma is checked by brute force on the same index arrays
(:func:`check_sphere_counts`), without that closed form: a level >= 1 path
is the prefixes v_k = omega[:ell + k] of one ray omega, lcp(t, omega) comes
from range checks on the preorder (:func:`ray_lcp`), and
:func:`membership` evaluates min_k d(t, v_k) - k <= 0 over the whole path
for every t of the sphere.  ``Word`` appears only as the drawn ray.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from .errors import ResourceBudgetError
from .free_group import (
    ENUMERATION_BUDGET, BallLayout, Word, ball_layout, ball_size, letter_rank, sphere_size
)
from .rng import substream


def enumerate_ray_paths(m: int, d: int) -> np.ndarray:
    """C_m in canonical preorder, as int32 indices into ``ball_layout(d, m)``.

    These are the vertices where ray paths meet C_m.  A subgraph's trace on
    E_m depends on its path only through that vertex, which is uniform on
    C_m at every anchor level (:func:`trace_masks`).
    """
    return np.flatnonzero(ball_layout(d, m).depth == m).astype(np.int32)


def sample_ray_path(m: int, d: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw the C_m vertices of ``size`` ray paths, uniform on C_m.

    The rows of :func:`enumerate_ray_paths`, picked by one bounded-integer
    draw of ``size`` values.  The list of C_m is built here, not by
    :func:`enumerate_ray_paths`, so that the rows ``perfbench/tracer.py``
    counts as enumerated come from enumerations only.
    """
    ends = np.flatnonzero(ball_layout(d, m).depth == m).astype(np.int32)
    return ends[rng.integers(len(ends), size=size)]


def required_steps(t_len: int, level: int) -> int:
    """Path length guaranteeing that membership of a length-t_len word is decided."""
    return t_len + 2 * abs(level) + 2


def subgraph_sphere_count(level: int, offset: int, d: int) -> int:
    """Exact number of subgraph vertices on the sphere C_{level+offset}.

    Independent of the path (see :func:`trace_masks`): a vertex t of the
    sphere is a member iff lcp(t, x) >= (|t| + level) / 2.  The sphere is
    covered whole when level + offset <= -level and otherwise meets the
    subgraph in (2d-1)^floor(offset/2) vertices.
    """
    if offset < 0 or level + offset < 0:
        raise ValueError("need offset >= 0 and level + offset >= 0")
    if level + offset <= -level:
        return sphere_size(d, level + offset)
    return (2 * d - 1) ** (offset // 2)


def ray_lcp(lay: BallLayout, letters, idx) -> np.ndarray:
    """lcp(t, omega) for the nodes t at layout indices ``idx``, as int16.

    ``letters`` starts the reduced word omega.  Its prefix of length
    j <= ``lay.n`` heads the preorder interval [b_j, b_j + subtree[j]) of
    its subtree, so lcp(t, omega) is the number of these nested intervals
    that hold t: one range check per prefix.
    """
    idx = np.asarray(idx)
    lcp = np.zeros(idx.shape, dtype=np.int16)
    b = 0
    for j, g in enumerate(letters[: lay.n], start=1):
        b = int(lay.right_mul[b, letter_rank(g)])
        lcp += (idx >= b) & (idx < b + lay.subtree[j])
    return lcp


def membership(t_len, lcp, path_lens) -> np.ndarray:
    """Whether each t belongs to the subgraph of a path of prefixes of one ray.

    The path's vertex v_k is the prefix of length ``path_lens[k]`` of a ray
    omega, and t enters through |t| = ``t_len`` and lcp(t, omega)
    (:func:`ray_lcp`), so d(t, v_k) = |t| + |v_k| - 2 min(lcp, |v_k|).  The
    definition: t is a member iff min_k d(t, v_k) - k <= 0, over every
    vertex of the path.
    """
    dist = (t_len + v - k - 2 * np.minimum(lcp, v) for k, v in enumerate(path_lens))
    return functools.reduce(np.minimum, dist) <= 0


def sphere_member_count(level: int, sphere_level: int, omega: Word) -> int:
    """|xi intersect C_s|, s = ``sphere_level``, by membership over the whole sphere.

    xi is the level >= 1 path v_k = omega[:level + k] through every prefix
    of ``omega`` from length ``level`` on.  C_s is taken as layout indices
    of ``ball_layout(d, s)``, and no ``Word`` is built per vertex.
    """
    lay = ball_layout(omega.rank, sphere_level)
    sphere = np.flatnonzero(lay.depth == sphere_level)
    lcp = ray_lcp(lay, omega.letters, sphere)
    return int(membership(sphere_level, lcp, range(level, len(omega) + 1)).sum())


def check_sphere_counts(d: int, ell_max: int, k_max: int, samples: int, seed: int) -> list:
    """The sphere-count lemma on sampled paths, by membership over whole spheres.

    For every level in 1..ell_max and k in 0..k_max, ``samples`` paths are
    checked for |xi intersect C_level+k| = :func:`subgraph_sphere_count` by
    :func:`sphere_member_count`.  Path s takes its ray from
    ``sample_boundary`` on stream ``substream(seed, "lemma", level, k, s)``
    and runs ``required_steps(level + k, level)`` steps.  Returns rows
    {level, k, expected, all_match}.  The ball E_(ell_max + k_max) of the
    largest sphere is checked against ``ENUMERATION_BUDGET`` before any
    layout is built or path drawn.  A call that would check nothing
    (``ell_max < 1``, ``k_max < 0`` or ``samples < 1``) or a negative seed is
    a ``ValueError``.
    """
    if ell_max < 1 or k_max < 0 or samples < 1 or seed < 0:
        raise ValueError(
            "need ell_max >= 1, k_max >= 0, samples >= 1 and seed >= 0, "
            f"got {ell_max}, {k_max}, {samples} and {seed}"
        )
    top = ell_max + k_max
    if ball_size(d, top) > ENUMERATION_BUDGET:
        raise ResourceBudgetError(
            f"sphere C_{top} needs the layout of E_{top}, {ball_size(d, top):,} words, "
            f"above the budget of {ENUMERATION_BUDGET:,}"
        )
    from .boundary import sample_boundary  # only this check draws Word rays

    rows = []
    for level in range(1, ell_max + 1):
        for k in range(k_max + 1):
            expected = subgraph_sphere_count(level, k, d)
            length = level + required_steps(level + k, level)
            rays = (
                sample_boundary(d, length, substream(seed, "lemma", level, k, s))
                for s in range(samples)
            )
            ok = all(sphere_member_count(level, level + k, omega) == expected for omega in rays)
            rows.append({"level": level, "k": k, "expected": expected, "all_match": ok})
    return rows


CLASS_TABLE_BUDGET = 40_000_000  # boolean cells of one (d, m) trace-class table


def _exact_enumeration_feasible(d: int, m: int) -> bool:
    """Whether the (2|E_m| - 1) x |E_m| trace-class table fits ``CLASS_TABLE_BUDGET``."""
    size = ball_size(d, m)
    return (2 * size - 1) * size <= CLASS_TABLE_BUDGET


def class_table_budget_error(d: int, m: int) -> ResourceBudgetError:
    cells = f"{2 * ball_size(d, m) - 1} x {ball_size(d, m)} cells"
    return ResourceBudgetError(f"the class table of E_{m} has {cells}, over {CLASS_TABLE_BUDGET:,}")


@functools.lru_cache(maxsize=8)
def trace_class_table(d: int, m: int):
    """Read-only (rows, bounds, row_of): the trace classes on E_m of levels -m..m.

    From lcp = K = clip(ceil((m + ell)/2), 0, m) on, 2 lcp - ell >= m, so
    the trace {t : |t| <= 2 lcp(t, x) - ell} depends on x only through its
    ancestor a on C_K.  ``rows[bounds[i]:bounds[i + 1]]`` are the classes
    of level i - m, one per a in preorder; ``row_of[i, x]`` is the row of
    the C_m vertex x.  Levels 2K - m - 1 and 2K - m share K, and lcp(t, a)
    adds one on subtree(a) to that of a's parent.  Raises before any
    allocation when above ``CLASS_TABLE_BUDGET`` cells.
    """
    if not _exact_enumeration_feasible(d, m):
        raise class_table_budget_error(d, m)
    lay = ball_layout(d, m)
    ends = enumerate_ray_paths(m, d)  # C_m in preorder
    rows = np.empty((2 * lay.size - 1, lay.size), dtype=bool)
    row_of = np.zeros((2 * m + 1, lay.size), dtype=np.int32)
    bounds = [0]
    lcp = np.zeros((1, lay.size), dtype=np.int8)  # lcp(t, a) for the vertices a of C_k
    for k in range(m + 1):
        on_k = np.flatnonzero(lay.depth == k)
        if k:
            lcp = np.repeat(lcp, len(on_k) // len(lcp), axis=0)
            lcp[np.arange(len(on_k))[:, None], on_k[:, None] + np.arange(lay.subtree[k])] += 1
        for level in (2 * k - m - 1, 2 * k - m) if k else (-m,):
            rows[bounds[-1] : bounds[-1] + len(on_k)] = lay.depth + level <= 2 * lcp
            # each subtree of C_k holds a run of len(ends) // len(on_k) vertices of C_m
            row_of[level + m, ends] = bounds[-1] + np.arange(len(ends)) // (len(ends) // len(on_k))
            bounds.append(bounds[-1] + len(on_k))
    rows.setflags(write=False)
    row_of.setflags(write=False)
    return rows, tuple(bounds), row_of


def trace_masks(levels, ends: np.ndarray, d: int, m: int, sites=None) -> np.ndarray:
    """Traces on E_m of subgraphs at anchor ``levels`` with C_m vertices ``ends``.

    ``ends`` holds layout indices into ``ball_layout(d, m)`` of the vertex x
    where each path meets C_m; ``levels`` is one level <= m or one per end.
    Row i is the boolean mask over E_m in layout order (or its columns
    ``sites``) of {t : |t| + level - 2 lcp(t, x) <= 0}: the row of x's
    ancestor on C_K in :func:`trace_class_table`.  For level >= 0,
    k -> d(t, v_k) - k is non-increasing and reaches that value at x.  For
    level < 0 the descent reaches |t| + level for every anchor, so it
    covers E_|level|, and the ascent reaches the value at x, which is never
    larger.  Levels <= -m give the full ball.
    """
    rows, _, row_of = trace_class_table(d, m)
    row = np.asarray(row_of[np.maximum(levels, -m) + m, ends])[..., None]
    return rows[row, np.arange(rows.shape[1]) if sites is None else sites]


# ---------------------------------------------------------------------------
# Anchor-level distribution for the limit clusters
# ---------------------------------------------------------------------------

def anchor_pmf(k: int, d: int) -> Fraction:
    """pmf 2d(2d-1)^(k-1) (d-1)/d on k = 0, -1, -2, ...; exact rational.

    Equivalently 2(d-1)(2d-1)^(k-1); the total mass is a geometric sum
    equal to 1 exactly.
    """
    if d < 2:
        raise ValueError("rank must be >= 2")
    if k > 0:
        return Fraction(0)
    return Fraction(2 * (d - 1), (2 * d - 1) ** (1 - k))


def anchor_pmf_tail(k_max: int, d: int) -> Fraction:
    """Exact mass of {k : k <= k_max} for k_max <= 0.

    The geometric sum collapses to (2d-1)^k_max; in particular the total
    mass at k_max = 0 is exactly 1.
    """
    if k_max > 0:
        raise ValueError("tail defined for k_max <= 0")
    return Fraction(1, (2 * d - 1) ** (-k_max))


def sample_anchor(d: int, rng: np.random.Generator, size=None):
    """Draw from the anchor-level pmf by the exact geometric identity.

    P(level = -j) = p (1-p)^j with p = (2d-2)/(2d-1), so the level is the
    negated failure count of a geometric trial.  One level, or an array of
    ``size`` levels.
    """
    p = (2 * d - 2) / (2 * d - 1)
    return 1 - rng.geometric(p, size)
