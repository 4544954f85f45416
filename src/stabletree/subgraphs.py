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
holds every level (:func:`trace_masks`).  ``Word`` paths (``RayPath``,
``membership``) remain the brute-force sphere-count oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boundary import sample_boundary
from .errors import PathTooShortError, ResourceBudgetError
from .free_group import Word, ball_layout, ball_size, distance, enumerate_sphere, sphere_size
from .rng import substream


@dataclass(frozen=True)
class RayPath:
    """Finite-resolution representative of a ray subgraph."""

    level: int  # signed anchor level
    rank: int
    vertices: tuple  # (v_0, ..., v_K)

    def __post_init__(self):
        ell, d = self.level, self.rank
        vs = self.vertices
        if not vs:
            raise ValueError("empty path")
        if len(set(vs)) != len(vs):
            raise ValueError("path is not self-avoiding")
        for k, v in enumerate(vs):
            if len(v) != _expected_level(ell, k):
                raise ValueError(
                    f"vertex {k} has level {len(v)}, expected {_expected_level(ell, k)}"
                )
        for a, b in zip(vs, vs[1:]):
            if distance(a, b) != 1:
                raise ValueError("consecutive path vertices must be adjacent")


def _expected_level(ell: int, k: int) -> int:
    if ell >= 0:
        return ell + k
    return abs(ell) - k if k <= abs(ell) else k - abs(ell)


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


def membership(t: Word, xi: RayPath) -> bool:
    """Whether t belongs to the subgraph represented by the path.

    True iff min_k (d(t, v_k) - k) <= 0.  The sequence decreases by 0 or 2
    per step until it turns constant, so the scan stops at the first
    repeated value; a path shorter than the decision bound raises.
    """
    if t.rank != xi.rank:
        raise ValueError("rank mismatch")
    steps, need = len(xi.vertices) - 1, required_steps(len(t), xi.level)
    if steps < need:
        raise PathTooShortError(
            f"path with {steps} steps cannot decide membership of a "
            f"length-{len(t)} word at level {xi.level}; need {need}"
        )
    best = None
    prev = None
    for k, v in enumerate(xi.vertices):
        f = distance(t, v) - k
        if f <= 0:
            return True
        if prev is not None and f == prev and k > abs(xi.level):
            break  # constant from the projection onwards
        prev = f
        if best is None or f < best:
            best = f
    return False


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


SPHERE_COUNT_BUDGET = 500_000  # words of one sphere checked by brute-force membership


def count_sphere_members(
    xi: RayPath, sphere_level: int, budget: int = SPHERE_COUNT_BUDGET
) -> int:
    """|xi intersect C_s| by brute-force membership over the whole sphere."""
    if sphere_size(xi.rank, sphere_level) > budget:
        raise ResourceBudgetError("sphere too large for brute-force membership count")
    return sum(1 for t in enumerate_sphere(xi.rank, sphere_level) if membership(t, xi))


def word_ray_path(level: int, d: int, steps: int, rng: np.random.Generator) -> RayPath:
    """A ``Word`` path at level >= 1: the prefixes of a uniform reduced word.

    v_k is the prefix of length level + k, so the anchor is uniform on
    C_level and every step uniform over its 2d - 1 continuations: the
    path-uniform law.
    """
    if level < 1:
        raise ValueError("paths from reduced-word prefixes need level >= 1")
    letters = sample_boundary(d, level + steps, rng).letters
    return RayPath(level, d, tuple(Word(d, letters[:j]) for j in range(level, len(letters) + 1)))


def check_sphere_counts(d: int, ell_max: int, k_max: int, samples: int, seed: int) -> list:
    """The sphere-count lemma on sampled ``Word`` paths, by brute-force membership.

    For every level in 1..ell_max and k in 0..k_max, ``samples`` paths
    (stream ``substream(seed, "lemma", level, k, s)``) are checked for
    |xi intersect C_level+k| = :func:`subgraph_sphere_count`.  Returns rows
    {level, k, expected, all_match}.  The largest sphere is checked against
    ``SPHERE_COUNT_BUDGET`` before any path is drawn.
    """
    largest = sphere_size(d, ell_max + k_max)
    if largest > SPHERE_COUNT_BUDGET:
        raise ResourceBudgetError(
            f"sphere C_{ell_max + k_max} has {largest} words, "
            f"above the brute-force budget of {SPHERE_COUNT_BUDGET}"
        )
    rows = []
    for level in range(1, ell_max + 1):
        for k in range(k_max + 1):
            expected = subgraph_sphere_count(level, k, d)
            steps = required_steps(level + k, level)
            paths = (
                word_ray_path(level, d, steps, substream(seed, "lemma", level, k, s))
                for s in range(samples)
            )
            ok = all(count_sphere_members(xi, level + k) == expected for xi in paths)
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
