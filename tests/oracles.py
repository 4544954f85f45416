"""Test-side oracles shared by several test modules."""

import csv
import functools
import math
import zlib
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import stats as sstats

from stabletree.boundary import sample_boundary
from stabletree.errors import PrefixTooShortError, RankMismatchError, ResourceBudgetError
from stabletree.fields import MixedMovingAverage
from stabletree.free_group import (
    Word,
    allowed_next_letters,
    ball_layout,
    ball_size,
    common_prefix_length,
    enumerate_ball,
    enumerate_sphere,
    multiply,
)
from stabletree.stable import sample_sas, stable_tail_constant
from stabletree.stats import batch_mean_ci
from stabletree.subgraphs import required_steps


def min_busemann_over_ball(d: int, n: int, omega_prefix: Word) -> int:
    """Exact min of B_omega(t) over the ball E_n (branch-and-bound search).

    Mechanical minimisation over the tree: from a node t with confluent c,
    every descendant t*s satisfies B(t*s) >= B(t) - (n - |t|) when t lies on
    the ray (the confluent can grow at most one per letter) and
    B(t*s) > B(t) otherwise (the confluent is frozen).  Nodes whose bound
    cannot beat the incumbent are pruned, which leaves the search exact.
    """
    if len(omega_prefix) < n:
        raise PrefixTooShortError(f"need a ray prefix of length >= {n}")
    best = 0  # B at t = e
    stack = [((), 0, True)]  # letters, confluent, on-ray flag
    om = omega_prefix.letters
    while stack:
        letters, c, on_ray = stack.pop()
        depth = len(letters)
        b = depth - 2 * c
        if b < best:
            best = b
        if depth == n:
            continue
        bound = (b - (n - depth)) if on_ray else (b + 1)
        if bound >= best:
            continue
        last = letters[-1] if letters else None
        # push the ray-following child last so it is explored first; the
        # incumbent then drops fast and prunes the off-ray branches
        ray_child = None
        for g in allowed_next_letters(d, last):
            if on_ray and g == om[depth]:
                ray_child = g
                continue
            stack.append((letters + (g,), c, False))
        if ray_child is not None:
            stack.append((letters + (ray_child,), c + 1, True))
    return best


def mma_from_levels(d: int, alpha: float, levels: dict, mass: float = 1.0) -> MixedMovingAverage:
    """Level-symmetric kernel f(t) = levels[|t|] (absent levels are 0)."""
    m = max(levels) if levels else 0
    tab = {}
    for t in enumerate_ball(d, m):
        v = levels.get(len(t), 0.0)
        if v != 0.0:
            tab[t] = v
    return MixedMovingAverage.from_tables(d, alpha, {"w0": mass}, {"w0": tab})


def kernel_table(model: MixedMovingAverage, w: str) -> dict:
    """Atom w's kernel {Word: value}, in table order."""
    return dict(dict(model.f_table)[w])


class PathTooShortError(ValueError):
    """A ray path is too short to decide membership; extend and retry."""


def distance(u: Word, v: Word) -> int:
    """Graph distance on the Cayley tree: |u^-1 v|."""
    if u.rank != v.rank:
        raise RankMismatchError(f"rank mismatch: {u.rank} != {v.rank}")
    return len(u) + len(v) - 2 * common_prefix_length(u, v)


def _expected_level(ell: int, k: int) -> int:
    if ell >= 0:
        return ell + k
    return abs(ell) - k if k <= abs(ell) else k - abs(ell)


@dataclass(frozen=True)
class RayPath:
    """A ray path of ``Word`` vertices (v_0, ..., v_K) at a signed anchor level.

    The ``Word`` oracle of ray subgraphs: the constructor checks the
    distance-to-root profile, self-avoidance and adjacency.
    """

    level: int
    rank: int
    vertices: tuple

    def __post_init__(self):
        ell, vs = self.level, self.vertices
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


def membership(t: Word, xi: RayPath) -> bool:
    """Whether t belongs to the subgraph of the path, walking ``Word`` distances.

    The reference for ``subgraphs.membership``: True iff
    min_k (d(t, v_k) - k) <= 0.  The sequence decreases by 0 or 2 per step
    until it turns constant, so the scan stops at the first repeated value;
    a path shorter than ``required_steps`` raises.
    """
    if t.rank != xi.rank:
        raise ValueError("rank mismatch")
    steps, need = len(xi.vertices) - 1, required_steps(len(t), xi.level)
    if steps < need:
        raise PathTooShortError(
            f"path with {steps} steps cannot decide membership of a "
            f"length-{len(t)} word at level {xi.level}; need {need}"
        )
    prev = None
    for k, v in enumerate(xi.vertices):
        f = distance(t, v) - k
        if f <= 0:
            return True
        if prev is not None and f == prev and k > abs(xi.level):
            break  # constant from the projection onwards
        prev = f
    return False


def word_ray_path(level: int, d: int, steps: int, rng: np.random.Generator) -> RayPath:
    """A ``Word`` path at level >= 1: the prefixes of a uniform reduced word.

    v_k is the prefix of length level + k, so the anchor is uniform on
    C_level and every step uniform over its 2d - 1 continuations: the
    path-uniform law.  It draws the letters ``subgraphs.check_sphere_counts``
    draws from the same stream.
    """
    if level < 1:
        raise ValueError("paths from reduced-word prefixes need level >= 1")
    letters = sample_boundary(d, level + steps, rng).letters
    return RayPath(level, d, tuple(Word(d, letters[:j]) for j in range(level, len(letters) + 1)))


def count_sphere_members(xi: RayPath, sphere_level: int) -> int:
    """|xi intersect C_s| by ``Word`` membership over the whole sphere.

    The reference for ``subgraphs.sphere_member_count``.
    """
    return sum(1 for t in enumerate_sphere(xi.rank, sphere_level) if membership(t, xi))


def determining_steps(level: int, m: int) -> int:
    """Shortest path length whose prefix decides the subgraph's trace on E_m.

    The path stops when it reaches C_m for good: step m - level for
    level >= 0 (0 once the anchor lies beyond E_m), step |level| + m
    otherwise.  From there on every vertex lies at depth >= m and keeps
    the same ancestor at depth m, so for every t in E_m the lcp of t and
    v_k is fixed and k -> d(t, v_k) - k is constant; longer paths, up to
    ``required_steps``, leave the minimum unchanged.  Every prefix stays
    inside E_max(m, |level|).
    """
    return max(m - level, 0) if level >= 0 else abs(level) + m


def ray_path_count(level: int, d: int, num_steps: int) -> int:
    """Number of ray paths of ``num_steps`` steps at the given anchor level.

    The anchor is any vertex of C_|level|; every free step has 2d - 1
    continuations, except the first step out of the root at level 0, which
    has 2d.
    """
    if level == 0:
        return 2 * d * (2 * d - 1) ** (num_steps - 1) if num_steps else 1
    free = num_steps if level > 0 else max(0, num_steps + level)
    return 2 * d * (2 * d - 1) ** (abs(level) - 1 + free)


def ray_path_radius(level: int, num_steps: int) -> int:
    """Largest word length met by a ray path of ``num_steps`` steps."""
    return max(_expected_level(level, 0), _expected_level(level, num_steps))


def _continuations(lay, level: int, paths: np.ndarray) -> np.ndarray:
    """Admissible next vertices of partial ray paths, one row per path.

    ``paths`` holds the first k vertices of each path as layout indices.
    With k = 0 every path may start at any anchor: e at level 0, otherwise
    every vertex of C_|level|.  After that a path steps towards the root
    while it descends (level < 0, k <= |level|) and away from it otherwise,
    never back to the previous vertex.  Options come in canonical order,
    and every row has the same number of them.
    """
    k = paths.shape[1]
    if k == 0:
        anchors = np.flatnonzero(lay.depth == abs(level)).astype(np.int32)
        return np.broadcast_to(anchors, (len(paths), len(anchors)))
    depth, cur = lay.depth, paths[:, -1]
    nbrs = lay.right_mul[cur]
    rise = np.where(nbrs >= 0, depth[nbrs] - depth[cur][:, None], 0)
    if level < 0 and k <= -level:
        pick = rise == -1  # the unique step towards the root
    else:
        pick = rise == 1
        if k >= 2:
            pick &= nbrs != paths[:, -2, None]
    return nbrs[pick].reshape(len(paths), -1)


def enumerate_ray_paths_reference(level: int, d: int, num_steps: int, budget: int = 200_000):
    """All ray paths of the given length, as one int32 array of layout indices.

    The multi-step path reference: the program lists only the C_m vertices
    where paths end (``subgraphs.enumerate_ray_paths``).  Row p holds
    (v_0, ..., v_num_steps) of path p as indices into
    ``ball_layout(d, ray_path_radius(level, num_steps))``.  Rows come in
    canonical order: anchors in sphere order, then every continuation in
    canonical letter order.  Every path has the same number of choices, so
    all rows are equally likely under the path-uniform law.  The budget is
    checked before any allocation.
    """
    count = ray_path_count(level, d, num_steps)
    if count > budget:
        raise ResourceBudgetError(
            f"{count} ray paths at level {level} exceed the budget of {budget}"
        )
    lay = ball_layout(d, ray_path_radius(level, num_steps))
    paths = np.empty((1, 0), dtype=np.int32)
    for _ in range(num_steps + 1):
        opts = _continuations(lay, level, paths)
        paths = np.column_stack([np.repeat(paths, opts.shape[1], axis=0), opts.ravel()])
    return paths


def sample_ray_path_reference(
    level: int, d: int, num_steps: int, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Draw ``size`` ray paths under the path-uniform law.

    The anchor is uniform on C_|level| and every free step is uniform over
    the admissible continuations: one uniform pick per row among the options
    :func:`enumerate_ray_paths_reference` keeps in full.  Rows have the format of
    :func:`enumerate_ray_paths_reference`.
    """
    lay = ball_layout(d, ray_path_radius(level, num_steps))
    paths = np.empty((size, 0), dtype=np.int32)
    for _ in range(num_steps + 1):
        opts = _continuations(lay, level, paths)
        pick = rng.integers(opts.shape[1], size=size)
        paths = np.column_stack([paths, opts[np.arange(size), pick]])
    return paths


def level_sum_exact(model: MixedMovingAverage, per_atom) -> Fraction:
    """The level sum of ``limit_process.level_sum`` in exact arithmetic.

    ``per_atom`` maps the Fraction kernel values f'(w, k) = f(w, k^-1) at
    the sites k of one trace, in layout order, to a Fraction.  Each anchor
    level -m..m takes its trace law from every ray path of
    :func:`determining_steps` steps, all equally likely; level -m stands
    for all levels <= -m, weighted by their exact sum d/(d-1) (2d-1)^-m.
    The float kernel values and masses enter as their exact binary
    fractions, so ``float`` of the result is the correctly rounded sum.
    """
    d, m = model.d, model.support_radius
    lay = ball_layout(d, m)
    columns = []
    for w in model.atoms:
        col = [Fraction(0)] * lay.size
        for t, v in kernel_table(model, w).items():
            col[lay.word_to_index(t.inverse())] = Fraction(v)
        columns.append((Fraction(model.mass(w)), col))
    total = Fraction(0)
    for level in range(-m, m + 1):
        paths = enumerate_ray_paths_reference(level, d, determining_steps(level, m))
        traces = Counter(map(bytes, ball_traces(paths, level, d, m)))
        expectation = Fraction(0)
        for row, count in traces.items():
            sites = np.flatnonzero(np.unpackbits(np.frombuffer(row, np.uint8), count=lay.size))
            atoms = sum(mass * per_atom([col[k] for k in sites]) for mass, col in columns)
            expectation += Fraction(count, len(paths)) * atoms
        if level == -m:
            weight = Fraction(d, d - 1) / (2 * d - 1) ** m
        else:
            weight = 2 * d * Fraction(2 * d - 1) ** (level - 1)
        total += weight * expectation
    return total


LCP_TABLE_BUDGET = 20_000_000  # cells of the |E_m| x |E_m| lcp table


@functools.lru_cache(maxsize=8)
def _lcp_offsets(d: int, m: int) -> np.ndarray:
    """(S, S) int16 table |t| - 2 lcp(a, t) over the sites of E_m in layout order.

    In preorder the deepest ancestor-or-self of depth <= j of a node is the
    last node of depth <= j at or before it, so the ancestor columns come
    from one ``searchsorted`` per depth.  A table above ``LCP_TABLE_BUDGET``
    cells raises ``ResourceBudgetError`` before anything is allocated.
    """
    size = ball_size(d, m)
    if size**2 > LCP_TABLE_BUDGET:
        raise ResourceBudgetError(
            f"the lcp table of E_{m} has {size}^2 cells, above the budget of {LCP_TABLE_BUDGET}"
        )
    site_depth = ball_layout(d, m).depth
    positions = np.arange(len(site_depth))
    lcp = np.zeros((len(site_depth), len(site_depth)), dtype=np.int16)
    for j in range(1, m + 1):
        at_j = np.flatnonzero(site_depth <= j)
        anc = at_j[np.searchsorted(at_j, positions, side="right") - 1]
        deep = site_depth >= j
        lcp += (anc[:, None] == anc[None, :]) & deep[:, None] & deep[None, :]
    out = site_depth[None, :] - 2 * lcp
    out.setflags(write=False)
    return out


TRACE_CHUNK = 4096  # paths per block of (paths x sites) membership temporaries


def ball_traces(paths: np.ndarray, level: int, d: int, m: int) -> np.ndarray:
    """Traces on E_m of the subgraphs of whole ray paths, as packed bit rows.

    The path-based reference for ``trace_masks``.  ``paths`` holds layout
    indices as returned by :func:`enumerate_ray_paths_reference` and
    :func:`sample_ray_path_reference`,
    with at least :func:`determining_steps` steps.  t is a member iff
    min_k d(t, v_k) - k <= 0, with d(t, v) = |t| + |v| - 2 lcp(t, v); for t
    in E_m the lcp only sees v's ancestor at depth <= m.  Row p of the
    result is ``np.packbits`` of the membership mask over E_m in layout
    order.  Paths are processed in blocks of ``TRACE_CHUNK``, one int16
    (block x sites) running minimum per block.
    """
    num_steps = paths.shape[1] - 1
    if num_steps < determining_steps(level, m):
        raise PathTooShortError(
            f"{num_steps} steps cannot decide the trace on E_{m} at level {level}; "
            f"need {determining_steps(level, m)}"
        )
    lay = ball_layout(d, ray_path_radius(level, num_steps))
    sites = np.flatnonzero(lay.depth <= m)
    offsets = _lcp_offsets(d, m)
    out = np.empty((len(paths), (len(sites) + 7) // 8), dtype=np.uint8)
    for lo in range(0, len(paths), TRACE_CHUNK):
        block = paths[lo : lo + TRACE_CHUNK]
        anc = np.searchsorted(sites, block, side="right") - 1
        best = np.full((len(block), len(sites)), np.iinfo(np.int16).max, dtype=np.int16)
        for k in range(num_steps + 1):
            shift = lay.depth[block[:, k]] - np.int16(k)
            np.minimum(best, offsets[anc[:, k]] + shift[:, None], out=best)
        out[lo : lo + TRACE_CHUNK] = np.packbits(best <= 0, axis=1)
    return out


def pareto_norming_mc(model, n: int, reps: int, rng) -> tuple:
    """Monte Carlo E[max of |E_n| iid Pareto(theta)^alpha], with its batch-means CI.

    The independent reference for ``ParetoField.norming_constant``; the max
    of the Paretos is the smallest uniform to the power -1/theta.  Returns
    (mean, ci_low, ci_high) of ``stats.batch_mean_ci``.
    """
    size = ball_size(model.d, n)
    vals = np.empty(reps)
    chunk = max(1, min(reps, 20_000_000 // size))
    for lo in range(0, reps, chunk):
        u = rng.random((min(chunk, reps - lo), size))
        vals[lo : lo + len(u)] = u.min(axis=1) ** (-model.alpha / model.theta)
    return batch_mean_ci(vals)


def lepage_weights_reference(rng, alpha: float, num_terms: int, block=None):
    """The series weights eps_i Gamma_i^(-1/alpha), one expression per block.

    The reference for ``stable.lepage_weights``, which computes the same
    draws in place: per block the arrival-time increments, then the signs,
    with the arrival times running on from block to block.
    """
    block = block or num_terms
    offset = 0.0
    done = 0
    while done < num_terms:
        b = min(block, num_terms - done)
        gam = offset + np.cumsum(rng.standard_exponential(b))
        offset = float(gam[-1])
        eps = rng.integers(0, 2, size=b) * 2 - 1
        yield eps * gam ** (-1.0 / alpha)
        done += b


def substream_reference(seed: int, *key) -> np.random.Generator:
    """The stream of (seed, *key) as numpy builds it: Philox seeded through a SeedSequence.

    The reference for ``rng.substream``, which derives the same Philox key
    without building a SeedSequence.  A string key part is its CRC-32 and
    an integer part is folded mod 2^32.
    """
    words = tuple(zlib.crc32(p.encode("utf8")) if isinstance(p, str) else int(p) % 2**32 for p in key)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed), spawn_key=words)))


def sample_sas_cms_reference(rng, alpha: float, size):
    """SaS(1) variates at alpha != 1 by the Chambers-Mallows-Stuck expression, term by term.

    The reference for ``stable.sample_sas``, which computes the same
    operations in its output and one scratch array: fresh uniforms and
    exponentials, and every term a fresh array.  Entries that leave the
    float range stay as the expression gives them (no log-form repair).
    """
    u = rng.uniform(-math.pi / 2, math.pi / 2, size=size)
    e = rng.standard_exponential(size=size)
    x = np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
    return x * (np.cos((1.0 - alpha) * u) / e) ** ((1.0 - alpha) / alpha)


def boundary_rays(model, n: int, num_terms: int, rng):
    """The LePage weights and the length-n ray prefixes of one series draw of the boundary field.

    All weights, then the first letters, then one batch of child ranks per
    level, each rank read as a letter of the canonical order.  The prefixes
    are letter tuples.
    """
    d = model.d
    (wts,) = lepage_weights_reference(rng, model.alpha, num_terms)
    rays = [()] * len(wts)
    for k in range(1, n + 1):
        ranks = rng.integers(0, 2 * d if k == 1 else 2 * d - 1, size=len(wts))
        rays = [
            ray + (allowed_next_letters(d, ray[-1] if ray else None)[r],)
            for ray, r in zip(rays, ranks)
        ]
    return wts, rays


def boundary_values_reference(model, n: int, num_terms: int, rng) -> np.ndarray:
    """One replication of the boundary field over E_n by its LePage series, word by word.

    The series c_alpha^(1/alpha) sum_i w_i (2d-1)^(-B_(omega_i)(t)/alpha) on
    the weights and rays of :func:`boundary_rays`, truncated after
    ``num_terms`` terms: an independent check of the law of the exact draw.
    Level by level, a dict from ray prefix to the sum of w_i (q^k - q^(k-1))
    in ray order, q = (2d-1)^(2/alpha); a word's value is that sum plus its
    parent's value (the root's: the weight sum), then scaled by
    c_alpha^(1/alpha) (2d-1)^(-k/alpha).
    """
    wts, rays = boundary_rays(model, n, num_terms, rng)
    q = (2 * model.d - 1) ** (2.0 / model.alpha)
    sums = [{(): wts.sum()}]
    for k in range(1, n + 1):
        inc = q**k - q ** (k - 1)
        level = {}
        for ray, w in zip(rays, wts):
            level[ray[:k]] = level.get(ray[:k], 0.0) + w * inc
        sums.append(level)
    const = stable_tail_constant(model.alpha) ** (1.0 / model.alpha)
    scales = [const * (2.0 * model.d - 1.0) ** (-k / model.alpha) for k in range(n + 1)]
    unscaled = {}
    out = []
    for t in enumerate_ball(model.d, n):
        k = len(t)
        value = sums[k].get(t.letters, 0.0)
        if k:
            value = value + unscaled[t.letters[:-1]]
        unscaled[t.letters] = value
        out.append(value * scales[k])
    return np.array(out)


def boundary_leaves(d: int, n: int) -> list:
    """The words of C_n as letter tuples, in the slot order of the boundary draw plan.

    Level k lists the child of rank r of every node of level k - 1, rank
    by rank: 2d ranks below the root and 2d - 1 below every other node,
    each rank read as a letter of the canonical order.
    """
    level = [()]
    for k in range(1, n + 1):
        ranks = 2 * d if k == 1 else 2 * d - 1
        level = [
            word + (allowed_next_letters(d, word[-1] if word else None)[r],)
            for r in range(ranks)
            for word in level
        ]
    return level


def boundary_cylinder_sums(model, n: int, rng) -> list:
    """One replication of the boundary field over E_n as the dense cylinder sum, exactly.

    X_t = sum_(g in C_n) |C_n|^(-1/alpha) (2d-1)^(-B_g(t)/alpha) Z_g, with
    B_g(t) = |t| - 2 lcp(g, t) and the noises Z_g of one SaS(1) draw of
    size |C_n|, leaf g in the order of :func:`boundary_leaves`.  Every
    (site, leaf) coefficient is its own float, and each site's sum of the
    float products is taken in exact rationals.  Sites come in canonical
    order, as Fractions.
    """
    d, alpha = model.d, model.alpha
    leaves = boundary_leaves(d, n)
    noise = [Fraction(z) for z in sample_sas(rng, alpha, size=len(leaves))]
    norm = len(leaves) ** (-1.0 / alpha)
    out = []
    for t in enumerate_ball(d, n):
        total = Fraction(0)
        for g, z in zip(leaves, noise):
            lcp = next((j for j, (a, b) in enumerate(zip(t.letters, g)) if a != b), len(t))
            total += Fraction(norm * (2 * d - 1) ** ((2 * lcp - len(t)) / alpha)) * z
        out.append(total)
    return out


def boundary_values_loop_reference(plan, rng) -> np.ndarray:
    """One boundary-field replication from a plan's level layout, one level and one rank at a time.

    The loop reference for the batched boundary draw: fresh SaS noise of
    size |C_n| for the leaves, each level's subtree sums added rank by rank
    (the first two ranks, then one more at a time), then X level by level
    from its parents, and the row scattered into canonical order.
    """
    row = np.empty(plan.bounds[-1])
    row[plan.bounds[-2] :] = sample_sas(rng, plan.alpha, plan.noise_scale, size=len(row) - plan.bounds[-2])
    for lo, hi, ranks, up in reversed(plan.families):
        children = row[lo:hi].reshape(ranks, -1)
        sums = children[0] + children[1]
        for child in children[2:]:
            sums = sums + child
        row[up:lo] = sums
    for (lo, hi, ranks, up), factor in zip(plan.families, plan.factors):
        row[lo:hi] = (row[lo:hi].reshape(ranks, -1) * factor + row[up:lo] * plan.rho_inv).ravel()
    out = np.empty(len(row))
    out[plan.order] = row
    return out


def mma_full_noise_reference(model, n: int):
    """The full-noise mixed-moving-average draw over E_n, as a function of the generator.

    The law reference for the collapsed draw of ``mma_plan._MMAPlan``: per atom,
    fresh noise on the whole of E_(n+m), m the model's support radius, and
    one gather per kernel entry.  Its draw is the plan's draw before the
    outermost noise shell was collapsed, verbatim.
    """
    lay = ball_layout(model.d, n + model.support_radius)
    alpha = model.alpha
    noise_ball = lay.size
    sites = np.flatnonzero(lay.depth <= n)
    num_sites = len(sites)
    parts = [
        (
            model.noise_scale(w),
            [
                (val, lay.right_translate(sites, v).astype(np.intp))
                for v, val in kernel_table(model, w).items()
            ],
        )
        for w in model.atoms
    ]
    noise = np.empty(noise_ball)
    gathered = np.empty(num_sites)
    work = None if alpha == 1.0 else np.empty((3, noise_ball))

    def draw(rng):
        out = np.zeros(num_sites)
        tmp = gathered
        for scale, gathers in parts:
            z = sample_sas(rng, alpha, scale, size=noise_ball, out=noise, work=work)
            for val, idx in gathers:
                np.take(z, idx, out=tmp, mode="clip")
                tmp *= val
                out += tmp
        return out

    return draw


def mma_values_reference(model, n: int):
    """The grouped mixed-moving-average draw over E_n, word by word, as a function of the generator.

    The loop reference for ``mma_plan._MMAPlan``.  Per atom w with a nonzero
    entry, with m_w its largest entry length and r = n + m_w, its slots in
    turn:
    * the inner sites E_(min(n, r-1)), in canonical order;
    * the nodes u with n < |u| < r, in canonical order, each with its reader
      column {(t, f(w, t^-1 u)) : t in E_n}, found from ``multiply(u, v^-1)``
      over the entries v; the nodes with the same depth-n ancestor and the
      same nonempty column form a class, which takes a slot at its first
      node, read at |class|^(1/alpha) times the entry's value; the class
      slots follow the inner sites, by size, each size in the order of
      first nodes;
    * one slot per site t of C_n, in canonical order, for the t with a
      positive weight W_t = fsum |f(w, t^-1 u)|^alpha over the depth-r
      descendants u of t, read at sigma_t = noise_scale(w) W_t^(1/alpha).
    All slots of all atoms draw in one SaS(1) call.  A site t reads ``t v``
    through each entry, in table order, at (f(w, v) noise_scale(w)) times
    the class factor: the slot of an inner site or of the node that opens a
    class, and nothing otherwise; then its sigma_t slot.  Atom by atom.
    """
    d, alpha = model.d, model.alpha
    sites = list(enumerate_ball(d, n))
    reads = [[] for _ in sites]  # per site, (value, slot) in the order it adds them
    base = 0
    for w in model.atoms:
        table = kernel_table(model, w)
        if not table:  # an atom that reads no noise has no slot
            continue
        scale = model.noise_scale(w)
        radius = n + max((len(v) for v in table), default=0)
        own = min(n, radius - 1)
        own_index = ball_layout(d, own).word_to_index if own >= 0 else None
        size = ball_size(d, own) if own >= 0 else 0
        classes = {}
        for u in enumerate_ball(d, radius - 1) if radius - 1 > n else ():
            if len(u) <= n:
                continue
            column = []
            for v, val in table.items():
                t = multiply(u, v.inverse())
                if len(t) <= n:
                    column.append((t.letters, val))
            if column:
                classes.setdefault((u.letters[:n], tuple(sorted(column))), []).append(u)
        slots = {}  # the node that opens each class: its slot and its factor
        for members in sorted(classes.values(), key=len):
            slots[members[0]] = (base + size, len(members) ** (1.0 / alpha))
            size += 1
        outer = base + size
        for k, t in enumerate(sites):
            for v, val in table.items():
                u = multiply(t, v)
                if len(u) <= own:
                    reads[k].append((val * scale, base + own_index(u)))
                elif u in slots:
                    reads[k].append((val * scale * slots[u][1], slots[u][0]))
            if len(t) < n:
                continue
            descendants = (multiply(t, v) for v in enumerate_sphere(d, radius - n))
            terms = [
                abs(table[v]) ** alpha
                for u in descendants
                if len(u) == radius and (v := multiply(t.inverse(), u)) in table
            ]
            weight = math.fsum(terms)
            if weight > 0.0:
                reads[k].append((scale * weight ** (1.0 / alpha), outer))
                outer += 1
        base = outer

    def draw(rng):
        z = sample_sas(rng, alpha, 1.0, size=base).tolist()
        out = [0.0] * len(sites)
        for k, site_reads in enumerate(reads):
            for val, i in site_reads:
                out[k] += val * z[i]
        return np.array(out)

    return draw


def nu_alpha_integral_midpoints(alpha: float, coeffs, g) -> float:
    """integral of (1 - exp(-sum_k g(x c_k))) d nu_alpha(x), piece by piece.

    The reference for ``limit_process.nu_alpha_integral``.  Per side of
    the line, the integrand is constant between consecutive ratios
    break/coefficient, taken as exact rationals, so pieces narrower than a
    float's spacing keep their place and width; each piece is evaluated by
    looking g up at its exact midpoint once per coefficient and weighted
    by its power-law mass, a^-alpha - b^-alpha, taken at 40 digits as
    a^-alpha (1 - (1 + (b - a)/a)^-alpha) so that it keeps its digits for
    alpha near 0 and for narrow pieces.  Quadratic in the number of
    coefficients.
    """
    import bisect

    import mpmath

    def g_at(x):  # g's own rule: a point on a break belongs to the piece on its left
        return g.values[bisect.bisect_left(g.breaks, x)]

    cs = [Fraction(c) for c in coeffs if c != 0.0]
    breaks = [Fraction(b) for b in g.breaks]
    total = 0.0
    for sign in (1, -1):
        pts = sorted({sign * b / c for b in breaks for c in cs if sign * b / c > 0})
        for i, a in enumerate(pts):
            b = pts[i + 1] if i + 1 < len(pts) else None
            mid = 2 * a if b is None else (a + b) / 2
            h = float(sum(g_at(sign * mid * c) for c in cs))
            with mpmath.workdps(40):
                a_mp = mpmath.mpf(a.numerator) / a.denominator
                if b is None:
                    mass = float(a_mp**-alpha)
                else:
                    rel = (b - a) / a
                    rel_mp = mpmath.mpf(rel.numerator) / rel.denominator
                    mass = float(a_mp**-alpha * -mpmath.expm1(-alpha * mpmath.log1p(rel_mp)))
            total += -math.expm1(-h) * mass
    return total


def chi2_pvalue(observed, expected) -> float:
    """Pearson chi-square p-value; expected counts are rescaled to the sample size."""
    obs = np.asarray(observed, dtype=float)
    exp = np.asarray(expected, dtype=float)
    exp = exp * obs.sum() / exp.sum()
    if np.any(exp < 5):
        raise ValueError("expected counts below 5; merge bins first")
    stat = float(np.sum((obs - exp) ** 2 / exp))
    return float(sstats.chi2.sf(stat, len(obs) - 1))


def two_sample_ks_pvalue(a, b) -> float:
    return float(sstats.ks_2samp(np.asarray(a), np.asarray(b)).pvalue)


def atom_rows_reference(blocks) -> list:
    """The (rep, atom) tuples the pp and limit-sample runs stored, one per atom."""
    return [(rep, float(a)) for rep, block in enumerate(blocks) for a in block]


def write_csv_reference(path, columns, records):
    """Row-by-row csv.writer: the reference for ``ExperimentResult.write_csv``."""
    with open(path, "w", newline="", encoding="utf8") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for row in records:
            w.writerow(row)
