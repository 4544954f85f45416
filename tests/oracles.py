"""Test-side oracles shared by several test modules."""

import csv
import functools
import math

import numpy as np
from scipy import stats as sstats

from stabletree.errors import PathTooShortError, PrefixTooShortError, ResourceBudgetError
from stabletree.free_group import Word, allowed_next_letters, ball_layout, ball_size
from stabletree.stable import lepage_weights, sample_sas, stable_tail_constant
from stabletree.subgraphs import _expected_level


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


def boundary_values_reference(model, n: int, num_terms: int, rng) -> np.ndarray:
    """One replication of the boundary field over E_n, ray letter by ray letter.

    The loop reference for the boundary draw plan, consuming the stream in
    the same order: all LePage weights, then one batch of child ranks per
    level.  It tracks each ray's last letter, which the offsets never read,
    and adds every difference-array update with ``np.add.at``.
    """
    d, alpha = model.d, model.alpha
    lay = ball_layout(d, n)
    q = (2 * d - 1) ** (2.0 / alpha)
    acc = np.zeros(lay.size + 1)
    for wts in lepage_weights(rng, alpha, num_terms):
        N = len(wts)
        acc[0] += wts.sum()
        acc[lay.size] -= wts.sum()
        if n >= 1:
            b = np.empty(N, dtype=np.int64)
            prev = rng.integers(0, 2 * d, size=N)
            b[:] = 1 + prev * lay.subtree[1]
            qj = 1.0
            for j in range(n):
                if j > 0:
                    rr = rng.integers(0, 2 * d - 1, size=N)
                    lr = rr + (rr >= (prev ^ 1))
                    b += 1 + rr * lay.subtree[j + 1]
                    prev = lr
                val = wts * (q ** (j + 1) - qj)
                qj = q ** (j + 1)
                np.add.at(acc, b, val)
                np.add.at(acc, b + lay.subtree[j + 1], -val)
    dsum = np.cumsum(acc[:-1])
    scale = (2.0 * d - 1.0) ** (-lay.depth / alpha)
    return stable_tail_constant(alpha) ** (1.0 / alpha) * dsum * scale


def mma_values_reference(plan, rng) -> np.ndarray:
    """One mixed-moving-average replication from a plan's gather tables.

    The loop reference for the buffered MMA draw: fresh noise per atom and
    a fresh gathered array per kernel entry, consuming the stream in the
    same order.
    """
    out = np.zeros(plan.num_sites)
    for scale, gathers in plan.parts:
        z = sample_sas(rng, plan.alpha, scale, size=plan.noise_ball)
        for val, idx in gathers:
            out += val * z[idx]
    return out


def nu_alpha_integral_midpoints(alpha: float, coeffs, g) -> float:
    """integral of (1 - exp(-sum_k g(x c_k))) d nu_alpha(x), piece by piece.

    The reference for ``limit_process.nu_alpha_integral``.  Per side of
    the line, the integrand is constant between consecutive ratios
    break/coefficient; each piece is evaluated by calling g at its
    midpoint once per coefficient and weighted by its power-law mass.
    Quadratic in the number of coefficients.
    """
    cs = [c for c in coeffs if c != 0.0]
    total = 0.0
    for sign in (1.0, -1.0):
        pts = sorted({sign * b / c for b in g.breaks for c in cs if sign * b / c > 0})
        for i, a in enumerate(pts):
            b = pts[i + 1] if i + 1 < len(pts) else math.inf
            mid = 2.0 * a if math.isinf(b) else 0.5 * (a + b)
            h = float(sum(g(sign * mid * c) for c in cs))
            mass = a ** (-alpha) - (0.0 if math.isinf(b) else b ** (-alpha))
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
