"""The exact mixed-moving-average draw over E_n: :class:`_MMAPlan` and the
per-entry reads of :func:`_mma_reads` that it is built from.

``fields`` imports this module.  They are two modules because Python
compiles a module's source in one piece, so the memory an import peaks at
follows the largest module it compiles.
"""

from __future__ import annotations

import math
from functools import partial
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .free_group import Word, ball_layout, enumerate_sphere, letter_rank, word_sort_key
from .stable import sample_sas

if TYPE_CHECKING:
    from .fields import MixedMovingAverage


class _MMAAtom(NamedTuple):
    """One kernel atom's share of an :class:`_MMAPlan`.

    Per group of sites, ``groups`` holds its first depth-major position, a
    (K, rows) block of slots and the values they are read at, (K, rows) or
    one (K, 1) column: column c holds the c-th site's nonzero reads in
    table order, padded with the zero slot ``size`` at value 0.
    """

    scale: float  # the SaS scale of one noise site, noise_scale(w)
    size: int  # slots drawn at ``scale``: one per inner site, then one per class; ``size`` holds 0
    classes: list  # per class size c, increasing: (first slot, end slot, c, c^(1/alpha))
    outer: int  # outer-shell variates, in slots size + 1, ..., size + outer
    groups: list


class _MMAReads(NamedTuple):
    """One kernel atom's reads over E_n, which :class:`_MMAPlan` fills its blocks from.

    ``gathers`` yields per kernel entry (v, value), in table order, the pair
    (value, idx), ``idx[k]`` the slot of t_k v for the k-th site t_k of E_n:
    the inner site or the class it heads, else the zero slot ``size`` where
    t_k v lies on C_(n+m_w) and ``size + 1`` for a class's other nodes.  It
    computes each entry when it reaches it.  The sites are in canonical
    order, or in the order :func:`_mma_reads` was given.
    """

    scale: float
    size: int
    classes: list
    sphere: np.ndarray  # the positions of the sites of C_n with a positive outer weight
    sigma: np.ndarray  # their scales sigma_t
    reads: np.ndarray  # per site of E_n: its entries that read a slot below ``size``
    entries: tuple  # ((v, value), ...) in table order
    slots: partial  # v -> idx over E_n

    @property
    def gathers(self):
        return ((val, self.slots(v)) for v, val in self.entries)


class _MMAPlan:
    """Exact mixed-moving-average draw over E_n, built once per simulator.

    An atom w whose entries reach radius m_w reads noise on E_(n+m_w).  Its
    noise nodes fall into three kinds, each drawn as few times as the
    joint law over E_n allows.

    * The inner sites, E_n (E_(n-1) when m_w = 0): one variate each.
    * The outer shell C_(n+m_w): a node there is read by one site only, its
      depth-n ancestor t, through the entry v = t^-1 u.  As sum c_i Z_i of
      iid SaS(1) variables has the law of (sum |c_i|^alpha)^(1/alpha) Z,
      t's terms from that shell are drawn as one variate sigma_t Z'_t, with

          sigma_t = noise_scale(w) (sum_(v : |t v| = n + m_w) |f(w, v)|^alpha)^(1/alpha)

      summed by ``math.fsum``.
    * The nodes in between, below a site A of C_n: a class is a set of them
      below the same A with the same reader column {(t, f(w, t^-1 u)) : t in
      E_n}.  Each reader takes c_t sum_u Z_u from a class, and that sum has
      the law of |class|^(1/alpha) Z, so the class draws one variate, read
      through its first node in canonical order; its other nodes, and the
      nodes no site reads, have no slot.  :func:`_noise_classes` finds the
      classes at kernel size.

    No two kinds share noise and no two classes share a node, so the joint
    law over E_n is exact.

    The slots hold the inner sites in canonical order, then the classes by
    size, each size in the canonical order of their first nodes, then 0,
    then Z'_t for the t with sigma_t > 0, in canonical order.  Per atom a
    draw fills the slots before the 0 in one ``sample_sas`` call, scales a
    class by |class|^(1/alpha), and fills the Z'_t in a second call.  The
    field sums in depth-major order, E_k in the first |E_k| places, by
    groups: E_(n-max(m_w, 1)), where every entry reads an inner site, then
    each deeper sphere.  A group gathers only its sites' nonzero reads, in
    one 2-D block, and adds it row by row: a site adds its terms in table
    order, atom by atom, then sigma_t Z'_t, and no +0.0 of an entry that
    reads nothing.  At n = 8 for the level-symmetric radius-2 kernel (d = 2)
    that is 118,081 gathered cells over E_6, C_7 and C_8, against 17 |E_8|
    = 223,057 for one gather per entry over E_n.  The plan keeps none of
    the per-entry reads of :func:`_mma_reads`.

    ``__call__`` returns the field in canonical order.  A draw fills the
    plan's buffers, so a plan serves one draw at a time; the field it
    returns is fresh.
    """

    def __init__(self, model: MixedMovingAverage, n: int):
        self.alpha = alpha = model.alpha
        # the widest layout an atom reads; its nodes of depth <= n are E_n in canonical order
        lay = ball_layout(model.d, max(n + model.support_radius - 1, n))
        depth = lay.depth[lay.depth <= n]
        order = np.argsort(depth, kind="stable")  # the canonical position of each depth-major one
        self.inv = np.empty_like(order)
        self.inv[order] = np.arange(len(order))
        edges = np.cumsum(np.bincount(depth)).tolist()  # |E_0|, ..., |E_n|
        self.parts = [_read_blocks(reads, edges) for reads in _mma_reads(model, n, order)]
        self.noise = np.empty(max((p.size + 1 + p.outer for p in self.parts), default=1))
        # the gathered terms of a block, taken in chunks of whole rows of at most 3 |E_n| terms
        blocks = [s.shape for p in self.parts for _, s, _ in p.groups]
        chunks = (min(k, 3 * edges[-1] // rows) * rows for k, rows in blocks)
        self.terms = np.empty(max(chunks, default=0))
        drawn = max((max(p.size, p.outer) for p in self.parts), default=0)
        # the uniforms, exponentials and scratch terms of sample_sas, which alpha = 1 does without
        self.work = None if alpha == 1.0 else np.empty((3, drawn))
        self.acc = np.empty(edges[-1])  # the field in depth-major order

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        """One exact replication over E_n, in canonical order."""
        acc = self.acc
        acc[:] = 0.0
        for part in self.parts:
            noise = self.noise[: part.size + 1 + part.outer]
            work = None if self.work is None else self.work[:, : part.size]
            sample_sas(rng, self.alpha, part.scale, size=part.size, out=noise[: part.size], work=work)
            noise[part.size] = 0.0
            if part.outer:
                work = None if self.work is None else self.work[:, : part.outer]
                sample_sas(rng, self.alpha, 1.0, size=part.outer, out=noise[part.size + 1 :], work=work)
            for lo, hi, _, factor in part.classes:
                noise[lo:hi] *= factor
            for start, slots, values in part.groups:
                sites = acc[start : start + slots.shape[1]]
                step = len(self.terms) // len(sites)
                for r in range(0, len(slots), step):
                    block = slots[r : r + step]
                    terms = self.terms[: block.size].reshape(block.shape)
                    # the slots lie in the buffer by construction; mode="raise" would
                    # gather through a temporary copy
                    np.take(noise, block, out=terms, mode="clip")
                    terms *= values[r : r + step]
                    for row in terms:
                        sites += row
        return np.take(acc, self.inv)


def _mma_reads(model: MixedMovingAverage, n: int, order=None):
    """The :class:`_MMAReads` of each atom over E_n, one atom at a time; its
    k-th site is the ``order[k]``-th of E_n in canonical order, or the k-th
    if ``order`` is None."""
    return (_atom_reads(model, n, w, entries, order) for w, entries in model.f_table)


def _atom_reads(model: MixedMovingAverage, n: int, w: str, entries: tuple, order) -> _MMAReads:
    """Atom w's :class:`_MMAReads`: a function of its own, so that its layout
    masks and outer-shell hits go when it returns."""
    table, alpha = dict(entries), model.alpha
    radius = n + max(map(len, table), default=0)
    # a layout holding the inner noise E_(radius-1) and the sites E_n, in one preorder
    lay = ball_layout(model.d, max(radius - 1, n))
    sites = np.flatnonzero(lay.depth <= n)
    if order is not None:
        sites = sites[order]
    sphere = np.flatnonzero(lay.depth[sites] == n)
    inner = np.flatnonzero(lay.depth < min(radius, n + 1))
    heads = _class_heads(lay, sites[sphere], n, table)  # {class size: first nodes}
    size = len(inner) + sum(map(len, heads.values()))
    # each node's slot: its own, or its class's if it heads one; ``size + 1`` for the
    # other nodes of E_(radius-1) and ``size`` on C_radius, whose nodes past the layout
    # are products -1 and read the extra last entry
    remap = np.full(lay.size + 1, size, dtype=np.int32)
    remap[:-1][lay.depth < radius] = size + 1
    remap[inner] = np.arange(len(inner), dtype=np.int32)
    classes, lo = [], len(inner)
    for c, first in heads.items():
        remap[first] = np.arange(lo, lo + len(first), dtype=np.int32)
        classes.append((lo, lo + len(first), c, c ** (1.0 / alpha)))
        lo += len(first)
    slots = partial(_right_products, lay, sites, remap)
    reads = np.zeros(len(sites), dtype=np.int32)
    hits = np.empty((len(sphere), len(entries)), dtype=bool)  # the entries reaching C_radius
    for j, (v, _) in enumerate(entries):
        idx = slots(v)
        reads += idx < size
        np.equal(idx[sphere], size, out=hits[:, j])
    scale = model.noise_scale(w)
    sigma = _outer_scales(hits, [val for _, val in entries], alpha, scale)
    keep = sigma > 0.0
    return _MMAReads(scale, size, classes, sphere[keep], sigma[keep], reads, entries, slots)


def _read_blocks(reads: _MMAReads, edges: list) -> _MMAAtom:
    """The :class:`_MMAAtom` of ``reads``, its blocks filled one entry at a time.

    ``reads`` lists the sites in depth-major order, and ``edges`` holds
    |E_0|, ..., |E_n|.  Past the first group, the groups share one slot and
    one value buffer, and a cursor per site holds the cell of its next
    read, one block row (the group's site count) past its last.
    """
    n = len(edges) - 1
    split = n - max(max((len(v) for v, _ in reads.entries), default=0), 1)
    lo = edges[split] if split >= 0 else 0  # E_split, where every entry reads an inner site
    count = reads.reads[lo:].copy()  # the nonzero reads of each site past it, Z'_t included
    count[reads.sphere - lo] += 1
    ends = np.array(edges[max(split + 1, 0) :]) - lo  # the sphere groups past E_split
    rows = np.diff(ends, prepend=0)
    starts = ends - rows
    heights = np.maximum.reduceat(count, starts)  # K per group
    cells = heights * rows
    blocks = np.cumsum(cells) - cells  # where each group's cells begin
    slots = np.full(cells.sum(), reads.size, dtype=np.intp)
    values = np.zeros(cells.sum())
    cursor = count  # the counts' buffer now holds each site's next cell
    cursor[:] = np.arange(ends[-1]) + (blocks - starts).repeat(rows)
    spans = list(zip(starts.tolist(), ends.tolist(), rows.tolist()))
    head = np.empty((len(reads.entries), lo), dtype=np.intp)
    for j, (val, idx) in enumerate(reads.gathers):
        head[j] = idx[:lo]
        for a, b, r in spans:  # group by group, to keep each entry's index arrays small
            tail, here = idx[lo + a : lo + b], cursor[a:b]
            hit = np.flatnonzero(tail < reads.size)
            at = here[hit]
            slots[at] = tail[hit]
            values[at] = val
            at += r
            here[hit] = at
    at = cursor[reads.sphere - lo]
    slots[at] = np.arange(reads.size + 1, reads.size + 1 + len(at))
    values[at] = reads.sigma
    groups = [(0, head, np.array([val for _, val in reads.entries])[:, None])] if head.size else []
    for a, r, k, b in zip(starts.tolist(), rows.tolist(), heights.tolist(), blocks.tolist()):
        if k:
            block = slice(b, b + k * r)
            groups.append((lo + a, slots[block].reshape(k, r), values[block].reshape(k, r)))
    return _MMAAtom(reads.scale, reads.size, reads.classes, len(reads.sphere), groups)


def _noise_classes(d: int, n: int, table: dict) -> dict:
    """The classes of the noise nodes A w, 1 <= |w| < m, below a site A of C_n.

    m is the kernel's largest entry length.  Keyed by q-letter suffixes P,
    q = min(n, m // 2): per P, the classes below a site ending in P, each
    a list of words w in canonical order, so its first node first.

    A site t of E_n reads A w through t^-1 A w = s w with s = t^-1 A, which
    is e or ends in A's last letter; |t| <= n holds iff s shares its last
    ceil(|s| / 2) letters with A, and f(s w) = 0 for |s| >= m.  So the
    readers of A w are fixed by P, and two nodes below A have one column
    iff they have the same nonzero values f(s w) at those s.  Nodes with
    none are read by no site and lie in no class.
    """
    m = max(map(len, table), default=0)
    q = min(n, m // 2)
    # splits[w][tail]: the (s, f(s w)) of the entries s w, 1 <= |w| < m, whose s ends in
    # ``tail``, its last ceil(|s| / 2) letters
    splits = {}
    for v, val in table.items():
        for i in range(max(len(v) - m + 1, 0), len(v) if val else 0):
            tails = splits.setdefault(v.letters[i:], {})
            tails.setdefault(v.letters[i // 2 : i], []).append((v.letters[:i], val))
    offsets = []  # (w, its first letter, its terms by tail), in canonical order
    for w in sorted(map(partial(Word, d), splits), key=word_sort_key):
        tails = {tail: tuple(sorted(terms)) for tail, terms in splits[w.letters].items()}
        offsets.append((w, w.letters[0], tails))
    out = {}
    for suffix in enumerate_sphere(d, q):
        ends = [suffix.letters[q - h :] for h in range(q + 1)]
        barred = -suffix.letters[-1] if q else None  # no w below A begins with it
        groups = {}
        for w, first, tails in offsets:
            key = tuple(map(tails.get, ends))
            if first != barred and any(key):
                groups.setdefault(key, []).append(w)
        out[suffix] = list(groups.values())
    return out


def _class_heads(lay, sphere, n: int, table: dict) -> dict:
    """{class size: layout indices of the first nodes of the classes of that size}.

    Sizes increase and each array is in canonical order.  ``sphere`` holds
    the layout indices of C_n; a node of C_n ends in P iff its product with
    P^-1 lies |P| levels up.
    """
    heads = {}
    for suffix, groups in _noise_classes(lay.d, n, table).items():
        up = lay.right_translate(sphere, suffix.inverse())
        below = sphere[lay.depth[up] == n - len(suffix)]
        for members in groups:
            heads.setdefault(len(members), []).append(lay.right_translate(below, members[0]))
    return {c: np.sort(np.concatenate(heads[c])) for c in sorted(heads)}


def _right_products(lay, sites, remap: np.ndarray, v: Word) -> np.ndarray:
    """``remap`` at the index in ``lay`` of t v for each node t at ``sites``, at -1
    where t v lies outside.

    For |t| + |v| at most one past the layout's radius: every proper prefix
    v' of v keeps t v' inside, so only the last letter can step out.
    """
    if v.letters:
        sites = lay.right_translate(sites, Word(v.rank, v.letters[:-1]))
        sites = lay.right_mul[sites, letter_rank(v.letters[-1])]
    return remap.take(sites)


def _outer_scales(hits: np.ndarray, values: list, alpha: float, scale: float) -> np.ndarray:
    """sigma_t per row of ``hits``, the sites of C_n by the entries that reach the
    outer shell from them: ``scale`` times the alpha-norm of those entries'
    values, 0 where none does.

    The entries a site reaches the outer shell through depend on its last
    letter only, so the sites fall into a few patterns; each pattern's
    |value|^alpha are summed once, by ``math.fsum``.
    """
    if not values:
        return np.zeros(len(hits))
    # each row's bits as one opaque key: np.unique then sorts bytes, not columns
    keys = np.packbits(hits, axis=1)
    _, first, which = np.unique(
        keys.view(f"V{keys.shape[1]}").ravel(), return_index=True, return_inverse=True
    )
    terms = [abs(val) ** alpha for val in values]
    sigma = [
        scale * math.fsum(t for t, hit in zip(terms, hits[i]) if hit) ** (1.0 / alpha) for i in first
    ]
    return np.array(sigma)[which]
