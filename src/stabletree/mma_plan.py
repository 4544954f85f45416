"""The exact mixed-moving-average draw over E_n as X = B Z: :class:`_MMAPlan`,
its sparse map B with every constant in the values it reads its SaS(1)
slots Z at, and the per-atom slot tables of :func:`_mma_slots` that it is
built from, each group's table taken once, C_n's first.

``fields`` imports this module.  They are two modules because Python
compiles a module's source in one piece, so the memory an import peaks at
follows the largest module it compiles.
"""

from __future__ import annotations

import math
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .free_group import Word, ball_layout, enumerate_sphere, letter_rank, word_sort_key
from .stable import sample_sas

if TYPE_CHECKING:
    from .fields import MixedMovingAverage


class _MMAPlan:
    """Exact mixed-moving-average draw over E_n, built once per simulator.

    A draw is X = B Z over E_n: Z is one vector of iid SaS(1) slots shared
    by all atoms, and every constant lives in the sparse map B, as c Z is
    SaS(|c|) (Samorodnitsky and Taqqu 1994, Props. 1.2.1 and 1.2.3).  An atom w
    whose entries reach radius m_w reads noise on E_(n+m_w), of scale
    noise_scale(w) per node.  Its noise nodes fall into three kinds, each
    drawn as few times as the joint law over E_n allows.

    * The inner sites, E_n (E_(n-1) when m_w = 0): one slot each, read
      through the entry v at f(w, v) noise_scale(w).
    * The outer shell C_(n+m_w): a node there is read by one site only, its
      depth-n ancestor t, through the entry v = t^-1 u.  As sum c_i Z_i of
      iid SaS(1) variables has the law of (sum |c_i|^alpha)^(1/alpha) Z,
      t's terms from that shell take one slot, read at

          sigma_t = noise_scale(w) (sum_(v : |t v| = n + m_w) |f(w, v)|^alpha)^(1/alpha)

      summed by ``math.fsum``.
    * The nodes in between, below a site A of C_n: a class is a set of them
      below the same A with the same reader column {(t, f(w, t^-1 u)) : t in
      E_n}.  Each reader takes c_t sum_u Z_u from a class, and that sum has
      the law of |class|^(1/alpha) Z, so the class takes one slot, read
      through its first node in canonical order at f(w, v) noise_scale(w)
      |class|^(1/alpha); its other nodes, and the nodes no site reads, have
      no slot.  :func:`_noise_classes` finds the classes at kernel size.

    No two kinds share noise and no two classes share a node, so the joint
    law over E_n is exact.

    Slot 0 holds 0.  Atom by atom the slots then hold the inner sites in
    canonical order, the classes by size, each size in the canonical order
    of their first nodes, and the t with sigma_t > 0, in canonical order.
    A draw fills every slot past 0 in one ``sample_sas`` call at scale 1.
    The field sums in depth-major order, E_k in the first |E_k| places, by
    groups: per atom, E_(n-max(m_w, 1)), where every entry reads an inner
    site, then each deeper sphere.  A group gathers only its sites' nonzero
    reads, in one 2-D block of slots and the values they are read at, and
    adds it row by row: a site adds its terms (f(w, v) noise_scale(w))
    |class|^(1/alpha) Z in table order, then sigma_t Z, atom by atom, and
    a padding cell reads slot 0 at value 0.  At n = 8 for the
    level-symmetric radius-2 kernel (d = 2) that is 118,081 gathered
    cells over E_6, C_7 and C_8, against 17 |E_8| = 223,057 for one
    gather per entry over E_n.  The build takes each group's slot table of
    :func:`_mma_slots` once, C_n's first, while no other block is held,
    and keeps none of them.  An atom's groups partition the sites, so
    their order changes no float.

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
        self.groups, end = [], 1  # (first depth-major position, slots, values); slot 0 holds 0
        for atom in _mma_slots(model, n, order):
            groups, end = _read_blocks(atom, edges, alpha, end)
            self.groups += groups
        atom = None  # the last atom's table, with its sites and remap, goes before the buffers come
        self.noise = np.zeros(end)
        # the uniforms, exponentials and scratch terms of sample_sas, which alpha = 1 does without
        self.work = None if alpha == 1.0 else np.empty((3, end - 1))
        # the gathered terms of a block, taken in chunks of whole rows of at most 3 |E_n| terms
        chunks = (min(len(s), 3 * edges[-1] // s.shape[1]) * s.shape[1] for _, s, _ in self.groups)
        self.terms = np.empty(max(chunks, default=0))
        self.acc = np.empty(edges[-1])  # the field in depth-major order

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        """One exact replication over E_n, in canonical order."""
        acc = self.acc
        acc[:] = 0.0
        noise = self.noise
        sample_sas(rng, self.alpha, 1.0, size=len(noise) - 1, out=noise[1:], work=self.work)
        for start, slots, values in self.groups:
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


def _mma_slots(model: MixedMovingAverage, n: int, order=None):
    """Per atom w in turn: (scale, size, classes, values, reach, table) over E_n.

    ``scale`` is noise_scale(w).  The slots below ``size`` hold the inner
    sites, then the classes; ``classes`` lists per class size c, increasing,
    (first slot, end slot, c, c^(1/alpha)).  ``values`` holds the entries'
    values in table order and ``reach`` is m_w.  ``table(a, b)`` is the
    (entries, b - a) int32 table of the slots the a-th to (b-1)-th sites
    read, entry by entry: the slot of t v, its inner site or the class it
    heads, else the zero slot ``size`` where t v lies on C_(n+m_w) and
    ``size + 1`` for the other nodes.  The k-th site is the ``order[k]``-th
    of E_n in canonical order, or the k-th if ``order`` is None.
    """
    for w, entries in model.f_table:
        kernel = dict(entries)
        reach = max(map(len, kernel), default=0)
        radius = n + reach
        # a layout holding the inner noise E_(radius-1) and the sites E_n, in one preorder
        lay = ball_layout(model.d, max(radius - 1, n))
        sites = np.flatnonzero(lay.depth <= n)
        if order is not None:
            sites = sites[order]
        inner = np.flatnonzero(lay.depth < min(radius, n + 1))
        heads = _class_heads(lay, np.flatnonzero(lay.depth == n), n, kernel)  # {size: first nodes}
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
            classes.append((lo, lo + len(first), c, c ** (1.0 / model.alpha)))
            lo += len(first)
        slots = partial(_slot_table, lay, sites, remap, kernel)
        yield model.noise_scale(w), size, classes, [val for _, val in entries], reach, slots


def _read_blocks(atom: tuple, edges: list, alpha: float, base: int) -> tuple:
    """The groups (first depth-major position, slots, values) of one atom of
    :func:`_mma_slots`, its sites in depth-major order and its slots from
    ``base`` on, and the end of its slots; ``edges`` holds |E_0|, ..., |E_n|.

    Each group takes its slot table once.  C_n goes first, while no other
    block is held, and its sites read their sigma_t slots.
    """
    scale, size, classes, values, reach, table = atom
    n = len(edges) - 1
    split = n - max(reach, 1)  # E_split, where every entry reads an inner site
    groups, end = [], base + size
    for k in range(n, max(split, -1), -1):  # C_n, then each shallower sphere past E_split
        start = edges[k - 1] if k else 0
        shell = alpha if k == n else None  # C_n reads the outer shell
        block, cells, drawn = _sphere_block(table(start, edges[k]), atom[:4], base, shell)
        end += drawn
        if len(block):
            groups.append((start, block, cells))
    lo = edges[split] if split >= 0 else 0
    if lo and values:
        slots = table(0, lo).astype(np.intp)
        slots += base
        groups.append((0, slots, np.array([val * scale for val in values])[:, None]))
    return groups, end


def _sphere_block(slots: np.ndarray, atom: tuple, base: int, alpha=None) -> tuple:
    """One group's (K, rows) blocks of slots and values from its (entries,
    rows) slot table, and how many outer-shell slots it reads.

    ``atom`` holds (scale, size, classes, values) of :func:`_mma_slots`,
    whose slot s is the plan's ``base + s``.  K is the sites' largest count
    of reads below ``size``.  The blocks are filled entry by entry at
    f(w, v) noise_scale(w), with a cursor per site holding the row of its
    next read, and padded with slot 0 at value 0; then one masked multiply
    per class scales the cells that read it by |class|^(1/alpha).  With
    ``alpha``, on C_n, each site t with sigma_t > 0 then reads slot
    ``base + size + i`` at sigma_t, the i-th such site.  A function of its
    own, so that the table and the cursors go before the next group's table
    is taken.
    """
    scale, size, classes, values = atom
    count = np.count_nonzero(slots < size, axis=0)
    sigma = np.zeros(len(count)) if alpha is None else _outer_scales(slots == size, values, alpha, scale)
    last = np.flatnonzero(sigma > 0.0)
    count[last] += 1
    block = np.zeros((count.max(), len(count)), dtype=np.intp)
    cells = np.zeros(block.shape)
    cursor = np.zeros_like(count)
    for row, val in zip(slots, values):
        hit = np.flatnonzero(row < size)
        at = cursor[hit]
        block[at, hit] = row[hit] + base
        cells[at, hit] = val * scale
        cursor[hit] = at + 1
    for lo, hi, _, factor in classes:
        np.multiply(cells, factor, out=cells, where=(block >= base + lo) & (block < base + hi))
    block[cursor[last], last] = np.arange(base + size, base + size + len(last))
    cells[cursor[last], last] = sigma[last]
    return block, cells, len(last)


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


def _slot_table(lay, sites, remap: np.ndarray, kernel: dict, a: int, b: int) -> np.ndarray:
    """``remap`` at the index in ``lay`` of t v, per entry v of ``kernel`` and node t
    at ``sites[a:b]``, at -1 where t v lies outside: an (entries, b - a) table.

    For |t| + |v| at most one past the layout's radius: every proper prefix
    v' of v keeps t v' inside, so only the last letter can step out.
    """
    out = np.empty((len(kernel), b - a), dtype=remap.dtype)
    for row, v in zip(out, kernel):
        ts = sites[a:b]
        if v.letters:
            ts = lay.right_translate(ts, Word(v.rank, v.letters[:-1]))
            ts = lay.right_mul[ts, letter_rank(v.letters[-1])]
        remap.take(ts, out=row)
    return out


def _outer_scales(hits: np.ndarray, values: list, alpha: float, scale: float) -> np.ndarray:
    """sigma_t per column of ``hits``, the entries by the sites of C_n, true
    where the entry reaches the outer shell from the site: ``scale`` times
    the alpha-norm of those entries' values, 0 where none does.

    The entries a site reaches the outer shell through depend on its last
    letter only, so the sites fall into a few patterns; each pattern's
    |value|^alpha are summed once, by ``math.fsum``.
    """
    if not values:
        return np.zeros(hits.shape[1])
    # each site's bits as one opaque key: np.unique then sorts bytes, not rows
    keys = np.packbits(hits, axis=0).T.copy()
    _, first, which = np.unique(
        keys.view(f"V{keys.shape[1]}").ravel(), return_index=True, return_inverse=True
    )
    terms = [abs(val) ** alpha for val in values]
    sigma = [
        scale * math.fsum(t for t, hit in zip(terms, hits[:, i]) if hit) ** (1.0 / alpha)
        for i in first
    ]
    return np.array(sigma)[which]
