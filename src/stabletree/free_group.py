"""Reduced-word algebra for the free group of rank d and its Cayley tree.

Group elements are reduced words over the symmetric generating set
{a_1, a_1^-1, ..., a_d, a_d^-1}, encoded as tuples of signed integers:
+i stands for a_i and -i for a_i^-1.  The Cayley graph is the 2d-regular
tree; word length equals graph distance from the identity e.

All counting is exact integer arithmetic (no closed form is evaluated in
floating point), and enumeration follows a fixed canonical order
a_1 < a_1^-1 < a_2 < a_2^-1 < ... applied lexicographically, i.e. the
depth-first preorder of the tree.  Words are immutable values, safe to
share between workers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import PrefixTooShortError, RankMismatchError, ResourceBudgetError

ENUMERATION_BUDGET = 2_000_000


def letter_rank(g: int) -> int:
    """Position of a letter in the canonical order a_1 < a_1^-1 < a_2 < ..."""
    return 2 * (abs(g) - 1) + (1 if g < 0 else 0)


def rank_letter(r: int) -> int:
    """Inverse of :func:`letter_rank`."""
    return (r // 2 + 1) * (-1 if r % 2 else 1)


def letters_in_order(d: int):
    """The 2d generators in canonical order."""
    return tuple(rank_letter(r) for r in range(2 * d))


@dataclass(frozen=True, slots=True)
class Word:
    """A reduced word; the raw constructor trusts its input.

    Use :func:`word` to build from arbitrary letter sequences (it reduces
    and validates).  ``letters`` must contain no adjacent pair g, -g and
    only letters with 1 <= |g| <= rank.
    """

    rank: int
    letters: tuple

    def __len__(self):
        return len(self.letters)

    def inverse(self) -> "Word":
        return Word(self.rank, tuple(-g for g in reversed(self.letters)))

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __repr__(self):
        return f"Word(d={self.rank}, {format_word(self)})"


def identity(d: int) -> Word:
    return Word(d, ())


def reduce_letters(letters) -> tuple:
    """Iteratively cancel adjacent inverse pairs; the canonical representative."""
    out = []
    for g in letters:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def word(d: int, letters) -> Word:
    """Build a Word from any letter sequence, validating and reducing."""
    letters = tuple(int(g) for g in letters)
    for g in letters:
        if g == 0 or abs(g) > d:
            raise ValueError(f"letter {g} out of range for rank {d}")
    return Word(d, reduce_letters(letters))


def _check_ranks(u: Word, v: Word):
    if u.rank != v.rank:
        raise RankMismatchError(f"rank mismatch: {u.rank} != {v.rank}")


def multiply(u: Word, v: Word) -> Word:
    """Concatenation followed by reduction.  |u*v| <= |u| + |v|."""
    _check_ranks(u, v)
    a, b = u.letters, v.letters
    i = len(a)
    j = 0
    while i > 0 and j < len(b) and a[i - 1] == -b[j]:
        i -= 1
        j += 1
    return Word(u.rank, a[:i] + b[j:])


def distance(u: Word, v: Word) -> int:
    """Graph distance on the Cayley tree: |u^-1 v|."""
    _check_ranks(u, v)
    return len(u) + len(v) - 2 * common_prefix_length(u, v)


def common_prefix_length(u: Word, v: Word) -> int:
    a, b = u.letters, v.letters
    c = 0
    m = min(len(a), len(b))
    while c < m and a[c] == b[c]:
        c += 1
    return c


def is_prefix(u: Word, v: Word) -> bool:
    """True iff u is an initial segment of v."""
    return len(u) <= len(v) and v.letters[: len(u)] == u.letters


def word_sort_key(w: Word):
    """Sort key realising the canonical (preorder/lexicographic) order."""
    return tuple(letter_rank(g) for g in w.letters)


# ---------------------------------------------------------------------------
# Ball and sphere counting / enumeration
# ---------------------------------------------------------------------------

def sphere_size(d: int, n: int) -> int:
    """|C_n|, the number of words of length exactly n (exact integer)."""
    if d < 2:
        raise ValueError("rank must be >= 2")
    if n < 0:
        raise ValueError("radius must be >= 0")
    if n == 0:
        return 1
    return 2 * d * (2 * d - 1) ** (n - 1)


def ball_size(d: int, n: int) -> int:
    """|E_n| = 1 + d/(d-1)((2d-1)^n - 1), evaluated in exact integers."""
    if d < 2:
        raise ValueError("rank must be >= 2")
    if n < 0:
        raise ValueError("radius must be >= 0")
    num = d * ((2 * d - 1) ** n - 1)
    assert num % (d - 1) == 0
    return 1 + num // (d - 1)


def allowed_next_letters(d: int, last: int | None):
    """Canonical-order letters that keep a word reduced after ``last``."""
    if last is None:
        return letters_in_order(d)
    return tuple(g for g in letters_in_order(d) if g != -last)


def _check_budget(count: int):
    if count > ENUMERATION_BUDGET:
        raise ResourceBudgetError(
            f"enumeration of {count} words exceeds budget {ENUMERATION_BUDGET}"
        )


def _preorder(d: int, n: int):
    """Letter tuples of all words of length <= n in canonical preorder (e first)."""
    yield ()
    if n == 0:
        return
    cur: list[int] = []
    stack = [iter(letters_in_order(d))]
    while stack:
        try:
            g = next(stack[-1])
        except StopIteration:
            stack.pop()
            if cur:
                cur.pop()
            continue
        cur.append(g)
        yield tuple(cur)
        if len(cur) < n:
            stack.append(iter(allowed_next_letters(d, g)))
        else:
            cur.pop()


def enumerate_ball(d: int, n: int):
    """Yield all words of length <= n in canonical preorder (e first)."""
    _check_budget(ball_size(d, n))
    yield from map(functools.partial(Word, d), _preorder(d, n))


def enumerate_sphere(d: int, n: int):
    """Yield all words of length exactly n: the depth-n words of the ball preorder."""
    _check_budget(sphere_size(d, n))
    for letters in _preorder(d, n):
        if len(letters) == n:
            yield Word(d, letters)


# ---------------------------------------------------------------------------
# Confluents and the Busemann function
# ---------------------------------------------------------------------------

def confluent_length(t: Word, omega_prefix: Word) -> int:
    """Length of the longest common initial segment of t and a boundary ray.

    ``omega_prefix`` is a finite prefix of an infinite reduced word.  The
    confluent is decidable from the prefix unless the whole prefix matches
    a proper initial segment of t, in which case a deeper prefix is
    demanded.
    """
    _check_ranks(t, omega_prefix)
    c = common_prefix_length(t, omega_prefix)
    if c == len(omega_prefix) and len(omega_prefix) < len(t):
        raise PrefixTooShortError(
            f"prefix of length {len(omega_prefix)} cannot decide the confluent "
            f"with a word of length {len(t)}; extend to at least {len(t)}"
        )
    return c


def busemann(t: Word, omega_prefix: Word) -> int:
    """B_omega(t) = |t| - 2 |t ^ omega|; always in [-|t|, |t|]."""
    return len(t) - 2 * confluent_length(t, omega_prefix)


# ---------------------------------------------------------------------------
# Canonical flat layout of a ball (preorder indexing)
# ---------------------------------------------------------------------------

class BallLayout:
    """Index arithmetic for the canonical preorder enumeration of E_n.

    Subtrees are contiguous index ranges: the child of rank r of a
    depth-(j-1) node at index b sits at b + 1 + r * subtree[j], where
    ``subtree[j]`` is the subtree size of a depth-j node (within the ball);
    the root is special because it has 2d children instead of 2d - 1.

    The per-node arrays ``depth``, ``a1_exponent`` and the neighbour table
    ``right_mul`` are built together on first access and are read-only,
    since layouts are shared through the :func:`ball_layout` cache.
    """

    def __init__(self, d: int, n: int):
        self.d = d
        self.n = n
        self.size = ball_size(d, n)
        _check_budget(self.size)
        sub = [0] * (n + 2)
        if n >= 1:
            sub[n] = 1
            for j in range(n - 1, 0, -1):
                sub[j] = 1 + (2 * d - 1) * sub[j + 1]
        sub[0] = self.size
        self.subtree = sub
        self._arrays = None

    def _build_arrays(self):
        """Fill the per-node arrays level by level, vectorised over each level.

        The children of a depth-(j-1) node at index s sit at s + 1 + r * subtree[j]
        for r = 0, 1, ...; their last letters run through the canonical order,
        skipping the inverse of the parent's last letter (rank ^ 1).
        """
        d, n = self.d, self.n
        depth = np.zeros(self.size, dtype=np.int16)
        expo = np.zeros(self.size, dtype=np.int32)
        right_mul = np.full((self.size, 2 * d), -1, dtype=np.int32)
        starts = np.zeros(1, dtype=np.int32)
        skip = np.full(1, 2 * d, dtype=np.int32)  # the root skips no letter
        kval = np.zeros(1, dtype=np.int32)
        for j in range(1, n + 1):
            r = np.arange(2 * d if j == 1 else 2 * d - 1, dtype=np.int32)
            lrank = r + (r >= skip[:, None])
            child = starts[:, None] + 1 + r * self.subtree[j]
            knew = kval[:, None] + (lrank == 0) - (lrank == 1)
            depth[child] = j
            expo[child] = knew
            right_mul[starts[:, None], lrank] = child
            right_mul[child, lrank ^ 1] = starts[:, None]
            starts, skip, kval = child.ravel(), (lrank ^ 1).ravel(), knew.ravel()
        for a in (depth, expo, right_mul):
            a.setflags(write=False)
        return depth, expo, right_mul

    def _built(self):
        if self._arrays is None:
            self._arrays = self._build_arrays()
        return self._arrays

    @property
    def depth(self) -> np.ndarray:
        """Word length of each index."""
        return self._built()[0]

    @property
    def a1_exponent(self) -> np.ndarray:
        """Signed a_1 letter count of each index (the shift homomorphism)."""
        return self._built()[1]

    @property
    def right_mul(self) -> np.ndarray:
        """``right_mul[i, r]``: index of t_i * g for the letter g of canonical rank r.

        -1 where the product leaves the ball; int32, shape (size, 2d).  The
        parent of node i is ``right_mul[i, r ^ 1]`` for r the rank of its
        last letter.
        """
        return self._built()[2]

    def right_translate(self, idx, w: Word) -> np.ndarray:
        """Indices of t * w for the nodes t at ``idx``, one table lookup per letter."""
        if w.rank != self.d:
            raise RankMismatchError(f"rank mismatch: {w.rank} != {self.d}")
        out = np.asarray(idx)
        for g in w.letters:
            out = self.right_mul[out, letter_rank(g)]
            if (out < 0).any():
                raise ValueError(
                    f"product with {format_word(w)} leaves the ball of radius {self.n}"
                )
        return out

    def word_to_index(self, w: Word) -> int:
        if len(w) > self.n:
            raise ValueError(f"word of length {len(w)} outside ball of radius {self.n}")
        b = 0
        prev = -1
        for i, g in enumerate(w.letters):
            r = letter_rank(g)
            if i > 0:
                r = r - (1 if r > (prev ^ 1) else 0)
            b = b + 1 + r * self.subtree[i + 1]
            prev = letter_rank(g)
        return b


@functools.lru_cache(maxsize=8)
def ball_layout(d: int, n: int) -> BallLayout:
    return BallLayout(d, n)


# ---------------------------------------------------------------------------
# Text syntax: a1.a2^-1
# ---------------------------------------------------------------------------

def format_word(w: Word) -> str:
    if w.is_identity:
        return "e"
    return ".".join(f"a{abs(g)}" + ("^-1" if g < 0 else "") for g in w.letters)


def parse_word(d: int, text: str) -> Word:
    text = text.strip()
    if text in ("e", ""):
        return identity(d)
    letters = []
    for tok in text.split("."):
        tok = tok.strip()
        neg = tok.endswith("^-1")
        if neg:
            tok = tok[:-3]
        if not tok.startswith("a"):
            raise ValueError(f"cannot parse generator {tok!r}")
        idx = int(tok[1:])
        if not 1 <= idx <= d:
            raise ValueError(f"generator index {idx} out of range for rank {d}")
        letters.append(-idx if neg else idx)
    return word(d, letters)
