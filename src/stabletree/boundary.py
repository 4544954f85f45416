"""The boundary of the Cayley tree with its uniform (Patterson-Sullivan) measure.

A boundary point is an infinite reduced word; we represent it by a finite
prefix (every quantity we compute depends on finitely many letters).  Cylinder sets
H_g = {omega : omega starts with g} carry the exact measure
m(H_g) = 1 / (2d (2d-1)^(|g|-1)), and all set computations here are done
in exact rational arithmetic so that disjointness and cover checks are
decisive, not approximate.

The group acts on the boundary by phi_t(omega) = t^-1 . omega (reduced
left concatenation), composing as phi_{uv} = phi_v o phi_u, with
Radon-Nikodym derivative (2d-1)^(-B_omega(t)) where B is the Busemann
function of omega.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PrefixTooShortError
from .free_group import (
    Word,
    allowed_next_letters,
    busemann,
    enumerate_sphere,
    identity,
    is_prefix,
    letters_in_order,
    multiply,
    sphere_size,
    word_sort_key,
)


def cylinder_measure(g: Word) -> Fraction:
    """m(H_g) = 1/(2d (2d-1)^(|g|-1)); undefined for g = e."""
    if g.is_identity:
        raise ValueError("H_e is not a cylinder; measure undefined")
    d = g.rank
    return Fraction(1, 2 * d * (2 * d - 1) ** (len(g) - 1))


def sample_boundary(d: int, depth: int, rng: np.random.Generator) -> Word:
    """Draw a boundary point under the uniform measure, as its prefix of the given depth.

    First letter uniform over the 2d generators, every further letter
    uniform over the 2d-1 non-backtracking continuations, so
    P(prefix = g) = m(H_g) exactly.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    letters = []
    while len(letters) < depth:
        opts = allowed_next_letters(d, letters[-1] if letters else None)
        letters.append(opts[int(rng.integers(len(opts)))])
    return Word(d, tuple(letters))


def act_on_boundary(t: Word, omega: Word) -> Word:
    """phi_t(omega) = t^-1 . omega on the prefix ``omega`` of a boundary point.

    Requires a prefix of length >= 2|t| + 1 so that all cancellations are
    resolved and the result retains a usable prefix.
    """
    need = 2 * len(t) + 1
    if len(omega) < need:
        raise PrefixTooShortError(
            f"prefix length {len(omega)} < {need} required to apply a word of length {len(t)}"
        )
    return multiply(t.inverse(), omega)


def rn_derivative(t: Word, omega: Word) -> Fraction:
    """Exact Radon-Nikodym derivative (2d-1)^(-B_omega(t)) of phi_t at the prefix ``omega``."""
    if len(omega) < len(t):
        raise PrefixTooShortError(f"prefix length {len(omega)} < |t| = {len(t)}")
    b = busemann(t, omega)
    base = 2 * omega.rank - 1
    return Fraction(1, base**b) if b >= 0 else Fraction(base ** (-b))


@dataclass(frozen=True)
class CylinderSet:
    """A finite disjoint union of boundary cylinders, as a prefix-free family.

    ``words`` is canonically sorted; construction validates prefix-freeness
    (no generator may be an initial segment of another), which is exactly
    pairwise disjointness of the cylinders.
    """

    d: int
    words: tuple

    @staticmethod
    def from_words(d: int, words) -> "CylinderSet":
        ws = sorted(set(words), key=word_sort_key)
        for w in ws:
            if w.is_identity:
                raise ValueError("H_e is not a cylinder")
            if w.rank != d:
                raise ValueError("rank mismatch in cylinder family")
        for a, b in zip(ws, ws[1:]):
            if is_prefix(a, b):
                raise ValueError(f"cylinder family not prefix-free: {a!r} prefixes {b!r}")
        return CylinderSet(d, tuple(ws))

    @staticmethod
    def full(d: int) -> "CylinderSet":
        """The whole boundary, as the disjoint union of the 2d level-1 cylinders."""
        return CylinderSet.from_words(d, [Word(d, (g,)) for g in letters_in_order(d)])

    @property
    def measure(self) -> Fraction:
        return sum((cylinder_measure(w) for w in self.words), Fraction(0))


def _image_words(t: Word, g: Word) -> list:
    """Image of the cylinder H_g under phi_t, as a list of cylinder words.

    When g is an initial segment of t the cancellation would consume all of
    g, so H_g is first refined into its children; otherwise the image is the
    single cylinder H_{t^-1 g} (the reduced product keeps g's last letter,
    hence the continuation constraints coincide).
    """
    if is_prefix(g, t):
        d = g.rank
        out = []
        for x in allowed_next_letters(d, g.letters[-1]):
            out.extend(_image_words(t, Word(d, g.letters + (x,))))
        return out
    return [multiply(t.inverse(), g)]


def act_on_cylinder(t: Word, c: CylinderSet) -> CylinderSet:
    """Exact image phi_t(c) as a prefix-free cylinder union."""
    out = []
    for g in c.words:
        out.extend(_image_words(t, g))
    return CylinderSet.from_words(c.d, out)


# ---------------------------------------------------------------------------
# Weakly wandering cover of the boundary
# ---------------------------------------------------------------------------

def _cover_index_words(d: int, depth_cap: int):
    """Reduced words without the letter a_1^-1 and not ending in a_1.

    For each such s, phi_{s^-1}(H_{a_1^-1}) is exactly the single cylinder
    H_{s a_1^-1}; over all s these cylinders are pairwise disjoint (the
    appended a_1^-1 is the first occurrence of that letter) and exhaust,
    up to a geometrically vanishing remainder, the full boundary.
    s = e corresponds to the untranslated set itself.
    """
    a1_inv = -1
    alphabet = tuple(g for g in letters_in_order(d) if g != a1_inv)
    out = [[] for _ in range(depth_cap + 1)]
    out[0].append(identity(d))
    stack = [(g,) for g in reversed(alphabet)]
    while stack:
        letters = stack.pop()
        if letters[-1] != 1:
            out[len(letters)].append(Word(d, letters))
        if len(letters) < depth_cap:
            for g in alphabet:
                if g != -letters[-1]:
                    stack.append(letters + (g,))
    return out


@dataclass
class WeaklyWanderingReport:
    d: int
    depth_cap: int
    num_translates: int
    pairwise_disjoint: bool
    covered_measure: Fraction
    deficit: Fraction
    covered_by_cap: list  # Fraction per cap 0..depth_cap

    def to_jsonable(self) -> dict:
        return {
            "d": self.d,
            "depth_cap": self.depth_cap,
            "num_translates": self.num_translates,
            "pairwise_disjoint": self.pairwise_disjoint,
            "covered_measure": str(self.covered_measure),
            "covered_measure_float": float(self.covered_measure),
            "deficit": str(self.deficit),
            "deficit_float": float(self.deficit),
            "covered_by_cap": [str(x) for x in self.covered_by_cap],
        }


def verify_weakly_wandering(d: int, depth_cap: int) -> WeaklyWanderingReport:
    """Exhibit H_{a_1^-1} as a weakly wandering set, with exact accounting.

    Constructs the countable family of translates phi_t(H_{a_1^-1}) for
    t = s^-1 with s ranging over words avoiding the letter a_1^-1 (up to
    length ``depth_cap``), verifies their pairwise disjointness exactly in
    the cylinder algebra, and returns the exactly-covered measure, which
    tends to 1 geometrically as the cap grows.
    """
    if depth_cap < 1:
        raise ValueError("depth_cap must be >= 1")
    base = Word(d, (-1,))
    by_len = _cover_index_words(d, depth_cap)
    all_words = []
    covered_by_cap = []
    total = Fraction(0)
    for cap in range(depth_cap + 1):
        for s in by_len[cap]:
            img = _image_words(s.inverse(), base)
            assert len(img) == 1
            w = img[0]
            assert w == multiply(s, base) and len(w) == cap + 1
            all_words.append(w)
        # every translate at this cap is one cylinder of length cap + 1
        total += len(by_len[cap]) * Fraction(1, 2 * d * (2 * d - 1) ** cap)
        covered_by_cap.append(total)
    # exact pairwise disjointness == a prefix-free family with no word repeated
    try:
        disjoint = len(CylinderSet.from_words(d, all_words).words) == len(all_words)
    except ValueError:
        disjoint = False
    return WeaklyWanderingReport(
        d=d,
        depth_cap=depth_cap,
        num_translates=len(all_words),
        pairwise_disjoint=disjoint,
        covered_measure=total,
        deficit=1 - total,
        covered_by_cap=covered_by_cap,
    )


# ---------------------------------------------------------------------------
# Disjoint translates of a level-1 cylinder inside a ball
# ---------------------------------------------------------------------------

@dataclass
class DisjointTranslatesReport:
    d: int
    n: int
    base: Word
    num_translates: int
    num_exhibited: int
    target_count: int
    pairwise_disjoint: bool
    total_measure: Fraction

    def to_jsonable(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "base": str(self.base),
            "num_translates": self.num_translates,
            "num_exhibited": self.num_exhibited,
            "target_count": self.target_count,
            "pairwise_disjoint": self.pairwise_disjoint,
            "total_measure": str(self.total_measure),
        }


def disjoint_translates_report(d: int, n: int) -> DisjointTranslatesReport:
    """Pairwise-disjoint translates of H_{a} for a = a_1, with translating words in E_n.

    Translators are the words t in C_n whose first letter differs from a;
    for those, phi_t(H_a) is the single cylinder H_{t^-1 a} at level n+1
    ending in the letter a.  The map t -> t^-1 a is injective, giving
    (2d-1)^n pairwise-disjoint translates, at least |C_{n-1}| of them:
    the report also exhibits exactly |C_{n-1}| of them.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a = 1
    target = sphere_size(d, n - 1)
    image_words = []
    total = Fraction(0)
    # enumerate t in C_n with first letter != a via the images directly
    count = 0
    for t in enumerate_sphere(d, n):
        if t.letters[0] == a:
            continue
        img = _image_words(t, Word(d, (a,)))
        assert len(img) == 1
        w = img[0]
        assert len(w) == n + 1 and w.letters[-1] == a
        image_words.append(w)
        total += cylinder_measure(w)
        count += 1
    # same-length cylinders are disjoint iff their words are distinct
    disjoint = len(set(image_words)) == len(image_words)
    expected = (2 * d - 1) ** n
    return DisjointTranslatesReport(
        d=d,
        n=n,
        base=Word(d, (a,)),
        num_translates=count,
        num_exhibited=min(target, count),
        target_count=target,
        pairwise_disjoint=disjoint and count == expected,
        total_measure=total,
    )
