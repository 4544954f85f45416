"""Boundary measure, action, cocycle, and the exact set-theoretic reports."""

from fractions import Fraction

import pytest

from stabletree.boundary import (
    CylinderSet,
    act_on_boundary,
    act_on_cylinder,
    cylinder_measure,
    disjoint_translates_report,
    rn_derivative,
    sample_boundary,
    verify_weakly_wandering,
)
from stabletree.errors import PrefixTooShortError
from stabletree.free_group import (
    Word,
    allowed_next_letters,
    enumerate_sphere,
    identity,
    letters_in_order,
    multiply,
    sphere_size,
    word,
)
from stabletree.rng import substream


def test_cylinder_measure_values():
    assert cylinder_measure(word(2, [1])) == Fraction(1, 4)
    assert cylinder_measure(word(2, [1, 2])) == Fraction(1, 12)
    assert sum(cylinder_measure(g) for g in enumerate_sphere(2, 1)) == 1
    with pytest.raises(ValueError):
        cylinder_measure(identity(2))


def test_measure_additivity_and_refinement():
    rng = substream(201, "cyl")
    full = CylinderSet.full(3)
    assert full.measure == 1
    for _ in range(30):
        depth = int(rng.integers(1, 4))
        g = sample_boundary(2, depth, rng)
        children = [Word(2, g.letters + (x,)) for x in allowed_next_letters(2, g.letters[-1])]
        refined = CylinderSet.from_words(2, children)
        assert refined.measure == cylinder_measure(g)
        assert sum(cylinder_measure(c) for c in children) == cylinder_measure(g)


def test_sampler_frequencies():
    rng = substream(202, "freq")
    n = 100_000
    hits1 = 0
    hits12 = 0
    for _ in range(n):
        om = sample_boundary(2, 2, rng)
        if om.letters[0] == 1:
            hits1 += 1
            if om.letters[1] == 2:
                hits12 += 1
    assert abs(hits1 / n - 0.25) < 0.005
    assert abs(hits12 / n - 1 / 12) < 0.004


def test_act_on_boundary():
    rng = substream(203, "act")
    om = sample_boundary(2, 9, rng)
    assert act_on_boundary(identity(2), om).letters == om.letters
    # a point of H_{a1 a2} maps into H_{a2} under the a1 action
    om = Word(2, (1, 2, 1, 2, 1))
    img = act_on_boundary(word(2, [1]), om)
    assert img.letters[0] == 2
    with pytest.raises(PrefixTooShortError):
        act_on_boundary(word(2, [1, 2]), Word(2, (1, 2, 1)))
    # composition phi_{uv} = phi_v o phi_u on prefixes
    for _ in range(100):
        om = sample_boundary(2, 25, rng)
        u = word(2, [int(rng.integers(1, 3)), -1])
        v = word(2, [2, 1])
        lhs = act_on_boundary(multiply(u, v), om)
        rhs = act_on_boundary(v, act_on_boundary(u, om))
        k = min(len(lhs), len(rhs))
        assert lhs.letters[:k] == rhs.letters[:k]


def test_rn_derivative_values():
    om = Word(2, (1, 2, 1, 2))
    t = Word(2, (1, 2))  # the length-2 prefix of omega: B = -2
    assert rn_derivative(t, om) == 9
    s = word(2, [-1, 2])  # no shared prefix: B = 2
    assert rn_derivative(s, om) == Fraction(1, 9)


def test_rn_derivative_cocycle_exact():
    rng = substream(204, "cocycle")
    for _ in range(1000):
        om = sample_boundary(2, 30, rng)
        u = _random_short_word(2, int(rng.integers(0, 4)), rng)
        v = _random_short_word(2, int(rng.integers(0, 4)), rng)
        lhs = rn_derivative(multiply(u, v), om)
        rhs = rn_derivative(u, om) * rn_derivative(v, act_on_boundary(u, om))
        assert lhs == rhs


def _random_short_word(d, k, rng):
    letters = []
    for _ in range(k):
        opts = [g for g in letters_in_order(d) if not letters or g != -letters[-1]]
        letters.append(opts[int(rng.integers(len(opts)))])
    return Word(d, tuple(letters))


def test_act_on_cylinder_examples():
    c = CylinderSet.from_words(2, [word(2, [1, 2])])
    img = act_on_cylinder(word(2, [1]), c)
    assert img.words == (word(2, [2]),)
    assert img.measure == Fraction(1, 4)
    assert act_on_cylinder(identity(2), c) == c
    # measure transport ratio equals the derivative on the cylinder
    ratio = img.measure / c.measure
    om = Word(2, (1, 2, 1, 2))
    assert ratio == rn_derivative(word(2, [1]), om) == 3


def test_act_on_cylinder_sphere_family():
    # words starting with the inverse letter map H_a onto the level-(n-1) cylinders
    d, n = 2, 4
    a = 1
    images = set()
    for g in enumerate_sphere(d, n - 1):
        if g.letters[0] != -a:
            continue
        t = multiply(word(d, [a]), g)
        img = act_on_cylinder(t, CylinderSet.from_words(d, [word(d, [a])]))
        assert img.words == (g.inverse(),)
        images.add(img.words[0])
    assert images == {g.inverse() for g in enumerate_sphere(d, n - 1) if g.letters[0] == -a}


def test_act_on_cylinder_full_boundary_bijection():
    # the image of a partition of the boundary is again a partition
    rng = substream(205, "bij")
    for _ in range(20):
        t = _random_short_word(2, int(rng.integers(0, 4)), rng)
        img = act_on_cylinder(t, CylinderSet.full(2))
        assert img.measure == 1


def test_weakly_wandering_report():
    rep3 = verify_weakly_wandering(2, 3)
    assert rep3.pairwise_disjoint
    rep6 = verify_weakly_wandering(2, 6)
    assert rep6.pairwise_disjoint
    # covered measure increases with the cap and the deficit dies geometrically
    covered = rep6.covered_by_cap
    assert all(b >= a for a, b in zip(covered, covered[1:]))
    deficits = [1 - c for c in covered]
    for a, b in zip(deficits[1:], deficits[2:]):
        assert b < a
        assert b <= Fraction(9, 10) * a
    assert rep6.covered_measure + rep6.deficit == 1
    assert rep3.covered_measure < rep6.covered_measure


def test_weakly_wandering_exactness_small():
    # every translate is one cylinder whose word appends the marked letter
    rep = verify_weakly_wandering(3, 2)
    assert rep.pairwise_disjoint
    assert rep.covered_measure < 1


def test_disjoint_translates():
    for d, n in ((2, 3), (2, 5), (3, 3)):
        rep = disjoint_translates_report(d, n)
        assert rep.pairwise_disjoint
        assert rep.num_translates == (2 * d - 1) ** n
        assert rep.num_translates >= sphere_size(d, n - 1)
        assert rep.num_exhibited == sphere_size(d, n - 1)
        assert rep.total_measure == Fraction(1, 2 * d)
