"""Word algebra against independent oracles: naive reduction and BFS."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabletree.errors import PrefixTooShortError, RankMismatchError, ResourceBudgetError
from stabletree.free_group import (
    Word,
    ball_layout,
    ball_size,
    busemann,
    confluent_length,
    distance,
    enumerate_ball,
    enumerate_sphere,
    format_word,
    identity,
    letter_rank,
    letters_in_order,
    multiply,
    parse_word,
    sphere_size,
    word,
    word_sort_key,
)
from stabletree.rng import substream

from oracles import min_busemann_over_ball


def naive_product(u, v):
    """Letterwise concatenate, then cancel adjacent inverse pairs to a fixed point."""
    letters = list(u.letters) + list(v.letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            if letters[i] == -letters[i + 1]:
                del letters[i : i + 2]
                changed = True
                break
    return Word(u.rank, tuple(letters))


def random_word(d, max_len, rng):
    k = int(rng.integers(0, max_len + 1))
    letters = []
    for _ in range(k):
        opts = [g for g in letters_in_order(d) if not letters or g != -letters[-1]]
        letters.append(opts[int(rng.integers(len(opts)))])
    return Word(d, tuple(letters))


def build_cayley_ball(d, n):
    """Explicit adjacency of E_n, for BFS oracles."""
    adj = {}
    for w in enumerate_ball(d, n):
        nbrs = []
        for g in letters_in_order(d):
            u = multiply(w, Word(d, (g,)))
            if len(u) <= n:
                nbrs.append(u)
        adj[w] = nbrs
    return adj


def bfs_distance(adj, src, dst):
    from collections import deque

    seen = {src: 0}
    dq = deque([src])
    while dq:
        cur = dq.popleft()
        if cur == dst:
            return seen[cur]
        for nb in adj[cur]:
            if nb not in seen:
                seen[nb] = seen[cur] + 1
                dq.append(nb)
    raise AssertionError("unreachable")


def test_multiply_examples():
    a1 = word(2, [1])
    assert multiply(a1, a1.inverse()) == identity(2)
    u = word(2, [1, 2])
    v = word(2, [-2, 1])
    assert multiply(u, v) == word(2, [1, 1])


def test_reduction_idempotent():
    from stabletree.free_group import reduce_letters

    rng = substream(100, "red")
    for _ in range(100):
        raw = [int(rng.integers(1, 3)) * (1 if rng.integers(2) else -1) for _ in range(12)]
        once = reduce_letters(raw)
        assert reduce_letters(once) == once


def test_multiply_matches_naive_reducer():
    rng = substream(101, "mul")
    for _ in range(400):
        u = random_word(2, 8, rng)
        v = random_word(2, 8, rng)
        p = multiply(u, v)
        assert p == naive_product(u, v)
        assert len(p) <= len(u) + len(v)


def test_rank_mismatch():
    with pytest.raises(RankMismatchError):
        multiply(word(2, [1]), word(3, [1]))
    with pytest.raises(RankMismatchError):
        distance(word(2, [1]), word(3, [1]))


def test_inverse():
    assert identity(2).inverse() == identity(2)
    assert word(2, [1, 2]).inverse() == word(2, [-2, -1])
    rng = substream(102, "inv")
    for _ in range(200):
        u = random_word(3, 10, rng)
        assert multiply(u, u.inverse()) == identity(3)
        assert len(u.inverse()) == len(u)


def test_distance_examples():
    assert distance(identity(2), word(2, [1, 1])) == 2
    assert distance(word(2, [1]), word(2, [2])) == 2


def test_distance_matches_bfs():
    adj = build_cayley_ball(2, 6)
    rng = substream(103, "bfs")
    for _ in range(60):
        u = random_word(2, 3, rng)
        v = random_word(2, 3, rng)
        assert distance(u, v) == bfs_distance(adj, u, v)


def test_distance_properties():
    rng = substream(104, "dist")
    for _ in range(200):
        u, v, w, s = (random_word(2, 6, rng) for _ in range(4))
        assert distance(u, v) == distance(v, u)
        assert distance(u, w) <= distance(u, v) + distance(v, w)
        assert distance(multiply(s, u), multiply(s, v)) == distance(u, v)


def test_associativity():
    # exhaustive at radius 2, random at longer lengths
    small = list(enumerate_ball(2, 2))
    for u in small[:9]:
        for v in small:
            for w in small:
                assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))
    rng = substream(105, "assoc")
    for _ in range(150):
        u, v, w = (random_word(3, 6, rng) for _ in range(3))
        assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))


def test_ball_sphere_sizes():
    assert ball_size(2, 2) == 17
    assert ball_size(2, 0) == 1
    assert sphere_size(2, 0) == 1
    assert ball_size(3, 2) == 37
    assert sphere_size(3, 2) == 30
    assert ball_size(2, 3) == 53 and sphere_size(2, 3) == 36


def test_counts_match_enumeration():
    for d in (2, 3):
        for n in range(0, 6 if d == 2 else 4):
            assert sum(1 for _ in enumerate_ball(d, n)) == ball_size(d, n)
            assert sum(1 for _ in enumerate_sphere(d, n)) == sphere_size(d, n)


def test_enumeration_contents_and_order():
    got = list(enumerate_ball(2, 1))
    assert set(got) == {identity(2), word(2, [1]), word(2, [-1]), word(2, [2]), word(2, [-2])}
    ws = list(enumerate_ball(2, 3))
    assert len(set(ws)) == len(ws)
    keys = [word_sort_key(w) for w in ws]
    assert keys == sorted(keys)
    # sphere = BFS frontier of the ball
    adj = build_cayley_ball(2, 3)
    frontier = {w for w in adj if len(w) == 3}
    assert set(enumerate_sphere(2, 3)) == frontier


def test_enumeration_budget():
    with pytest.raises(ResourceBudgetError):
        list(enumerate_ball(2, 20))


def test_submultiplicative_and_envelope():
    for d in (2, 3):
        for n in range(0, 9):
            for m in range(0, 9):
                assert ball_size(d, n + m) <= ball_size(d, n) * ball_size(d, m)
            assert (2 * d - 1) ** n <= ball_size(d, n)
            assert ball_size(d, n) * (d - 1) <= d * (2 * d - 1) ** n


def test_confluent_and_busemann():
    omega = word(2, [1, 2, 1, 2, 1, 2])
    # t equal to a prefix of the ray: B = -|t|
    for k in range(1, 5):
        t = Word(2, omega.letters[:k])
        assert confluent_length(t, omega) == k
        assert busemann(t, omega) == -k
    # no shared prefix: B = |t|
    t = word(2, [-1, 2])
    assert confluent_length(t, omega) == 0
    assert busemann(t, omega) == 2
    # one shared letter
    t = word(2, [1, -2])
    assert confluent_length(t, omega) == 1
    assert busemann(t, omega) == 0
    with pytest.raises(PrefixTooShortError):
        confluent_length(word(2, [1, 2, 1, 2, 1, 2, 1, 2]), omega)


def test_min_busemann_matches_enumeration():
    from stabletree.boundary import sample_boundary

    rng = substream(106, "minb")
    for d in (2, 3):
        for _ in range(20):
            omega = sample_boundary(d, 6, rng)
            for n in (1, 2, 3, 4):
                brute = min(busemann(t, omega) for t in enumerate_ball(d, n))
                assert min_busemann_over_ball(d, n, omega) == brute == -n


def test_layout_arrays():
    lay = ball_layout(2, 4)
    ws = list(enumerate_ball(2, 4))
    assert [lay.word_to_index(w) for w in ws] == list(range(len(ws)))
    assert all(lay.depth[i] == len(w) for i, w in enumerate(ws))
    for i, w in enumerate(ws):
        k = sum(1 if g == 1 else (-1 if g == -1 else 0) for g in w.letters)
        assert lay.a1_exponent[i] == k


def test_parse_format_roundtrip():
    for text in ("e", "a1", "a1.a2^-1", "a2^-1.a1.a1"):
        w = parse_word(2, text)
        assert format_word(w) == text
    assert parse_word(2, "a1.a1^-1") == identity(2)
    with pytest.raises(ValueError):
        parse_word(2, "a3")


@functools.lru_cache(maxsize=None)
def ball_words(d, n):
    return tuple(enumerate_ball(d, n))


ranks_and_radii = st.tuples(st.sampled_from((2, 3)), st.integers(0, 5))


@settings(max_examples=200, deadline=None)
@given(ranks_and_radii, st.data())
def test_right_mul_matches_multiply(dn, data):
    d, n = dn
    lay = ball_layout(d, n)
    t = data.draw(st.sampled_from(ball_words(d, n)))
    g = data.draw(st.sampled_from(letters_in_order(d)))
    prod = multiply(t, Word(d, (g,)))
    expected = lay.word_to_index(prod) if len(prod) <= n else -1
    assert lay.right_mul[lay.word_to_index(t), letter_rank(g)] == expected


@settings(deadline=None)
@given(ranks_and_radii)
def test_parent_inverts_right_mul(dn):
    d, n = dn
    lay = ball_layout(d, n)
    ws = ball_words(d, n)
    parent = np.full(lay.size, -1)
    for i, w in enumerate(ws[1:], start=1):
        r = letter_rank(w.letters[-1])
        # stepping back along the last letter gives the parent
        parent[i] = lay.right_mul[i, r ^ 1]
        assert parent[i] == lay.word_to_index(Word(d, w.letters[:-1]))
        assert lay.right_mul[parent[i], r] == i
    # every in-ball neighbour is the parent or a child
    rows, cols = np.nonzero(lay.right_mul >= 0)
    nbr = lay.right_mul[rows, cols]
    assert np.all((parent[nbr] == rows) | (parent[rows] == nbr))
    assert (lay.right_mul >= 0).sum() == 2 * (lay.size - 1)


@settings(deadline=None)
@given(ranks_and_radii)
def test_word_to_index_is_preorder_bijection(dn):
    d, n = dn
    lay = ball_layout(d, n)
    ws = ball_words(d, n)
    assert len(ws) == lay.size
    assert [lay.word_to_index(w) for w in ws] == list(range(lay.size))
    assert [len(w) for w in ws] == lay.depth.tolist()


def test_right_translate():
    lay = ball_layout(2, 4)
    ws = ball_words(2, 4)
    v = word(2, [2, -1])
    sites = np.flatnonzero(lay.depth <= 2)
    got = lay.right_translate(sites, v)
    assert got.tolist() == [lay.word_to_index(multiply(ws[i], v)) for i in sites]
    assert lay.right_translate(sites, identity(2)).tolist() == sites.tolist()
    with pytest.raises(ValueError):
        lay.right_translate(np.flatnonzero(lay.depth == 3), v)
    with pytest.raises(RankMismatchError):
        lay.right_translate(sites, word(3, [3]))


def test_layout_arrays_read_only():
    lay = ball_layout(2, 3)
    for arr in (lay.depth, lay.a1_exponent, lay.right_mul):
        assert arr.dtype in (np.int16, np.int32)
        with pytest.raises(ValueError):
            arr[0] = 7
    assert lay.right_mul.dtype == np.int32
