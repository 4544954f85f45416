"""Test-side oracles shared by several test modules."""

from stabletree.errors import PrefixTooShortError
from stabletree.free_group import Word, allowed_next_letters


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
