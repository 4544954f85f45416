"""Symmetric alpha-stable sampling, tail constant, and series machinery.

Conventions.  SaS(sigma) means the law with characteristic function
exp(-sigma^alpha |theta|^alpha), alpha in (0, 2) strictly (the Gaussian
endpoint is excluded).  The tail constant

    c_alpha = (integral_0^inf x^-alpha sin x dx)^-1
            = (1-alpha) / (Gamma(2-alpha) cos(pi alpha / 2)),   alpha != 1
            = 2/pi,                                             alpha = 1

governs the two-sided tail: x^alpha P(|X| > x) -> c_alpha sigma^alpha.

A stable integral int f dM with probability control measure has the
series representation  c_alpha^(1/alpha) sum_i eps_i Gamma_i^(-1/alpha)
f(s_i)  with iid signs eps_i and Poisson arrival times Gamma_i.  The
weights eps_i Gamma_i^(-1/alpha) come from one generator,
:func:`lepage_weights`; the series length is either given or set by one
fixed rule, :func:`choose_num_terms`, from the module constants below.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ResourceBudgetError

TAIL_TOLERANCE = 1e-3  # remainder bound over target scale that the rule reaches
SAFETY = 3.0  # standard deviations of the discarded tail in the remainder bound
MAX_TERMS = 5_000_000  # longest series the rule may choose
QUADRATURE_DPS = 40  # working precision of the tail-constant quadrature


def sample_sas(rng, alpha: float, scale: float = 1.0, size=None, out=None, work=None):
    """SaS(scale) variates via the Chambers-Mallows-Stuck transform.

    U uniform on (-pi/2, pi/2) and E standard exponential give

        X = sin(alpha U) / cos(U)^(1/alpha)
            * (cos((1-alpha) U) / E)^((1-alpha)/alpha)

    which is SaS(1); alpha = 1 reduces to tan(U) and is handled by its own
    branch so the removable singularity never reaches 0/0.  Near alpha = 0
    the two factors overflow or underflow on their own (NaN as inf * 0, or a
    spurious 0 or inf); only those entries are recomputed as
    sign(sin alpha U) exp(log|sin alpha U| - log cos U / alpha
    + (1-alpha)/alpha (log cos((1-alpha) U) - log E)), so every finite nonzero
    value is the expression above, and inf remains only beyond the float range.

    The variates fill ``out``, a float64 array of shape ``size``, or a new
    array of that shape, which is returned.  ``rng`` is one generator, or a
    sequence of generators, one per row of a 2-D ``out``: each row then
    draws from its own generator what a call for that row alone would draw
    (its uniforms, then at alpha != 1 its exponentials), and the transform
    runs once over all rows, element by element, so every row holds the
    values of its own call.  At alpha != 1 the uniforms, the exponentials
    and one scratch array go into ``work``, a float64 array of shape
    ``(3, *out.shape)``, or into three new arrays; the terms of the
    expression are computed in ``out`` and the scratch array.  A draw into
    ``out`` (and ``work`` at alpha != 1) allocates no float array; at
    alpha != 1 it allocates the boolean mask of the entries to redo.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    if scale < 0:
        raise ValueError("scale must be >= 0")
    if out is None:
        out = np.empty(size)
    elif out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array, got {out.dtype}")
    elif size is not None and out.shape != (tuple(size) if np.iterable(size) else (size,)):
        raise ValueError(f"out has shape {out.shape}, not size {size}")
    if alpha == 1.0:
        u = e = tmp = out
    elif work is None:
        u, e, tmp = (np.empty_like(out) for _ in range(3))
    elif work.dtype != np.float64 or work.shape != (3, *out.shape):
        raise ValueError(f"work must be a float64 array of shape {(3, *out.shape)}")
    else:
        u, e, tmp = work
    # -pi/2 + pi * random() is the double rng.uniform(-pi/2, pi/2) returns
    if isinstance(rng, np.random.Generator):
        rows = [(rng, u, e)]
    elif len(rng) == len(out):
        rows = zip(rng, u, e)
    else:
        raise ValueError(f"{len(rng)} generators for {len(out)} rows")
    for gen, u_row, e_row in rows:
        gen.random(out=u_row)
        if alpha != 1.0:
            gen.standard_exponential(out=e_row)
    u *= math.pi
    u += -math.pi / 2
    if alpha == 1.0:
        np.tan(u, out=out)
    else:
        # operation by operation as written above, so the same doubles; u and e
        # stay intact for the repair
        with np.errstate(all="ignore"):  # entries that leave the float range are redone below
            np.sin(np.multiply(alpha, u, out=out), out=out)
            np.cos(u, out=tmp)
            tmp **= 1.0 / alpha
            out /= tmp
            np.cos(np.multiply(1.0 - alpha, u, out=tmp), out=tmp)
            tmp /= e
            tmp **= (1.0 - alpha) / alpha
            out *= tmp
            bad = ~np.isfinite(out) | (out == 0.0)
            if bad.any():
                ub, eb = u[bad], e[bad]
                log_x = (
                    np.log(np.abs(np.sin(alpha * ub)))
                    - np.log(np.cos(ub)) / alpha
                    + (1.0 - alpha) / alpha * (np.log(np.cos((1.0 - alpha) * ub)) - np.log(eb))
                )
                out[bad] = np.sign(np.sin(alpha * ub)) * np.exp(log_x)
    # x * 1.0 == x for every double, so scale 1 skips the pass
    return out if scale == 1.0 else np.multiply(scale, out, out=out)


def stable_tail_constant(alpha: float) -> float:
    """c_alpha in closed form, continuous across alpha = 1.

    (1 - alpha) / (Gamma(2 - alpha) cos(pi alpha / 2)), with the cosine
    written as sin(pi (1 - alpha) / 2): both factors of the ratio then
    vanish together near alpha = 1 without cancellation.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    if alpha == 1.0:
        return 2.0 / math.pi
    return (1.0 - alpha) / (math.gamma(2.0 - alpha) * math.sin(math.pi * (1.0 - alpha) / 2.0))


def stable_tail_constant_quadrature(alpha: float) -> float:
    """c_alpha by direct quadrature of the defining integral.

    Split at pi: tanh-sinh handles the x^(1-alpha) endpoint behaviour on
    [0, pi], and the slowly decaying oscillatory tail is summed over the
    arches [k pi, (k+1) pi] with alternating-series acceleration
    (mpmath.quadosc), both at ``QUADRATURE_DPS`` decimal digits.  Serves
    as the independent cross-check of the closed form.
    """
    import mpmath as mp

    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    with mp.workdps(QUADRATURE_DPS):
        f = lambda x: x ** (-alpha) * mp.sin(x)
        head = mp.quad(f, [0, mp.pi])
        tail = mp.quadosc(f, [mp.pi, mp.inf], zeros=lambda k: k * mp.pi)
        return float(1 / (head + tail))


def scaled_frechet_cdf(x, alpha: float, c: float):
    """CDF exp(-c x^-alpha): the law of c^(1/alpha) Z_alpha."""
    if c <= 0:
        raise ValueError("scale constant must be > 0")
    x = np.asarray(x, dtype=float)
    out = np.where(x > 0, np.exp(-c * np.power(np.where(x > 0, x, 1.0), -alpha)), 0.0)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Series (LePage) representation with remainder control
# ---------------------------------------------------------------------------

def gamma_power_tail_sum(n_terms: int, a: float) -> float:
    """sum_{i > N} E[Gamma_i^(-a)] = sum_{i > N} Gamma(i-a)/Gamma(i), a > 1, in closed form.

    (a-1) Gamma(i-a)/Gamma(i) = Gamma(i-a)/Gamma(i-1) - Gamma(i+1-a)/Gamma(i),
    so the sum telescopes to Gamma(N+1-a) / ((a-1) Gamma(N)), evaluated from
    one ``lgamma`` pair.  Requires N > a.
    """
    if a <= 1.0:
        raise ValueError("tail sum diverges for a <= 1")
    if n_terms <= a:
        raise ValueError(f"need N > a = {a}")
    return math.exp(math.lgamma(n_terms + 1 - a) - math.lgamma(n_terms)) / (a - 1.0)


def lepage_remainder_bound(n_terms: int, alpha: float, f_rms: float) -> float:
    """Deterministic bound on the discarded series remainder.

    An L2 computation: the remainder sum_{i>N} eps_i Gamma_i^(-1/alpha) f(s_i)
    has conditional variance at most f_rms^2 sum_{i>N} E Gamma_i^(-2/alpha);
    the bound is ``SAFETY`` standard deviations of that, so paired-run
    differences stay below it with large probability.  With N <= 2/alpha
    the first discarded terms may have infinite variance, and the bound is
    infinite.
    """
    a = 2.0 / alpha
    if n_terms <= a:
        return math.inf
    return SAFETY * f_rms * math.sqrt(gamma_power_tail_sum(n_terms, a))


def choose_num_terms(alpha: float, f_rms: float, target_scale: float) -> int:
    """Smallest N (up to rounding) with remainder bound < TAIL_TOLERANCE * target_scale."""
    goal = TAIL_TOLERANCE * target_scale
    if goal <= 0:
        raise ValueError("target scale must be positive")
    n = max(16, int(2.0 / alpha) + 2)
    while lepage_remainder_bound(n, alpha, f_rms) > goal:
        n *= 2
        if n > MAX_TERMS:
            raise ResourceBudgetError(f"remainder rule needs more than {MAX_TERMS} series terms")
    lo, hi = n // 2, n
    while hi - lo > max(1, lo // 50):
        mid = (lo + hi) // 2
        if lepage_remainder_bound(mid, alpha, f_rms) > goal:
            lo = mid
        else:
            hi = mid
    return hi


def lepage_weights(rng: np.random.Generator, alpha: float, num_terms: int, block=None):
    """Yield the series weights eps_i Gamma_i^(-1/alpha), i = 1..num_terms, in blocks.

    Each block draws its arrival-time increments, then its signs, and the
    arrival times run on from one block to the next.  ``block=None`` yields
    all terms as one block.  A block is drawn only when the caller asks for
    it, so what the caller draws in between keeps its place in the stream.
    The weights are computed in place in the array of increments, which is
    the block yielded: the operations of eps * (offset + cumsum(E))^(-1/alpha)
    in the same order, so the same doubles, with no temporary beyond the
    two draws.
    """
    block = block or num_terms
    offset = 0.0
    done = 0
    while done < num_terms:
        b = min(block, num_terms - done)
        gam = rng.standard_exponential(b)
        np.cumsum(gam, out=gam)
        gam += offset
        offset = float(gam[-1])
        eps = rng.integers(0, 2, size=b)
        eps *= 2
        eps -= 1
        gam **= -1.0 / alpha
        gam *= eps
        yield gam
        done += b
