"""Statistical comparison utilities for the experiment harness.

The confidence bounds need two quantile functions, of the beta law
(Clopper-Pearson) and of Student's t (batch means).  Both come from one
regularised incomplete beta function I_x(a, b), evaluated as a continued
fraction and inverted by bracketed Newton steps.
"""

from __future__ import annotations

import math

import numpy as np

_EPS = 1e-15  # continued-fraction convergence: relative change of one factor
_TINY = 1e-300  # keeps Lentz's recurrences away from division by zero
_MAX_TERMS = 100_000
_STIRLING_FROM = 20.0  # _log_beta switches to Stirling's series from here


def ks_distance(sample, cdf) -> float:
    """Sup-norm distance between the empirical CDF of ``sample`` and ``cdf``."""
    x = np.sort(np.asarray(sample, dtype=float))
    if x.size == 0:
        raise ValueError("empty sample")
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(max(np.max(hi - f), np.max(f - lo)))


def quantiles(sample, levels) -> list:
    """The quantiles of ``sample`` at float levels in [0, 1], as ``np.quantile`` gives them.

    numpy's default linear method from one sort: level p sits at the virtual
    index h = (n - 1) p, between the order statistics a = x[floor h] and
    b = x[floor h + 1] (both the largest once h >= n - 1), and with
    g = h - floor h the value is a + (b - a) g, or b - (b - a)(1 - g) when
    g >= 1/2.  A NaN in the sample makes every quantile NaN.  Unlike
    ``np.quantile``, this imports no ``numpy.ma``.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    if x.size == 0:
        raise ValueError("empty sample")
    if math.isnan(x[-1]):  # NaN sorts last
        return [math.nan for _ in levels]
    n = x.size
    out = []
    for p in levels:
        h = (n - 1) * float(p)
        lo = math.floor(h)
        g = h - lo
        a, b = (x[-1], x[-1]) if h >= n - 1 else (x[lo], x[lo + 1])
        diff = b - a
        out.append(float(b - diff * (1 - g) if g >= 0.5 else a + diff * g))
    return out


def empirical_cdf_table(sample, s_grid, level: float = 0.95) -> list:
    """P(X <= s) with Clopper-Pearson binomial confidence bounds per grid point."""
    x = np.asarray(sample, dtype=float)
    n = x.size
    a = 1.0 - level
    rows = []
    for s in s_grid:
        k = int(np.sum(x <= s))
        lo = 0.0 if k == 0 else _beta_ppf(a / 2, k, n - k + 1)
        hi = 1.0 if k == n else _beta_ppf(1 - a / 2, k + 1, n - k)
        rows.append(
            {"s": float(s), "p_hat": k / n, "ci_low": lo, "ci_high": hi, "count": k}
        )
    return rows


def batch_mean_ci(samples, batches: int = 20, level: float = 0.95):
    """Mean with a batch-means t confidence interval (samples in given order)."""
    x = np.asarray(samples, dtype=float)
    if x.size < batches:
        batches = max(2, x.size // 2)
    usable = (x.size // batches) * batches
    means = x[:usable].reshape(batches, -1).mean(axis=1)
    m = float(means.mean())
    se = float(means.std(ddof=1) / np.sqrt(batches))
    t = _t_ppf(0.5 + level / 2, batches - 1)
    return m, m - t * se, m + t * se


# ---------------------------------------------------------------------------
# Incomplete beta function and the beta and t quantiles
# ---------------------------------------------------------------------------

def _log_beta(a: float, b: float) -> float:
    """log B(a, b) = lgamma(a) + lgamma(b) - lgamma(a + b).

    That sum cancels once an argument is large.  From ``_STIRLING_FROM``
    on, each large lgamma is written by Stirling's series,
    lgamma(x) = (x - 1/2) log x - x + log(2 pi)/2 + omega(x), and the large
    logarithms are combined before they are added.  With small <= big and
    s = small + big,

        log B = lgamma(small) - small log s + small + T,  or, once small is large too,
        log B = log(2 pi / small)/2 - small log1p(big/small) + omega(small) + T,

    where T = omega(big) - omega(s) - (big - 1/2) log1p(small/big).  Every
    term is then of the size of the result or smaller.
    """
    small, big = sorted((a, b))
    s = a + b
    if big < _STIRLING_FROM:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(s)
    tail = _stirling_omega(big) - _stirling_omega(s) - (big - 0.5) * math.log1p(small / big)
    if small < _STIRLING_FROM:
        return math.lgamma(small) - small * math.log(s) + small + tail
    return (
        0.5 * math.log(2.0 * math.pi / small)
        - small * math.log1p(big / small)
        + _stirling_omega(small)
        + tail
    )


def _stirling_omega(x: float) -> float:
    """lgamma(x) - (x - 1/2) log x + x - log(2 pi)/2, for x >= _STIRLING_FROM.

    Four terms of Stirling's series; the first omitted one, 1/(1188 x^9),
    is below 2e-15 there.
    """
    r = 1.0 / (x * x)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / x


def _beta_cf(x: float, a: float, b: float) -> float:
    """Continued fraction of I_x(a, b), by the modified Lentz method.

    I_x(a, b) = x^a (1-x)^b / (a B(a, b)) / (1 + d_1/(1 + d_2/(1 + ...)))
    with d_{2j+1} = -(a+j)(a+b+j) x / ((a+2j)(a+2j+1)) and
    d_{2j} = j(b-j) x / ((a+2j-1)(a+2j)).  It converges fast for
    x < (a+1)/(a+b+2).
    """
    c = 1.0
    den = 1.0 - (a + b) * x / (a + 1.0)
    den = 1.0 / (den if abs(den) > _TINY else _TINY)
    frac = den
    for j in range(1, _MAX_TERMS):
        for num in (
            j * (b - j) * x / ((a + 2 * j - 1) * (a + 2 * j)),
            -(a + j) * (a + b + j) * x / ((a + 2 * j) * (a + 2 * j + 1)),
        ):
            den = 1.0 + num * den
            den = 1.0 / (den if abs(den) > _TINY else _TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _TINY else _TINY
            step = c * den
            frac *= step
        if abs(step - 1.0) < _EPS:
            return frac
    raise ArithmeticError(f"incomplete beta continued fraction did not converge at {x}, {a}, {b}")


def _betainc(x: float, a: float, b: float) -> float:
    """The regularised incomplete beta function I_x(a, b), for a, b > 0."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(1.0 - x, b, a)
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b)) / a
    return front * _beta_cf(x, a, b)


def _beta_start(p: float, a: float, b: float, log_b: float) -> float:
    """A first guess at the x with I_x(a, b) = p.

    For a, b >= 1 the normal approximation of Abramowitz & Stegun 26.5.22,
    with the normal quantile of 26.2.23.  Otherwise the leading term of
    I_x at whichever end of (0, 1) holds p: I_x ~ x^a / (a B) near 0 and
    1 - I_x ~ (1-x)^b / (b B) near 1, the ends weighted by those terms at
    the mean a / (a + b).
    """
    if a >= 1.0 and b >= 1.0:
        r = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
        y = r - (2.515517 + r * (0.802853 + r * 0.010328)) / (
            1.0 + r * (1.432788 + r * (0.189269 + r * 0.001308))
        )
        y = y if p < 0.5 else -y
        lam = (y * y - 3.0) / 6.0
        h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
        w = y * math.sqrt(h + lam) / h - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0)) * (
            lam + 5.0 / 6.0 - 2.0 / (3.0 * h)
        )
        return a / (a + b * math.exp(2.0 * w))
    head = a * math.log(a / (a + b)) - math.log(a)
    tail = b * math.log(b / (a + b)) - math.log(b)
    if tail - head < 700.0 and math.log(p) + math.log1p(math.exp(tail - head)) < 0.0:
        return math.exp((math.log(p * a) + log_b) / a)
    return -math.expm1((math.log((1.0 - p) * b) + log_b) / b)


def _beta_ppf(p: float, a: float, b: float) -> float:
    """The x in (0, 1) with I_x(a, b) = p, for 0 < p < 1.

    Newton steps on I_x - p, whose derivative is the beta density, from
    :func:`_beta_start`, kept inside a bracket [lo, hi] of the root that
    every evaluation narrows; a step that would leave the bracket is
    replaced by bisection.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile level {p} outside (0, 1)")
    log_b = _log_beta(a, b)
    x = min(max(_beta_start(p, a, b, log_b), 1e-300), 1.0 - 1e-16)
    lo, hi = 0.0, 1.0
    for _ in range(2000):
        f = _betainc(x, a, b) - p
        if f == 0.0:
            return x
        if f < 0.0:
            lo = x
        else:
            hi = x
        density = math.exp((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - log_b)
        step = f / density if density > 0.0 else math.inf
        if abs(step) <= 1e-12 * x:
            return x - step
        x -= step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if x in (lo, hi):
                return x
    raise ArithmeticError(f"beta quantile did not converge at p={p}, a={a}, b={b}")


def _t_ppf(p: float, df: float) -> float:
    """Quantile of Student's t law with ``df`` degrees of freedom.

    With q the smaller tail, |t| solves t^2 = df (1 - x) / x for
    x = I^-1(2q; df/2, 1/2).  When x > 1/2 the solve is for y = 1 - x,
    through I_y(1/2, df/2) = 1 - 2q, so that the small factor 1 - x keeps
    its relative precision.  At df = 1 the Cauchy closed form is exact.
    """
    if df == 1:
        return math.tan(math.pi * (p - 0.5))
    if p == 0.5:
        return 0.0
    q2 = 2.0 * min(p, 1.0 - p)
    if _betainc(0.5, df / 2.0, 0.5) >= q2:
        x = _beta_ppf(q2, df / 2.0, 0.5)
        t = math.sqrt(df * (1.0 - x) / x)
    else:
        y = _beta_ppf(1.0 - q2, 0.5, df / 2.0)
        t = math.sqrt(df * y / (1.0 - y))
    return t if p > 0.5 else -t
