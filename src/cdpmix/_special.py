"""The three special functions the package needs, without importing scipy.

``scipy.special`` costs more than half of ``import cdpmix.cli``, and the
package uses three of its functions. These ports keep every result that
depends on them:

* ``gammaln`` is the Cephes ``lgam`` that scipy 1.17 runs, operation for
  operation, so it returns the same doubles as scipy's on every argument
  the tests try, negatives, poles and infinities included.
* ``chi2_isf`` is the chi-square quantile of an upper-tail probability,
  which ``scipy.special.chdtri`` gives, by another algorithm; the two agree
  to within 1e-13 relative, so verify prints the same thresholds.
* ``logsumexp`` is the real one-dimensional case of
  ``scipy.special.logsumexp``, with the same numpy operations in the same
  order, so it returns the same double.
"""

from __future__ import annotations

import math

import numpy as np

# Cephes lgam coefficients: A is the Stirling correction series, B/C the
# rational approximation on [2, 3); C's leading 1 is implied in Cephes.
_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
      -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
      -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_C = (1.0, -3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
      -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_LOGPI = 1.14472988584940017414  # log(pi)
_MAXLGM = 2.556348e305


def _polevl(x: float, coef: tuple) -> float:
    """The polynomial with coefficients ``coef``, highest degree first, at x."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def gammaln(x: float) -> float:
    """Log of the absolute value of the gamma function; ``inf`` at the poles."""
    x = float(x)
    if not math.isfinite(x):
        return x
    if x < -34.0:
        q = -x
        w = gammaln(q)
        p = math.floor(q)
        if p == q:
            return math.inf
        z = q - p
        if z > 0.5:
            p += 1.0
            z = p - q
        z = q * math.sin(math.pi * z)
        if z == 0.0:
            return math.inf
        return _LOGPI - math.log(z) - w
    if x < 13.0:
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            if u == 0.0:
                return math.inf
            z /= u
            p += 1.0
            u = x + p
        z = abs(z)
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        return math.log(z) + x * _polevl(x, _B) / _polevl(x, _C)
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _polevl(p, _A) / x


_EPS = 2.0 ** -52
_TINY = 1e-300


def _log_gamma_q(a: float, x: float) -> float:
    """Log of the regularized upper incomplete gamma Q(a, x), for a, x > 0:
    by the series for P below ``a + 1``, by Lentz's continued fraction above."""
    log_front = a * math.log(x) - x - gammaln(a)
    if x < a + 1.0:
        k = a
        term = total = 1.0 / a
        while term > total * _EPS:
            k += 1.0
            term *= x / k
            total += term
        return math.log1p(-total * math.exp(log_front))
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) <= _EPS:
            return log_front + math.log(h)


def chi2_isf(df: float, q: float) -> float:
    """The x with P(X > x) = q for X chi-square with ``df`` degrees of freedom.

    Newton's method on log Q(df/2, x/2) from the Wilson-Hilferty guess, until
    the step stops shrinking: from there rounding in Q, not the distance to
    the root, sets its size.
    """
    if not (df > 0 and 0.0 < q < 1.0):
        raise ValueError(f"chi2_isf needs df > 0 and 0 < q < 1, got df={df}, q={q}")
    a = 0.5 * df
    # upper normal quantile of q (Abramowitz and Stegun 26.2.23), good to 4.5e-4
    t = math.sqrt(-2.0 * math.log(min(q, 1.0 - q)))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    if q > 0.5:
        z = -z
    v = 2.0 / (9.0 * df)
    y = max(a * (1.0 - v + z * math.sqrt(v)) ** 3, 1e-3 * a)
    log_q = math.log(q)
    lga = gammaln(a)
    last = math.inf
    for _ in range(100):
        log_tail = _log_gamma_q(a, y)
        # d log Q / dy = -density / Q
        step = (log_tail - log_q) * math.exp(log_tail - ((a - 1.0) * math.log(y) - y - lga))
        if abs(step) >= last:
            return 2.0 * y
        last = abs(step)
        y = y + step if y + step > 0 else 0.5 * y
    raise ArithmeticError(f"chi2_isf did not converge at df={df}, q={q}")


def logsumexp(a) -> float:
    """``log(sum(exp(a)))`` over a 1-D sequence of reals, exactly as scipy computes it:
    the largest value and its ties taken out of the sum, then added back in log space."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if a.size == 0:
        return -math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        a_max = np.max(a, axis=0, keepdims=True)
        i_max = a == a_max
        m = np.sum(i_max.astype(float), axis=0, keepdims=True, dtype=float)
        rest = np.where(i_max, -np.inf, a)
        s = np.sum(np.exp(rest - a_max), axis=0, keepdims=True, dtype=float)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
    if not np.isfinite(out[0]):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.log(np.sum(np.exp(a), axis=0, keepdims=True))
    return float(out[0])
