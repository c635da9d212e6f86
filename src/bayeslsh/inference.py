"""Posterior inference over similarity from hash agreement counts.

Given that m of the first n hashes of a pair agree, the likelihood of the
underlying per-hash collision probability is binomial. For the jaccard
measure the collision probability equals the similarity itself and a Beta
prior is conjugate; for the cosine measure the collision probability is
r = 1 - theta/pi, restricted to [0.5, 1] for non-negative vectors, and a
uniform prior on r is used. Each posterior class answers the three
queries that drive the search loop:

* prune probability  Pr[S >= t | m, n]
* the posterior mode (the similarity estimate)
* concentration      Pr[|S - estimate| < delta | m, n]

The prune and concentration probabilities are regularized incomplete beta
values from scipy.special: betainc for jaccard, betaincc for the cosine
upper tails. The cosine ratio is taken in logs; a tail below the smallest
normal float (the normalizer Pr[R >= 0.5] at large n) is summed there from
the binomial identity. The fixed-hash baseline answers the same queries
from its maximum-likelihood estimate alone.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaincc, gammaln, logsumexp

from .errors import NumericError

_TINY = np.finfo(np.float64).tiny

# required_hashes gives up once its bracket passes this many hashes
_MAX_REQUIRED_HASHES = 1 << 20


# --- frequentist baseline ---------------------------------------------------


def ml_estimate(m: int, n: int) -> float:
    """Maximum-likelihood collision probability m/n."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0 <= m <= n:
        raise ValueError("m must be in [0, n]")
    return m / n


def _binom_logpmf(m: np.ndarray, n: int, s: float) -> np.ndarray:
    """log Pr[Binomial(n, s) = m] for each m; s in (0, 1)."""
    return (
        gammaln(n + 1)
        - gammaln(m + 1)
        - gammaln(n - m + 1)
        + m * math.log(s)
        + (n - m) * math.log1p(-s)
    )


def _binomial_coverage(s: float, n: int, delta: float) -> float:
    """Pr[lo <= Binomial(n, s) <= hi] for the integer band around s*n.

    The band is rounded outward (floor of the lower endpoint, ceil of the
    upper), so any m whose interval [m/n - delta, m/n + delta] touches s is
    counted.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("s must be in (0, 1)")
    if n <= 0:
        raise ValueError("n must be positive")
    lo = max(math.floor((s - delta) * n), 0)
    hi = min(math.ceil((s + delta) * n), n)
    if lo == 0 and hi == n:
        return 1.0
    return float(np.exp(_binom_logpmf(np.arange(lo, hi + 1), n, s)).sum())


def required_hashes(s: float, delta: float, gamma: float, grid: int = 16) -> int:
    """Smallest hash count (on a 16-hash grid) concentrating the ML estimate.

    Finds the least grid-aligned n with Pr[|m/n - s| <= delta] >= 1 - gamma,
    by exponential bracketing, bisection on the grid, and a final slide to
    the lower edge of the satisfying run, on the outward-rounded band of
    `_binomial_coverage`. Raises ValueError unless delta and gamma are in
    (0, 1), and NumericError when the bracket passes 2^20 hashes.
    """
    if grid < 1:
        raise ValueError("grid must be >= 1")
    for name, value in (("delta", delta), ("gamma", gamma)):
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {value}")

    def ok(n: int) -> bool:
        return _binomial_coverage(s, n, delta) >= 1.0 - gamma

    lo, hi = 0, grid
    while not ok(hi):
        lo, hi = hi, hi * 2
        if hi > _MAX_REQUIRED_HASHES:
            raise NumericError(f"no hash count below {_MAX_REQUIRED_HASHES} concentrates s={s}")
    while hi - lo > grid:
        mid = (lo + hi) // (2 * grid) * grid
        if ok(mid):
            hi = mid
        else:
            lo = mid
    while hi - grid > 0 and ok(hi - grid):
        hi -= grid
    return hi


# --- priors -----------------------------------------------------------------


@dataclass(frozen=True)
class BetaParams:
    """Beta distribution shape parameters; both must be positive."""

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("Beta parameters must be positive")


UNIFORM_PRIOR = BetaParams(1.0, 1.0)


def fit_beta_mom(samples) -> BetaParams:
    """Method-of-moments Beta fit from similarity samples.

    Uses the population variance (divide by the sample count). Falls back
    to the uniform Beta(1, 1) when there are fewer than 20 samples, the
    variance is zero, or the estimates come out non-positive.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size < 20:
        return UNIFORM_PRIOR
    mean = float(arr.mean())
    var = float(arr.var())
    # float noise on identical samples is not a variance
    if var <= 1e-14:
        return UNIFORM_PRIOR
    factor = mean * (1.0 - mean) / var - 1.0
    alpha = mean * factor
    beta = (1.0 - mean) * factor
    if alpha <= 0.0 or beta <= 0.0:
        return UNIFORM_PRIOR
    return BetaParams(alpha, beta)


# --- posteriors -------------------------------------------------------------


def r2c(r: float) -> float:
    """Cosine similarity from per-hash collision probability."""
    return math.cos(math.pi * (1.0 - r))


def c2r(c: float) -> float:
    """Per-hash collision probability from cosine similarity."""
    return 1.0 - math.acos(c) / math.pi


def _log_upper_mass(x: float, a: float, b: float) -> float:
    """log Pr[R >= x] for R ~ Beta(a, b) with integer shapes a, b >= 1.

    Below the smallest normal float the tail is summed in logs from
    Pr[R >= x] = Pr[Binomial(a + b - 1, x) <= a - 1].
    """
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    tail = float(betaincc(a, b, x))
    if tail >= _TINY:
        return math.log(tail)
    if x >= 1.0:
        return -math.inf
    return float(logsumexp(_binom_logpmf(np.arange(int(a)), int(a + b) - 1, x)))


class JaccardPosterior:
    """Beta-prior posterior over jaccard similarity.

    A match count outside [0, n] leaves a posterior shape non-positive,
    which `BetaParams` refuses with ValueError.
    """

    def __init__(self, prior: BetaParams = UNIFORM_PRIOR):
        self.prior = prior

    def prune_prob(self, m: int, n: int, t: float) -> float:
        """Pr[S >= t | m of n hashes matched]."""
        post = BetaParams(m + self.prior.alpha, n - m + self.prior.beta)
        return float(betainc(post.beta, post.alpha, 1.0 - t))

    def map_estimate(self, m: int, n: int) -> float:
        """Posterior similarity estimate (m+alpha-1)/(n+alpha+beta-1).

        Posteriors with a shape parameter at or below 1 put their mode on the
        matching boundary, so those return exactly 0 or 1.
        """
        prior = self.prior
        a, b = m + prior.alpha, n - m + prior.beta
        if a <= 1.0 and b > 1.0:
            return 0.0
        if b <= 1.0 and a > 1.0:
            return 1.0
        if a <= 1.0 and b <= 1.0:
            return 1.0 if a >= b else 0.0
        return (m + prior.alpha - 1.0) / (n + prior.alpha + prior.beta - 1.0)

    def concentration_prob(self, m: int, n: int, estimate: float, delta: float) -> float:
        """Pr[|S - estimate| < delta | m, n]; integration limits clamped to [0, 1]."""
        post = BetaParams(m + self.prior.alpha, n - m + self.prior.beta)
        hi = min(estimate + delta, 1.0)
        lo = max(estimate - delta, 0.0)
        mass = betainc(post.alpha, post.beta, hi) - betainc(post.alpha, post.beta, lo)
        return max(0.0, float(mass))


class CosinePosterior:
    """Uniform-prior posterior over the collision rate r in [0.5, 1].

    Both posterior tails carry a common normalizer Pr[R >= 0.5] that can
    underflow linear floats for large n, so their ratios are taken in logs.
    """

    def prune_prob(self, m: int, n: int, t: float) -> float:
        """Pr[S >= t | m, n]."""
        a, b = m + 1.0, n - m + 1.0
        num = _log_upper_mass(c2r(t), a, b)
        den = _log_upper_mass(0.5, a, b)
        if num == -math.inf:
            return 0.0
        return min(1.0, math.exp(num - den))

    def map_estimate(self, m: int, n: int) -> float:
        """Posterior mode mapped to cosine; collision rates below 0.5 clamp to 0."""
        r_hat = 0.5 if n == 0 else max(m / n, 0.5)
        return r2c(min(r_hat, 1.0))

    def concentration_prob(self, m: int, n: int, estimate: float, delta: float) -> float:
        """Pr[|S - estimate| < delta | m, n] on the restricted posterior."""
        a, b = m + 1.0, n - m + 1.0
        s_hi = min(estimate + delta, 1.0)
        s_lo = estimate - delta
        r_hi = c2r(s_hi)
        r_lo = 0.5 if s_lo <= 0.0 else c2r(s_lo)
        den = _log_upper_mass(0.5, a, b)
        lo_term = math.exp(_log_upper_mass(r_lo, a, b) - den)
        up = _log_upper_mass(r_hi, a, b)
        hi_term = 0.0 if up == -math.inf else math.exp(up - den)
        return max(0.0, min(1.0, lo_term - hi_term))


class MaxLikelihoodPosterior:
    """The fixed-hash baseline posed as a posterior: all mass on the ML estimate.

    The estimate is m/n for jaccard and the cosine posterior's mode for
    cosine. A pair survives exactly when its estimate reaches t, so the
    minMatches entry at n is the least m whose estimate does, and every
    estimate counts as concentrated.
    """

    def __init__(self, measure: str):
        if measure == "cosine":
            self.map_estimate = CosinePosterior().map_estimate
        elif measure == "jaccard":
            self.map_estimate = ml_estimate
        else:
            raise ValueError(f"unknown measure {measure!r}")

    def prune_prob(self, m: int, n: int, t: float) -> float:
        return float(self.map_estimate(m, n) >= t)

    def concentration_prob(self, m: int, n: int, estimate: float, delta: float) -> float:
        return 1.0


def posterior_for_measure(measure: str, prior: BetaParams | None = None):
    if measure == "cosine":
        if prior is not None:
            raise ValueError("the cosine posterior has a fixed uniform prior")
        return CosinePosterior()
    if measure == "jaccard":
        return JaccardPosterior(prior if prior is not None else UNIFORM_PRIOR)
    raise ValueError(f"unknown measure {measure!r}")


# --- precomputed tables -----------------------------------------------------


def build_minmatch_table(posterior, t: float, epsilon: float, k: int, max_hashes: int) -> dict[int, int]:
    """The minMatches table: each batch boundary n to its least surviving match count.

    Maps n = k, 2k, ..., max_hashes to the least m with
    Pr[S >= t | m, n] >= epsilon, found by binary search, or to n + 1 when
    no match count survives at n hashes. Built once per search so the
    per-pair prune test is a single integer comparison.
    """
    if k < 1:
        raise ValueError("batch size must be >= 1")
    entries: dict[int, int] = {}
    for n in range(k, max_hashes + 1, k):
        if posterior.prune_prob(n, n, t) < epsilon:
            entries[n] = n + 1
            continue
        lo, hi = 0, n
        # invariant: prune_prob(hi) >= epsilon, prune_prob(lo - 1) unknown/below
        while lo < hi:
            mid = (lo + hi) // 2
            if posterior.prune_prob(mid, n, t) >= epsilon:
                hi = mid
            else:
                lo = mid + 1
        entries[n] = lo
    return entries


class ConcentrationCache:
    """Memoized (concentrated?, estimate) lookups keyed by (m, n).

    Results are deterministic functions of (m, n) for fixed posterior,
    delta and gamma, so concurrent duplicate inserts are harmless.
    """

    def __init__(self, posterior, delta: float, gamma: float):
        self.posterior = posterior
        self.delta = delta
        self.gamma = gamma
        self._cache: dict[tuple[int, int], tuple[bool, float]] = {}
        self._lock = threading.Lock()

    def lookup(self, m: int, n: int) -> tuple[bool, float]:
        key = (m, n)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        estimate = self.posterior.map_estimate(m, n)
        conc = self.posterior.concentration_prob(m, n, estimate, self.delta)
        value = (conc >= 1.0 - self.gamma, estimate)
        with self._lock:
            self._cache[key] = value
        return value

    def __len__(self) -> int:
        return len(self._cache)


# --- prior-shape demonstration grids ----------------------------------------


def power_law_posterior_grid(
    exponent: float, m: int, n: int, gridpoints: int = 1001
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized posterior density on [0.5, 1] under the prior r^exponent.

    The density is proportional to r^(m+exponent) * (1-r)^(n-m), evaluated
    on a uniform grid and normalized by the trapezoid rule to integrate
    to 1 within 1e-6.
    """
    if gridpoints < 3:
        raise ValueError("need at least 3 grid points")
    if not math.isfinite(exponent):
        raise ValueError(f"prior exponent must be finite, got {exponent}")
    r = np.linspace(0.5, 1.0, gridpoints)
    logd = (m + exponent) * np.log(r)
    if n > m:
        with np.errstate(divide="ignore"):
            logd = logd + (n - m) * np.log1p(-r)
    logd -= logd.max()
    density = np.exp(logd)
    area = float(np.trapezoid(density, r))
    if area <= 0.0:
        raise NumericError("degenerate posterior grid")
    density /= area
    return r, density
