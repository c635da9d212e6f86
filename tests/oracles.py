"""Independent reference implementations used to check the package.

Everything here is deliberately written the slow, obvious way: quadrature
instead of scipy's incomplete beta, per-hash loops and one vector at a
time instead of packed bits over the whole corpus, linear scans instead of
binary searches, a dict-of-lists inverted index instead of a sorted join,
one pair at a time (`cosine_exact`, `jaccard_exact`, `exact_scatter_loop`,
`verify_pair_loop`) instead of the package's batch kernels, and one vector
at a time (`tfidf_loop`) instead of flat arrays.
Tests compare package output against these.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-11, panels: int = 64) -> float:
    """Composite adaptive Simpson rule.

    The interval is pre-split into `panels` panels so narrow integrand bumps
    cannot hide from the error estimate, then each panel is refined
    recursively until its Richardson error estimate drops below its share
    of `tol`.
    """

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def refine(x0, x2, f0, f1, f2, whole, eps, depth):
        x1 = 0.5 * (x0 + x2)
        xl, xr = 0.5 * (x0 + x1), 0.5 * (x1 + x2)
        fl, fr = f(xl), f(xr)
        left = simpson(x0, x1, f0, fl, f1)
        right = simpson(x1, x2, f1, fr, f2)
        if depth <= 0:
            return left + right
        if abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return refine(x0, x1, f0, fl, f1, left, eps / 2.0, depth - 1) + refine(
            x1, x2, f1, fr, f2, right, eps / 2.0, depth - 1
        )

    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for x0, x2 in zip(edges[:-1], edges[1:]):
        x1 = 0.5 * (x0 + x2)
        f0, f1, f2 = f(x0), f(x1), f(x2)
        whole = simpson(x0, x2, f0, f1, f2)
        total += refine(x0, x2, f0, f1, f2, whole, tol / panels, 48)
    return total


def beta_mass(
    a: float, b: float, lo: float, hi: float, support: tuple[float, float] = (0.0, 1.0)
) -> float:
    """Integral of r^(a-1) (1-r)^(b-1) over [lo, hi], up to a fixed scale.

    Substituting r = sin^2(phi) turns the integrand into
    2 sin^(2a-1) cos^(2b-1), smooth at both endpoints whenever a, b >= 0.5,
    so the quadrature does not fight endpoint singularities. The density is
    scaled by its maximum over `support` (the region the posterior is
    restricted to); calls sharing `support` share the scale, so it cancels
    in the probability ratios the oracles return. Scaling by the in-support
    maximum keeps the integrand O(1) where it matters even when the
    unrestricted mode lies outside the support.
    """
    if a < 0.5 or b < 0.5:
        raise ValueError("oracle requires shapes >= 0.5")
    lo, hi = max(lo, 0.0), min(hi, 1.0)
    if lo >= hi:
        return 0.0
    if a > 1.0 and b > 1.0:
        mode = (a - 1.0) / (a + b - 2.0)
    elif a <= 1.0 and b > 1.0:
        mode = 1e-9
    elif b <= 1.0 and a > 1.0:
        mode = 1.0 - 1e-9
    else:
        mode = 0.5
    mode = min(max(mode, support[0] + 1e-12, 1e-12), support[1] - 1e-12)
    log_max = (a - 1.0) * math.log(mode) + (b - 1.0) * math.log1p(-mode)

    def pow_log(base: float, expo: float) -> float:
        if expo == 0.0:
            return 0.0
        return expo * math.log(base) if base > 0.0 else -math.inf

    def f(phi: float) -> float:
        s, c = math.sin(phi), math.cos(phi)
        logv = pow_log(s, 2 * a - 1) + pow_log(c, 2 * b - 1) - log_max
        return 2.0 * math.exp(logv) if logv > -745.0 else 0.0

    return adaptive_simpson(f, math.asin(math.sqrt(lo)), math.asin(math.sqrt(hi)))


def jaccard_prune_oracle(alpha: float, beta: float, m: int, n: int, t: float) -> float:
    """Pr[S >= t | m, n] by quadrature over the Beta posterior."""
    a, b = m + alpha, n - m + beta
    return beta_mass(a, b, t, 1.0) / beta_mass(a, b, 0.0, 1.0)


def jaccard_concentration_oracle(
    alpha: float, beta: float, m: int, n: int, estimate: float, delta: float
) -> float:
    a, b = m + alpha, n - m + beta
    lo, hi = max(estimate - delta, 0.0), min(estimate + delta, 1.0)
    return beta_mass(a, b, lo, hi) / beta_mass(a, b, 0.0, 1.0)


def _c2r(c: float) -> float:
    return 1.0 - math.acos(c) / math.pi


def cosine_prune_oracle(m: int, n: int, t: float) -> float:
    """Pr[S >= t | m, n] for the uniform prior on r restricted to [0.5, 1]."""
    a, b = m + 1.0, n - m + 1.0
    half = (0.5, 1.0)
    return min(1.0, beta_mass(a, b, _c2r(t), 1.0, half) / beta_mass(a, b, 0.5, 1.0, half))


def cosine_concentration_oracle(m: int, n: int, estimate: float, delta: float) -> float:
    a, b = m + 1.0, n - m + 1.0
    s_lo, s_hi = estimate - delta, min(estimate + delta, 1.0)
    r_lo = 0.5 if s_lo <= 0.0 else _c2r(s_lo)
    r_hi = _c2r(s_hi)
    half = (0.5, 1.0)
    return beta_mass(a, b, r_lo, r_hi, half) / beta_mass(a, b, 0.5, 1.0, half)


def binomial_coverage_oracle(s: float, n: int, lo: int, hi: int) -> float:
    """Pr[lo <= Binomial(n, s) <= hi] by direct pmf summation."""
    lo, hi = max(lo, 0), min(hi, n)
    total = 0.0
    for m in range(lo, hi + 1):
        logp = (
            gammaln(n + 1)
            - gammaln(m + 1)
            - gammaln(n - m + 1)
            + m * math.log(s)
            + (n - m) * math.log1p(-s)
        )
        total += math.exp(logp)
    return total


def min_matches_linear(posterior, t: float, epsilon: float, n: int) -> int:
    """Smallest m with Pr[S >= t | m, n] >= epsilon, by linear scan; n+1 if none."""
    for m in range(n + 1):
        if posterior.prune_prob(m, n, t) >= epsilon:
            return m
    return n + 1


def cosine_exact(x, y) -> float:
    """Cosine of two L2-normalized sparse vectors, clamped to [0, 1].

    The dot product runs over x's features looked up in a dict of y's, and
    is summed exactly rounded; a nonempty vector whose norm is off 1 by
    more than 1e-6 raises the package's message.
    """
    for v in (x, y):
        if len(v) > 0 and abs(v.norm() - 1.0) > 1e-6:
            raise ValueError(f"vector norm {v.norm():.9f} deviates from 1")
    weight_of = dict(zip(y.features.tolist(), y.weights.tolist()))
    dot = math.fsum(
        w * weight_of.get(f, 0.0) for f, w in zip(x.features.tolist(), x.weights.tolist())
    )
    return min(1.0, max(0.0, dot))


def jaccard_exact(x, y) -> float:
    """|intersection| / |union| of two feature sets; 0 for two empty sets."""
    for v in (x, y):
        if len(v) > 0 and not np.all(v.weights == 1.0):
            raise ValueError("jaccard similarity requires unit weights")
    xs, ys = set(x.features.tolist()), set(y.features.tolist())
    union = len(xs | ys)
    return len(xs & ys) / union if union else 0.0


def exact_scatter_loop(corpus, pairs) -> np.ndarray:
    """Exact similarities of `pairs` by a dense scatter of i and a gather of j, pair by pair.

    Each sum adds the products w_i * w_j over j's features in ascending
    order, starting from 0, so it is the float that `exact_similarities`
    must give bit for bit. Cosine sums are clamped to [0, 1]; jaccard sums
    are divided by the union size (0 for two empty sets).
    """
    indptr, features, weights = corpus.flat()
    sizes = np.diff(indptr)
    dense = np.zeros(corpus.dim)
    sims = []
    for i, j in np.asarray(pairs, dtype=np.int64).reshape(-1, 2).tolist():
        own_i, own_j = slice(indptr[i], indptr[i + 1]), slice(indptr[j], indptr[j + 1])
        dense[features[own_i]] = weights[own_i]
        total = 0.0
        for product in (dense[features[own_j]] * weights[own_j]).tolist():
            total += product
        dense[features[own_i]] = 0.0
        if corpus.mode == "jaccard":
            union = sizes[i] + sizes[j] - total
            total = total / union if union > 0 else 0.0
        else:
            total = min(1.0, max(0.0, total))
        sims.append(total)
    return np.array(sims, dtype=np.float64)


def dense_similarity(corpus) -> np.ndarray:
    """All-pairs similarity by dense per-pair loops (no sparse algebra)."""
    n = len(corpus)
    out = np.eye(n)
    dense = np.zeros((n, corpus.dim))
    for k, vec in enumerate(corpus.vectors):
        dense[k, vec.features] = vec.weights
    jaccard = corpus.mode == "jaccard"
    for i in range(n):
        for j in range(i + 1, n):
            if jaccard:
                both = (dense[i] > 0) & (dense[j] > 0)
                either = (dense[i] > 0) | (dense[j] > 0)
                sim = both.sum() / either.sum() if either.any() else 0.0
            else:
                ni = float(np.linalg.norm(dense[i]))
                nj = float(np.linalg.norm(dense[j]))
                sim = float(dense[i] @ dense[j]) / (ni * nj) if ni and nj else 0.0
            out[i, j] = out[j, i] = float(sim)
    return out


def cosine_signature(family, vec, lo: int, hi: int) -> np.ndarray:
    """Sign bits (0/1) of hashes [lo, hi); a projection of exactly 0 maps to 1."""
    bits = np.empty(hi - lo, dtype=np.uint8)
    for k, i in enumerate(range(lo, hi)):
        plane = family.plane(i)
        bits[k] = 1 if float(np.dot(plane[vec.features], vec.weights)) >= 0.0 else 0
    return bits


def minhash_signature(family, vec, lo: int, hi: int) -> np.ndarray:
    """Minwise hash values [lo, hi) of the feature set of `vec`."""
    if len(vec) == 0:
        raise ValueError("minhash of an empty set is undefined")
    a, b = family.params(lo, hi)
    elems = family.prepare(vec.features)
    values = (a[:, None] * elems[None, :] + b[:, None]) % np.uint64(family.prime)
    return values.min(axis=1).astype(np.uint32)


def count_matches_loop(store, i: int, j: int, lo: int, hi: int) -> int:
    """Per-hash match count straight off band_values, one column at a time."""
    values = store.band_values(lo, hi)
    return int(sum(1 for k in range(hi - lo) if values[i, k] == values[j, k]))


def verify_pair_loop(verifier, i: int, j: int) -> tuple[int, int, float, bool]:
    """One pair through the batch loop, one scalar match count per batch.

    Returns (pruned_at, hashes_used, estimate, low_confidence) in the
    convention of the package's batch verifier: pruned_at is 0 for a pair
    that survived, and a pruned pair's estimate is 0.0.
    """
    k = verifier.config.batch_hashes
    m = 0
    n = 0
    while n < verifier.budget:
        n += k
        verifier.store.extend(n)
        m += verifier.store.count_matches(i, j, n - k, n)
        if m < verifier.table[n]:
            return n, n, 0.0, False
        concentrated, estimate = verifier.cache.lookup(m, n)
        if concentrated:
            return 0, n, estimate, False
    _, estimate = verifier.cache.lookup(m, verifier.budget)
    return 0, verifier.budget, estimate, True


def allpairs_loop(corpus, t: float) -> np.ndarray:
    """Prefix-filtered AllPairs, one vector and one feature at a time.

    Vectors are visited in order. Each probes the dict-of-lists index built
    from the vectors before it, accumulating scores over every one of its
    features in decreasing-df rank order, and pairs with every indexed
    vector whose score is positive. It then indexes its features past the
    longest prefix whose bound sum w * maxw stays below t.
    """
    n = len(corpus)
    df = np.zeros(corpus.dim, dtype=np.int64)
    maxw = np.zeros(corpus.dim, dtype=np.float64)
    for vec in corpus.vectors:
        df[vec.features] += 1
        np.maximum.at(maxw, vec.features, vec.weights)
    rank = np.empty(corpus.dim, dtype=np.int64)
    rank[np.lexsort((np.arange(corpus.dim), -df))] = np.arange(corpus.dim)

    index: dict[int, tuple[list[int], list[float]]] = {}
    pairs: list[tuple[int, int]] = []
    scores = np.zeros(n, dtype=np.float64)
    for x, vec in enumerate(corpus.vectors):
        order = np.argsort(rank[vec.features], kind="stable")
        feats = vec.features[order]
        weights = vec.weights[order]
        touched: set[int] = set()
        for f, w in zip(feats, weights):
            ids, ws = index.get(int(f), ([], []))
            scores[ids] += w * np.asarray(ws, dtype=np.float64)
            touched.update(ids)
        for y in sorted(touched):
            if scores[y] > 0.0:
                pairs.append((y, x))
            scores[y] = 0.0
        bound = np.cumsum(weights * maxw[feats])
        start = int(np.searchsorted(bound, t, side="left"))
        for f, w in zip(feats[start:], weights[start:]):
            ids, ws = index.setdefault(int(f), ([], []))
            ids.append(x)
            ws.append(float(w))
    return np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)


def tfidf_loop(corpus) -> list[tuple[np.ndarray, np.ndarray]]:
    """tf * ln(N/df) reweighting one vector at a time: (features, weights) per vector.

    Entries whose weight becomes zero are dropped, and each vector is
    renormalized on its own by the package's `_normalized`.
    """
    from bayeslsh.corpus import _normalized

    n = len(corpus)
    df = np.zeros(corpus.dim, dtype=np.int64)
    for vec in corpus.vectors:
        df[vec.features] += 1
    idf = np.zeros(corpus.dim, dtype=np.float64)
    idf[df > 0] = np.log(n / df[df > 0])
    out = []
    for vec in corpus.vectors:
        w = vec.weights * idf[vec.features]
        keep = w > 0
        out.append((vec.features[keep], _normalized(w[keep])))
    return out
