"""Sparse vector collections and exact similarity measures.

A corpus is an ordered collection of sparse non-negative vectors under one
of three measure modes:

* ``cosine-weighted``: real-valued weights, L2-normalized at load time.
* ``cosine-binary``: unit input weights, L2-normalized at load time.
* ``jaccard``: sets; every stored weight is exactly 1.

The text format is one vector per line, ``id<TAB>feature:weight ...`` in
weighted mode and ``id<TAB>feature feature ...`` in the binary modes.
"""

from __future__ import annotations

import gzip
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import GuardError, ParseError

COSINE_WEIGHTED = "cosine-weighted"
COSINE_BINARY = "cosine-binary"
JACCARD = "jaccard"
MODES = (COSINE_WEIGHTED, COSINE_BINARY, JACCARD)

# Vectors whose norm is already this close to 1 are not renormalized, so a
# load -> serialize -> load round trip reproduces weights bit for bit.
_NORM_SKIP_TOL = 1e-12
_NORM_CHECK_TOL = 1e-6

# generate_synthetic refuses corpora whose brute-force truth would be huge.
_PAIR_GUARD = 10**8

# pairs of one i-group scored together by exact_similarities; bounds the
# gathered j entries to about this many vectors
_EXACT_SLICE = 4096


def is_cosine_mode(mode: str) -> bool:
    return mode in (COSINE_WEIGHTED, COSINE_BINARY)


def measure_for_mode(mode: str) -> str:
    """Hash-family measure ('cosine' or 'jaccard') backing a corpus mode."""
    return "cosine" if is_cosine_mode(mode) else "jaccard"


@dataclass
class SparseVector:
    """Sorted sparse vector: strictly ascending features, positive weights."""

    features: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.features.ndim != 1 or self.weights.ndim != 1:
            raise ValueError("features and weights must be 1-d arrays")
        if len(self.features) != len(self.weights):
            raise ValueError("features and weights differ in length")
        if len(self.features) > 0:
            if self.features[0] < 0:
                raise ValueError("features must be non-negative")
            if np.any(np.diff(self.features) <= 0):
                raise ValueError("features must be strictly ascending")
            if not np.all(np.isfinite(self.weights)) or np.any(self.weights <= 0):
                raise ValueError("weights must be positive and finite")

    def __len__(self) -> int:
        return len(self.features)

    def norm(self) -> float:
        return float(np.sqrt(np.dot(self.weights, self.weights)))


def _normalized(weights: np.ndarray) -> np.ndarray:
    nrm = math.sqrt(float(np.dot(weights, weights)))
    if nrm == 0.0 or abs(nrm - 1.0) <= _NORM_SKIP_TOL:
        return weights
    return weights / nrm


@dataclass
class Corpus:
    """Ordered vectors with unique string ids under one measure mode."""

    ids: list[str]
    vectors: list[SparseVector]
    mode: str
    dim: int | None = None
    _flat: tuple | None = field(default=None, repr=False, compare=False)
    _failing: np.ndarray | None = field(default=None, repr=False, compare=False)
    _csr: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if len(self.ids) != len(self.vectors):
            raise ValueError("ids and vectors differ in length")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("vector ids must be unique")
        max_feature = -1
        for v in self.vectors:
            if len(v) > 0:
                max_feature = max(max_feature, int(v.features[-1]))
        if self.dim is None:
            self.dim = max_feature + 1
        elif self.dim <= max_feature:
            raise ValueError(f"dim {self.dim} too small for feature {max_feature}")
        if self.mode == JACCARD:
            for vid, v in zip(self.ids, self.vectors):
                if len(v) > 0 and not np.all(v.weights == 1.0):
                    raise ValueError(f"vector {vid!r}: jaccard mode requires unit weights")

    def __len__(self) -> int:
        return len(self.vectors)

    def __getitem__(self, i: int) -> SparseVector:
        return self.vectors[i]

    def flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, features, weights): the vectors concatenated CSR-style; cached.

        Vector i owns entries indptr[i]:indptr[i + 1] of the other two.
        """
        if self._flat is None:
            indptr = np.zeros(len(self) + 1, dtype=np.int64)
            sizes = np.fromiter((len(v) for v in self.vectors), dtype=np.int64, count=len(self))
            np.cumsum(sizes, out=indptr[1:])
            if len(self.vectors) > 0:
                features = np.concatenate([v.features for v in self.vectors])
                weights = np.concatenate([v.weights for v in self.vectors])
            else:
                features = np.zeros(0, dtype=np.int64)
                weights = np.zeros(0, dtype=np.float64)
            self._flat = (indptr, features, weights)
        return self._flat

    def to_csr(self):
        """Corpus as a scipy CSR matrix of shape (len, dim) over `flat()`; cached."""
        if self._csr is None:
            from scipy.sparse import csr_matrix

            indptr, features, weights = self.flat()
            self._csr = csr_matrix((weights, features, indptr), shape=(len(self), self.dim))
        return self._csr


def _open_text(path, mode: str):
    path = str(path)
    if path.endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _parse_entries(body: str, weighted: bool, lineno: int):
    features: list[int] = []
    weights: list[float] = []
    for token in body.split():
        if weighted:
            feat_s, sep, weight_s = token.partition(":")
            if not sep:
                raise ParseError(f"token {token!r} lacks ':' separator", lineno)
        else:
            if ":" in token:
                raise ParseError(f"unexpected weight in binary-mode token {token!r}", lineno)
            feat_s, weight_s = token, "1"
        try:
            feat = int(feat_s)
        except ValueError:
            raise ParseError(f"bad feature {feat_s!r}", lineno) from None
        if feat < 0:
            raise ParseError(f"negative feature {feat}", lineno)
        try:
            weight = float(weight_s)
        except ValueError:
            raise ParseError(f"bad weight {weight_s!r}", lineno) from None
        if not math.isfinite(weight) or weight <= 0:
            raise ParseError(f"non-positive weight {weight_s!r}", lineno)
        features.append(feat)
        weights.append(weight)
    farr = np.asarray(features, dtype=np.int64)
    warr = np.asarray(weights, dtype=np.float64)
    order = np.argsort(farr, kind="stable")
    farr, warr = farr[order], warr[order]
    if len(farr) > 1 and np.any(np.diff(farr) == 0):
        dup = int(farr[np.nonzero(np.diff(farr) == 0)[0][0]])
        raise ParseError(f"duplicate feature {dup}", lineno)
    return farr, warr


def load_corpus(path, mode: str) -> Corpus:
    """Read a corpus file (gzip transparent). Cosine modes are L2-normalized."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    weighted = mode == COSINE_WEIGHTED
    ids: list[str] = []
    seen: set[str] = set()
    vectors: list[SparseVector] = []
    with _open_text(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            vid, _, body = line.partition("\t")
            if not vid:
                raise ParseError("empty vector id", lineno)
            if vid in seen:
                raise ParseError(f"duplicate vector id {vid!r}", lineno)
            seen.add(vid)
            features, weights = _parse_entries(body, weighted, lineno)
            if is_cosine_mode(mode):
                weights = _normalized(weights)
            ids.append(vid)
            vectors.append(SparseVector(features, weights))
    return Corpus(ids, vectors, mode)


def serialize_corpus(corpus: Corpus, path) -> None:
    """Write a corpus in the text format load_corpus reads."""
    weighted = corpus.mode == COSINE_WEIGHTED
    with _open_text(path, "w") as fh:
        for vid, vec in zip(corpus.ids, corpus.vectors):
            if weighted:
                body = " ".join(
                    f"{int(f)}:{w:.17g}" for f, w in zip(vec.features, vec.weights)
                )
            else:
                body = " ".join(str(int(f)) for f in vec.features)
            fh.write(f"{vid}\t{body}\n")


def tfidf_weight(corpus: Corpus) -> Corpus:
    """Reweight raw term counts by tf * ln(N/df) and renormalize.

    Features present in every vector get weight zero and are dropped.
    Only defined for cosine-weighted corpora, where weights carry counts.
    """
    if corpus.mode != COSINE_WEIGHTED:
        raise ValueError("tf-idf reweighting requires cosine-weighted mode")
    n = len(corpus)
    df = np.bincount(corpus.flat()[1], minlength=corpus.dim)
    idf = np.zeros(corpus.dim, dtype=np.float64)
    present = df > 0
    idf[present] = np.log(n / df[present])
    emptied = 0
    vectors = []
    for vec in corpus.vectors:
        w = vec.weights * idf[vec.features]
        keep = w > 0
        if not np.all(keep):
            feats, w = vec.features[keep], w[keep]
        else:
            feats = vec.features
        if len(feats) == 0 and len(vec) > 0:
            emptied += 1
        vectors.append(SparseVector(feats, _normalized(w)))
    if emptied:
        warnings.warn(f"tf-idf emptied {emptied} vector(s) (all features have df=N)")
    return Corpus(list(corpus.ids), vectors, corpus.mode, dim=corpus.dim)


def _entries(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of the entries of `rows`, and the index into `rows` owning each."""
    starts = indptr[rows]
    sizes = indptr[rows + 1] - starts
    owner = np.repeat(np.arange(len(rows)), sizes)
    pos = np.arange(len(owner)) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
    return pos, owner


def _check_rows(corpus: Corpus, rows: np.ndarray) -> None:
    """Exact similarity's checks on `rows` only: unit norm (cosine), unit weights (jaccard).

    Every vector is checked once per corpus, on the first call; later calls
    look the verdicts up.
    """
    if corpus._failing is None:
        indptr, _, weights = corpus.flat()
        sizes = np.diff(indptr)
        owner = np.repeat(np.arange(len(corpus)), sizes)
        if is_cosine_mode(corpus.mode):
            norm = np.sqrt(np.bincount(owner, weights=weights**2, minlength=len(corpus)))
            corpus._failing = (sizes > 0) & (np.abs(norm - 1.0) > _NORM_CHECK_TOL)
        else:
            corpus._failing = np.bincount(owner, weights=weights != 1.0, minlength=len(corpus)) > 0
    failing = rows[corpus._failing[rows]]
    if len(failing) == 0:
        return
    if is_cosine_mode(corpus.mode):
        raise ValueError(f"vector norm {corpus[int(failing[0])].norm():.9f} deviates from 1")
    raise ValueError("jaccard similarity requires unit weights")


def exact_similarities(corpus: Corpus, pairs) -> np.ndarray:
    """Exact similarity of every (i, j) row of `pairs`, in input order.

    Pairs are grouped by i. Vector i is scattered into one dense array,
    the j vectors of each slice of its group are gathered from `flat()`,
    and their products are summed per pair, so working memory is bounded
    by one slice. Cosine sums are clamped to [0, 1]; jaccard sums are
    intersection sizes, divided by the union size (0 for two empty sets).
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    sims = np.zeros(len(pairs), dtype=np.float64)
    if len(pairs) == 0:
        return sims
    if pairs.min() < 0 or pairs.max() >= len(corpus):
        raise IndexError(f"pair index out of range for {len(corpus)} vectors")
    _check_rows(corpus, pairs.ravel())
    indptr, features, weights = corpus.flat()
    order = np.argsort(pairs[:, 0], kind="stable")
    left, right = pairs[order, 0], pairs[order, 1]
    bounds = [0, *(np.flatnonzero(left[1:] != left[:-1]) + 1).tolist(), len(pairs)]
    dense = np.zeros(corpus.dim, dtype=np.float64)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        own = slice(indptr[left[start]], indptr[left[start] + 1])
        dense[features[own]] = weights[own]
        for lo in range(start, stop, _EXACT_SLICE):
            hi = min(lo + _EXACT_SLICE, stop)
            pos, owner = _entries(indptr, right[lo:hi])
            sims[order[lo:hi]] = np.bincount(
                owner, weights=dense[features[pos]] * weights[pos], minlength=hi - lo
            )
        dense[features[own]] = 0.0
    if is_cosine_mode(corpus.mode):
        return np.clip(sims, 0.0, 1.0, out=sims)
    sizes = np.diff(indptr)
    union = sizes[pairs[:, 0]] + sizes[pairs[:, 1]] - sims
    return np.divide(sims, union, out=np.zeros_like(sims), where=union > 0)


def exact_similarity(corpus: Corpus, i: int, j: int) -> float:
    return float(exact_similarities(corpus, [[i, j]])[0])


def similarity_matrix(corpus: Corpus) -> np.ndarray:
    """Dense all-pairs exact similarity matrix (brute-force oracle path)."""
    n = len(corpus)
    if n * (n - 1) // 2 > _PAIR_GUARD:
        raise GuardError(f"all-pairs matrix would exceed {_PAIR_GUARD} pairs")
    x = corpus.to_csr()
    if is_cosine_mode(corpus.mode):
        sims = np.asarray((x @ x.T).todense(), dtype=np.float64)
        np.clip(sims, 0.0, 1.0, out=sims)
    else:
        inter = np.asarray((x @ x.T).todense(), dtype=np.float64)
        sizes = np.asarray(x.sum(axis=1), dtype=np.float64).ravel()
        union = sizes[:, None] + sizes[None, :] - inter
        with np.errstate(invalid="ignore", divide="ignore"):
            sims = np.where(union > 0, inter / np.maximum(union, 1e-300), 0.0)
    np.fill_diagonal(sims, 1.0)
    return sims


def _sample_support(rng: np.random.Generator, dim: int, size: int) -> np.ndarray:
    return np.sort(rng.choice(dim, size=size, replace=False))


def _positive_weights(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.gamma(2.0, 1.0, size=size) + 0.05


def _planted_cosine_pair(rng, dim, target, weighted):
    """Two vectors with exact cosine equal to target (disjoint tail support)."""
    size = int(rng.integers(max(4, min(48, dim // 16)), max(6, min(96, dim // 8)) + 1))
    if 2 * size > dim:
        raise ValueError("dim too small for disjoint pair supports")
    support = _sample_support(rng, dim, 2 * size)
    mix = rng.permutation(2 * size)
    fx = np.sort(support[mix[:size]])
    fe = np.sort(support[mix[size:]])
    wx = _positive_weights(rng, size) if weighted else np.ones(size)
    we = _positive_weights(rng, size) if weighted else np.ones(size)
    wx = wx / np.linalg.norm(wx)
    we = we / np.linalg.norm(we)
    x = SparseVector(fx, wx)
    yf = np.concatenate([fx, fe])
    yw = np.concatenate([target * wx, math.sqrt(1.0 - target * target) * we])
    order = np.argsort(yf)
    y = SparseVector(yf[order], yw[order])
    return x, y


def _planted_binary_cosine_pair(rng, dim, target):
    """Two equal-size binary vectors sharing round(target*L) features."""
    size = int(min(120, max(10, dim // 4)))
    size = int(rng.integers(max(8, size - 20), size + 21))
    shared = min(max(int(round(target * size)), 1), size - 1)
    for _ in range(4):
        if abs(shared / size - target) <= 0.02:
            break
        shared += 1 if shared / size < target else -1
        shared = min(max(shared, 1), size - 1)
    else:
        raise ValueError("could not hit cosine target on this support size")
    total = 2 * size - shared
    if total > dim:
        raise ValueError("dim too small for disjoint pair supports")
    support = rng.choice(dim, size=total, replace=False)
    fx = np.sort(np.concatenate([support[:shared], support[shared:size]]))
    fy = np.sort(np.concatenate([support[:shared], support[size:]]))
    unit = 1.0 / math.sqrt(size)
    return (
        SparseVector(fx, np.full(len(fx), unit)),
        SparseVector(fy, np.full(len(fy), unit)),
    )


def _planted_jaccard_pair(rng, dim, target):
    size = int(min(160, max(8, dim // 4)))
    size = int(rng.integers(max(6, size - 20), size + 21))
    shared = int(round(2 * size * target / (1.0 + target)))
    shared = min(max(shared, 1), size - 1)
    # nudge the overlap until the achieved similarity is close enough
    for _ in range(4):
        achieved = shared / (2 * size - shared)
        if abs(achieved - target) <= 0.02:
            break
        shared += 1 if achieved < target else -1
        shared = min(max(shared, 1), size - 1)
    else:
        raise ValueError("could not hit jaccard target on this support size")
    total = 2 * size - shared
    if total > dim:
        raise ValueError("dim too small for disjoint pair supports")
    support = rng.choice(dim, size=total, replace=False)
    common = support[:shared]
    only_x = support[shared:size]
    only_y = support[size:]
    fx = np.sort(np.concatenate([common, only_x]))
    fy = np.sort(np.concatenate([common, only_y]))
    return (
        SparseVector(fx, np.ones(len(fx))),
        SparseVector(fy, np.ones(len(fy))),
    )


def generate_synthetic(
    n: int,
    dim: int,
    planted: list[tuple[int, float]] | None = None,
    seed: int = 0,
    mode: str = COSINE_WEIGHTED,
) -> Corpus:
    """Deterministic synthetic corpus with planted similar pairs.

    ``planted`` lists (pair-count, target-similarity) groups. Each planted
    pair's exact similarity lands within 0.02 of its target (checked in one
    batch on the finished corpus); planted pairs occupy the first
    consecutive index pairs (2k, 2k+1). The remaining vectors are drawn
    with low mutual similarity. Same seed, same corpus.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    planted = list(planted or [])
    rng = np.random.default_rng(seed)
    n_planted = 2 * sum(count for count, _ in planted)
    if n_planted > n:
        raise ValueError(f"planted pairs need {n_planted} vectors, corpus has {n}")
    if n * (n - 1) // 2 > _PAIR_GUARD:
        raise GuardError(f"corpus would exceed {_PAIR_GUARD} brute-force pairs")

    vectors: list[SparseVector] = []
    for group, (count, target) in enumerate(planted):
        if not 0.0 < target < 1.0:
            raise ValueError(f"planted group {group} (target {target}): not in (0, 1)")
        for _ in range(count):
            # jitter spreads cosine targets; jaccard is already quantized by
            # the integer overlap, and jitter would eat its 0.02 tolerance
            jitter = 0.0 if mode == JACCARD else float(rng.uniform(-0.01, 0.01))
            goal = min(max(target + jitter, 0.02), 0.98)
            try:
                if mode == COSINE_WEIGHTED:
                    vectors.extend(_planted_cosine_pair(rng, dim, goal, weighted=True))
                elif mode == COSINE_BINARY:
                    vectors.extend(_planted_binary_cosine_pair(rng, dim, goal))
                else:
                    vectors.extend(_planted_jaccard_pair(rng, dim, goal))
            except ValueError as exc:
                raise ValueError(f"planted group {group} (target {target}): {exc}") from exc

    lo = max(4, min(50, dim // 8))
    hi = max(lo + 2, min(100, dim // 6))
    while len(vectors) < n:
        size = int(rng.integers(lo, hi + 1))
        feats = _sample_support(rng, dim, size)
        if mode == JACCARD:
            weights = np.ones(size)
        else:
            weights = _positive_weights(rng, size) if mode == COSINE_WEIGHTED else np.ones(size)
            weights = weights / np.linalg.norm(weights)
        vectors.append(SparseVector(feats, weights))

    width = max(4, len(str(n - 1)))
    ids = [f"v{i:0{width}d}" for i in range(n)]
    corpus = Corpus(ids, vectors, mode, dim=dim)
    achieved = exact_similarities(corpus, np.arange(n_planted).reshape(-1, 2))
    targets = [(group, target) for group, (count, target) in enumerate(planted)
               for _ in range(count)]
    for (group, target), sim in zip(targets, achieved.tolist()):
        if abs(sim - target) > 0.02:
            raise ValueError(f"planted group {group} (target {target}): achieved {sim:.4f}")
    return corpus
