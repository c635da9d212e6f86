"""Sparse vector collections and exact similarity measures.

A corpus is an ordered collection of sparse non-negative vectors under one
of three measure modes:

* ``cosine-weighted``: real-valued weights, L2-normalized at load time.
* ``cosine-binary``: unit input weights, L2-normalized at load time.
* ``jaccard``: sets; every stored weight is exactly 1.

The text format is one vector per line, ``id<TAB>feature:weight ...`` in
weighted mode and ``id<TAB>feature feature ...`` in the binary modes.
A corpus keeps its vectors in three flat CSR arrays. The loader fills them
a slice of lines at a time with array operations, and hands any slice it
cannot prove clean to the per-line parser, which raises every ParseError.
"""

from __future__ import annotations

import gzip
import math
import warnings
from dataclasses import dataclass
from itertools import islice

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
_SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)

# generate_synthetic refuses corpora whose brute-force truth would be huge.
_PAIR_GUARD = 10**8

# float64 entries of one dense block of exact_similarities (2 MB), so a
# block takes max(1, _EXACT_BLOCK // len(corpus)) distinct i rows
_EXACT_BLOCK = 1 << 18

# pairs per exact_similarities call in exact_above: one call for the 345,961
# AllPairs candidates of the acceptance corpus (2^16-pair chunks took 12% longer)
_ABOVE_CHUNK = 1 << 20

# Lines load_corpus parses together. The bulk parser's temporaries take
# about 10x the slice's text, and memory they leave behind can raise the
# peak RSS of the search that follows, so slices stay small: 128 lines of
# 89 weighted entries are about 0.3 MB of text. Every page of the
# temporaries that the process does not already hold is faulted in anew,
# as in a fresh process or after glibc has returned freed heap to the OS:
# 2,000-line corpora loaded in 31 ms (jaccard) and 204 ms (cosine) in a
# fresh process, against 41 and 219 ms at 512 lines.
_LOAD_SLICE = 1 << 7

# The bulk parser accepts feature tokens of 1 to this many ASCII digits,
# which cannot overflow int64, and in weighted mode these bytes only.
_MAX_FEATURE_DIGITS = 18
_WEIGHTED_BYTES = b"0123456789 :.eE+-"


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

    @classmethod
    def _view(cls, features: np.ndarray, weights: np.ndarray) -> SparseVector:
        """A vector over arrays that already hold the invariants; not re-validated."""
        vec = cls.__new__(cls)
        vec.features, vec.weights = features, weights
        return vec

    def __len__(self) -> int:
        return len(self.features)

    def norm(self) -> float:
        return float(np.sqrt(np.dot(self.weights, self.weights)))


def _normalized(weights: np.ndarray) -> np.ndarray:
    """`weights` scaled to unit L2 norm; returned as is when empty or already unit.

    A row whose sum of squares is not a normal finite float (it under- or
    overflowed) is divided by its largest weight first. Every other row
    takes the one-division path, so its weights do not change by a bit.
    Callers silence the overflow warning of the first `np.dot`.
    """
    sq = float(np.dot(weights, weights))
    if not _SMALLEST_NORMAL <= sq < math.inf:
        if len(weights) == 0:
            return weights
        weights = weights / weights.max()
        sq = float(np.dot(weights, weights))
    nrm = math.sqrt(sq)
    if abs(nrm - 1.0) <= _NORM_SKIP_TOL:
        return weights
    return weights / nrm


def _normalize_rows(indptr: np.ndarray, weights: np.ndarray) -> None:
    """Normalize every CSR row of `weights` in place, one `_normalized` call per row."""
    with np.errstate(over="ignore", under="ignore"):
        for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist()):
            weights[a:b] = _normalized(weights[a:b])


def _indptr(sizes: np.ndarray) -> np.ndarray:
    indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return indptr


def _concat(parts: list[np.ndarray], dtype) -> np.ndarray:
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


def _flatten(vectors: list[SparseVector]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sizes, features, weights) of `vectors` laid end to end."""
    sizes = np.fromiter(map(len, vectors), dtype=np.int64, count=len(vectors))
    if not vectors:
        return sizes, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
    features = np.concatenate([v.features for v in vectors])
    weights = np.concatenate([v.weights for v in vectors])
    return sizes, features, weights


class Corpus:
    """Ordered vectors with unique string ids under one measure mode.

    The vectors live in three flat arrays, CSR-style: vector i owns entries
    indptr[i]:indptr[i + 1] of `features` and `weights`. `corpus[i]` and
    `vectors` are SparseVector views of those arrays.
    """

    def __init__(self, ids: list[str], vectors: list[SparseVector], mode: str,
                 dim: int | None = None):
        sizes, features, weights = _flatten(list(vectors))
        self._init(ids, _indptr(sizes), features, weights, mode, dim)

    @classmethod
    def _from_flat(cls, ids: list[str], indptr: np.ndarray, features: np.ndarray,
                   weights: np.ndarray, mode: str, dim: int | None = None) -> Corpus:
        """A corpus over CSR arrays whose rows already hold SparseVector's invariants."""
        corpus = cls.__new__(cls)
        corpus._init(ids, indptr, features, weights, mode, dim)
        return corpus

    def _init(self, ids, indptr, features, weights, mode, dim) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if len(ids) != len(indptr) - 1:
            raise ValueError("ids and vectors differ in length")
        if len(set(ids)) != len(ids):
            raise ValueError("vector ids must be unique")
        max_feature = int(features.max()) if len(features) else -1
        if dim is None:
            dim = max_feature + 1
        elif dim <= max_feature:
            raise ValueError(f"dim {dim} too small for feature {max_feature}")
        if mode == JACCARD:
            bad = np.flatnonzero(weights != 1.0)
            if len(bad):
                row = int(np.searchsorted(indptr, bad[0], side="right")) - 1
                raise ValueError(f"vector {ids[row]!r}: jaccard mode requires unit weights")
        self.ids = list(ids)
        self.mode = mode
        self.dim = dim
        self.indptr, self.features, self.weights = indptr, features, weights
        self._failing: np.ndarray | None = None
        self._csr = None

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> SparseVector:
        i = range(len(self))[i]
        own = slice(self.indptr[i], self.indptr[i + 1])
        return SparseVector._view(self.features[own], self.weights[own])

    @property
    def vectors(self) -> list[SparseVector]:
        """Views of every vector in order; a new list on each access."""
        return [self[i] for i in range(len(self))]

    def flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, features, weights): the corpus's own CSR arrays.

        Vector i owns entries indptr[i]:indptr[i + 1] of the other two.
        """
        return self.indptr, self.features, self.weights

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
        if feat >= 1 << 63:
            raise ParseError(f"feature {feat} exceeds 2^63 - 1", lineno)
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


def _parse_lines(lines, mode: str, first_lineno: int, seen: set[str]):
    """Per-line parser: (ids, sizes, features, weights) of `lines`, numbered from `first_lineno`.

    It takes any input the format allows and raises every ParseError with
    its line number. `load_corpus` runs it on the slices the bulk parser
    turns down, and the tests hold the bulk parser to it. New ids join `seen`.
    """
    weighted = mode == COSINE_WEIGHTED
    ids: list[str] = []
    vectors: list[SparseVector] = []
    with np.errstate(over="ignore", under="ignore"):
        for lineno, raw in enumerate(lines, start=first_lineno):
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
                if not np.all(weights > 0):
                    raise ParseError("a weight underflows to 0 when normalized", lineno)
            ids.append(vid)
            vectors.append(SparseVector(features, weights))
    return ids, *_flatten(vectors)


def _digits(u: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """The integers spelt by u[starts[k]:ends[k]], or None unless each is 1-18 ASCII digits."""
    lengths = ends - starts
    if lengths.min() < 1 or lengths.max() > _MAX_FEATURE_DIGITS:
        return None
    values = np.zeros(len(starts), dtype=np.int64)
    last = ends - 1
    for k in range(int(lengths.max())):
        digit = u[np.minimum(starts + k, last)] - 48  # uint8: bytes below '0' wrap high
        if np.any(digit > 9):
            return None
        values = np.where(lengths > k, values * 10 + digit, values)
    return values


def _decimals(u: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """Python's float() of every u[starts[k]:ends[k]], or None if one is not a number."""
    lengths = ends - starts
    if lengths.min() < 1:
        return None
    width = int(lengths.max())
    padded = np.zeros((len(starts), width), dtype=np.uint8)
    last = ends - 1
    for k in range(width):
        padded[:, k] = np.where(lengths > k, u[np.minimum(starts + k, last)], 0)
    try:
        return padded.view(f"S{width}").ravel().astype(np.float64)
    except ValueError:
        return None


def _parse_tokens(joined: bytes, count: int, weighted: bool):
    """(features, weights) of `count` single-space separated tokens, or None.

    Tokens are plain digits, or in weighted mode digits ':' weight, where
    the weight is one that float() reads, spelt from digits and '.eE+-'.
    """
    if count == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
    u = np.frombuffer(joined, dtype=np.uint8)
    spaces = np.flatnonzero(u == ord(" "))
    starts = np.concatenate(([0], spaces + 1))
    ends = np.append(spaces, len(u))
    if not weighted:
        features = _digits(u, starts, ends)
        return None if features is None else (features, np.ones(count))
    if joined.translate(None, _WEIGHTED_BYTES):
        return None
    colons = np.flatnonzero(u == ord(":"))
    # exactly one colon per token: colon k lies inside token k
    if len(colons) != count or np.any(colons < starts) or np.any(colons >= ends):
        return None
    features = _digits(u, starts, colons)
    weights = None if features is None else _decimals(u, colons + 1, ends)
    return None if weights is None else (features, weights)


def _parse_bulk(lines: list[str], mode: str, seen: set[str]):
    """(ids, sizes, features, weights) of `lines` parsed with array operations, or None.

    It takes ASCII lines whose ids are non-empty and new, whose bodies are
    tokens `_parse_tokens` reads, with no duplicate feature in a line and
    positive finite weights. It returns None on anything else, and
    `load_corpus` then runs the per-line parser, which loads the slice or
    raises its ParseError. The ids join `seen` only on success.
    """
    data = "".join(lines).encode("utf-8")
    if not data.isascii():
        return None
    ids: list[str] = []
    bodies: list[bytes] = []
    for line in data.split(b"\n"):
        if line and not line.startswith(b"#"):
            vid, _, body = line.partition(b"\t")
            ids.append(vid.decode("ascii"))
            bodies.append(body)
    if not all(ids) or len(set(ids)) != len(ids) or not seen.isdisjoint(ids):
        return None
    sizes = np.array([body.count(b" ") + 1 if body else 0 for body in bodies], dtype=np.int64)
    count = int(sizes.sum())
    parsed = _parse_tokens(b" ".join(filter(None, bodies)), count, mode == COSINE_WEIGHTED)
    if parsed is None:
        return None
    features, weights = parsed
    if not np.all((weights > 0) & (weights < math.inf)):
        return None
    owner = np.repeat(np.arange(len(ids)), sizes)
    inner = owner[1:] == owner[:-1]
    if np.any(inner & (features[1:] <= features[:-1])):
        order = np.lexsort((features, owner))
        features, weights = features[order], weights[order]
        if np.any(inner & (features[1:] == features[:-1])):
            return None
    if is_cosine_mode(mode):
        _normalize_rows(_indptr(sizes), weights)
        if not np.all(weights > 0):  # normalization underflowed
            return None
    seen.update(ids)
    return ids, sizes, features, weights


def load_corpus(path, mode: str) -> Corpus:
    """Read a corpus file (gzip transparent). Cosine modes are L2-normalized.

    Lines are parsed `_LOAD_SLICE` at a time, in bulk where `_parse_bulk`
    accepts the slice and by the per-line parser otherwise, so errors and
    their line numbers are the per-line parser's.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    ids: list[str] = []
    seen: set[str] = set()
    sizes, features, weights = [], [], []
    lineno = 1
    with _open_text(path, "r") as fh:
        while lines := list(islice(fh, _LOAD_SLICE)):
            part = _parse_bulk(lines, mode, seen) or _parse_lines(lines, mode, lineno, seen)
            ids += part[0]
            sizes.append(part[1])
            features.append(part[2])
            weights.append(part[3])
            lineno += len(lines)
    return Corpus._from_flat(
        ids, _indptr(_concat(sizes, np.int64)), _concat(features, np.int64),
        _concat(weights, np.float64), mode,
    )


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
    indptr, features, weights = corpus.flat()
    df = np.bincount(features, minlength=corpus.dim)
    idf = np.zeros(corpus.dim, dtype=np.float64)
    present = df > 0
    idf[present] = np.log(n / df[present])
    weights = weights * idf[features]
    keep = weights > 0
    sizes = np.diff(indptr)
    kept = np.bincount(np.repeat(np.arange(n), sizes)[keep], minlength=n)
    emptied = int(np.count_nonzero((sizes > 0) & (kept == 0)))
    if emptied:
        warnings.warn(f"tf-idf emptied {emptied} vector(s) (all features have df=N)")
    indptr, features, weights = _indptr(kept), features[keep], weights[keep]
    _normalize_rows(indptr, weights)
    return Corpus._from_flat(list(corpus.ids), indptr, features, weights, corpus.mode,
                             dim=corpus.dim)


def _unique_ints(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values: np.unique's result from one sort and one mask.

    np.unique on 1-d integers hashes before it sorts and measured 10-45x
    slower than this on the banding and prefix-index candidate arrays.
    """
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _entries(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of the entries of `rows`, and the index into `rows` owning each."""
    starts = indptr[rows]
    return _runs(starts, indptr[rows + 1] - starts)


def _runs(starts: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of the runs starts[k] : starts[k] + sizes[k], and the k owning each."""
    owner = np.repeat(np.arange(len(starts)), sizes)
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

    Pairs are sorted by i and cut into blocks of at most
    max(1, _EXACT_BLOCK // len(corpus)) distinct i rows. Each block is one
    sparse product of its i rows with its distinct j rows, read out dense,
    so working memory is bounded by the block. A pair's cell is found by
    position: its i row's rank among the block's i rows, and its j row's
    column through one length-n map that every block overwrites for the j
    rows it holds. SciPy adds each pair's products w_i * w_j in ascending
    feature order from 0, the order of a per-pair scatter/gather, whatever
    the order of the columns. Cosine sums are clamped to [0, 1]; jaccard
    sums are intersection sizes, divided by the union size (0 for two
    empty sets).
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    sims = np.zeros(len(pairs), dtype=np.float64)
    if len(pairs) == 0:
        return sims
    if pairs.min() < 0 or pairs.max() >= len(corpus):
        raise IndexError(f"pair index out of range for {len(corpus)} vectors")
    _check_rows(corpus, pairs.ravel())
    x = corpus.to_csr()
    order = np.argsort(pairs[:, 0], kind="stable")
    left, right = pairs[order, 0], pairs[order, 1]
    new_row = np.ones(len(left), dtype=bool)
    new_row[1:] = left[1:] != left[:-1]
    row_of = np.cumsum(new_row) - 1
    rows = left[new_row]
    step = max(1, _EXACT_BLOCK // len(corpus))
    cuts = [*np.flatnonzero(new_row)[::step].tolist(), len(pairs)]
    where = np.empty(len(corpus), dtype=np.int64)
    for block, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
        js, at = right[lo:hi], np.arange(hi - lo)
        # of the pairs sharing a j row, the one whose write to where[j]
        # survives keeps that row as a column
        where[js] = at
        cols = js[where[js] == at]
        where[cols] = np.arange(len(cols))
        product = (x[rows[block * step : (block + 1) * step]] @ x[cols].T).toarray()
        sims[order[lo:hi]] = product[row_of[lo:hi] - block * step, where[js]]
    if is_cosine_mode(corpus.mode):
        return np.clip(sims, 0.0, 1.0, out=sims)
    sizes = np.diff(corpus.indptr)
    union = sizes[pairs[:, 0]] + sizes[pairs[:, 1]] - sims
    return np.divide(sims, union, out=np.zeros_like(sims), where=union > 0)


def exact_above(corpus: Corpus, pairs, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """The rows of `pairs` whose exact similarity is strictly above `threshold`, with it.

    `pairs` is an (M, 2) array or anything that slices into one, such as a
    `BruteforcePairs`; it is scored `_ABOVE_CHUNK` rows at a time, so memory
    holds one chunk plus the kept rows, which keep their input order.
    """
    kept, values = [np.zeros((0, 2), dtype=np.int64)], [np.zeros(0, dtype=np.float64)]
    for lo in range(0, len(pairs), _ABOVE_CHUNK):
        chunk = np.asarray(pairs[lo : lo + _ABOVE_CHUNK], dtype=np.int64).reshape(-1, 2)
        sims = exact_similarities(corpus, chunk)
        above = sims > threshold
        kept.append(chunk[above])
        values.append(sims[above])
    return np.concatenate(kept), np.concatenate(values)


# stays until ROADMAP item 1's benchmark-only PR stops perfbench/worker.py wrapping it
def exact_similarity(corpus: Corpus, i: int, j: int) -> float:
    return float(exact_similarities(corpus, [[i, j]])[0])


def _sample_support(rng: np.random.Generator, dim: int, size: int) -> np.ndarray:
    return np.sort(rng.choice(dim, size=size, replace=False))


def _positive_weights(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.gamma(2.0, 1.0, size=size) + 0.05


def _planted_cosine_pair(rng, dim, target):
    """Two weighted vectors with exact cosine equal to target (disjoint tail support)."""
    size = int(rng.integers(max(4, min(48, dim // 16)), max(6, min(96, dim // 8)) + 1))
    if 2 * size > dim:
        raise ValueError("dim too small for disjoint pair supports")
    support = _sample_support(rng, dim, 2 * size)
    mix = rng.permutation(2 * size)
    fx = np.sort(support[mix[:size]])
    fe = np.sort(support[mix[size:]])
    wx = _positive_weights(rng, size)
    we = _positive_weights(rng, size)
    wx = wx / np.linalg.norm(wx)
    we = we / np.linalg.norm(we)
    x = SparseVector(fx, wx)
    yf = np.concatenate([fx, fe])
    yw = np.concatenate([target * wx, math.sqrt(1.0 - target * target) * we])
    order = np.argsort(yf)
    y = SparseVector(yf[order], yw[order])
    return x, y


def _planted_set_pair(rng, dim, target, mode):
    """Two equal-size sets whose overlap puts their similarity within 0.02 of target.

    Cosine-binary sets carry the unit-norm weight 1/sqrt(size), jaccard sets 1.
    """
    cosine = mode == COSINE_BINARY
    cap, floor, least = (120, 10, 8) if cosine else (160, 8, 6)
    size = int(min(cap, max(floor, dim // 4)))
    size = int(rng.integers(max(least, size - 20), size + 21))

    def achieved(shared):
        return shared / size if cosine else shared / (2 * size - shared)

    guess = target * size if cosine else 2 * size * target / (1.0 + target)
    shared = min(max(int(round(guess)), 1), size - 1)
    # nudge the overlap until the achieved similarity is close enough
    for _ in range(4):
        if abs(achieved(shared) - target) <= 0.02:
            break
        shared += 1 if achieved(shared) < target else -1
        shared = min(max(shared, 1), size - 1)
    else:
        raise ValueError(f"could not hit {measure_for_mode(mode)} target on this support size")
    total = 2 * size - shared
    if total > dim:
        raise ValueError("dim too small for disjoint pair supports")
    support = rng.choice(dim, size=total, replace=False)
    fx = np.sort(support[:size])
    fy = np.sort(np.concatenate([support[:shared], support[size:]]))
    weight = 1.0 / math.sqrt(size) if cosine else 1.0
    return SparseVector(fx, np.full(size, weight)), SparseVector(fy, np.full(size, weight))


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
                    vectors.extend(_planted_cosine_pair(rng, dim, goal))
                else:
                    vectors.extend(_planted_set_pair(rng, dim, goal, mode))
            except ValueError as exc:
                raise ValueError(f"planted group {group} (target {target}): {exc}") from exc

    lo = max(4, min(50, dim // 8))
    hi = max(lo + 2, min(100, dim // 6))
    while len(vectors) < n:
        size = int(rng.integers(lo, hi + 1))
        feats = _sample_support(rng, dim, size)
        weights = _positive_weights(rng, size) if mode == COSINE_WEIGHTED else np.ones(size)
        if mode != JACCARD:
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
