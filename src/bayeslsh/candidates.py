"""Candidate pair generation: LSH banding, prefix-filtered index, brute force.

Candidate sets are (M, 2) int64 arrays of index pairs with i < j, sorted
lexicographically and deduplicated; brute force returns that list
enumerated on demand (`BruteforcePairs`), which `np.asarray` turns into
the array. Generators only promise a superset of the truly similar pairs
(for banding, a probabilistic one); verification is someone else's job.
The prefix-filtered index (AllPairs) is one forward join, a fixed slice
of entries at a time: each entry meets only the indexed entries of its
feature that belong to vectors before its own. Every order it needs is
one argsort of distinct int64 keys.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, _runs, _unique_ints, is_cosine_mode
from .errors import GuardError, UnsupportedMeasure
from .hashing import SignatureStore, _bucket_pairs, _buckets

DEFAULT_CANDIDATE_BUDGET = 10_000_000
_BRUTEFORCE_GUARD = 10**8

# probing entries matched against the postings per step of allpairs_generate;
# bounds the join rows held at once
_ALLPAIRS_SLICE = 16384


def num_tables(eps_fn: float, t: float, b: int) -> int:
    """Tables needed so a pair at similarity t is missed with prob <= eps_fn.

    l = ceil(log(eps_fn) / log(1 - t^b)). Raises when t^b rounds to 1 and
    the miss probability cannot be driven down at all.
    """
    if not 0.0 < eps_fn < 1.0:
        raise ValueError("eps_fn must be in (0, 1)")
    if not 0.0 < t < 1.0:
        raise ValueError("t must be in (0, 1)")
    if b < 1:
        raise ValueError("band width must be >= 1")
    collide = t**b
    if 1.0 - collide <= 0.0:
        raise ValueError(f"t^b = {collide} is numerically 1; cannot size tables")
    return max(1, math.ceil(math.log(eps_fn) / math.log(1.0 - collide)))


@dataclass(frozen=True)
class BandingParams:
    """Banding layout: l tables of b consecutive hashes each."""

    band_width: int
    tables: int
    eps_fn: float

    @classmethod
    def for_threshold(cls, eps_fn: float, t: float, band_width: int) -> "BandingParams":
        return cls(band_width, num_tables(eps_fn, t, band_width), eps_fn)

    @property
    def hashes_needed(self) -> int:
        return self.band_width * self.tables


def _pairs_from_keys(keys: list[np.ndarray], n: int) -> np.ndarray:
    """Sorted distinct (i, j) rows of the pair keys i * n + j.

    i * n + j orders pairs as (i, j) do, so one 1-d sort dedups and sorts.
    """
    if not keys:
        return np.zeros((0, 2), dtype=np.int64)
    keys = _unique_ints(np.concatenate(keys))
    pairs = np.empty((len(keys), 2), dtype=np.int64)
    np.divmod(keys, n, out=(pairs[:, 0], pairs[:, 1]))
    return pairs


def lsh_banding_generate(
    store: SignatureStore,
    params: BandingParams,
    seed: int = 0,
    budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> np.ndarray:
    """All pairs sharing at least one band key; duplicates removed.

    Band j covers hashes [j*b, (j+1)*b). Each band's values are folded into
    a 64-bit key by a seeded mixing hash; mixer collisions only ever add
    false positives.
    """
    b, l = params.band_width, params.tables
    needed = params.hashes_needed
    if store.hashes_available < needed:
        raise ValueError(
            f"banding needs {needed} hashes, store has {store.hashes_available}"
        )
    rng = np.random.default_rng(seed)
    n = store.n_objects
    chunks: list[np.ndarray] = []
    emitted = 0
    for j in range(l):
        values = store.band_values(j * b, (j + 1) * b)
        mults = rng.integers(1, 1 << 63, size=b, dtype=np.uint64) | np.uint64(1)
        keys = ((values + np.uint64(1)) * mults).sum(axis=1, dtype=np.uint64)
        order, later = _buckets(keys)
        emitted += int(later.sum())
        if emitted > budget:
            raise GuardError(f"candidate generation exceeded budget of {budget} pairs")
        chunks.append(_bucket_pairs(order, later))
    return _pairs_from_keys(chunks, n)


def allpairs_generate(corpus: Corpus, t: float) -> np.ndarray:
    """Prefix-filtered candidate generation (AllPairs with the basic bound).

    Features are ranked by decreasing document frequency. Each vector
    indexes only the suffix past the longest rank-order prefix whose
    maximum possible score stays below t, so any pair reaching t shares at
    least one indexed feature. The candidates are then one forward join, a
    slice of entries at a time: an entry of vector x meets only the indexed
    entries of its feature from vectors y < x, as AllPairs probes the index
    built so far, and each such y whose weight product with x is positive
    pairs with x. Every order is one argsort of distinct int64 keys.
    Raises GuardError when the entries' whole postings lists would exceed
    DEFAULT_CANDIDATE_BUDGET rows. Cosine modes only.
    """
    if not is_cosine_mode(corpus.mode):
        raise UnsupportedMeasure("the prefix-filtered generator supports cosine modes only")
    if not 0.0 < t < 1.0:
        raise ValueError("t must be in (0, 1)")
    n, dim = len(corpus), corpus.dim
    indptr, features, weights = corpus.flat()
    sizes = np.diff(indptr)
    owner = np.repeat(np.arange(n), sizes)
    df = np.bincount(features, minlength=dim)
    maxw = np.zeros(dim, dtype=np.float64)
    np.maximum.at(maxw, features, weights)
    # global feature order: decreasing df, feature id breaking ties
    rank = np.empty(dim, dtype=np.int64)
    rank[np.argsort((df.max(initial=0) - df) * dim + np.arange(dim))] = np.arange(dim)

    # each vector's entries in rank order; index the suffix past the longest
    # prefix whose bound sum stays below t. Vectors of one size are summed as
    # the rows of one block, and cumsum runs along each row in sequence, so
    # every sum is the one a cumsum over the vector alone gives.
    order = np.argsort(owner * dim + rank[features])
    bound = weights[order] * maxw[features[order]]
    prefix = np.zeros(n, dtype=np.int64)
    for size in _unique_ints(sizes[sizes > 0]):
        rows = np.flatnonzero(sizes == size)
        block = np.cumsum(bound[indptr[rows][:, None] + np.arange(size)], axis=1)
        prefix[rows] = (block < t).sum(axis=1)
    indexed = np.zeros(len(features), dtype=bool)
    indexed[order[np.arange(len(order)) - indptr[owner] >= prefix[owner]]] = True

    # postings: the indexed entries in (feature, vector) order. An entry's
    # own place in that order splits its feature's postings into those of
    # the vectors before it, which it joins (`earlier` of them from
    # `starts`), and the rest.
    entries = np.argsort(features * n + owner)
    posted = indexed[entries]
    postings = entries[posted]
    post_ptr = np.zeros(dim + 1, dtype=np.int64)
    np.cumsum(np.bincount(features[postings], minlength=dim), out=post_ptr[1:])
    post_ids, post_w = owner[postings], weights[postings]
    starts = post_ptr[features]
    earlier = np.empty(len(features), dtype=np.int64)
    earlier[entries] = np.cumsum(posted) - posted
    earlier -= starts

    joined = int(np.diff(post_ptr)[features].sum())
    if joined > DEFAULT_CANDIDATE_BUDGET:
        raise GuardError(
            f"prefix-index join of {joined} rows exceeds the budget of {DEFAULT_CANDIDATE_BUDGET}"
        )
    keys: list[np.ndarray] = []
    for lo in range(0, len(features), _ALLPAIRS_SLICE):
        pos, probe = _runs(starts[lo : lo + _ALLPAIRS_SLICE], earlier[lo : lo + _ALLPAIRS_SLICE])
        probe += lo
        keep = post_w[pos] * weights[probe] > 0.0
        keys.append(post_ids[pos[keep]] * n + owner[probe[keep]])
    return _pairs_from_keys(keys, n)


class BruteforcePairs:
    """Every pair (i, j) with i < j < n, in lexicographic order, enumerated on demand.

    Row i's run of pairs (i, i+1 .. n-1) starts at position
    i * n - i * (i + 1) / 2, so a position's pair and a pair key
    i * n + j's position are both arithmetic: the list holds no pairs.
    `len` is the pair count, indexing by a position, slice or integer
    array gives those pairs as int64 rows, and `np.asarray` gives the whole
    (M, 2) int64 array.
    """

    def __init__(self, n: int):
        total = n * (n - 1) // 2
        if total > _BRUTEFORCE_GUARD:
            raise GuardError(f"{total} pairs exceeds the brute-force guard of {_BRUTEFORCE_GUARD}")
        self.n = n
        self._total = total
        rows = np.arange(n, dtype=np.int64)
        self._starts = rows * (2 * n - rows - 1) // 2

    def __len__(self) -> int:
        return self._total

    def __getitem__(self, at) -> np.ndarray:
        """Pairs at position(s) `at`: a (2,) row for one, (K, 2) rows for a slice or array."""
        if isinstance(at, slice):
            at = np.arange(*at.indices(self._total), dtype=np.int64)
        at = np.asarray(at)
        if at.dtype.kind not in "iu":
            raise IndexError("pair positions must be integers")
        if at.size and (at.min() < 0 or at.max() >= self._total):
            raise IndexError(f"pair position out of range for {self._total} pairs")
        i = np.searchsorted(self._starts, at, side="right") - 1
        return np.stack([i, at - self._starts[i] + i + 1], axis=-1).astype(np.int64, copy=False)

    def positions(self, keys: np.ndarray) -> np.ndarray:
        """Positions of the pairs with keys i * n + j; ValueError unless 0 <= i < j < n."""
        i, j = np.divmod(np.asarray(keys, dtype=np.int64), max(self.n, 1))
        if not ((i >= 0) & (i < j) & (j < self.n)).all():
            raise ValueError(f"keys must be i * n + j with 0 <= i < j < {self.n}")
        return self._starts[i] + j - i - 1

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("the pairs are enumerated, so an array of them is always a copy")
        # filled in place, one run of pairs (i, i+1 .. n-1) per i, with no temporaries
        pairs = np.empty((self._total, 2), dtype=np.int64)
        js = np.arange(self.n, dtype=np.int64)
        for i in range(self.n - 1):
            start, end = self._starts[i], self._starts[i + 1]
            pairs[start:end, 0] = i
            pairs[start:end, 1] = js[i + 1 :]
        return pairs if dtype is None else pairs.astype(dtype, copy=False)


def bruteforce_generate(n: int) -> BruteforcePairs:
    """Every pair (i, j) with i < j, enumerated; guarded against quadratic blowups."""
    return BruteforcePairs(n)


_CAND_MAGIC = b"BCND"


def write_candidates(pairs: np.ndarray, path) -> None:
    """Binary candidate stream: magic + u64 count + (u32 i, u32 j) pairs."""
    pairs = np.asarray(pairs, dtype=np.int64)
    if len(pairs) and int(pairs.max()) >= 1 << 32:
        raise ValueError("indices exceed the u32 candidate format")
    with open(path, "wb") as fh:
        fh.write(_CAND_MAGIC + struct.pack("<Q", len(pairs)))
        fh.write(np.ascontiguousarray(pairs, dtype="<u4").tobytes())


def read_candidates(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(12)
        payload = fh.read()
    if header[:4] != _CAND_MAGIC:
        raise ValueError(f"bad candidate file magic {header[:4]!r}")
    if len(header) != 12:
        raise ValueError("candidate file truncated: incomplete header")
    if len(payload) % 8:
        raise ValueError(f"candidate file truncated or padded: {len(payload)} payload bytes")
    (count,) = struct.unpack("<Q", header[4:])
    data = np.frombuffer(payload, dtype="<u4")
    if data.size != 2 * count:
        raise ValueError(f"candidate file truncated: {data.size // 2} of {count} pairs")
    return data.reshape(count, 2).astype(np.int64)
