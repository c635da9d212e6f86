"""Locality-sensitive hash families and incremental signature storage.

Cosine signatures are sign bits of projections onto random Gaussian planes
whose components are stored through a 2-byte fixed-point codec. A plane
component is drawn as a uniform 2-byte code k and read from one fixed
65,536-entry table: the equiprobable N(0, 1) quantile at (k + 0.5) / 65536,
snapped to the center of its codec bin. Jaccard signatures are classical
minwise hashes under a universal hash family (a*e + b) mod p with
p = 2^31 - 1.

The codes of the planes of cosine hashes 64b .. 64b+63 are the raw PCG64
words of one seeded stream for block b, read as little-endian uint16: the
values `Generator.integers(0, 1 << 16, dtype=np.uint16)` draws from that
stream. Minhash function i draws its parameters from a stream of its own.
So hash i of a row depends only on the seed, i and the row: never on which
other rows were hashed with it, nor on how far the row was extended before.
Cosine signatures grow by whole 64-hash blocks, one plane draw and one
packed word each, and a block extension gathers only the plane rows of the
features its rows use; jaccard signatures grow to exactly the hash count
asked for. Either way extending a row never changes the hashes it already
holds (prefix stability).
"""

from __future__ import annotations

import functools
import threading
import time
import warnings
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from .corpus import Corpus, _entries, _runs, is_cosine_mode, measure_for_mode
from .errors import GuardError

MERSENNE_PRIME = (1 << 31) - 1

# codec: x in [-8, 8) maps to floor((x + 8) * 2^16 / 16), decoded at the
# center of its bin, so the worst-case decode error is 1/8192 < 1.25e-4.
_CODEC_SCALE = 4096.0
_CODEC_RANGE = 8.0

# cosine hashes per block: one plane draw, one packed word, one unit of extension
_BLOCK = 64

# pairs whose minhash columns are gathered and compared together; bounds the
# counting temporaries to a few hundred KB per side at a 32-hash batch
_COUNT_SLICE = 4096


def encode_gaussian_2byte(x) -> np.ndarray | int:
    """Encode Gaussian components to uint16 codes; clamps outside [-8, 8)."""
    arr = np.asarray(x, dtype=np.float64)
    code = np.floor((arr + _CODEC_RANGE) * _CODEC_SCALE)
    clipped = (code < 0) | (code > 65535)
    if np.any(clipped):
        warnings.warn(f"{int(np.count_nonzero(clipped))} component(s) outside [-8, 8) clamped")
        code = np.clip(code, 0, 65535)
    out = code.astype(np.uint16)
    return out if out.ndim else int(out)


def decode_gaussian_2byte(code) -> np.ndarray | float:
    """Decode uint16 codes back to the center of their quantization bin."""
    arr = np.asarray(code, dtype=np.float64)
    out = (arr + 0.5) / _CODEC_SCALE - _CODEC_RANGE
    return out if out.ndim else float(out)


def _function_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


@functools.cache
def _table() -> np.ndarray:
    """Plane component of each 2-byte code, built on the first cosine block.

    Entry k is the N(0, 1) quantile at (k + 0.5) / 65536 at the center of
    its codec bin. Sorted, antisymmetric (entry k == -entry 65535 - k) and
    within +-4.33, so no component reaches the codec's clamp.
    """
    table = decode_gaussian_2byte(encode_gaussian_2byte(ndtri((np.arange(65536) + 0.5) / 65536)))
    table.flags.writeable = False  # one array shared by every caller
    return table


class CosineHashFamily:
    """Random-projection sign hashes over a fixed-dimension feature space."""

    def __init__(self, seed: int, dim: int):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.seed = int(seed)
        self.dim = int(dim)

    def _codes(self, b: int) -> np.ndarray:
        """Uniform 2-byte codes of block b's planes, one (dim, 64) uint16 array.

        The codes are the raw PCG64 words of block b's stream read as
        little-endian uint16: the values `integers(0, 1 << 16, (dim, 64),
        dtype=np.uint16)` draws from that stream, at about half the cost.
        """
        raw = _function_rng(self.seed, b).bit_generator.random_raw(self.dim * _BLOCK // 4)
        return raw.astype("<u8", copy=False).view("<u2").reshape(self.dim, _BLOCK)

    def block(self, b: int) -> np.ndarray:
        """Planes of hashes 64b .. 64b+63 as the columns of one (dim, 64) array.

        Each component is the table's Gaussian quantile for a uniform 2-byte
        code, so it sits on a codec bin center: one uint16 draw and one gather.
        """
        return _table()[self._codes(b)]

    def plane(self, index: int) -> np.ndarray:
        """Gaussian plane for hash function `index`: column index % 64 of its block.

        Draws the block's codes but gathers only that column from the table.
        """
        return _table()[self._codes(index // _BLOCK)[:, index % _BLOCK]]


def scramble_ids(elems: np.ndarray) -> np.ndarray:
    """Fixed 64-bit avalanche relabeling of element ids.

    The per-function hash below is linear, and linear maps are visibly
    min-wise biased on structured ids (three ids in arithmetic progression
    stay one after hashing, so the middle one almost never holds the
    minimum). Mixing ids through an avalanche finalizer first removes the
    structure; the relabeling is the same for every hash function, so it
    changes nothing about collision statistics across functions.
    """
    x = np.asarray(elems, dtype=np.uint64).copy()
    with np.errstate(over="ignore"):
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


class MinhashFamily:
    """Minwise hashing: universal parameters mod 2^31-1 over scrambled ids."""

    prime = MERSENNE_PRIME

    def __init__(self, seed: int, universe: int):
        if not 0 < universe <= self.prime:
            raise ValueError(f"universe must be in (0, {self.prime}]")
        self.seed = int(seed)

    def params(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        a = np.empty(hi - lo, dtype=np.uint64)
        b = np.empty(hi - lo, dtype=np.uint64)
        for k, i in enumerate(range(lo, hi)):
            rng = _function_rng(self.seed, i)
            a[k] = rng.integers(1, self.prime)
            b[k] = rng.integers(0, self.prime)
        return a, b

    def prepare(self, elems: np.ndarray) -> np.ndarray:
        """Ids ready for the linear hash: scrambled and reduced mod p."""
        return scramble_ids(elems) % np.uint64(self.prime)


def _buckets(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort order of one key per row, and how many later rows share each sorted row's key.

    A stable sort keeps each run of equal keys in ascending row order, so
    sorted position p pairs with the later[p] positions after it in its
    run, each holding a higher row; later.sum() counts those pairs.
    """
    order = np.argsort(keys, kind="stable")
    starts = np.concatenate([[0], np.flatnonzero(np.diff(keys[order])) + 1])
    sizes = np.diff(np.append(starts, len(keys)))
    later = np.repeat(starts + sizes, sizes) - np.arange(len(keys)) - 1
    return order, later


def _bucket_pairs(order: np.ndarray, later: np.ndarray) -> np.ndarray:
    """Keys i * n + j (i < j) of every row pair within a run of `_buckets`' output."""
    right, left = _runs(np.arange(1, len(order) + 1), later)
    return order[left] * len(order) + order[right]


class MatchIndex(NamedTuple):
    """Match counts over hashes [lo, hi) of every row pair sharing one of them.

    `keys` are the sorted distinct pair keys i * n + j (i < j) and
    `counts[k]` the number of hashes pair `keys[k]` shares; every pair not
    in `keys` shares none.
    """

    keys: np.ndarray
    counts: np.ndarray


class SignatureStore:
    """Per-object hash signatures, extended in place up to the required cap `max_hashes`.

    Cosine rows are bit-packed into little-endian uint64 words; jaccard rows
    hold uint32 minhash values. Cosine rows are extended in whole 64-hash
    blocks, jaccard rows to exactly the hash count asked for, and an
    extension may cover only some rows: `row_hashes[v]` is the number of
    hashes row v holds, and `hashes_available`, the prefix that every row
    holds, is what banding and `band_values` read. `hash_evals` counts
    row x hash evaluations over the store's life. On a jaccard store,
    `match_index` lists the pairs that share any hash of a range every row
    holds, from which a verifier decides a brute-force list's first batch.
    """

    def __init__(self, corpus: Corpus, seed: int, max_hashes: int):
        measure = measure_for_mode(corpus.mode)
        n_objects = len(corpus)
        self.measure = measure
        self.seed = int(seed)
        self.n_objects = n_objects
        self.max_hashes = int(max_hashes)
        self.hashes_available = 0
        self.row_hashes = np.zeros(n_objects, dtype=np.int64)
        self.hash_evals = 0
        # wall time spent hashing inside extend, summed over calls
        self.extend_seconds = 0.0
        self._corpus = corpus
        self._lock = threading.Lock()
        if measure == "cosine":
            self._words = np.zeros((n_objects, self.max_hashes // 64 + 1), dtype=np.uint64)
            # plane components of the features a block extension gathers;
            # grown to the most features gathered so far, used under _lock
            self._planes = np.empty(0)
            self.family = CosineHashFamily(seed, max(1, corpus.dim))
        else:
            self._ints = np.zeros((n_objects, self.max_hashes), dtype=np.uint32)
            self.family = MinhashFamily(seed, max(1, corpus.dim))
            indptr, features, _ = corpus.flat()
            if np.any(np.diff(indptr) == 0):
                raise ValueError("minhash of an empty set is undefined")
            self._elems = self.family.prepare(features)
            self._indptr = indptr

    def extend(self, target: int, rows: np.ndarray | None = None) -> None:
        """Grow the signatures of `rows` (default: every object) to at least `target` hashes.

        `rows` holds distinct row indices. Only rows short of the target
        are hashed: cosine rows one 64-hash block at a time up to the block
        that holds hash `target - 1`, jaccard rows to exactly `target`.
        Safe to call from several threads: extension runs under a lock, and
        the hash counts are bumped only after the new columns are fully
        written.
        """
        if target > self.max_hashes:
            raise GuardError(
                f"requested {target} hashes exceeds the store cap of {self.max_hashes}"
            )
        if target <= self.hashes_available:
            return
        with self._lock:
            if rows is None:
                rows = np.arange(self.n_objects)
            else:
                # ascending, so a subset holding every row is the corpus's row order
                rows = np.sort(np.asarray(rows, dtype=np.int64))
            cosine = self.measure == "cosine"
            hi = -(-target // _BLOCK) * _BLOCK if cosine else target
            short = rows[self.row_hashes[rows] < hi]
            t0 = time.perf_counter()
            held = self.row_hashes[short]
            # each step hashes [lo, end) for every row that holds at most lo
            if cosine:
                bounds = list(range(int(held.min(initial=hi)), hi + 1, _BLOCK))
            else:
                bounds = np.unique(np.append(held, hi)).tolist()
            for lo, end in zip(bounds[:-1], bounds[1:]):
                need = short[self.row_hashes[short] <= lo]
                if cosine:
                    self._extend_cosine(lo // _BLOCK, need)
                else:
                    self._extend_jaccard(lo, end, need)
                self.row_hashes[need] = end
                self.hash_evals += len(need) * (end - lo)
            # another thread may have extended past hi while this one waited
            self.hashes_available = max(self.hashes_available,
                                        int(self.row_hashes.min(initial=hi)))
            self.extend_seconds += time.perf_counter() - t0

    def _extend_cosine(self, b: int, rows: np.ndarray) -> None:
        """Hashes of block b for `rows`: signs of their projections onto its planes.

        Only the plane rows of the features `rows` use are gathered, into the
        store's reused buffer, and the rows' entries are renumbered onto
        them; each row's entries keep their order, so every projection sums
        the same terms in the same order as the full product would.
        """
        from scipy.sparse import csr_matrix

        indptr, features, weights = self._corpus.flat()
        if len(rows) < self.n_objects:
            pos, _ = _entries(indptr, rows)
            sizes = indptr[rows + 1] - indptr[rows]
            features, weights = features[pos], weights[pos]
            indptr = np.concatenate([[0], np.cumsum(sizes)])
        used = np.zeros(self.family.dim, dtype=bool)
        used[features] = True
        live = np.flatnonzero(used)
        cols = (np.cumsum(used) - 1)[features]
        size = len(live) * _BLOCK
        if self._planes.size < size:
            self._planes = np.empty(size)
        planes = self._planes[:size].reshape(len(live), _BLOCK)
        # mode="raise" would gather into a temporary and copy it to `out`;
        # uint16 codes are always inside the 65,536-entry table
        np.take(_table(), self.family._codes(b)[live], out=planes, mode="wrap")
        x = csr_matrix((weights, cols, indptr), shape=(len(rows), len(live)))
        bits = np.asarray(x @ planes) >= 0.0
        packed = np.packbits(bits, axis=1, bitorder="little")
        self._words[rows, b] = packed.view(np.uint64)[:, 0]

    def _extend_jaccard(self, lo: int, hi: int, rows: np.ndarray) -> None:
        """Hashes [lo, hi) for `rows`: minima over each row's own elements."""
        elems, starts = self._elems, self._indptr[:-1]
        if len(rows) < self.n_objects:
            pos, _ = _entries(self._indptr, rows)
            elems = elems[pos]
            sizes = self._indptr[rows + 1] - self._indptr[rows]
            starts = np.cumsum(sizes) - sizes
        prime = np.uint64(self.family.prime)
        a, c = self.family.params(lo, hi)
        for k in range(hi - lo):
            h = (a[k] * elems + c[k]) % prime
            self._ints[rows, lo + k] = np.minimum.reduceat(h, starts).astype(np.uint32)

    # stays until ROADMAP item 1's benchmark-only PR stops perfbench/worker.py wrapping it
    def count_matches(self, i: int, j: int, lo: int, hi: int) -> int:
        return int(self.count_matches_bulk(np.array([[i, j]]), lo, hi)[0])

    def match_index(self, lo: int, hi: int, limit: int) -> MatchIndex | None:
        """Every row pair sharing a minhash in [lo, hi), with how many it shares.

        Each column is sorted once, and the pairs within each run of equal
        values are enumerated as banding enumerates a bucket (one hash per
        band). Returns None on a cosine store, when some row lacks [lo, hi),
        or when the (pair, hash) collisions, counted from the run sizes
        before any pair is enumerated, number more than `limit`.
        """
        if not 0 <= lo <= hi:
            raise ValueError(f"hash range [{lo}, {hi}) is not a range of hash indices")
        if self.measure == "cosine" or hi > self.hashes_available:
            return None
        runs = [_buckets(column) for column in np.ascontiguousarray(self._ints[:, lo:hi].T)]
        if sum(int(later.sum()) for _, later in runs) > limit:
            return None
        keys = np.sort(np.concatenate([np.zeros(0, dtype=np.int64)]
                                      + [_bucket_pairs(order, later) for order, later in runs]))
        starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
        return MatchIndex(keys[starts], np.diff(np.append(starts, len(keys))))

    def count_matches_bulk(self, pairs: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Match counts over [lo, hi) for an (M, 2) array of index pairs.

        Raises ValueError unless both rows of every pair hold [lo, hi).
        """
        if not 0 <= lo <= hi:
            raise ValueError(f"hash range [{lo}, {hi}) is not a range of hash indices")
        if hi > self.hashes_available:
            held = self.row_hashes[pairs]
            if len(held) and int(held.min()) < hi:
                row = int(pairs.reshape(-1)[np.argmin(held)])
                raise ValueError(
                    f"hash range [{lo}, {hi}) not available for row {row}"
                    f" (has {int(self.row_hashes[row])}; every row has {self.hashes_available})"
                )
        if self.measure == "jaccard":
            return self._count_jaccard(pairs, lo, hi)
        left, right = pairs[:, 0], pairs[:, 1]
        # gather only the words covering [lo, hi), then clear the edge bits
        w_lo, w_hi = lo // 64, -(-hi // 64)
        xor = self._words[left, w_lo:w_hi] ^ self._words[right, w_lo:w_hi]
        if lo % 64:
            xor[:, 0] &= np.uint64((1 << 64) - (1 << (lo % 64)))
        if hi % 64:
            xor[:, -1] &= np.uint64((1 << (hi % 64)) - 1)
        return (hi - lo) - np.bitwise_count(xor).sum(axis=1, dtype=np.int64)

    def _count_jaccard(self, pairs: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Minhash match counts over [lo, hi), `_COUNT_SLICE` pairs at a time.

        Columns [lo, hi) are first copied into one contiguous array,
        zero-padded to a multiple of 8 columns, so each side of a slice is a
        gather of whole rows. A pair's equality bytes are then read as uint64
        words and popcounted; the pad columns always match and are taken
        off at the end.
        """
        width = hi - lo
        pad = -width % 8
        src = self._ints[:, lo:hi]
        if 2 * len(pairs) < self.n_objects:
            # fewer rows in use than the store holds: copy only theirs
            src = src[pairs.reshape(-1)]
            pairs = np.arange(len(src)).reshape(-1, 2)
        cols = np.zeros((len(src), width + pad), dtype=np.uint32)
        cols[:, :width] = src
        counts = np.empty(len(pairs), dtype=np.int64)
        for s in range(0, len(pairs), _COUNT_SLICE):
            part = pairs[s : s + _COUNT_SLICE]
            eq = np.take(cols, part[:, 0], axis=0) == np.take(cols, part[:, 1], axis=0)
            words = np.bitwise_count(eq.view(np.uint64))
            # numpy sums a short inner axis slowly; summing the rows of the
            # transposed words is one vector add per word
            counts[s : s + len(part)] = np.ascontiguousarray(words.T).sum(axis=0, dtype=np.int64)
        return counts - pad

    def band_values(self, lo: int, hi: int) -> np.ndarray:
        """All objects' raw hash values for [lo, hi), for banding keys."""
        if hi > self.hashes_available:
            raise ValueError(f"hash range [{lo}, {hi}) not available")
        if self.measure == "jaccard":
            return self._ints[:, lo:hi].astype(np.uint64)
        idx = np.arange(lo, hi)
        words = self._words[:, idx // 64]
        bits = (words >> (idx % 64).astype(np.uint64)) & np.uint64(1)
        return bits.astype(np.uint64)
