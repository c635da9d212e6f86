"""Locality-sensitive hash families and incremental signature storage.

Cosine signatures are sign bits of projections onto random Gaussian planes
whose components are stored through a 2-byte fixed-point codec. Jaccard
signatures are classical minwise hashes under a universal hash family
(a*e + b) mod p with p = 2^31 - 1.

Hash function i draws from its own seeded stream, so extending a signature
never changes the hashes already produced (prefix stability).
"""

from __future__ import annotations

import struct
import threading
import time
import warnings

import numpy as np

from .corpus import Corpus, is_cosine_mode, measure_for_mode
from .errors import GuardError

MERSENNE_PRIME = (1 << 31) - 1

# codec: x in [-8, 8) maps to floor((x + 8) * 2^16 / 16), decoded at the
# center of its bin, so the worst-case decode error is 1/8192 < 1.25e-4.
_CODEC_SCALE = 4096.0
_CODEC_RANGE = 8.0

DEFAULT_MAX_BITS = 4096
DEFAULT_MAX_INTS = 512

_SIG_MAGIC = b"BSIG"


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


class CosineHashFamily:
    """Random-projection sign hashes over a fixed-dimension feature space."""

    measure = "cosine"

    def __init__(self, seed: int, dim: int):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.seed = int(seed)
        self.dim = int(dim)

    def plane(self, index: int) -> np.ndarray:
        """Gaussian plane for hash function `index`, codec round-tripped."""
        raw = _function_rng(self.seed, index).standard_normal(self.dim)
        return decode_gaussian_2byte(encode_gaussian_2byte(raw))

    def planes(self, lo: int, hi: int) -> np.ndarray:
        block = np.empty((hi - lo, self.dim), dtype=np.float64)
        for k, i in enumerate(range(lo, hi)):
            block[k] = self.plane(i)
        return block


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

    measure = "jaccard"

    def __init__(self, seed: int, universe: int, prime: int = MERSENNE_PRIME):
        if not 0 < universe <= prime:
            raise ValueError(f"universe must be in (0, {prime}]")
        self.seed = int(seed)
        self.universe = int(universe)
        self.prime = int(prime)

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


class SignatureStore:
    """Per-object hash signatures, extended in place up to a hard cap.

    Cosine rows are bit-packed into little-endian uint64 words; jaccard rows
    hold uint32 minhash values. Internally, extension is carried out to the
    next multiple of 64 hashes, so `hashes_available` always stays aligned
    with the packed words and with any batch size dividing 64.
    """

    def __init__(self, corpus: Corpus, seed: int, max_hashes: int | None = None):
        self.measure = measure_for_mode(corpus.mode)
        self.seed = int(seed)
        self.n_objects = len(corpus)
        self.hashes_available = 0
        # wall time spent hashing inside extend, summed over calls
        self.extend_seconds = 0.0
        self._corpus = corpus
        self._lock = threading.Lock()
        if self.measure == "cosine":
            self.max_hashes = DEFAULT_MAX_BITS if max_hashes is None else int(max_hashes)
            self.family = CosineHashFamily(seed, corpus.dim)
            self._words = np.zeros((self.n_objects, self.max_hashes // 64 + 1), dtype=np.uint64)
        else:
            self.max_hashes = DEFAULT_MAX_INTS if max_hashes is None else int(max_hashes)
            self.family = MinhashFamily(seed, max(1, corpus.dim))
            self._ints = np.zeros((self.n_objects, self.max_hashes + 63), dtype=np.uint32)
            indptr, features, _ = corpus.flat()
            if np.any(np.diff(indptr) == 0):
                raise ValueError("minhash of an empty set is undefined")
            self._elems = self.family.prepare(features)
            self._starts = indptr[:-1]

    def extend(self, target: int) -> None:
        """Grow every object's signature to at least `target` hashes.

        Safe to call from several threads: extension runs under a
        lock, and `hashes_available` is bumped only after the new columns
        are fully written.
        """
        if target > self.max_hashes:
            raise GuardError(
                f"requested {target} hashes exceeds the store cap of {self.max_hashes}"
            )
        if target <= self.hashes_available:
            return
        with self._lock:
            if target <= self.hashes_available:
                return
            t0 = time.perf_counter()
            lo = self.hashes_available
            hi = min(-(-target // 64) * 64, -(-self.max_hashes // 64) * 64)
            if self.measure == "cosine":
                self._extend_cosine(lo, hi)
            else:
                self._extend_jaccard(lo, hi)
            self.hashes_available = hi
            self.extend_seconds += time.perf_counter() - t0

    def _extend_cosine(self, lo: int, hi: int) -> None:
        x = self._corpus.to_csr()
        block = 256
        for start in range(lo, hi, block):
            stop = min(start + block, hi)
            planes = self.family.planes(start, stop)
            proj = x @ planes.T
            bits = (np.asarray(proj) >= 0.0).astype(np.uint8)
            packed = np.packbits(bits, axis=1, bitorder="little")
            pad = (-packed.shape[1]) % 8
            if pad:
                packed = np.pad(packed, ((0, 0), (0, pad)))
            words = np.ascontiguousarray(packed).view(np.uint64)
            self._words[:, start // 64 : start // 64 + words.shape[1]] = words

    def _extend_jaccard(self, lo: int, hi: int) -> None:
        prime = np.uint64(self.family.prime)
        block = 64
        for start in range(lo, hi, block):
            stop = min(start + block, hi)
            a, b = self.family.params(start, stop)
            for k in range(stop - start):
                h = (a[k] * self._elems + b[k]) % prime
                self._ints[:, start + k] = np.minimum.reduceat(h, self._starts).astype(np.uint32)

    def count_matches(self, i: int, j: int, lo: int, hi: int) -> int:
        return int(self.count_matches_bulk(np.array([[i, j]]), lo, hi)[0])

    def count_matches_bulk(self, pairs: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Match counts over [lo, hi) for an (M, 2) array of index pairs."""
        if not 0 <= lo <= hi <= self.hashes_available:
            raise ValueError(
                f"hash range [{lo}, {hi}) not available (have {self.hashes_available})"
            )
        left, right = pairs[:, 0], pairs[:, 1]
        if self.measure == "jaccard":
            eq = self._ints[left, lo:hi] == self._ints[right, lo:hi]
            return np.count_nonzero(eq, axis=1).astype(np.int64)
        # gather only the words covering [lo, hi), then clear the edge bits
        w_lo, w_hi = lo // 64, -(-hi // 64)
        xor = self._words[left, w_lo:w_hi] ^ self._words[right, w_lo:w_hi]
        if lo % 64:
            xor[:, 0] &= np.uint64((1 << 64) - (1 << (lo % 64)))
        if hi % 64:
            xor[:, -1] &= np.uint64((1 << (hi % 64)) - 1)
        return (hi - lo) - np.bitwise_count(xor).sum(axis=1, dtype=np.int64)

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


def write_signatures(store: SignatureStore, path) -> None:
    """Dump signatures: magic, measure, count, hashes-available, seed + rows."""
    measure_code = 0 if store.measure == "cosine" else 1
    header = _SIG_MAGIC + struct.pack(
        "<BQQq", measure_code, store.n_objects, store.hashes_available, store.seed
    )
    with open(path, "wb") as fh:
        fh.write(header)
        if store.measure == "cosine":
            words = store._words[:, : -(-store.hashes_available // 64)]
            fh.write(np.ascontiguousarray(words, dtype="<u8").tobytes())
        else:
            ints = store._ints[:, : store.hashes_available]
            fh.write(np.ascontiguousarray(ints, dtype="<u4").tobytes())


def read_signatures(path) -> SignatureStore:
    """Load a signature dump into a store usable for match counting."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _SIG_MAGIC:
            raise ValueError(f"bad signature file magic {magic!r}")
        header = fh.read(25)
        if len(header) != 25:
            raise ValueError("signature file truncated: incomplete header")
        measure_code, count, available, seed = struct.unpack("<BQQq", header)
        payload = fh.read()
    if measure_code not in (0, 1):
        raise ValueError(f"unknown measure code {measure_code} in signature file")
    expected = count * (8 * -(-available // 64) if measure_code == 0 else 4 * available)
    if len(payload) != expected:
        raise ValueError(
            f"signature file truncated or padded: {len(payload)} of {expected} payload bytes"
        )
    store = SignatureStore.__new__(SignatureStore)
    store.measure = "cosine" if measure_code == 0 else "jaccard"
    store._lock = threading.Lock()
    store.seed = seed
    store.n_objects = count
    store.hashes_available = available
    store.extend_seconds = 0.0
    store._corpus = None
    store.family = None
    if store.measure == "cosine":
        words = -(-available // 64)
        store.max_hashes = available
        data = np.frombuffer(payload, dtype="<u8").reshape(count, words)
        store._words = data.astype(np.uint64)
    else:
        store.max_hashes = available
        data = np.frombuffer(payload, dtype="<u4").reshape(count, available)
        store._ints = data.astype(np.uint32)
    return store
