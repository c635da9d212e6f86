"""Hash families, the 2-byte Gaussian codec, and the signature store."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from bayeslsh.corpus import (
    COSINE_WEIGHTED,
    JACCARD,
    Corpus,
    SparseVector,
    exact_similarities,
    generate_synthetic,
)
from bayeslsh import hashing
from bayeslsh.candidates import bruteforce_generate
from bayeslsh.errors import GuardError
from bayeslsh.hashing import (
    _table,
    CosineHashFamily,
    MinhashFamily,
    SignatureStore,
    decode_gaussian_2byte,
    encode_gaussian_2byte,
    read_signatures,
    write_signatures,
)
from oracles import count_matches_loop, cosine_signature, minhash_signature


def _unit(features, weights):
    w = np.asarray(weights, dtype=float)
    return SparseVector(np.asarray(features), w / np.linalg.norm(w))


def _set(*features):
    return SparseVector(np.array(features), np.ones(len(features)))


class TestCodec:
    def test_zero_maps_to_midpoint_code(self):
        assert encode_gaussian_2byte(0.0) == 32768
        assert decode_gaussian_2byte(32768) == pytest.approx(0.5 / 4096)

    def test_boundary(self):
        assert encode_gaussian_2byte(-8.0) == 0

    def test_out_of_range_clamps_with_warning(self):
        with pytest.warns(UserWarning):
            code = encode_gaussian_2byte(9.5)
        assert code == 65535

    def test_sweep_error_bound(self):
        # exhaustive in the code domain plus a dense value sweep
        codes = np.arange(65536)
        centers = decode_gaussian_2byte(codes)
        assert np.array_equal(encode_gaussian_2byte(centers), codes)
        xs = np.linspace(-7.9999, 7.9999, 1_000_001)
        err = np.abs(decode_gaussian_2byte(encode_gaussian_2byte(xs)) - xs)
        assert float(err.max()) <= 1.25e-4


class TestFamilies:
    def test_planes_deterministic_and_quantized(self):
        f1 = CosineHashFamily(seed=9, dim=64)
        f2 = CosineHashFamily(seed=9, dim=64)
        np.testing.assert_array_equal(f1.plane(5), f2.plane(5))
        # every stored component sits on a codec bin center
        plane = f1.plane(5)
        codes = encode_gaussian_2byte(plane)
        np.testing.assert_allclose(decode_gaussian_2byte(codes), plane)

    def test_plane_independent_of_block_shape(self):
        fam = CosineHashFamily(seed=4, dim=32)
        for b in range(3):
            block = fam.block(b)
            assert block.shape == (32, 64) and block.flags.c_contiguous
            # every component sits on a codec bin center
            np.testing.assert_array_equal(decode_gaussian_2byte(encode_gaussian_2byte(block)), block)
            for i in range(64 * b, 64 * (b + 1)):
                np.testing.assert_array_equal(block[:, i % 64], fam.plane(i))
        assert not np.array_equal(fam.block(0), fam.block(1))

    def test_plane_table_is_the_snapped_gaussian_quantiles(self):
        table = _table()
        assert table.shape == (65536,)
        assert np.all(np.diff(table) >= 0)
        np.testing.assert_array_equal(table, -table[::-1])
        np.testing.assert_array_equal(decode_gaussian_2byte(encode_gaussian_2byte(table)), table)
        assert float(np.max(np.abs(table))) < 4.33
        assert abs(float(np.var(table)) - 1.0) <= 1e-3
        # discrete CDF against Phi at every codec bin edge
        edges = np.arange(65537) / 4096.0 - 8.0
        cdf = np.searchsorted(table, edges) / 65536
        bound = 1 / 65536 + 1 / 4096 / np.sqrt(2 * np.pi)
        assert float(np.max(np.abs(cdf - ndtr(edges)))) <= bound

    def test_plane_table_is_built_once_as_the_quantile_expression(self):
        # the expression the table was built from at import before it was built lazily
        want = decode_gaussian_2byte(encode_gaussian_2byte(ndtri((np.arange(65536) + 0.5) / 65536)))
        np.testing.assert_array_equal(_table(), want)
        assert _table() is _table()

    @pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
    @pytest.mark.parametrize("dim", [1, 2, 77, 20000])
    def test_codes_are_the_uint16_integers_stream(self, seed, dim):
        # the codes are read as raw stream words; they must stay the values
        # Generator.integers draws, which the pinned digests were made from
        fam = CosineHashFamily(seed=seed, dim=dim)
        for b in (0, 1, 4, 63):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
            want = rng.integers(0, 1 << 16, (dim, 64), dtype=np.uint16)
            codes = fam._codes(b)
            assert codes.shape == (dim, 64) and codes.dtype == np.uint16
            np.testing.assert_array_equal(codes, want)

    def test_block_components_are_table_entries(self):
        fam = CosineHashFamily(seed=11, dim=500)
        for b in (0, 7):
            assert np.all(np.isin(fam.block(b), _table()))

    def test_minhash_params_in_range(self):
        fam = MinhashFamily(seed=2, universe=1000)
        a, b = fam.params(0, 64)
        assert np.all((1 <= a) & (a < fam.prime))
        assert np.all((0 <= b) & (b < fam.prime))
        a2, b2 = MinhashFamily(seed=2, universe=1000).params(0, 64)
        np.testing.assert_array_equal(a, a2)

    def test_cosine_signature_self_and_negation(self):
        fam = CosineHashFamily(seed=7, dim=50)
        v = _unit([1, 10, 30], [0.5, 1.0, 2.0])
        bits = cosine_signature(fam, v, 0, 256).astype(bool)
        np.testing.assert_array_equal(bits, cosine_signature(fam, v, 0, 256).astype(bool))
        planes = np.concatenate([fam.block(b) for b in range(4)], axis=1)
        proj = planes[v.features].T @ v.weights
        np.testing.assert_array_equal(bits, proj >= 0.0)
        # negating the vector flips every non-tied bit (sign rule); exact
        # ties hash to 1 on both sides by the ">= 0" convention
        neg_bits = -proj >= 0.0
        nontied = proj != 0.0
        np.testing.assert_array_equal(neg_bits[nontied], ~bits[nontied])
        assert np.all(neg_bits[~nontied] == bits[~nontied])

    def test_minhash_singleton_identity(self):
        fam = MinhashFamily(seed=3, universe=100)
        np.testing.assert_array_equal(
            minhash_signature(fam, _set(42), 0, 128),
            minhash_signature(fam, _set(42), 0, 128),
        )

    def test_minhash_rejects_empty_set(self):
        fam = MinhashFamily(seed=3, universe=100)
        with pytest.raises(ValueError):
            minhash_signature(fam, _set(), 0, 8)
        corpus = Corpus(["a", "b"], [_set(1, 2), _set()], JACCARD, dim=100)
        with pytest.raises(ValueError, match="empty set"):
            SignatureStore(corpus, seed=3)


class TestCollisionLaw:
    H = 100_000

    def test_orthogonal_cosine_pair_matches_half(self):
        fam = CosineHashFamily(seed=21, dim=4)
        x = _unit([0], [1.0])
        y = _unit([1], [1.0])
        bx = cosine_signature(fam, x, 0, self.H)
        by = cosine_signature(fam, y, 0, self.H)
        frac = float(np.mean(bx == by))
        assert abs(frac - 0.5) <= 0.01

    def test_sparse_high_dim_cosine_pairs_follow_the_law(self):
        # the benchmark's regime: dim 20,000, about 90 entries per vector
        dim, nnz, hashes = 20_000, 90, 10_048
        rng = np.random.default_rng(31)
        targets = [0.3, 0.7, 0.9]
        vecs = []
        for s in targets:
            # x = a u + b v and y = a u + b w over disjoint supports of 45
            # entries each, with unit u, v, w, so cos(x, y) = a^2 = s
            feats = rng.choice(dim, size=3 * (nnz // 2), replace=False).reshape(3, -1)
            parts = rng.uniform(0.5, 1.5, feats.shape)
            parts /= np.linalg.norm(parts, axis=1, keepdims=True)
            a, b = np.sqrt(s), np.sqrt(1 - s)
            for k in (1, 2):
                f = np.concatenate([feats[0], feats[k]])
                w = np.concatenate([a * parts[0], b * parts[k]])
                order = np.argsort(f)
                vecs.append(SparseVector(f[order], w[order]))
        corpus = Corpus([f"v{k}" for k in range(len(vecs))], vecs, COSINE_WEIGHTED, dim=dim)
        store = SignatureStore(corpus, seed=32, max_hashes=hashes)
        store.extend(hashes)
        pairs = np.array([(2 * k, 2 * k + 1) for k in range(len(targets))])
        sims = exact_similarities(corpus, pairs)
        np.testing.assert_allclose(sims, targets, atol=1e-9)
        rate = store.count_matches_bulk(pairs, 0, hashes) / hashes
        p = 1 - np.arccos(sims) / np.pi
        sigma = np.sqrt(p * (1 - p) / hashes)
        assert np.all(np.abs(rate - p) <= 4 * sigma), (rate, p, sigma)

    def test_minhash_third(self):
        fam = MinhashFamily(seed=22, universe=10)
        hx = minhash_signature(fam, _set(1, 2), 0, self.H)
        hy = minhash_signature(fam, _set(2, 3), 0, self.H)
        assert abs(float(np.mean(hx == hy)) - 1 / 3) <= 0.01

    def test_minhash_disjoint_sets_rarely_collide(self):
        rng = np.random.default_rng(5)
        universe = 10_000
        elems = rng.choice(universe, size=400, replace=False)
        fam = MinhashFamily(seed=23, universe=universe)
        hx = minhash_signature(fam, _set(*np.sort(elems[:200])), 0, self.H)
        hy = minhash_signature(fam, _set(*np.sort(elems[200:])), 0, self.H)
        assert float(np.mean(hx == hy)) <= 0.01


class TestSignatureStore:
    def _store(self, mode, seed=0, n=12, max_hashes=512):
        corpus = generate_synthetic(n, 300, [(2, 0.8)], seed=seed, mode=mode)
        return corpus, SignatureStore(corpus, seed=seed, max_hashes=max_hashes)

    @pytest.mark.parametrize("mode", [COSINE_WEIGHTED, JACCARD])
    def test_extension_is_prefix_stable(self, mode):
        _, store = self._store(mode)
        store.extend(64)
        before = store.band_values(0, 64).copy()
        store.extend(512)
        np.testing.assert_array_equal(store.band_values(0, 64), before)

    @pytest.mark.parametrize("mode", [COSINE_WEIGHTED, JACCARD])
    def test_rows_equal_per_vector_oracle(self, mode):
        corpus, store = self._store(mode)
        store.extend(160)
        oracle = cosine_signature if mode == COSINE_WEIGHTED else minhash_signature
        values = store.band_values(0, 160)
        for i in range(len(corpus)):
            np.testing.assert_array_equal(values[i], oracle(store.family, corpus[i], 0, 160))

    def test_cosine_extension_rounds_to_word_multiples(self):
        _, store = self._store(COSINE_WEIGHTED)
        store.extend(33)
        assert store.hashes_available == 64
        store.extend(65, rows=np.array([0, 3]))
        assert store.row_hashes[[0, 3]].tolist() == [128, 128]
        assert store.hash_evals == 12 * 64 + 2 * 64

    def test_jaccard_extension_stops_at_the_target(self):
        _, store = self._store(JACCARD)
        n = store.n_objects
        store.extend(32)
        np.testing.assert_array_equal(store.row_hashes, np.full(n, 32))
        assert store.hashes_available == 32
        assert store.hash_evals == n * 32
        store.extend(33, rows=np.array([0, 3]))
        assert store.row_hashes[[0, 3]].tolist() == [33, 33]
        assert store.hash_evals == n * 32 + 2
        # minhash function i has its own parameters, so no value depends on
        # where an extension stopped
        _, full = self._store(JACCARD)
        full.extend(64)
        assert full.hash_evals == n * 64
        np.testing.assert_array_equal(store.band_values(0, 32), full.band_values(0, 32))
        np.testing.assert_array_equal(store._ints[[0, 3], :33], full._ints[[0, 3], :33])

    def test_extend_past_cap_raises(self):
        _, store = self._store(COSINE_WEIGHTED)
        with pytest.raises(GuardError, match="512"):
            store.extend(513)

    @pytest.mark.parametrize("mode", [COSINE_WEIGHTED, JACCARD])
    def test_count_matches_identity_and_oracle(self, mode):
        _, store = self._store(mode)
        store.extend(512)
        assert store.count_matches(3, 3, 0, 512) == 512
        for lo, hi in [(0, 512), (0, 1), (31, 33), (64, 448), (17, 401)]:
            for i, j in [(0, 1), (2, 9), (5, 6)]:
                assert store.count_matches(i, j, lo, hi) == count_matches_loop(
                    store, i, j, lo, hi
                ), (mode, lo, hi, i, j)

    @pytest.mark.parametrize("mode", [COSINE_WEIGHTED, JACCARD])
    def test_count_matches_bulk_agrees_with_scalar(self, mode):
        _, store = self._store(mode)
        store.extend(256)
        pairs = np.array([(i, j) for i in range(6) for j in range(i + 1, 6)])
        for lo, hi in [(0, 256), (32, 96), (5, 250)]:
            bulk = store.count_matches_bulk(pairs, lo, hi)
            scalar = [count_matches_loop(store, int(i), int(j), lo, hi) for i, j in pairs]
            np.testing.assert_array_equal(bulk, scalar)

    def test_count_matches_requires_extension(self):
        _, store = self._store(COSINE_WEIGHTED)
        store.extend(64)
        with pytest.raises(ValueError):
            store.count_matches(0, 1, 0, 128)

    @pytest.mark.parametrize("mode", [COSINE_WEIGHTED, JACCARD])
    def test_same_seed_same_signatures(self, mode):
        _, s1 = self._store(mode, seed=4)
        _, s2 = self._store(mode, seed=4)
        s1.extend(128)
        s2.extend(128)
        np.testing.assert_array_equal(s1.band_values(0, 128), s2.band_values(0, 128))

    @pytest.mark.parametrize("mode", [COSINE_WEIGHTED, JACCARD])
    def test_dump_round_trip(self, mode, tmp_path):
        _, store = self._store(mode)
        store.extend(192)
        path = tmp_path / "sigs.bin"
        write_signatures(store, path)
        loaded = read_signatures(path)
        assert loaded.measure == store.measure
        assert loaded.hashes_available == store.hashes_available
        assert loaded.seed == store.seed
        np.testing.assert_array_equal(
            loaded.band_values(0, 192), store.band_values(0, 192)
        )
        for i, j in [(0, 1), (3, 7)]:
            assert loaded.count_matches(i, j, 10, 150) == store.count_matches(
                i, j, 10, 150
            )

    @pytest.mark.parametrize("mode", [COSINE_WEIGHTED, JACCARD])
    def test_dump_after_tail_extension_holds_the_common_prefix(self, mode, tmp_path):
        _, store = self._store(mode)
        store.extend(64)
        store.extend(256, rows=np.array([0, 1, 5]))
        path = tmp_path / "sigs.bin"
        write_signatures(store, path)
        loaded = read_signatures(path)
        assert loaded.hashes_available == store.hashes_available == 64
        np.testing.assert_array_equal(loaded.row_hashes, np.full(store.n_objects, 64))
        np.testing.assert_array_equal(loaded.band_values(0, 64), store.band_values(0, 64))
        assert loaded.count_matches(0, 1, 0, 64) == store.count_matches(0, 1, 0, 64)
        store.count_matches(0, 1, 0, 256)
        with pytest.raises(ValueError, match="not available"):
            loaded.count_matches(0, 1, 0, 256)

    @pytest.mark.parametrize("mode", [COSINE_WEIGHTED, JACCARD])
    def test_row_subset_extension_equals_full_extension(self, mode):
        _, full = self._store(mode)
        full.extend(320)
        _, tail = self._store(mode)
        # shrinking live rows, over steps that cross 64-hash blocks
        steps = [(32, [0, 1, 2, 3, 5, 8]), (96, [1, 2, 5, 8]), (100, [2, 5]), (300, [5, 2])]
        for target, rows in steps:
            tail.extend(target, rows=np.array(rows))
        # cosine rows hold whole 64-hash blocks, jaccard rows exactly their last target
        if mode == COSINE_WEIGHTED:
            held = {0: 64, 3: 64, 1: 128, 8: 128, 2: 320, 5: 320}
        else:
            held = {0: 32, 3: 32, 1: 96, 8: 96, 2: 300, 5: 300}
        for row, count in held.items():
            assert tail.row_hashes[row] == count
            if mode == COSINE_WEIGHTED:
                np.testing.assert_array_equal(
                    tail._words[row, : count // 64], full._words[row, : count // 64]
                )
            else:
                np.testing.assert_array_equal(tail._ints[row, :count], full._ints[row, :count])
        assert tail.hashes_available == 0  # rows 4, 6, 7, 9, 10, 11 hold nothing
        assert tail.hash_evals == int(tail.row_hashes.sum()) == sum(held.values())
        assert full.hash_evals == 12 * 320
        assert tail.count_matches(2, 5, 0, held[2]) == full.count_matches(2, 5, 0, held[2])
        assert tail.count_matches(1, 8, 64, held[1]) == full.count_matches(1, 8, 64, held[1])

    @pytest.mark.parametrize("mode", [COSINE_WEIGHTED, JACCARD])
    def test_extending_every_row_in_any_order_equals_extending_all(self, mode):
        _, full = self._store(mode)
        full.extend(128)
        _, shuffled = self._store(mode)
        shuffled.extend(128, np.random.default_rng(1).permutation(shuffled.n_objects))
        np.testing.assert_array_equal(shuffled.band_values(0, 128), full.band_values(0, 128))

    @staticmethod
    def _edge_corpus(dim=500, n=14):
        # row 0 is empty, row 1 holds feature 0 and row 2 feature dim - 1
        rng = np.random.default_rng(21)
        vectors = [SparseVector(np.array([], dtype=np.int64), np.array([]))]
        vectors.append(_unit([0, 40, 41], [1.0, 2.0, 0.5]))
        vectors.append(_unit([3, dim - 1], [0.3, 1.0]))
        for _ in range(n - 3):
            size = int(rng.integers(1, 40))
            feats = np.sort(rng.choice(np.arange(1, dim - 1), size=size, replace=False))
            vectors.append(_unit(feats, rng.uniform(0.1, 1.0, len(feats))))
        return Corpus([f"v{i}" for i in range(n)], vectors, COSINE_WEIGHTED, dim=dim)

    @pytest.mark.parametrize(
        "rows",
        [[0], [7], [1, 2], [2, 0, 9, 1], list(range(14)), list(range(14))[::-1]],
        ids=["empty-row", "single-row", "first-and-last-feature", "mixed", "all", "all-reversed"],
    )
    def test_restricted_extension_equals_dense_projection(self, rows):
        corpus = self._edge_corpus()
        store = SignatureStore(corpus, seed=6, max_hashes=256)
        rows = np.array(rows)
        store.extend(192, rows)
        ordered = np.sort(rows)
        x = corpus.to_csr()[ordered]
        for b in range(3):
            bits = np.asarray(x @ store.family.block(b)) >= 0.0
            want = np.packbits(bits, axis=1, bitorder="little").view(np.uint64)[:, 0]
            np.testing.assert_array_equal(store._words[ordered, b], want)
        others = np.setdiff1d(np.arange(14), rows)
        assert not store._words[others].any() and not store.row_hashes[others].any()
        assert store.hash_evals == 192 * len(rows)

    def test_store_read_back_after_restricted_extension(self, tmp_path):
        corpus = self._edge_corpus()
        store = SignatureStore(corpus, seed=6, max_hashes=256)
        store.extend(64)
        store.extend(128, np.array([1, 2, 5]))
        path = tmp_path / "sigs.bin"
        write_signatures(store, path)
        loaded = read_signatures(path)
        np.testing.assert_array_equal(loaded._words[:, :1], store._words[:, :1])
        pairs = np.array([[0, 1], [1, 2], [2, 5], [3, 13]])
        np.testing.assert_array_equal(
            loaded.count_matches_bulk(pairs, 0, 64), store.count_matches_bulk(pairs, 0, 64)
        )
        loaded.extend(64)  # held already: nothing to hash, no corpus needed
        with pytest.raises(GuardError):
            loaded.extend(128)

    def test_restricted_extension_peak_memory(self):
        # extensions at dim 200,000 gather the planes of their rows' features
        # only, into a buffer sized by those features; the full (dim, 64)
        # float64 block is 98 MiB and the block's codes alone 24 MiB
        dim, n = 200_000, 40
        rng = np.random.default_rng(3)
        vectors = []
        for _ in range(n):
            feats = np.sort(rng.choice(dim, size=30, replace=False))
            vectors.append(_unit(feats, rng.uniform(0.1, 1.0, 30)))
        corpus = Corpus([f"v{i}" for i in range(n)], vectors, COSINE_WEIGHTED, dim=dim)
        rows = np.arange(0, n, 5)
        store = SignatureStore(corpus, seed=2, max_hashes=256)
        peaks = []
        tracemalloc.start()
        try:
            store.extend(64)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            store.extend(128, rows)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert max(peaks) < 40 * 2**20, f"peaks {[round(p / 2**20, 1) for p in peaks]} MiB"
        full = SignatureStore(corpus, seed=2, max_hashes=256)
        full.extend(128)
        np.testing.assert_array_equal(store._words[rows, :2], full._words[rows, :2])

    @pytest.mark.parametrize("mode", [COSINE_WEIGHTED, JACCARD])
    def test_count_matches_rejects_a_row_without_the_range(self, mode):
        _, store = self._store(mode)
        store.extend(64)
        store.extend(192, rows=np.array([0, 1]))
        assert store.hashes_available == 64
        store.count_matches_bulk(np.array([[0, 1], [1, 0]]), 64, 192)
        for pair in ([0, 2], [2, 1], [3, 4]):
            with pytest.raises(ValueError, match="not available for row"):
                store.count_matches_bulk(np.array([[0, 1], pair]), 128, 192)
        with pytest.raises(ValueError):
            store.count_matches(0, 1, 0, 256)

    @pytest.mark.parametrize("mode", [COSINE_WEIGHTED, JACCARD])
    def test_extending_every_row_advances_the_common_prefix(self, mode):
        _, store = self._store(mode)
        store.extend(128, rows=np.arange(6))
        assert store.hashes_available == 0
        store.extend(128, rows=np.arange(6, 12))
        assert store.hashes_available == 128
        assert store.hash_evals == 12 * 128
        store.extend(128)
        assert store.hash_evals == 12 * 128

    @pytest.mark.parametrize("slice_pairs", [7, 4096])
    @pytest.mark.parametrize("lo", [0, 5, 64, 70])
    @pytest.mark.parametrize("width", [1, 7, 31, 33, 64, 100])
    def test_jaccard_count_kernel_equals_per_hash_loop(self, monkeypatch, width, lo, slice_pairs):
        # slices of 7 pairs put several inner slices in one call
        monkeypatch.setattr(hashing, "_COUNT_SLICE", slice_pairs)
        corpus, store = self._store(JACCARD, seed=8, n=40, max_hashes=192)
        store.extend(192)
        rng = np.random.default_rng(width * 100 + lo)
        # reversed, repeated and self pairs beside random ones
        odd = [[3, 3], [7, 2], [2, 7], [7, 2], [0, 39], [0, 1], [1, 0]]
        pairs = np.concatenate([rng.integers(0, len(corpus), (53, 2)), odd])
        hi = lo + width
        want = [count_matches_loop(store, i, j, lo, hi) for i, j in pairs.tolist()]
        got = store.count_matches_bulk(pairs, lo, hi)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        # fewer pairs than half the rows: only the rows in use are copied
        np.testing.assert_array_equal(store.count_matches_bulk(pairs[-7:], lo, hi), want[-7:])
        assert store.count_matches(3, 3, lo, hi) == width

    @pytest.mark.parametrize("mode", [COSINE_WEIGHTED, JACCARD])
    def test_count_matches_of_no_pairs(self, mode):
        _, store = self._store(mode)
        store.extend(64)
        got = store.count_matches_bulk(np.zeros((0, 2), dtype=np.int64), 5, 37)
        assert got.shape == (0,) and got.dtype == np.int64

    def test_unknown_measure_code_rejected(self, tmp_path):
        _, store = self._store(COSINE_WEIGHTED)
        store.extend(64)
        path = tmp_path / "sigs.bin"
        write_signatures(store, path)
        data = bytearray(path.read_bytes())
        data[4] = 7
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="unknown measure code 7"):
            read_signatures(path)

    @pytest.mark.parametrize("mode", [COSINE_WEIGHTED, JACCARD])
    def test_truncated_payload_rejected(self, mode, tmp_path):
        _, store = self._store(mode)
        store.extend(64)
        path = tmp_path / "sigs.bin"
        write_signatures(store, path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError, match="truncated"):
            read_signatures(path)

    def test_parallel_extension_is_consistent(self):
        from concurrent.futures import ThreadPoolExecutor

        corpus = generate_synthetic(30, 300, [(2, 0.8)], seed=6, mode=COSINE_WEIGHTED)
        serial = SignatureStore(corpus, seed=6, max_hashes=1024)
        serial.extend(1024)
        racy = SignatureStore(corpus, seed=6, max_hashes=1024)
        targets = [64, 512, 128, 1024, 256, 768, 1024, 320]
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(racy.extend, targets))
        assert racy.hashes_available == 1024
        np.testing.assert_array_equal(
            racy.band_values(0, 1024), serial.band_values(0, 1024)
        )

    def test_parallel_row_extension_is_consistent(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        corpus = generate_synthetic(30, 300, [(2, 0.8)], seed=6, mode=COSINE_WEIGHTED)
        serial = SignatureStore(corpus, seed=6, max_hashes=1024)
        serial.extend(1024)
        racy = SignatureStore(corpus, seed=6, max_hashes=1024)
        rng = np.random.default_rng(0)
        jobs = [(int(t), np.sort(rng.choice(30, size=int(rng.integers(1, 30)), replace=False)))
                for t in rng.integers(1, 1025, size=64)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(racy.extend, t, rows) for t, rows in jobs]
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        want = np.zeros(30, dtype=np.int64)
        for t, rows in jobs:
            want[rows] = np.maximum(want[rows], -(-t // 64) * 64)
        np.testing.assert_array_equal(racy.row_hashes, want)
        assert racy.hash_evals == int(want.sum())
        for row in range(30):
            words = want[row] // 64
            np.testing.assert_array_equal(racy._words[row, :words], serial._words[row, :words])


def test_importing_the_pipeline_builds_no_plane_table():
    # jaccard and exact-only processes never draw a cosine plane, so they
    # must not pay for the table; the first cosine block builds it
    code = (
        "import bayeslsh.search, bayeslsh.cli\n"
        "from bayeslsh.hashing import CosineHashFamily, _table\n"
        "print(_table.cache_info().currsize)\n"
        "CosineHashFamily(0, 10).block(0)\n"
        "print(_table.cache_info().currsize)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=env
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.split() == ["0", "1"]


def _duplicated_jaccard(seed: int, n: int = 24) -> Corpus:
    """A small jaccard corpus whose rows repeat, so runs of equal minhashes exceed 2."""
    base = generate_synthetic(n, 300, [(2, 0.8)], seed=seed, mode=JACCARD)
    rng = np.random.default_rng(seed)
    # row 0 at least three times, and a dozen more repeats at random
    rows = rng.permutation(np.concatenate([np.arange(n), [0, 0], rng.integers(0, n, n // 2)]))
    return Corpus([f"d{k}" for k in range(len(rows))], [base[int(r)] for r in rows],
                  JACCARD, dim=300)


class TestMatchIndex:
    @pytest.mark.parametrize("chunk", [7, 37])
    @pytest.mark.parametrize("k", [1, 7, 32])
    @pytest.mark.parametrize("seed", [0, 1, 2, "same"])
    def test_indexed_counts_equal_gather_and_loop(self, seed, k, chunk):
        if seed == "same":
            # every row is one set, so every hash of every pair collides
            one = generate_synthetic(1, 300, [], seed=3, mode=JACCARD)[0]
            corpus = Corpus([f"s{v}" for v in range(12)], [one] * 12, JACCARD, dim=300)
        else:
            corpus = _duplicated_jaccard(seed)
        store = SignatureStore(corpus, seed=4, max_hashes=64)
        store.extend(2 * k)
        n = len(corpus)
        pairs = np.asarray(bruteforce_generate(n))
        for lo in (0, k):
            index = store.match_index(lo, lo + k, len(pairs) * k)
            assert index is not None
            want = np.array([count_matches_loop(store, i, j, lo, lo + k) for i, j in pairs.tolist()])
            # the index holds exactly the pairs sharing a hash, keyed i * n + j
            # in ascending order, each with its count
            hit = np.flatnonzero(want)
            np.testing.assert_array_equal(index.keys, pairs[hit, 0] * n + pairs[hit, 1])
            np.testing.assert_array_equal(index.counts, want[hit])
            # and the chunked gather agrees with both
            gather = np.concatenate([
                store.count_matches_bulk(pairs[s : s + chunk], lo, lo + k)
                for s in range(0, len(pairs), chunk)
            ])
            np.testing.assert_array_equal(gather, want)
        if seed == "same":
            assert index.counts.tolist() == [k] * len(pairs)

    def test_index_only_within_the_collision_limit(self):
        store = SignatureStore(_duplicated_jaccard(6), seed=4, max_hashes=64)
        store.extend(16)
        index = store.match_index(0, 16, 10**6)
        collisions = int(index.counts.sum())
        assert collisions > len(index.keys)
        assert store.match_index(0, 16, collisions - 1) is None
        again = store.match_index(0, 16, collisions)
        np.testing.assert_array_equal(again.keys, index.keys)
        np.testing.assert_array_equal(again.counts, index.counts)

    def test_no_index_without_the_range_on_every_row(self):
        store = SignatureStore(_duplicated_jaccard(7), seed=4, max_hashes=64)
        store.extend(32, rows=np.arange(1, store.n_objects))
        assert store.match_index(0, 32, 10**6) is None
        store.extend(32)
        assert store.match_index(0, 32, 10**6) is not None
        assert store.match_index(0, 33, 10**6) is None

    def test_no_index_on_a_cosine_store(self):
        corpus = generate_synthetic(12, 300, [(2, 0.8)], seed=0, mode=COSINE_WEIGHTED)
        store = SignatureStore(corpus, seed=0, max_hashes=128)
        store.extend(64)
        assert store.match_index(0, 64, 10**6) is None

    def test_reversed_range_is_rejected(self):
        store = SignatureStore(_duplicated_jaccard(8), seed=4, max_hashes=64)
        store.extend(64)
        with pytest.raises(ValueError, match="not a range"):
            store.match_index(5, 4, 10**6)
