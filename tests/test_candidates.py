"""Candidate generators: banding, prefix-filtered index, brute force."""

import hashlib

import numpy as np
import pytest

from bayeslsh import candidates as cand_mod
from bayeslsh.candidates import (
    BandingParams,
    allpairs_generate,
    bruteforce_generate,
    lsh_banding_generate,
    num_tables,
)
from bayeslsh.corpus import (
    COSINE_BINARY,
    COSINE_WEIGHTED,
    JACCARD,
    Corpus,
    SparseVector,
    generate_synthetic,
    similarity_matrix,
)
from bayeslsh.errors import GuardError, UnsupportedMeasure
from bayeslsh.hashing import SignatureStore
from oracles import allpairs_loop


def _pair_set(pairs: np.ndarray) -> set[tuple[int, int]]:
    return {(int(i), int(j)) for i, j in pairs}


def _assert_canonical(pairs: np.ndarray):
    assert pairs.dtype == np.int64
    assert pairs.ndim == 2 and pairs.shape[1] == 2
    assert np.all(pairs[:, 0] < pairs[:, 1])
    assert len(_pair_set(pairs)) == len(pairs)


class TestNumTables:
    def test_paper_operating_point(self):
        assert num_tables(0.03, 0.9, 10) == 9

    def test_loose_rate_single_table(self):
        assert num_tables(0.999, 0.9, 10) == 1

    def test_band_width_one(self):
        assert num_tables(0.03, 0.5, 1) == 6

    @pytest.mark.parametrize("eps_fn, t, b", [(0.0, 0.5, 4), (0.03, 1.0, 4), (0.03, 0.5, 0)])
    def test_validation(self, eps_fn, t, b):
        with pytest.raises(ValueError):
            num_tables(eps_fn, t, b)

    def test_params_hashes_needed(self):
        params = BandingParams.for_threshold(0.03, 0.9, 10)
        assert params.tables == 9
        assert params.hashes_needed == 90


class TestBanding:
    def _jaccard_pair_store(self, seed, shared=18, extra=1):
        common = list(range(shared))
        x = SparseVector(np.array(common + [100]), np.ones(shared + extra))
        y = SparseVector(np.array(common + [200]), np.ones(shared + extra))
        corpus = Corpus(["x", "y"], [x, y], JACCARD, dim=256)
        return SignatureStore(corpus, seed=seed, max_hashes=128)

    def test_identical_vectors_always_pair(self):
        v = SparseVector(np.arange(20), np.ones(20))
        corpus = Corpus(["a", "b"], [v, v], JACCARD, dim=32)
        store = SignatureStore(corpus, seed=0, max_hashes=128)
        params = BandingParams.for_threshold(0.03, 0.9, 4)
        store.extend(params.hashes_needed)
        assert _pair_set(lsh_banding_generate(store, params)) == {(0, 1)}

    def test_generation_frequency_near_closed_form(self):
        # jaccard 18/20 = 0.9 pair; b=4, l=4 -> hit prob 1-(1-0.9^4)^4 = 0.986
        params = BandingParams.for_threshold(0.03, 0.9, 4)
        assert params.tables == 4
        hits = 0
        for seed in range(100):
            store = self._jaccard_pair_store(seed)
            store.extend(params.hashes_needed)
            hits += (0, 1) in _pair_set(lsh_banding_generate(store, params))
        assert hits >= 95

    def test_dissimilar_corpus_near_empty(self):
        corpus = generate_synthetic(60, 3000, [], seed=9, mode=JACCARD)
        sims = similarity_matrix(corpus)
        iu = np.triu_indices(60, k=1)
        assert float(sims[iu].max()) < 0.1
        params = BandingParams.for_threshold(0.03, 0.9, 4)
        store = SignatureStore(corpus, seed=9, max_hashes=128)
        store.extend(params.hashes_needed)
        pairs = lsh_banding_generate(store, params)
        assert len(pairs) <= 0.01 * len(iu[0])

    def test_insufficient_hashes_names_requirement(self):
        store = self._jaccard_pair_store(0)
        store.extend(64)
        params = BandingParams(band_width=10, tables=9)
        with pytest.raises(ValueError, match="90"):
            lsh_banding_generate(store, params)

    def test_budget_guard(self):
        corpus = generate_synthetic(40, 200, [(20, 0.95)], seed=1, mode=JACCARD)
        store = SignatureStore(corpus, seed=1, max_hashes=64)
        params = BandingParams.for_threshold(0.5, 0.9, 4)
        store.extend(params.hashes_needed)
        with pytest.raises(GuardError, match="budget"):
            lsh_banding_generate(store, params, budget=3)

    def test_deterministic_under_seed(self):
        corpus = generate_synthetic(50, 500, [(10, 0.8)], seed=4, mode=COSINE_WEIGHTED)
        params = BandingParams.for_threshold(0.03, 0.75, 8)
        outs = []
        for _ in range(2):
            store = SignatureStore(corpus, seed=4, max_hashes=1024)
            store.extend(params.hashes_needed)
            outs.append(lsh_banding_generate(store, params, seed=4))
        np.testing.assert_array_equal(outs[0], outs[1])
        _assert_canonical(outs[0])

    def test_matches_pairs_with_an_equal_band(self):
        # near-duplicate groups make buckets of several sizes in each band
        corpus = generate_synthetic(
            80, 400, [(12, 0.95), (9, 0.9), (6, 0.8)], seed=3, mode=COSINE_WEIGHTED
        )
        params = BandingParams(band_width=6, tables=8)
        store = SignatureStore(corpus, seed=3, max_hashes=64)
        store.extend(params.hashes_needed)
        expected, bucket_sizes, emitted = set(), set(), 0
        for j in range(params.tables):
            rows = store.band_values(j * 6, (j + 1) * 6)
            same = (rows[:, None, :] == rows[None, :, :]).all(axis=2)
            expected |= {(int(a), int(b)) for a, b in zip(*np.nonzero(np.triu(same, k=1)))}
            bucket_sizes |= set(same.sum(axis=1).tolist())
            emitted += int(np.triu(same, k=1).sum())
        assert {2, 3} <= bucket_sizes
        pairs = lsh_banding_generate(store, params, seed=3)
        assert _pair_set(pairs) == expected
        # the budget counts every within-bucket pair of every band, repeats included
        assert emitted > len(expected)
        np.testing.assert_array_equal(
            lsh_banding_generate(store, params, seed=3, budget=emitted), pairs
        )
        with pytest.raises(GuardError, match="budget"):
            lsh_banding_generate(store, params, seed=3, budget=emitted - 1)
        np.testing.assert_array_equal(pairs, np.unique(pairs, axis=0))


def _with_empty_vectors() -> Corpus:
    base = generate_synthetic(60, 800, [(6, 0.8)], seed=8, mode=COSINE_WEIGHTED)
    vectors = list(base.vectors)
    for k in (0, 17, 59):
        vectors[k] = SparseVector([], [])
    return Corpus(list(base.ids), vectors, base.mode, dim=base.dim)


def _with_prefix_only_vector() -> Corpus:
    # weights this small keep the whole bound sum below t: nothing is indexed
    base = generate_synthetic(60, 800, [(6, 0.8)], seed=9, mode=COSINE_WEIGHTED)
    vectors = list(base.vectors)
    vectors[30] = SparseVector(vectors[12].features, np.full(len(vectors[12]), 0.01))
    return Corpus(list(base.ids), vectors, base.mode, dim=base.dim)


def _underflowing_pair() -> Corpus:
    # vectors 0 and 1 share only feature 9, at weights whose product is 0.0;
    # features 0 and 1 (df 3) rank before 9 (df 2), so the bound sum reaches
    # t on the first entry and feature 9 is indexed in both
    tiny = 1e-170
    vectors = [
        SparseVector([0, 9], [1.0, tiny]),
        SparseVector([1, 9], [1.0, tiny]),
        SparseVector([0, 5], [0.6, 0.8]),
        SparseVector([0, 6], [0.8, 0.6]),
        SparseVector([1], [1.0]),
        SparseVector([1, 5], [0.8, 0.6]),
    ]
    return Corpus([f"v{k}" for k in range(len(vectors))], vectors, COSINE_WEIGHTED, dim=10)


def _ties_and_repeats() -> Corpus:
    # vectors 0, 2, 4 and 5 are identical, so features 2, 4 and 7 share df 4
    # and rank by id, as features 0 and 1 (df 3) do; vectors 6 and 7 share
    # only feature 9, the rarest, which their bound sums (1.12 >= 0.9, with
    # maxw 0.8 on features 0, 1 and 9) leave indexed in both
    repeat = SparseVector([2, 4, 7], [0.48, 0.6, 0.64])
    vectors = [
        repeat,
        SparseVector([0, 1], [0.6, 0.8]),
        repeat,
        SparseVector([0, 1, 5], [0.48, 0.64, 0.6]),
        repeat,
        repeat,
        SparseVector([0, 9], [0.8, 0.6]),
        SparseVector([1, 9], [0.6, 0.8]),
    ]
    return Corpus([f"v{k}" for k in range(len(vectors))], vectors, COSINE_WEIGHTED, dim=10)


_ALLPAIRS_CORPORA = {
    "weighted": lambda: generate_synthetic(
        150, 1500, [(10, 0.8), (10, 0.5)], seed=4, mode=COSINE_WEIGHTED
    ),
    "binary": lambda: generate_synthetic(
        150, 1500, [(10, 0.8), (10, 0.5)], seed=4, mode=COSINE_BINARY
    ),
    "empty-vectors": _with_empty_vectors,
    "prefix-only-vector": _with_prefix_only_vector,
    "slice-7": lambda: generate_synthetic(
        80, 900, [(8, 0.7)], seed=10, mode=COSINE_WEIGHTED
    ),
    "underflow": _underflowing_pair,
    "ties-and-repeats": _ties_and_repeats,
}


def _random_small_corpus(rng: np.random.Generator) -> Corpus:
    """A few vectors over a few features, about a third of them repeats of earlier ones."""
    n, dim = int(rng.integers(2, 25)), int(rng.integers(1, 25))
    mode = COSINE_WEIGHTED if rng.random() < 0.5 else COSINE_BINARY
    vectors: list[SparseVector] = []
    for _ in range(n):
        if vectors and rng.random() < 0.35:
            vectors.append(vectors[int(rng.integers(len(vectors)))])
            continue
        size = int(rng.integers(0, min(dim, 6) + 1))
        weights = rng.random(size) + 0.05 if mode == COSINE_WEIGHTED else np.ones(size)
        if size:
            weights /= np.linalg.norm(weights)
        vectors.append(SparseVector(np.sort(rng.choice(dim, size, replace=False)), weights))
    return Corpus([f"v{k}" for k in range(n)], vectors, mode, dim=dim)


# sha256 and length of the candidate array (little-endian int64) on
# generate_synthetic(300, 3000, [(20, 0.8), (20, 0.5)], seed, mode) at t
_PINNED_ALLPAIRS = {
    (0, "cosine-weighted", 0.3): ("c5ce9e3210ed6f381a086c568a88b9bb7989fce84128506e545439a2e0804188", 34460),
    (0, "cosine-weighted", 0.7): ("d4a704c976c32aadb8e0d9e40d3655588f3bf5bee9e5adabaa8a5172c2c3c536", 27437),
    (0, "cosine-weighted", 0.9): ("09df49f6adbf15fe20ceb65a2e2fc5be21efad9fb0a8011f75c8573473c2843d", 22907),
    (0, "cosine-binary", 0.3): ("4479144aa5fba562ba9979adabaa3b8a04c27a7f56981dd55bd43163ad81e7da", 34940),
    (0, "cosine-binary", 0.7): ("e6a47265e2d392df34b112428175e110045acc065417eb2892b69af86d1361cb", 23874),
    (0, "cosine-binary", 0.9): ("30b1c11279035f9ea2c319ae6e42f7689e706c3d0e607138bf78b12271c9770e", 16224),
    (1, "cosine-weighted", 0.3): ("4dfb8c175bf1d1e9e823089fc578a7c19fa54b884850d291393aae9ee6d887bf", 35120),
    (1, "cosine-weighted", 0.7): ("8b81a329df2ccd3a83d8eda345270000bbce2bf4b980bcbc1e29184632644609", 28013),
    (1, "cosine-weighted", 0.9): ("898684ab1bf0d3c511a2a946dd7ff2e132eaf068fb219a02c66929c9acccbf89", 23128),
    (1, "cosine-binary", 0.3): ("f88b12d8c45a98364a18e351548c8ed67b51ae8af1022d4e2fd5c8fd2d92651e", 35378),
    (1, "cosine-binary", 0.7): ("2cb61ae1614aed5adb23b9614b0fcd2f77bd44888a3932f36775b4a9a5c1d9bf", 24731),
    (1, "cosine-binary", 0.9): ("fa701a7a2fd4e4a5197fc313287e0502526f0d4e610d88576e2746121212f88c", 16951),
    (2, "cosine-weighted", 0.3): ("bbe26213a22c90039bdabb07ed0bd2621b7112773ce4047f02427ec596bc6a50", 35120),
    (2, "cosine-weighted", 0.7): ("301d22582922ded093a613f318163971a85db972d122c38e9f0dc32297611c24", 28370),
    (2, "cosine-weighted", 0.9): ("4ee52d5f5f3e03a28f3524d3e089d55d60a5558854c1feed220cb348c2770585", 23785),
    (2, "cosine-binary", 0.3): ("d9cf162d662de08a5c3be89cd015345dbe82781aa86732cbf202da6072307678", 34635),
    (2, "cosine-binary", 0.7): ("59db356c5c5850f8ea23a1a248811307e1181f588a25f11e48cce752019186f4", 24008),
    (2, "cosine-binary", 0.9): ("fa33a1d3205a702410d08e51720379cc51e358dc7d186580427502d7d26895bd", 16617),
}


class TestAllpairs:
    @pytest.mark.parametrize(
        "case, t",
        [(mode, t) for mode in ("weighted", "binary") for t in (1e-9, 0.3, 0.7, 0.9)]
        + [
            ("empty-vectors", 0.3),
            ("prefix-only-vector", 0.5),
            ("slice-7", 0.3),
            ("underflow", 0.5),
            ("acceptance-seed-0", 0.7),
        ]
        + [("ties-and-repeats", t) for t in (1e-9, 0.5, 0.9)]
        + [("ties-and-repeats-slice-1", t) for t in (1e-9, 0.5, 0.9)],
    )
    def test_matches_reference_loop(self, case, t, bundles, monkeypatch):
        if case == "acceptance-seed-0":
            corpus = bundles(0).corpus
            got = bundles(0).allpairs(t)
        else:
            if case == "slice-7":
                monkeypatch.setattr(cand_mod, "_ALLPAIRS_SLICE", 7)
            if case.endswith("-slice-1"):
                monkeypatch.setattr(cand_mod, "_ALLPAIRS_SLICE", 1)
                case = case.removesuffix("-slice-1")
            corpus = _ALLPAIRS_CORPORA[case]()
            got = allpairs_generate(corpus, t)
        _assert_canonical(got)
        expected = allpairs_loop(corpus, t)
        assert len(expected) > 0
        np.testing.assert_array_equal(got, expected)
        if case == "underflow":
            assert (0, 1) not in _pair_set(got)
        if case == "prefix-only-vector":
            assert 30 in got
        if case == "ties-and-repeats":
            assert {(0, 2), (0, 4), (4, 5), (6, 7)} <= _pair_set(got)

    def test_fuzz_matches_reference_loop(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            corpus = _random_small_corpus(rng)
            for t in (1e-9, 0.3, 0.6, 0.9):
                got = allpairs_generate(corpus, t)
                _assert_canonical(got)
                np.testing.assert_array_equal(got, allpairs_loop(corpus, t))

    @pytest.mark.parametrize("seed, mode, t", list(_PINNED_ALLPAIRS))
    def test_candidates_are_pinned(self, seed, mode, t):
        corpus = generate_synthetic(300, 3000, [(20, 0.8), (20, 0.5)], seed=seed, mode=mode)
        got = allpairs_generate(corpus, t)
        digest = hashlib.sha256(np.ascontiguousarray(got, "<i8").tobytes()).hexdigest()
        assert (digest, len(got)) == _PINNED_ALLPAIRS[seed, mode, t]

    def test_join_guard(self, monkeypatch):
        corpus = generate_synthetic(80, 600, [(10, 0.8)], seed=5, mode=COSINE_WEIGHTED)
        monkeypatch.setattr(cand_mod, "DEFAULT_CANDIDATE_BUDGET", 10)
        with pytest.raises(GuardError, match="budget of 10"):
            allpairs_generate(corpus, 0.6)
        # the guard counts every entry's whole postings list, 41,498 rows here,
        # not only the rows of indexed vectors before it that the join holds
        monkeypatch.setattr(cand_mod, "DEFAULT_CANDIDATE_BUDGET", 41_498)
        assert len(allpairs_generate(corpus, 0.6)) > 0
        monkeypatch.setattr(cand_mod, "DEFAULT_CANDIDATE_BUDGET", 41_497)
        with pytest.raises(GuardError, match="join of 41498 rows exceeds the budget of 41497"):
            allpairs_generate(corpus, 0.6)

    def test_tiny_threshold_yields_all_overlapping_pairs(self):
        corpus = generate_synthetic(40, 300, [(5, 0.7)], seed=2, mode=COSINE_WEIGHTED)
        got = _pair_set(allpairs_generate(corpus, 1e-9))
        sims = similarity_matrix(corpus)
        overlapping = {
            (i, j)
            for i in range(len(corpus))
            for j in range(i + 1, len(corpus))
            if sims[i, j] > 0.0
        }
        assert got == overlapping

    def test_no_false_negatives_at_threshold(self):
        corpus = generate_synthetic(
            500, 4000, [(40, 0.75), (30, 0.85)], seed=7, mode=COSINE_WEIGHTED
        )
        t = 0.7
        cands = allpairs_generate(corpus, t)
        _assert_canonical(cands)
        sims = similarity_matrix(corpus)
        iu = np.triu_indices(len(corpus), k=1)
        above = sims[iu] >= t
        truth = set(zip(iu[0][above].tolist(), iu[1][above].tolist()))
        assert truth <= _pair_set(cands)
        assert len(cands) <= len(iu[0])

    def test_higher_threshold_prunes_more(self):
        corpus = generate_synthetic(200, 2000, [(20, 0.8)], seed=3, mode=COSINE_WEIGHTED)
        low = allpairs_generate(corpus, 0.3)
        high = allpairs_generate(corpus, 0.9)
        assert len(high) <= len(low)
        assert _pair_set(high) <= _pair_set(low)

    def test_deterministic(self):
        corpus = generate_synthetic(80, 600, [(10, 0.8)], seed=5, mode=COSINE_WEIGHTED)
        np.testing.assert_array_equal(
            allpairs_generate(corpus, 0.6), allpairs_generate(corpus, 0.6)
        )

    def test_rejects_jaccard(self):
        corpus = generate_synthetic(10, 100, [], seed=0, mode=JACCARD)
        with pytest.raises(UnsupportedMeasure):
            allpairs_generate(corpus, 0.5)

    def test_validates_threshold(self):
        corpus = generate_synthetic(10, 100, [], seed=0, mode=COSINE_WEIGHTED)
        with pytest.raises(ValueError):
            allpairs_generate(corpus, 1.0)


class TestBruteforce:
    def test_enumerates_all_pairs(self):
        pairs = bruteforce_generate(5)
        _assert_canonical(np.asarray(pairs))
        assert len(pairs) == 10

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 500])
    def test_equals_upper_triangle_indices(self, n):
        pairs = bruteforce_generate(n)
        want = np.column_stack(np.triu_indices(n, 1)).astype(np.int64)
        total = n * (n - 1) // 2
        assert len(pairs) == total
        whole = np.asarray(pairs)
        assert whole.dtype == np.int64 and whole.flags.c_contiguous
        assert whole.shape == (total, 2)
        np.testing.assert_array_equal(whole, want)
        # positions, slices and single positions give the same rows
        rng = np.random.default_rng(n)
        at = rng.permutation(total)
        np.testing.assert_array_equal(pairs[at], want[at])
        np.testing.assert_array_equal(pairs[at.astype(np.int32)], want[at])
        np.testing.assert_array_equal(pairs[: total // 3], want[: total // 3])
        np.testing.assert_array_equal(pairs[1::3], want[1::3])
        assert pairs[np.zeros(0, dtype=np.int64)].shape == (0, 2)
        if total:
            assert pairs[total - 1].tolist() == [n - 2, n - 1]
        # key -> position round trips
        keys = want[:, 0] * n + want[:, 1]
        np.testing.assert_array_equal(pairs.positions(keys), np.arange(total))
        np.testing.assert_array_equal(pairs.positions(keys[at]), at)

    @pytest.mark.parametrize("bad", [-1, 21])
    def test_position_outside_the_list_raises(self, bad):
        pairs = bruteforce_generate(7)
        with pytest.raises(IndexError):
            pairs[np.array([0, bad])]
        with pytest.raises(IndexError):
            pairs[bad]

    @pytest.mark.parametrize("pair", [(3, 3), (4, 2), (0, 7), (-1, 3)])
    def test_key_of_no_pair_raises(self, pair):
        i, j = pair
        with pytest.raises(ValueError, match="0 <= i < j < 7"):
            bruteforce_generate(7).positions(np.array([1, i * 7 + j]))

    def test_guard_fires_before_allocation(self):
        with pytest.raises(GuardError):
            bruteforce_generate(20_000)

    def test_guard_raises_at_the_same_count(self):
        # 14,142 rows give 99,991,011 pairs, 14,143 rows 100,005,153
        assert len(bruteforce_generate(14_142)) == 99_991_011 <= 10**8
        with pytest.raises(GuardError, match="100005153 pairs exceeds"):
            bruteforce_generate(14_143)

