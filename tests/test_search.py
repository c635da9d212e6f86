"""Verification strategies and the end-to-end search pipeline."""

import hashlib
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from conftest import CorpusBundle

from bayeslsh import cli, inference, search
from bayeslsh.candidates import BruteforcePairs, bruteforce_generate
from bayeslsh.corpus import (
    COSINE_BINARY,
    COSINE_WEIGHTED,
    JACCARD,
    Corpus,
    SparseVector,
    exact_similarity,
    generate_synthetic,
    load_corpus,
    measure_for_mode,
)
from bayeslsh.errors import UnsupportedMeasure
from bayeslsh.hashing import SignatureStore
from bayeslsh.search import (
    PAIR_DTYPE,
    BayesVerifier,
    SearchConfig,
    SearchResult,
    SearchStats,
    _survivor_counts,
    bayeslsh_lite_run,
    bayeslsh_run,
    exact_run,
    fit_candidate_prior,
    generate_candidates,
    lsh_approx_run,
    results_to_tsv,
    run_search,
)
from oracles import count_matches_loop, min_matches_linear, verify_pair_loop


class _DenseVerdicts(NamedTuple):
    pruned_at: np.ndarray
    hashes_used: np.ndarray
    estimate: np.ndarray
    low_confidence: np.ndarray


def _expand(v: search.Verdicts, total: int, k: int) -> _DenseVerdicts:
    """Verdicts with one entry per candidate: pairs outside `passed` pruned at k."""
    dense = _DenseVerdicts(np.full(total, k), np.full(total, k), np.zeros(total),
                           np.zeros(total, dtype=bool))
    for field in dense._fields:
        getattr(dense, field)[v.passed] = getattr(v, field)
    return dense


def _verify_dense(verifier: BayesVerifier, pairs) -> _DenseVerdicts:
    return _expand(verifier.verify(pairs), len(pairs), verifier.batch)


def _cosine_pair_corpus(sim: float) -> Corpus:
    x = SparseVector(np.array([0]), np.array([1.0]))
    y = SparseVector(np.array([0, 1]), np.array([sim, np.sqrt(1.0 - sim * sim)]))
    return Corpus(["x", "y"], [x, y], COSINE_WEIGHTED, dim=4)


def _jaccard_pair_corpus(shared: int, extra: int) -> Corpus:
    common = list(range(shared))
    x = SparseVector(np.array(common + [500]), np.ones(shared + 1))
    feats = common + list(range(600, 600 + extra - 1)) if extra > 1 else common + [600]
    y = SparseVector(np.array(feats), np.ones(shared + extra - 1 if extra > 1 else shared + 1))
    return Corpus(["x", "y"], [x, y], JACCARD, dim=1024)


class TestSearchConfig:
    def test_cosine_defaults(self):
        cfg = SearchConfig("cosine", 0.7)
        assert (cfg.lite_hashes, cfg.max_hashes, cfg.fixed_hashes, cfg.band_width) == (
            128, 4096, 2048, 8,
        )

    def test_jaccard_defaults(self):
        cfg = SearchConfig("jaccard", 0.7)
        assert (cfg.lite_hashes, cfg.max_hashes, cfg.fixed_hashes, cfg.band_width) == (
            64, 512, 360, 4,
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"measure": "hamming"},
            {"threshold": 0.0},
            {"threshold": 1.0},
            {"epsilon": 0.0},
            {"delta": 1.0},
            {"gamma": -0.1},
            {"fn_rate": 0.0},
            {"batch_hashes": 0},
            {"lite_hashes": 100},
            {"max_hashes": 1000},
            {"generator": "random"},
            {"verifier": "oracle"},
            {"parallel": 0},
            {"max_hashes": 0},
            {"max_hashes": -32},
            {"max_hashes": 16, "batch_hashes": 32},
            {"lite_hashes": -32},
            {"fixed_hashes": 0},
            {"fixed_hashes": -1},
            {"lite_hashes": 8192},
            {"fixed_hashes": 8192},
            {"max_hashes": 64, "lite_hashes": 128},
            {"max_hashes": 64, "fixed_hashes": 65},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        base = {"measure": "cosine", "threshold": 0.7}
        base.update(kwargs)
        with pytest.raises(ValueError):
            SearchConfig(**base)


    def test_default_budgets_fit_a_smaller_cap(self):
        cfg = SearchConfig("jaccard", 0.7, max_hashes=32)
        assert (cfg.lite_hashes, cfg.fixed_hashes) == (32, 32)
        cfg = SearchConfig("cosine", 0.7, max_hashes=96)
        assert (cfg.lite_hashes, cfg.fixed_hashes) == (96, 96)
        cfg = SearchConfig("cosine", 0.7, max_hashes=96, lite_hashes=64, fixed_hashes=96)
        assert (cfg.lite_hashes, cfg.fixed_hashes) == (64, 96)


class TestBayesVerifier:
    @pytest.mark.parametrize(
        "measure, mode", [("cosine", COSINE_WEIGHTED), ("jaccard", JACCARD)]
    )
    def test_identical_pair_survives_with_high_estimate(self, measure, mode):
        weights = np.full(20, 1.0 / np.sqrt(20)) if measure == "cosine" else np.ones(20)
        v = SparseVector(np.arange(20), weights)
        corpus = Corpus(["x", "y"], [v, v], mode, dim=64)
        cfg = SearchConfig(measure, 0.7)
        store = SignatureStore(corpus, seed=3, max_hashes=cfg.max_hashes)
        posterior = inference.posterior_for_measure(measure)
        verdict = _verify_dense(BayesVerifier(store, posterior, cfg), np.array([[0, 1]]))
        assert verdict.pruned_at[0] == 0
        assert not verdict.low_confidence[0]
        assert verdict.estimate[0] >= 1.0 - cfg.delta

    def test_dissimilar_pair_pruned_quickly(self):
        corpus = _cosine_pair_corpus(0.1)
        cfg = SearchConfig("cosine", 0.7)
        posterior = inference.posterior_for_measure("cosine")
        fast = 0
        for seed in range(100):
            store = SignatureStore(corpus, seed=seed, max_hashes=cfg.max_hashes)
            verdict = _verify_dense(BayesVerifier(store, posterior, cfg), np.array([[0, 1]]))
            fast += 0 < verdict.pruned_at[0] <= 128
        assert fast >= 99

    def test_trace_matches_direct_posterior_checks(self):
        corpus = _cosine_pair_corpus(0.55)
        cfg = SearchConfig("cosine", 0.7, max_hashes=1024)
        posterior = inference.posterior_for_measure("cosine")
        store = SignatureStore(corpus, seed=5, max_hashes=1024)
        verifier = BayesVerifier(store, posterior, cfg)
        verdict = _verify_dense(verifier, np.array([[0, 1]]))
        k, used, pruned_at = cfg.batch_hashes, verdict.hashes_used[0], verdict.pruned_at[0]
        # (m, n, min_m) at every batch boundary the pair reached
        trace = [
            (count_matches_loop(store, 0, 1, 0, n), n, verifier.table[n])
            for n in range(k, used + 1, k)
        ]
        assert trace
        for m, n, min_m in trace:
            assert min_m == min_matches_linear(posterior, cfg.threshold, cfg.epsilon, n)
            assert m == store.count_matches(0, 1, 0, n)
        for m, n, min_m in trace[:-1]:
            assert m >= min_m
        last_m, last_n, last_min = trace[-1]
        if pruned_at:
            assert last_m < last_min and pruned_at == last_n
        else:
            assert last_m >= last_min

    def test_raising_epsilon_never_delays_pruning(self):
        corpus = _cosine_pair_corpus(0.1)
        for seed in range(5):
            store = SignatureStore(corpus, seed=seed, max_hashes=4096)
            posterior = inference.posterior_for_measure("cosine")
            stops = {}
            for eps in (0.01, 0.1):
                cfg = SearchConfig("cosine", 0.7, epsilon=eps)
                verdict = _verify_dense(BayesVerifier(store, posterior, cfg), np.array([[0, 1]]))
                assert verdict.pruned_at[0] > 0
                stops[eps] = verdict.pruned_at[0]
            assert stops[0.1] <= stops[0.01]

    def test_budget_exhaustion_flags_low_confidence(self):
        v = SparseVector(np.arange(20), np.ones(20))
        corpus = Corpus(["x", "y"], [v, v], JACCARD, dim=64)
        cfg = SearchConfig("jaccard", 0.5, gamma=1e-6, max_hashes=32)
        store = SignatureStore(corpus, seed=0, max_hashes=32)
        posterior = inference.posterior_for_measure("jaccard")
        verdict = _verify_dense(BayesVerifier(store, posterior, cfg), np.array([[0, 1]]))
        assert verdict.pruned_at[0] == 0
        assert verdict.low_confidence[0]
        assert verdict.hashes_used[0] == 32
        assert verdict.estimate[0] == 1.0


class TestBatchVerifier:
    @pytest.mark.parametrize("measure", ["cosine", "jaccard"])
    @pytest.mark.parametrize("budget", ["max_hashes", "lite_hashes"])
    def test_batch_core_equals_per_pair_loop(self, small_cosine, small_jaccard,
                                             monkeypatch, measure, budget):
        bundle = small_cosine if measure == "cosine" else small_jaccard
        # a small chunk puts chunk boundaries between pairs that stop at
        # different batches
        monkeypatch.setattr(search, "_CHUNK", 37)
        rng = np.random.default_rng(5)
        n = len(bundle.corpus)
        planted = np.array(sorted(bundle.truth(0.5)), dtype=np.int64)
        pairs = np.concatenate([planted, rng.integers(0, n, size=(200, 2))])
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        rng.shuffle(pairs)
        cfg = SearchConfig(measure, 0.5, batch_hashes=16, seed=bundle.seed)
        store = SignatureStore(bundle.corpus, bundle.seed, cfg.max_hashes)
        prior = inference.BetaParams(2.0, 5.0) if measure == "jaccard" else None
        posterior = inference.posterior_for_measure(measure, prior)
        verifier = BayesVerifier(store, posterior, cfg, budget=getattr(cfg, budget))
        got = _verify_dense(verifier, pairs)
        want = [verify_pair_loop(verifier, int(i), int(j)) for i, j in pairs]
        assert got.pruned_at.tolist() == [w[0] for w in want]
        assert got.hashes_used.tolist() == [w[1] for w in want]
        assert got.estimate.tolist() == [w[2] for w in want]
        assert got.low_confidence.tolist() == [w[3] for w in want]
        # pairs leave at several batches, some pruned and some kept
        assert len(set(got.hashes_used.tolist())) >= 2
        # the first batch's survivors come from several chunks and go on together
        survivors = np.flatnonzero(got.hashes_used > cfg.batch_hashes)
        assert len(np.unique(survivors // search._CHUNK)) >= 2
        assert (got.pruned_at > 0).any() and (got.pruned_at == 0).any()

    @pytest.mark.parametrize("k", [1, 7, 32])
    def test_jaccard_verdicts_equal_per_pair_loop_across_chunk_edges(
        self, small_jaccard, monkeypatch, k
    ):
        # chunks of 7 pairs cut the first batch's slices and every later one
        monkeypatch.setattr(search, "_CHUNK", 7)
        rng = np.random.default_rng(k)
        n = len(small_jaccard.corpus)
        planted = np.array(sorted(small_jaccard.truth(0.5)), dtype=np.int64)
        pairs = np.concatenate([planted[:25], rng.integers(0, n, size=(40, 2))])
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        cfg = SearchConfig("jaccard", 0.5, batch_hashes=k, max_hashes=224, lite_hashes=224,
                           seed=small_jaccard.seed)
        store = SignatureStore(small_jaccard.corpus, cfg.seed, cfg.max_hashes)
        posterior = inference.posterior_for_measure("jaccard", inference.BetaParams(2.0, 5.0))
        verifier = BayesVerifier(store, posterior, cfg)
        got = _verify_dense(verifier, pairs)
        want = np.array([verify_pair_loop(verifier, int(i), int(j)) for i, j in pairs]).T
        np.testing.assert_array_equal(got.pruned_at, want[0])
        np.testing.assert_array_equal(got.hashes_used, want[1])
        np.testing.assert_array_equal(got.estimate, want[2])
        np.testing.assert_array_equal(got.low_confidence, want[3].astype(bool))
        assert (got.pruned_at > 0).any() and (got.pruned_at == 0).any()


    @pytest.mark.parametrize("prior", [inference.BetaParams(2.0, 5.0), inference.UNIFORM_PRIOR])
    @pytest.mark.parametrize("budget", ["max_hashes", "lite_hashes"])
    def test_dense_sorted_list_counted_off_the_index_keeps_its_verdicts(
        self, small_jaccard, monkeypatch, prior, budget
    ):
        # every pair of 80 rows in the generators' order holds at least one
        # pair per row, so its first batch is read off the collision index;
        # chunks of 37 pairs cut rows
        monkeypatch.setattr(search, "_CHUNK", 37)
        whole = small_jaccard.corpus
        corpus = Corpus(whole.ids[:80], whole.vectors[:80], JACCARD, dim=whole.dim)
        pairs = bruteforce_generate(len(corpus))
        cfg = SearchConfig("jaccard", 0.5, batch_hashes=16, seed=small_jaccard.seed)
        posterior = inference.posterior_for_measure("jaccard", prior)
        built = []
        original = SignatureStore.match_index

        def spy(store, lo, hi, limit):
            built.append((lo, hi, limit, original(store, lo, hi, limit)))
            return built[-1][-1]

        def run():
            store = SignatureStore(corpus, cfg.seed, cfg.max_hashes)
            verifier = BayesVerifier(store, posterior, cfg, budget=getattr(cfg, budget))
            return verifier, _verify_dense(verifier, pairs)

        monkeypatch.setattr(SignatureStore, "match_index", spy)
        verifier, got = run()
        assert [b[:3] for b in built] == [(0, 16, len(pairs))] and built[0][3] is not None
        monkeypatch.setattr(SignatureStore, "match_index", lambda store, lo, hi, limit: None)
        _, off = run()
        want = np.array([verify_pair_loop(verifier, int(i), int(j)) for i, j in pairs]).T
        for field, loop in zip(got._fields, want):
            values = getattr(got, field)
            np.testing.assert_array_equal(values, getattr(off, field))
            np.testing.assert_array_equal(values, loop.astype(values.dtype))
        assert len(set(got.hashes_used.tolist())) >= 2
        assert (got.pruned_at > 0).any() and (got.pruned_at == 0).any()


    @pytest.mark.parametrize("case", ["enumerated", "sorted", "sorted-subset", "no-index",
                                      "unsorted", "floor-zero", "empty", "one-row",
                                      "two-row", "three-row"])
    def test_survivor_verdicts_equal_per_pair_loop(self, small_jaccard, monkeypatch, case):
        # chunks of 7 pairs cut the first batch and every later one
        monkeypatch.setattr(search, "_CHUNK", 7)
        whole = small_jaccard.corpus
        rows = {"one-row": 1, "two-row": 2, "three-row": 3}.get(case, 60)
        corpus = Corpus(whole.ids[:rows], whole.vectors[:rows], JACCARD, dim=whole.dim)
        pairs = bruteforce_generate(rows)
        rng = np.random.default_rng(3)
        if case == "sorted":
            pairs = np.asarray(pairs)
        elif case == "sorted-subset":
            # index keys fall between the list's pairs
            pairs = np.asarray(pairs)[np.sort(rng.choice(len(pairs), 1500, replace=False))]
        elif case == "unsorted":
            pairs = np.asarray(pairs)[rng.permutation(len(pairs))]
        elif case == "empty":
            pairs = np.zeros((0, 2), dtype=np.int64)
        t = 0.1 if case == "floor-zero" else 0.5
        cfg = SearchConfig("jaccard", t, batch_hashes=16, max_hashes=64, seed=small_jaccard.seed)
        posterior = inference.posterior_for_measure("jaccard", inference.BetaParams(2.0, 5.0))
        built = []
        original = SignatureStore.match_index

        def spy(store, lo, hi, limit):
            assert (lo, hi, limit) == (0, cfg.batch_hashes, len(pairs))
            built.append(None if case == "no-index" else original(store, lo, hi, limit))
            return built[-1]

        monkeypatch.setattr(SignatureStore, "match_index", spy)
        store = SignatureStore(corpus, cfg.seed, cfg.max_hashes)
        verifier = BayesVerifier(store, posterior, cfg)
        assert (verifier.table[16] == 0) == (case == "floor-zero")
        got = verifier.verify(pairs)
        # only a nonempty brute-force enumeration with minMatches(k) >= 1 asks
        # for an index; the two- and three-row lists share more hashes than
        # they hold pairs, so theirs does not exist
        assert len(built) == (case in ("enumerated", "no-index", "two-row", "three-row"))
        indexed = bool(built) and built[0] is not None
        assert indexed == (case == "enumerated")
        if case == "floor-zero":
            assert len(got.passed) == len(pairs)
        elif len(pairs) > 1:
            # only the pairs that pass the first prune test are carried on
            assert 0 < len(got.passed) < len(pairs)
        dense = _expand(got, len(pairs), cfg.batch_hashes)
        want = np.array([verify_pair_loop(verifier, int(i), int(j))
                         for i, j in np.asarray(pairs)]).reshape(-1, 4).T
        for field, loop in zip(dense._fields, want):
            np.testing.assert_array_equal(getattr(dense, field), loop.astype(getattr(dense, field).dtype))
        # the per-batch counts are those of the dense verdicts
        ns = np.arange(1, 5) * cfg.batch_hashes
        stopped = (dense.pruned_at == 0) & ~dense.low_confidence
        assert got.pruned.tolist() == [int(np.sum(dense.pruned_at == n)) for n in ns]
        assert got.stopped.tolist() == [int(np.sum(stopped & (dense.hashes_used == n))) for n in ns]
        assert got.pruned.sum() + got.stopped.sum() + got.low_confidence.sum() == len(pairs)


    def test_unsorted_list_falls_back_to_the_gather(self, small_jaccard, monkeypatch):
        # an explicit pair array, sorted or not, has its first batch counted
        # chunk by chunk; the brute-force enumeration is decided off the index
        monkeypatch.setattr(search, "_CHUNK", 100)
        whole = small_jaccard.corpus
        corpus = Corpus(whole.ids[:40], whole.vectors[:40], JACCARD, dim=whole.dim)
        enumerated = bruteforce_generate(40)
        pairs = np.asarray(enumerated)
        rng = np.random.default_rng(0)
        cfg = SearchConfig("jaccard", 0.5, batch_hashes=16, max_hashes=64, seed=small_jaccard.seed)
        posterior = inference.posterior_for_measure("jaccard", inference.BetaParams(2.0, 5.0))
        calls = []
        original = SignatureStore._count_jaccard

        def spy(store, p, lo, hi):
            calls.append((lo, len(p)))
            return original(store, p, lo, hi)

        monkeypatch.setattr(SignatureStore, "_count_jaccard", spy)
        for p in (enumerated, pairs, pairs[rng.permutation(len(pairs))], pairs[:, ::-1],
                  np.repeat(pairs, 2, axis=0)):
            verifier = BayesVerifier(SignatureStore(corpus, cfg.seed, cfg.max_hashes), posterior, cfg)
            calls.clear()
            got = _verify_dense(verifier, p)
            first = [size for lo, size in calls if lo == 0]
            assert first == ([] if p is enumerated else [100] * (len(p) // 100) + [len(p) % 100])
            want = np.array([verify_pair_loop(verifier, int(i), int(j))
                             for i, j in np.asarray(p)]).T
            for field, loop in zip(got._fields, want):
                np.testing.assert_array_equal(getattr(got, field), loop.astype(getattr(got, field).dtype))


class TestRunners:
    def test_outputs_are_sorted_canonical_subset(self, small_cosine):
        pairs = small_cosine.allpairs(0.5)
        cfg = SearchConfig("cosine", 0.5, seed=small_cosine.seed)
        out, _ = bayeslsh_run(small_cosine.corpus, pairs, cfg, store=small_cosine.store())
        keys = [(p.i, p.j) for p in out]
        assert keys == sorted(keys)
        assert all(p.i < p.j for p in out)
        assert set(keys) <= {(int(i), int(j)) for i, j in pairs}

    def test_parallel_worker_count_does_not_change_output(self, small_cosine):
        pairs = small_cosine.allpairs(0.5)
        outs = []
        for workers in (1, 4):
            cfg = SearchConfig("cosine", 0.5, seed=small_cosine.seed, parallel=workers)
            outs.append(
                bayeslsh_run(small_cosine.corpus, pairs, cfg, store=small_cosine.store())
            )
        np.testing.assert_array_equal(outs[0][0], outs[1][0])
        assert outs[0][1] == outs[1][1]

    def test_lite_emits_exact_similarities_above_threshold(self, small_jaccard):
        pairs = np.array(sorted(small_jaccard.truth(0.0)), dtype=np.int64)[:2000]
        cfg = SearchConfig("jaccard", 0.6, seed=small_jaccard.seed)
        out, stats = bayeslsh_lite_run(
            small_jaccard.corpus, pairs, cfg, store=small_jaccard.store(512)
        )
        assert stats.candidates == len(pairs)
        for p in out:
            assert p.exact
            sim = exact_similarity(small_jaccard.corpus, p.i, p.j)
            assert p.estimate == sim
            assert sim > cfg.threshold
        assert stats.survivors

    def test_zero_lite_budget_matches_exact_run(self, small_cosine):
        pairs = small_cosine.allpairs(0.6)
        cfg = SearchConfig(
            "cosine", 0.6, lite_hashes=0, seed=small_cosine.seed, verifier="bayeslsh-lite"
        )
        lite, lite_stats = bayeslsh_lite_run(small_cosine.corpus, pairs, cfg)
        exact, exact_stats = exact_run(small_cosine.corpus, pairs, cfg)
        np.testing.assert_array_equal(lite, exact)
        assert lite_stats == exact_stats

    def test_exact_run_equals_truth(self, small_cosine):
        pairs = small_cosine.allpairs(0.6)
        cfg = SearchConfig("cosine", 0.6, verifier="exact")
        out, _ = exact_run(small_cosine.corpus, pairs, cfg)
        assert {(p.i, p.j) for p in out} == small_cosine.truth(0.6)
        for p in out:
            assert p.estimate == pytest.approx(small_cosine.sims([(p.i, p.j)])[0], abs=1e-12)

    def test_lsh_approx_recomputes_ml_estimates(self, small_cosine):
        pairs = small_cosine.allpairs(0.5)
        cfg = SearchConfig("cosine", 0.5, fixed_hashes=512, seed=small_cosine.seed)
        store = small_cosine.store()
        out, _ = lsh_approx_run(small_cosine.corpus, pairs, cfg, store=store)
        counts = store.count_matches_bulk(pairs, 0, 512)
        expected = []
        for (i, j), m in zip(pairs, counts):
            est = inference.CosinePosterior().map_estimate(int(m), 512)
            if est >= cfg.threshold:
                expected.append((int(i), int(j), est))
        got = [(p.i, p.j, p.estimate) for p in out]
        assert got == sorted(expected)
        assert all(not p.exact for p in out)

    def test_lsh_approx_jaccard_uses_match_fraction(self, small_jaccard):
        pairs = np.array(sorted(small_jaccard.truth(0.5)), dtype=np.int64)
        cfg = SearchConfig("jaccard", 0.5, fixed_hashes=256, seed=small_jaccard.seed)
        store = small_jaccard.store(512)
        out, _ = lsh_approx_run(small_jaccard.corpus, pairs, cfg, store=store)
        assert len(out)
        for p in out:
            m = store.count_matches(p.i, p.j, 0, 256)
            assert p.estimate == inference.ml_estimate(m, 256)

    @pytest.mark.parametrize("measure", ["jaccard", "cosine"])
    def test_lsh_approx_never_materialises_a_bruteforce_list(
        self, small_cosine, small_jaccard, monkeypatch, measure
    ):
        bundle = small_cosine if measure == "cosine" else small_jaccard
        cfg = SearchConfig(measure, 0.5, verifier="lsh-approx", seed=bundle.seed)
        enumerated = bruteforce_generate(len(bundle.corpus))
        materialised = np.asarray(enumerated)

        def refuse(pairs, dtype=None, copy=None):
            raise AssertionError("the brute-force list was materialised")

        monkeypatch.setattr(type(enumerated), "__array__", refuse)
        got, stats = lsh_approx_run(bundle.corpus, enumerated, cfg, store=bundle.store())
        assert len(got)
        want, want_stats = lsh_approx_run(bundle.corpus, materialised, cfg, store=bundle.store())
        np.testing.assert_array_equal(got, want)
        assert stats == want_stats

    def test_runners_sort_what_they_are_given(self, small_cosine):
        corpus, pairs = small_cosine.corpus, small_cosine.allpairs(0.5)
        shuffled = pairs[np.random.default_rng(0).permutation(len(pairs))]
        cfg = SearchConfig("cosine", 0.5, seed=small_cosine.seed)
        runners = [lambda p: bayeslsh_run(corpus, p, cfg, store=small_cosine.store()),
                   lambda p: bayeslsh_lite_run(corpus, p, cfg, store=small_cosine.store()),
                   lambda p: lsh_approx_run(corpus, p, cfg, store=small_cosine.store()),
                   lambda p: exact_run(corpus, p, cfg)]
        for run in runners:
            want, got = run(pairs)[0], run(shuffled)[0]
            assert len(want)
            np.testing.assert_array_equal(got, want)

    def test_lsh_approx_keeps_an_estimate_equal_to_the_threshold(self, small_jaccard, monkeypatch):
        # 180 of 360 hashes give the ML estimate 0.5, which reaches t = 0.5
        pairs = np.array([[0, 1], [2, 3]], dtype=np.int64)
        monkeypatch.setattr(SignatureStore, "count_matches_bulk",
                            lambda store, p, lo, hi: np.array([180, 179])[: len(p)])
        cfg = SearchConfig("jaccard", 0.5, fixed_hashes=360, seed=small_jaccard.seed)
        store = small_jaccard.store(512)
        out, stats = lsh_approx_run(small_jaccard.corpus, pairs, cfg, store=store)
        assert [(p.i, p.j, p.estimate) for p in out] == [(0, 1, 0.5)]
        assert stats.survivors == {360: 1}


class TestPriorFitting:
    def test_empty_candidates_fall_back_to_uniform(self, small_jaccard):
        empty = np.zeros((0, 2), dtype=np.int64)
        assert fit_candidate_prior(small_jaccard.corpus, empty, 0) == inference.UNIFORM_PRIOR

    def test_small_candidate_list_uses_every_pair(self, small_jaccard):
        pairs = np.array(sorted(small_jaccard.truth(0.3)), dtype=np.int64)[:200]
        got = fit_candidate_prior(small_jaccard.corpus, pairs, seed=1)
        sims = [exact_similarity(small_jaccard.corpus, int(i), int(j)) for i, j in pairs]
        want = inference.fit_beta_mom(sims)
        assert got.alpha == pytest.approx(want.alpha, rel=1e-6)
        assert got.beta == pytest.approx(want.beta, rel=1e-6)


class TestExactComputed:
    def test_exact_run_counts_every_candidate(self, small_cosine):
        pairs = small_cosine.allpairs(0.6)
        cfg = SearchConfig("cosine", 0.6, verifier="exact")
        _, stats = exact_run(small_cosine.corpus, pairs, cfg)
        assert stats.exact_computed == len(pairs) > 0

    def test_cosine_bayeslsh_computes_none(self, small_cosine):
        pairs = small_cosine.allpairs(0.6)
        cfg = SearchConfig("cosine", 0.6, seed=small_cosine.seed)
        _, stats = bayeslsh_run(
            small_cosine.corpus, pairs, cfg, store=small_cosine.store()
        )
        assert stats.exact_computed == 0

    @pytest.mark.parametrize("count", [500, None])
    def test_jaccard_bayeslsh_counts_the_prior_sample(self, small_jaccard, count):
        pairs = bruteforce_generate(len(small_jaccard.corpus))[:count]
        cfg = SearchConfig("jaccard", 0.7, seed=small_jaccard.seed)
        _, stats = bayeslsh_run(
            small_jaccard.corpus, pairs, cfg, store=small_jaccard.store()
        )
        assert stats.exact_computed == min(search._PRIOR_SAMPLE_CAP, len(pairs))

    def test_jaccard_lite_adds_its_survivors(self, small_jaccard):
        pairs = np.array(sorted(small_jaccard.truth(0.0)), dtype=np.int64)[:2000]
        cfg = SearchConfig("jaccard", 0.6, seed=small_jaccard.seed)
        _, stats = bayeslsh_lite_run(
            small_jaccard.corpus, pairs, cfg, store=small_jaccard.store()
        )
        survivors = stats.survivors[cfg.lite_hashes]
        assert 0 < survivors < len(pairs)
        assert stats.exact_computed == len(pairs) + survivors


class TestSurvivorCounts:
    def test_counts_follow_prune_boundaries(self):
        # two pairs pruned at 32, one at 64
        counts = _survivor_counts([2, 1, 0], total=5, k=32)
        assert counts == {32: 3, 64: 2, 96: 2}

    def test_no_pruning_keeps_everyone(self):
        counts = _survivor_counts([0, 0], total=4, k=64)
        assert counts == {64: 4, 128: 4}


class TestRunSearch:
    def test_measure_mode_mismatch_rejected(self, small_jaccard):
        cfg = SearchConfig("cosine", 0.7)
        with pytest.raises(UnsupportedMeasure):
            run_search(small_jaccard.corpus, cfg)

    @pytest.mark.parametrize("generator", ["lsh", "allpairs"])
    def test_pipeline_finds_planted_pairs(self, small_cosine, generator):
        cfg = SearchConfig(
            "cosine", 0.7, generator=generator, seed=small_cosine.seed, parallel=2
        )
        result = run_search(small_cosine.corpus, cfg)
        truth = small_cosine.truth(0.7)
        got = {(p.i, p.j) for p in result.pairs}
        assert truth
        assert len(got & truth) / len(truth) >= 0.9
        assert result.stats.candidates >= result.stats.emitted == len(result.pairs)
        assert set(result.stats.timings) == {"signatures", "generation", "verification"}

    def test_jaccard_lite_pipeline_has_no_false_positives(self, small_jaccard):
        cfg = SearchConfig(
            "jaccard", 0.7, generator="lsh", verifier="bayeslsh-lite",
            seed=small_jaccard.seed,
        )
        result = run_search(small_jaccard.corpus, cfg)
        truth = small_jaccard.truth(0.7)
        got = {(p.i, p.j) for p in result.pairs}
        assert got <= truth
        assert len(got & truth) / len(truth) >= 0.9
        assert result.stats.prior is not None

    def test_fresh_verification_hashes_is_deterministic(self, small_cosine):
        cfg = SearchConfig(
            "cosine", 0.7, seed=small_cosine.seed, fresh_verification_hashes=True
        )
        a = run_search(small_cosine.corpus, cfg)
        b = run_search(small_cosine.corpus, cfg)
        np.testing.assert_array_equal(a.pairs, b.pairs)
        assert a.stats.candidates == b.stats.candidates

    def test_hashing_is_its_own_stage(self, small_cosine, monkeypatch):
        # every hash extension sleeps, so hashing booked to the wrong stage shows
        pause, calls = 0.05, []
        extend = SignatureStore._extend_cosine

        def slow(store, b, rows):
            calls.append(store)
            time.sleep(pause)
            extend(store, b, rows)

        monkeypatch.setattr(SignatureStore, "_extend_cosine", slow)
        cfg = SearchConfig("cosine", 0.7, seed=small_cosine.seed, fresh_verification_hashes=True)
        t0 = time.perf_counter()
        timings = run_search(small_cosine.corpus, cfg).stats.timings
        wall = time.perf_counter() - t0
        assert list(timings) == ["signatures", "generation", "verification"]
        assert len(set(map(id, calls))) == 2  # the banding and the verification store
        assert timings["signatures"] >= pause * len(calls)
        assert timings["generation"] >= 0 and timings["verification"] >= 0
        assert wall - 0.05 < sum(timings.values()) <= wall

    def test_hash_evals_cover_only_live_rows(self, bundles):
        corpus = bundles(0).corpus
        cfg = SearchConfig("cosine", 0.7, seed=0)
        store = SignatureStore(corpus, cfg.seed, cfg.max_hashes)
        pairs = generate_candidates(corpus, cfg, store)
        bayeslsh_run(corpus, pairs, cfg, store)
        used = int(store.row_hashes.max())
        assert store.hash_evals == int(store.row_hashes.sum())
        assert store.hash_evals < len(corpus) * used
        stats = run_search(corpus, cfg).stats
        assert stats.hash_evals == store.hash_evals

    def test_hash_evals_of_a_search_pruned_at_the_first_batch(self, jaccard_acceptance):
        corpus = jaccard_acceptance.corpus
        cfg = SearchConfig("jaccard", 0.7, generator="bruteforce", seed=0)
        stats = run_search(corpus, cfg).stats
        assert stats.survivors[cfg.batch_hashes] == 0
        # jaccard rows are extended to exactly the hashes the first batch reads
        assert stats.hash_evals == len(corpus) * cfg.batch_hashes

    @pytest.mark.parametrize("scale", ["1e-200", "1e200"])
    def test_extreme_weight_scales_normalize_and_search_alike(self, tmp_path, scale):
        # every true cosine is 0.5; the sums of squares of a and b under- or overflow
        path = tmp_path / "c.tsv"
        path.write_text(f"a\t1:{scale} 2:{scale}\nb\t1:{scale} 3:{scale}\nc\t2:1 3:1\n")
        corpus = load_corpus(path, COSINE_WEIGHTED)
        np.testing.assert_allclose([v.norm() for v in corpus.vectors], 1.0, rtol=0, atol=1e-12)
        for generator in ("lsh", "allpairs", "bruteforce"):
            result = run_search(corpus, SearchConfig("cosine", 0.3, generator=generator))
            assert [(p.i, p.j) for p in result.pairs] == [(0, 1), (0, 2), (1, 2)], generator

    @pytest.mark.parametrize("verifier", ["bayeslsh", "bayeslsh-lite"])
    def test_jaccard_bruteforce_search_is_the_same_without_the_index(
        self, small_jaccard, monkeypatch, verifier
    ):
        corpus = small_jaccard.corpus
        cfg = SearchConfig("jaccard", 0.5, generator="bruteforce", verifier=verifier,
                           seed=small_jaccard.seed)
        built = []
        original = SignatureStore.match_index

        def spy(store, lo, hi, limit):
            built.append(original(store, lo, hi, limit))
            return built[-1]

        monkeypatch.setattr(SignatureStore, "match_index", spy)
        on = run_search(corpus, cfg)
        assert len(built) == 1 and built[0] is not None
        monkeypatch.setattr(SignatureStore, "match_index", lambda store, lo, hi, limit: None)
        off = run_search(corpus, cfg)
        assert len(on.pairs) and results_to_tsv(corpus, on) == results_to_tsv(corpus, off)
        for name in ("candidates", "emitted", "survivors", "hash_evals", "exact_computed", "prior"):
            assert getattr(on.stats, name) == getattr(off.stats, name)

    @pytest.mark.parametrize("measure", ["jaccard", "cosine"])
    @pytest.mark.parametrize("verifier", ["bayeslsh", "bayeslsh-lite"])
    def test_enumerated_and_materialised_bruteforce_lists_search_alike(
        self, small_cosine, small_jaccard, monkeypatch, measure, verifier
    ):
        bundle = small_cosine if measure == "cosine" else small_jaccard
        cfg = SearchConfig(measure, 0.5, generator="bruteforce", verifier=verifier,
                           seed=bundle.seed)
        enumerated = run_search(bundle.corpus, cfg)
        original = search.cand_mod.bruteforce_generate
        monkeypatch.setattr(search.cand_mod, "bruteforce_generate",
                            lambda n: np.asarray(original(n)))
        materialised = run_search(bundle.corpus, cfg)
        assert len(enumerated.pairs)
        assert (results_to_tsv(bundle.corpus, enumerated)
                == results_to_tsv(bundle.corpus, materialised))
        for name in vars(enumerated.stats):
            if name != "timings":
                assert getattr(enumerated.stats, name) == getattr(materialised.stats, name), name
        stats = enumerated.stats
        assert (sum(stats.pruned.values()) + sum(stats.stopped.values()) + stats.low_confidence
                == stats.candidates == len(bundle.corpus) * (len(bundle.corpus) - 1) // 2)
        assert list(stats.pruned) == list(stats.stopped) == list(stats.survivors)

    def test_jaccard_bruteforce_search_allocates_little(self, jaccard_acceptance):
        # the 1,999,000 candidates are enumerated, never stored, and only the
        # pairs passing the first batch carry verdicts: the parent of this
        # bound allocated about 91 MiB at its peak
        corpus = jaccard_acceptance.corpus
        cfg = SearchConfig("jaccard", 0.7, generator="bruteforce", verifier="bayeslsh")
        run_search(corpus, cfg)
        tracemalloc.start()
        try:
            assert run_search(corpus, cfg).stats.candidates == 1_999_000
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_generate_candidates_dispatch(self, small_cosine):
        cfg = SearchConfig("cosine", 0.7, generator="bruteforce")
        n = len(small_cosine.corpus)
        assert len(generate_candidates(small_cosine.corpus, cfg)) == n * (n - 1) // 2

    @pytest.mark.parametrize("mode, text, generator, want", [
        # minhash refuses the empty set c, and an empty file has no dimension to hash
        (JACCARD, "a\t1 2\nb\t2 3\nc\t\n", "bruteforce", [(0, 1, 1 / 3)]),
        (COSINE_WEIGHTED, "", "bruteforce", []),
        (COSINE_WEIGHTED, "", "allpairs", []),
    ])
    def test_a_search_that_never_hashes_builds_no_store(self, tmp_path, mode, text,
                                                          generator, want):
        path = tmp_path / "c.tsv"
        path.write_text(text)
        corpus = load_corpus(path, mode)
        cfg = SearchConfig(measure_for_mode(mode), 0.3,
                           generator=generator, verifier="exact")
        result = run_search(corpus, cfg)
        assert [(p.i, p.j, p.estimate) for p in result.pairs] == want
        assert result.stats.hash_evals == 0
        assert result.stats.timings["signatures"] == 0.0

    @pytest.mark.parametrize("verifier", search.VERIFIERS)
    @pytest.mark.parametrize("generator", ["lsh", "bruteforce"])
    @pytest.mark.parametrize("mode", [COSINE_BINARY, COSINE_WEIGHTED])
    def test_a_pair_of_empty_vectors_is_never_emitted(self, mode, generator, verifier):
        # two empty rows share the all-ones signature, but their similarity is 0:
        # every pair touching them is pruned at the first boundary, and the rest
        # of the search is as it is without them
        whole = generate_synthetic(200, 2000, [(20, 0.8)], seed=3, mode=mode)
        empty = SparseVector(np.zeros(0, dtype=np.int64), np.zeros(0))
        plain = Corpus(whole.ids, whole.vectors, mode, dim=whole.dim)
        padded = Corpus(whole.ids + ["e1", "e2"], whole.vectors + [empty, empty], mode,
                        dim=whole.dim)
        cfg = SearchConfig("cosine", 0.7, generator=generator, verifier=verifier, seed=3)
        want, got = run_search(plain, cfg), run_search(padded, cfg)
        assert len(want.pairs)
        np.testing.assert_array_equal(got.pairs, want.pairs)
        touching = got.stats.candidates - want.stats.candidates
        assert touching >= (1 if generator == "lsh" else 2 * 200 + 1)
        if verifier != "exact":
            k = min(got.stats.pruned)
            assert got.stats.pruned[k] - want.stats.pruned[k] == touching

    def test_exact_run_never_materialises_a_bruteforce_list(self, bundles, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the whole brute-force list was built")

        monkeypatch.setattr(BruteforcePairs, "__array__", refuse)
        bundle = bundles(0)
        out, stats = exact_run(bundle.corpus, bruteforce_generate(2000),
                               SearchConfig("cosine", 0.7, verifier="exact"))
        assert stats.exact_computed == 1_999_000
        assert {(p.i, p.j) for p in out} == bundle.truth(0.7)

    def test_exact_verification_and_eval_scoring_allocate_one_chunk(self, bundles,
                                                                     monkeypatch):
        # the 1,999,000 pairs take 30.5 MiB as one (M, 2) array, and the
        # 2,000 x 2,000 similarity matrix as much; a 2^14-pair chunk is 0.25 MiB
        monkeypatch.setattr(search.corpus_mod, "_ABOVE_CHUNK", 1 << 14)
        corpus = bundles(0).corpus
        cfg = SearchConfig("cosine", 0.7, verifier="exact")
        out, _ = exact_run(corpus, bruteforce_generate(2000), cfg)
        rows = np.column_stack([out.i, out.j])
        for run in (lambda: exact_run(corpus, bruteforce_generate(2000), cfg),
                    lambda: cli._score(corpus, 0.7, rows, out.estimate)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 12 * 2**20


def test_jaccard_search_resident_growth_with_scipy_sparse():
    # exact similarity is a scipy.sparse product, so a jaccard search imports
    # scipy.sparse; importing it and running one small jaccard search grew
    # the resident set by about 5.4 MB (3.8 MB of it the search itself)
    code = (
        "import os, sys\n"
        "import bayeslsh.cli\n"
        "from bayeslsh.corpus import JACCARD, generate_synthetic\n"
        "from bayeslsh.search import SearchConfig, run_search\n"
        "def rss_mb():\n"
        "    with open('/proc/self/statm') as fh:\n"
        "        return int(fh.read().split()[1]) * os.sysconf('SC_PAGE_SIZE') / 2**20\n"
        "assert 'scipy.sparse' not in sys.modules\n"
        "before = rss_mb()\n"
        "c = generate_synthetic(200, 2000, [(10, 0.8)], seed=1, mode=JACCARD)\n"
        "cfg = SearchConfig('jaccard', 0.7, generator='bruteforce', verifier='bayeslsh')\n"
        "assert run_search(c, cfg).stats.exact_computed > 0\n"
        "assert 'scipy.sparse' in sys.modules\n"
        "print(rss_mb() - before)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=env
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert float(proc.stdout) < 8.0


def test_cosine_search_does_not_import_scipy_stats():
    # the posterior tails come from scipy.special; importing scipy.stats
    # would add more than a second to every CLI start
    code = (
        "import sys\n"
        "import bayeslsh.cli\n"
        "from bayeslsh.corpus import COSINE_WEIGHTED, generate_synthetic\n"
        "from bayeslsh.search import SearchConfig, run_search\n"
        "c = generate_synthetic(200, 2000, [(10, 0.8)], seed=1, mode=COSINE_WEIGHTED)\n"
        "assert run_search(c, SearchConfig('cosine', 0.7)).stats.candidates > 0\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=env
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.strip() == "False"


# sha256 of results_to_tsv after run_search at t = 0.7 on the seed-0
# acceptance corpora (cosine-weighted and jaccard); a change that alters
# output on purpose updates these and lists the new digests in CHANGES.md
_PINNED_TSV_SHA256 = {
    ("cosine", "lsh", "bayeslsh"):
        "310b42062c7c66c70b166245b4fe407a36a66fd76839e16343654f81d10a4a46",
    ("cosine", "lsh", "bayeslsh-lite"):
        "5ec8a7448ce31d85f946c04e2382fe133595aff29ceb32d9faba93d8d8e9051b",
    ("cosine", "lsh", "lsh-approx"):
        "4fcf95eedabbc1a8024967f19d476f83ff672eb601cbed673826d7ea08a013b2",
    ("cosine", "lsh", "exact"):
        "85dd2a491bf1e7097d72d9dfdcd754aadeaef152dc4b7d1ffca2adf444877474",
    ("cosine", "allpairs", "bayeslsh"):
        "b566b40e371fc8e0d4518a65f8046c954a0a6744f9f0c1d82a47471c7ee05381",
    ("cosine", "allpairs", "bayeslsh-lite"):
        "cec297a3392f897b14a8eeacce5e549e95a20ca68ad6132a34d04877ed9c5432",
    ("cosine", "allpairs", "lsh-approx"):
        "3515db7f01c306e345d65df1307d6e25c6c5d3b1f9377f16dcbce996263caa51",
    ("cosine", "allpairs", "exact"):
        "3ec462218e917cf8556786be9d30bd7ace02993c1c7e6226038235638d3d9403",
    ("cosine", "bruteforce", "bayeslsh"):
        "dc83f0e5c2e61238b4b4695d0f214c68e970069f92717861269411a77d05f3a3",
    ("cosine", "bruteforce", "bayeslsh-lite"):
        "5ff15c95e675f95e2fec19909099d0a121b86d9cd931ebdcaf28b96a8f74f175",
    ("cosine", "bruteforce", "lsh-approx"):
        "21802a09d3c951ca7cf8aba073e0b85a7751e63f5cee09a6f31765263c8bb663",
    ("cosine", "bruteforce", "exact"):
        "df1871a06fbd8b35ed38c4aadb26c2cd58f13aa1b4d0c12f2770f9e6a6f23fc6",
    ("jaccard", "lsh", "bayeslsh"):
        "ab15079c854ebe88235a9fcbdcbc74eff17721e8af1b619423202f0e7a6859a4",
    ("jaccard", "lsh", "bayeslsh-lite"):
        "08704642d4adf920dacc0a301dd90193c9ccbbe2870828bec599a8b1f19101cc",
    ("jaccard", "lsh", "lsh-approx"):
        "b6f4503867f3d0dd5f1d3c59b18b741776da4cedf4b76d37bdc7a869401b3cff",
    ("jaccard", "lsh", "exact"):
        "fbc0dfd3a3323fe1e270bad973d52dea06b51523b22c4bb2631105e147d88d33",
    ("jaccard", "bruteforce", "bayeslsh"):
        "d384a86c95fdef42c22bfbf4bde8f5177f183e7b09adb2934fc033d0d880967c",
    ("jaccard", "bruteforce", "bayeslsh-lite"):
        "b4e1b293dd1a396f48fe5c3ed65fa78aa1d27c6f987b436297a370dd5d14b2e7",
    ("jaccard", "bruteforce", "lsh-approx"):
        "705c85b199756c3631ef2016bc98146e2683c578752d454aaba4ab661bacfe39",
    ("jaccard", "bruteforce", "exact"):
        "dcaa667a645f662f2650923612fc5e06beae2c489a15294603d3723efe31b7c1",
}


@pytest.fixture(scope="module")
def jaccard_acceptance(bundles) -> CorpusBundle:
    return bundles(0, JACCARD)


@pytest.mark.parametrize("measure, generator, verifier", list(_PINNED_TSV_SHA256))
def test_results_tsv_digest_is_pinned(bundles, jaccard_acceptance, measure, generator, verifier):
    corpus = bundles(0).corpus if measure == "cosine" else jaccard_acceptance.corpus
    cfg = SearchConfig(measure, 0.7, generator=generator, verifier=verifier, seed=0)
    tsv = results_to_tsv(corpus, run_search(corpus, cfg))
    digest = hashlib.sha256(tsv.encode()).hexdigest()
    assert digest == _PINNED_TSV_SHA256[measure, generator, verifier]


class TestResultsToTsv:
    def test_bulk_format_matches_a_per_row_format_on_edge_values(self):
        estimates = [0.0, 1.0, 5e-324, 1e-300, 0.1 + 0.2, 1 / 3, 2 / 3, 0.12345678905,
                     0.99999999995, 0.7]
        ids = ["a", "b\u00e9\u65e5\u672c", "c"]
        vectors = [SparseVector([1, 2], [1.0, 1.0]), SparseVector([2], [1.0]),
                   SparseVector([3], [1.0])]
        corpus = Corpus(ids, vectors, COSINE_WEIGHTED)
        rows = [((0, 1), (0, 2), (1, 2))[k % 3] + (est, k % 2 == 0, k % 3 == 0)
                for k, est in enumerate(estimates)]
        result = SearchResult(np.rec.array(rows, dtype=PAIR_DTYPE),
                              SearchStats(candidates=3, emitted=len(rows)),
                              SearchConfig("cosine", 0.7))
        lines = results_to_tsv(corpus, result).splitlines()[7:]
        assert lines == [f"{ids[i]}\t{ids[j]}\t{est:.10g}\t{int(exact)}\t{int(low)}"
                         for i, j, est, exact, low in rows]

    def test_format(self):
        corpus = generate_synthetic(3, 50, [], seed=0, mode=COSINE_WEIGHTED)
        cfg = SearchConfig("cosine", 0.7, seed=9)
        result = SearchResult(
            np.rec.array([(0, 2, 0.75, False, False), (1, 2, 0.875, True, True)],
                         dtype=PAIR_DTYPE),
            SearchStats(candidates=3, emitted=2),
            cfg,
        )
        text = results_to_tsv(corpus, result)
        lines = text.splitlines()
        assert lines[0] == "# similarity search results"
        assert lines[1] == "# measure\tcosine"
        assert lines[2] == "# threshold\t0.7"
        assert lines[5] == "# seed\t9"
        assert lines[6] == "# id_i\tid_j\testimate\texact\tlow_confidence"
        assert lines[7] == f"{corpus.ids[0]}\t{corpus.ids[2]}\t0.75\t0\t0"
        assert lines[8] == f"{corpus.ids[1]}\t{corpus.ids[2]}\t0.875\t1\t1"
        assert text.endswith("\n")
