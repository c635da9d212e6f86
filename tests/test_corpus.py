"""Corpus parsing, exact similarity, tf-idf, and synthetic generation."""

import gzip
import hashlib
import math

import numpy as np
import pytest

from bayeslsh import corpus as corpus_mod
from bayeslsh.candidates import bruteforce_generate
from bayeslsh.corpus import (
    COSINE_BINARY,
    COSINE_WEIGHTED,
    JACCARD,
    MODES,
    Corpus,
    SparseVector,
    exact_above,
    exact_similarities,
    exact_similarity,
    generate_synthetic,
    load_corpus,
    serialize_corpus,
    tfidf_weight,
)
from bayeslsh.errors import ParseError
from conftest import ACCEPTANCE_PLANTED
from oracles import (
    cosine_exact,
    dense_similarity,
    exact_scatter_loop,
    jaccard_exact,
    tfidf_loop,
)


def _write(tmp_path, text, name="c.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _per_line(path, mode):
    """(ids, indptr, features, weights) of a file read by the per-line parser alone."""
    with corpus_mod._open_text(path, "r") as fh:
        ids, sizes, features, weights = corpus_mod._parse_lines(fh, mode, 1, set())
    return ids, corpus_mod._indptr(sizes), features, weights


def _outcome(parse, path, mode):
    """What parsing `path` gives: the loaded arrays as lists, or the error raised."""
    try:
        got = parse(path, mode)
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(got, Corpus):
        got = (got.ids, *got.flat())
    return got[0], *(a.tolist() for a in got[1:])


def _assert_loads_equal(corpus, want):
    ids, indptr, features, weights = want
    assert corpus.ids == ids
    for got, expected in zip(corpus.flat(), (indptr, features, weights)):
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


def vec(*entries):
    if entries and isinstance(entries[0], tuple):
        feats, weights = zip(*entries)
        return SparseVector(np.array(feats), np.array(weights, dtype=float))
    return SparseVector(np.array(entries), np.ones(len(entries)))


class TestLoadCorpus:
    def test_weighted_line_is_normalized(self, tmp_path):
        c = load_corpus(_write(tmp_path, "a\t1:2.0 3:1.0\n"), COSINE_WEIGHTED)
        assert c.ids == ["a"]
        np.testing.assert_array_equal(c[0].features, [1, 3])
        np.testing.assert_allclose(c[0].weights, [2 / math.sqrt(5), 1 / math.sqrt(5)])

    def test_binary_line_sorted_unit_weights(self, tmp_path):
        c = load_corpus(_write(tmp_path, "b\t3 1 2\n"), JACCARD)
        np.testing.assert_array_equal(c[0].features, [1, 2, 3])
        np.testing.assert_array_equal(c[0].weights, [1.0, 1.0, 1.0])

    def test_empty_file(self, tmp_path):
        c = load_corpus(_write(tmp_path, ""), COSINE_WEIGHTED)
        assert len(c) == 0

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        c = load_corpus(_write(tmp_path, "# header\n\na\t1:1.0\n"), COSINE_WEIGHTED)
        assert c.ids == ["a"]

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "c.tsv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("a\t1 2\n")
        assert load_corpus(path, JACCARD).ids == ["a"]

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("a\t1:2.0\nb\tnope\n", 2),
            ("a\t1:x\n", 1),
            ("a\t1:1.0 1:2.0\n", 1),
            ("a\t-1:1.0\n", 1),
            ("a\t1:0.0\n", 1),
            ("a\t1:1.0\na\t2:1.0\n", 2),
            # hazards for the bulk parser only; lineno None: the file loads
            ("a\t1e3:0.5\n", 1),
            ("a\t+5:1\n", None),
            ("a\t0x10:1\n", 1),
            ("a\t5:0x1p3\n", 1),
            ("a\t1_0:2\n", None),
            ("a\t5:1_0\n", None),
            ("a\t5:inf\n", 1),
            ("a\t5:nan\n", 1),
            ("a\t\uff11\uff12:1\n", None),
            ("a\t1:1\t2:1\n", None),
            ("a\t5:\t1\n", 1),
            ("a\t1:1  2:1\n", None),
            ("a\t1:1\r\nb\t2:1\r\n", None),
            ("a\t1:1 \n", None),
            ("a\t\nb\t2:1\n", None),
            ("a\t7 3 7\n", 1),
        ],
    )
    def test_malformed_lines_report_line_number(self, tmp_path, text, lineno):
        path = _write(tmp_path, text)
        for mode in MODES:
            assert _outcome(load_corpus, path, mode) == _outcome(_per_line, path, mode), mode
        if lineno is None:
            load_corpus(path, COSINE_WEIGHTED)
            return
        with pytest.raises(ParseError) as exc:
            load_corpus(path, COSINE_WEIGHTED)
        assert f"line {lineno}" in str(exc.value)

    @pytest.mark.parametrize("feature", [(1 << 63) - 1, 1 << 63, 10**20])
    @pytest.mark.parametrize("mode", MODES)
    def test_feature_beyond_int64_is_refused_with_its_line(self, tmp_path, mode, feature):
        entry = "{}:1" if mode == COSINE_WEIGHTED else "{}"
        body = " ".join(entry.format(f) for f in (feature, 5))
        path = _write(tmp_path, f"a\t{entry.format(1)}\nb\t{body}\n")
        assert _outcome(load_corpus, path, mode) == _outcome(_per_line, path, mode)
        if feature < 1 << 63:
            assert int(load_corpus(path, mode).features.max()) == feature
            return
        with pytest.raises(ParseError, match=f"line 2: feature {feature} exceeds 2\\^63 - 1"):
            load_corpus(path, mode)

    def test_weight_that_normalizes_to_zero_raises_as_line_by_line(self, tmp_path):
        path = _write(tmp_path, "a\t1:1\nb\t1:1e150 2:1e-200\n")
        got = _outcome(load_corpus, path, COSINE_WEIGHTED)
        assert got == _outcome(_per_line, path, COSINE_WEIGHTED)
        assert got == (ParseError, "line 2: a weight underflows to 0 when normalized")

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bulk_load_equals_per_line_parser(self, tmp_path, seed, mode):
        path = tmp_path / "corpus.tsv"
        serialize_corpus(generate_synthetic(2000, 20000, ACCEPTANCE_PLANTED, seed, mode), path)
        want = _per_line(path, mode)
        _assert_loads_equal(load_corpus(path, mode), want)
        if (seed, mode) == (0, JACCARD):
            gz = tmp_path / "corpus.tsv.gz"
            with gzip.open(gz, "wb") as fh:
                fh.write(path.read_bytes())
            _assert_loads_equal(load_corpus(gz, mode), want)

    def test_fault_in_a_later_slice_reports_its_file_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(corpus_mod, "_LOAD_SLICE", 4)
        # slices hold file lines 1-4, 5-8, 9-12 and 13-14; line 11 is replaced
        lines = ["# header", ""] + [f"v{k}\t{k}:1.5 {k + 1}:2" for k in range(12)]
        clean = _write(tmp_path, "\n".join(lines) + "\n", name="clean.tsv")
        _assert_loads_equal(load_corpus(clean, COSINE_WEIGHTED), _per_line(clean, COSINE_WEIGHTED))
        for bad, message in (("v2\t3:1", "line 11: duplicate vector id 'v2'"),
                             ("v7\t3:1", "line 11: duplicate vector id 'v7'"),
                             ("x\t3:-1", "line 11: non-positive weight '-1'")):
            path = _write(tmp_path, "\n".join(lines[:10] + [bad] + lines[11:]) + "\n")
            with pytest.raises(ParseError) as exc:
                load_corpus(path, COSINE_WEIGHTED)
            assert str(exc.value) == message

    def test_weight_token_rejected_in_binary_mode(self, tmp_path):
        with pytest.raises(ParseError):
            load_corpus(_write(tmp_path, "a\t1:1.0\n"), COSINE_BINARY)

    def test_binary_cosine_rows_are_normalized(self, tmp_path):
        c = load_corpus(_write(tmp_path, "a\t0 1 2 3\n"), COSINE_BINARY)
        assert c[0].norm() == pytest.approx(1.0)

    def test_round_trip(self, tmp_path):
        original = _write(
            tmp_path, "a\t1:2.0 3:1.0\nb\t2:5.0\nempty\t\n", name="orig.tsv"
        )
        c1 = load_corpus(original, COSINE_WEIGHTED)
        back = tmp_path / "back.tsv"
        serialize_corpus(c1, back)
        c2 = load_corpus(back, COSINE_WEIGHTED)
        assert c1.ids == c2.ids
        for v1, v2 in zip(c1.vectors, c2.vectors):
            np.testing.assert_array_equal(v1.features, v2.features)
            np.testing.assert_array_equal(v1.weights, v2.weights)


class TestSparseVector:
    def test_rejects_unsorted_features(self):
        with pytest.raises(ValueError):
            SparseVector(np.array([3, 1]), np.array([1.0, 1.0]))

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            SparseVector(np.array([1]), np.array([-0.5]))

    def test_jaccard_corpus_rejects_weighted_vectors(self):
        with pytest.raises(ValueError):
            Corpus(["a"], [vec((1, 2.0))], JACCARD)


class TestExactSimilarity:
    def test_cosine_identity(self):
        x = vec((1, 0.6), (2, 0.8))
        assert cosine_exact(x, x) == 1.0

    def test_cosine_disjoint(self):
        assert cosine_exact(vec((1, 1.0)), vec((2, 1.0))) == 0.0

    def test_cosine_partial_overlap(self):
        x = vec((1, 0.6), (2, 0.8))
        y = vec((2, 0.8), (3, 0.6))
        assert cosine_exact(x, y) == pytest.approx(0.64)

    def test_cosine_symmetry(self):
        x = vec((1, 0.6), (2, 0.8))
        y = vec((2, 0.8), (3, 0.6))
        assert cosine_exact(x, y) == cosine_exact(y, x)

    def test_cosine_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            cosine_exact(vec((1, 2.0)), vec((1, 1.0)))

    def test_jaccard_half(self):
        assert jaccard_exact(vec(1, 2, 3), vec(2, 3, 4)) == 0.5

    def test_jaccard_identity_and_disjoint(self):
        assert jaccard_exact(vec(1, 2), vec(1, 2)) == 1.0
        assert jaccard_exact(vec(1), vec(2)) == 0.0

    def test_jaccard_empty_pair_is_zero(self):
        assert jaccard_exact(vec(), vec()) == 0.0

    def test_jaccard_rejects_weighted(self):
        with pytest.raises(ValueError):
            jaccard_exact(vec((1, 2.0)), vec(1))

    @pytest.mark.parametrize("mode", [COSINE_WEIGHTED, JACCARD])
    def test_exact_above_matches_dense_oracle(self, mode):
        c = generate_synthetic(40, 200, [(5, 0.7)], seed=3, mode=mode)
        pairs, sims = exact_above(c, bruteforce_generate(len(c)), -1.0)
        np.testing.assert_array_equal(pairs, np.column_stack(np.triu_indices(len(c), 1)))
        np.testing.assert_allclose(sims, dense_similarity(c)[tuple(pairs.T)], atol=1e-12)



def _reference(mode):
    return jaccard_exact if mode == JACCARD else cosine_exact


class TestExactSimilarities:
    # blocks of 1 row, of 3 rows, and one block for all 40 rows (4096 // 40)
    @pytest.mark.parametrize("block", [7, 120, 4096])
    @pytest.mark.parametrize("mode", [COSINE_WEIGHTED, COSINE_BINARY, JACCARD])
    def test_batch_equals_per_pair_reference(self, mode, block, monkeypatch):
        monkeypatch.setattr(corpus_mod, "_EXACT_BLOCK", block)
        c = generate_synthetic(40, 300, [(5, 0.7)], seed=3, mode=mode)
        # every (i, j) with i <= j, so self pairs too
        pairs = np.stack(np.triu_indices(len(c)), axis=1)
        # reversed (j, i) rows and duplicated rows, in shuffled order
        pairs = np.concatenate([pairs, pairs[:, ::-1], pairs[:60]])
        pairs = pairs[np.random.default_rng(5).permutation(len(pairs))]
        got = exact_similarities(c, pairs)
        np.testing.assert_array_equal(got, exact_scatter_loop(c, pairs))
        want = [_reference(mode)(c[i], c[j]) for i, j in pairs]
        if mode == JACCARD:
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("block", [7, 120, 4096])
    @pytest.mark.parametrize("mode", [COSINE_WEIGHTED, JACCARD])
    def test_block_reads_each_pair_at_its_cell(self, mode, block, monkeypatch):
        # at 40 vectors: blocks of 1 i row, of 3 i rows, and one block for all;
        # i rows 3, 5 and 8 meet self pairs, reversed pairs (j < i), repeated
        # pairs and j = 5, an i of the same block, and later blocks reuse the
        # j rows 3, 5 and 30 of the first
        monkeypatch.setattr(corpus_mod, "_EXACT_BLOCK", block)
        c = generate_synthetic(40, 300, [(5, 0.7)], seed=3, mode=mode)
        pairs = np.array([
            [3, 3], [5, 3], [3, 5], [8, 8], [8, 3], [3, 5], [5, 30], [8, 5], [5, 5],
            [3, 30], [8, 5], [12, 5], [12, 30], [20, 3], [12, 12], [39, 0], [20, 5],
        ])
        np.testing.assert_array_equal(exact_similarities(c, pairs), exact_scatter_loop(c, pairs))

    @pytest.mark.parametrize("mode", [COSINE_WEIGHTED, JACCARD])
    def test_empty_vectors(self, mode, monkeypatch):
        full = vec((1, 0.6), (2, 0.8)) if mode == COSINE_WEIGHTED else vec(1, 2)
        c = Corpus(["e", "f", "x"], [vec(), vec(), full], mode)
        pairs = [[0, 1], [1, 0], [0, 0], [0, 2], [2, 1], [2, 2]]
        want = exact_scatter_loop(c, pairs)
        # blocks of 1 row, of 2 rows, and one block for all 3 rows
        for block in (1, 6, 4096):
            monkeypatch.setattr(corpus_mod, "_EXACT_BLOCK", block)
            got = exact_similarities(c, pairs)
            assert got[0] == 0.0
            np.testing.assert_array_equal(got, want)
        np.testing.assert_allclose(
            got, [_reference(mode)(c[i], c[j]) for i, j in pairs], rtol=0, atol=1e-12
        )

    def test_unnormalized_cosine_row_raises_like_cosine_exact(self):
        c = Corpus(["a", "b", "c"], [vec((1, 0.6), (2, 0.8)), vec((1, 2.0)), vec((2, 1.0))],
                   COSINE_WEIGHTED)
        # only the rows a call touches are checked
        assert exact_similarities(c, [[0, 2]]).tolist() == [0.8]
        with pytest.raises(ValueError) as batch:
            exact_similarities(c, [[0, 2], [2, 1]])
        with pytest.raises(ValueError) as scalar:
            cosine_exact(c[2], c[1])
        assert str(batch.value) == str(scalar.value) == "vector norm 2.000000000 deviates from 1"

    def test_weighted_jaccard_row_raises(self):
        c = Corpus(["a", "b"], [vec(1, 2), vec(2, 3)], JACCARD)
        c[1].weights[1] = 2.0  # a view: this writes into the corpus's flat weights
        with pytest.raises(ValueError, match="unit weights"):
            exact_similarities(c, [[0, 1]])

    @pytest.mark.parametrize("bad", [[0, 3], [-1, 0]])
    def test_out_of_range_index_raises(self, bad):
        c = Corpus(["a", "b", "c"], [vec(1), vec(2), vec(3)], JACCARD)
        with pytest.raises(IndexError):
            exact_similarities(c, [[0, 1], bad])

    def test_no_pairs(self):
        c = Corpus(["a"], [vec(1)], JACCARD)
        assert exact_similarities(c, np.zeros((0, 2), dtype=np.int64)).shape == (0,)

    @pytest.mark.parametrize("mode", [COSINE_WEIGHTED, COSINE_BINARY, JACCARD])
    def test_scalar_is_one_row_of_batch(self, mode):
        c = generate_synthetic(40, 300, [(5, 0.7)], seed=3, mode=mode)
        for i, j in [(0, 1), (3, 17), (17, 3), (5, 5)]:
            assert exact_similarity(c, i, j) == exact_similarities(c, [[i, j]])[0]

    # chunks of 7 pairs end mid-row; 4096 pairs are one chunk
    @pytest.mark.parametrize("chunk", [7, 4096])
    @pytest.mark.parametrize("mode", [COSINE_WEIGHTED, JACCARD])
    def test_exact_above_keeps_the_rows_strictly_above_in_order(self, mode, chunk,
                                                                 monkeypatch):
        monkeypatch.setattr(corpus_mod, "_ABOVE_CHUNK", chunk)
        c = generate_synthetic(40, 300, [(5, 0.7)], seed=3, mode=mode)
        every = np.column_stack(np.triu_indices(len(c), 1))
        shuffled = every[np.random.default_rng(1).permutation(len(every))]
        for pairs in (bruteforce_generate(len(c)), every, shuffled, shuffled.tolist()):
            sims = exact_similarities(c, np.asarray(pairs))
            for t in (0.0, 0.3, float(sims.max())):
                got_pairs, got = exact_above(c, pairs, t)
                np.testing.assert_array_equal(got_pairs, np.asarray(pairs)[sims > t])
                np.testing.assert_array_equal(got, sims[sims > t])
        none = exact_above(c, np.zeros((0, 2), dtype=np.int64), 0.5)
        assert none[0].shape == (0, 2) and none[1].shape == (0,)

    def test_csr_wraps_the_flat_layout(self):
        c = generate_synthetic(40, 300, [(5, 0.7)], seed=3)
        indptr, features, weights = c.flat()
        x = c.to_csr()
        np.testing.assert_array_equal(x.indptr, indptr)
        np.testing.assert_array_equal(x.indices, features)
        assert np.shares_memory(x.data, weights)


class TestTfidf:
    def test_formula_ratios_and_df_n_drop(self, tmp_path):
        # feature 9 in all 4 vectors (dropped); 10: tf=2, df=1; 11: tf=1,
        # df=1; 12: tf=1, df=2. Normalization preserves the tf*ln(N/df) ratios.
        text = (
            "a\t9:1 10:2 11:1 12:1\n"
            "b\t9:1 12:3\n"
            "c\t9:2\n"
            "d\t9:5\n"
        )
        with pytest.warns(UserWarning):  # c and d hold only the dropped feature
            c = tfidf_weight(load_corpus(_write(tmp_path, text), COSINE_WEIGHTED))
        a = c[0]
        np.testing.assert_array_equal(a.features, [10, 11, 12])
        w = dict(zip(a.features.tolist(), a.weights.tolist()))
        assert w[10] / w[11] == pytest.approx(2.0)  # 2 ln4 / ln4
        assert w[10] / w[12] == pytest.approx(2 * math.log(4) / math.log(2))
        assert a.norm() == pytest.approx(1.0)
        assert 9 not in a.features

    def test_single_vector_corpus_warns_and_empties(self, tmp_path):
        c = load_corpus(_write(tmp_path, "a\t1:1.0 2:2.0\n"), COSINE_WEIGHTED)
        with pytest.warns(UserWarning):
            out = tfidf_weight(c)
        assert len(out[0]) == 0

    def test_requires_weighted_mode(self, tmp_path):
        c = load_corpus(_write(tmp_path, "a\t1 2\n"), JACCARD)
        with pytest.raises(ValueError):
            tfidf_weight(c)

    def test_flat_reweighting_equals_per_vector_loop(self):
        c = generate_synthetic(300, 400, [(20, 0.8)], seed=4)
        got = tfidf_weight(c)
        want = tfidf_loop(c)
        assert got.ids == c.ids and got.dim == c.dim
        assert len(got) == len(want)
        for vec_got, (features, weights) in zip(got.vectors, want):
            np.testing.assert_array_equal(vec_got.features, features)
            np.testing.assert_array_equal(vec_got.weights, weights)


_PINNED_PLANTED = [(10, 0.55), (10, 0.75), (10, 0.95)]

# sha256 of serialize_corpus(generate_synthetic(300, 3000, _PINNED_PLANTED,
# seed, mode)); a change that alters the synthetic corpora on purpose
# updates these and says so in CHANGES.md
_PINNED_CORPUS_SHA256 = {
    ("cosine-weighted", 0): "067272bbc9d2ff8823aa6129c31949fe4f691b02e585d392d8968c1cd85bdec7",
    ("cosine-weighted", 1): "6e2b9cbf5f855174082e72de6c30e9d60af0e862636d962ef35422f0b64ca487",
    ("cosine-weighted", 2): "b82180983c87a945b9024d2775239ec8adaf52063cbe7c0b213003129258b805",
    ("cosine-binary", 0): "b89e81181a868905c2f286425ae9f9955778932d71e4d6f1b090371b231311c4",
    ("cosine-binary", 1): "3e25b259d19342fd9d9dbca4e182760a977d32e4d7429df975d2d95fd66b00c2",
    ("cosine-binary", 2): "6ee1908080ec89db8e1afaab6fd7cd4a09e02487b52b9b74280d1bfdaade42f4",
    ("jaccard", 0): "3f4254606d0309020b0366d481667c4df6ec39ce70cc4b7fecdff2f9657bd591",
    ("jaccard", 1): "074d9cfb6cebddd640fa83072530ddf2ebead6fc42d7f62f0702e398de17967f",
    ("jaccard", 2): "ba8ba853b129f24d6deb0e987668d8d49bfd4468679e3499548f6c3f96200331",
}


class TestGenerateSynthetic:
    def test_planted_cosine_targets(self):
        c = generate_synthetic(30, 400, [(10, 0.9)], seed=1, mode=COSINE_WEIGHTED)
        for k in range(10):
            sim = cosine_exact(c[2 * k], c[2 * k + 1])
            assert 0.88 <= sim <= 0.92

    def test_planted_jaccard_targets(self):
        c = generate_synthetic(30, 400, [(10, 0.6)], seed=1, mode=JACCARD)
        for k in range(10):
            assert jaccard_exact(c[2 * k], c[2 * k + 1]) == pytest.approx(0.6, abs=0.02)

    def test_planted_binary_cosine_targets(self):
        c = generate_synthetic(20, 400, [(5, 0.75)], seed=2, mode=COSINE_BINARY)
        for k in range(5):
            assert cosine_exact(c[2 * k], c[2 * k + 1]) == pytest.approx(0.75, abs=0.02)

    def test_background_pairs_dissimilar(self):
        c = generate_synthetic(2, 500, [], seed=0, mode=COSINE_WEIGHTED)
        assert cosine_exact(c[0], c[1]) < 0.3

    def test_same_seed_byte_identical(self, tmp_path):
        for name, seed in (("one.tsv", 5), ("two.tsv", 5)):
            serialize_corpus(
                generate_synthetic(25, 300, [(3, 0.8)], seed=seed, mode=COSINE_WEIGHTED),
                tmp_path / name,
            )
        assert (tmp_path / "one.tsv").read_bytes() == (tmp_path / "two.tsv").read_bytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("mode", MODES)
    def test_serialized_corpus_digest_is_pinned(self, tmp_path, mode, seed):
        # the benchmark builds its corpora with generate_synthetic, so a
        # change to any planted-pair or background draw shows up here
        path = tmp_path / "c.tsv"
        serialize_corpus(generate_synthetic(300, 3000, _PINNED_PLANTED, seed, mode), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == _PINNED_CORPUS_SHA256[mode, seed]

    def test_infeasible_target_names_group(self):
        with pytest.raises(ValueError, match="group"):
            generate_synthetic(4, 6, [(1, 0.999)], seed=0, mode=JACCARD)
