"""CLI behavior: output formats, round trips, exit codes."""

import argparse
import dataclasses
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from bayeslsh import corpus as corpus_mod
from bayeslsh.cli import _config_from_args, build_parser, main
from bayeslsh.corpus import MODES, measure_for_mode, tfidf_weight
from bayeslsh.search import SearchConfig


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def cosine_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "cosine.tsv"
    code = main(
        ["gen", str(path), "--n", "80", "--dim", "600",
         "--planted", "10x0.8", "--seed", "5"]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def jaccard_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "jaccard.tsv"
    code = main(
        ["gen", str(path), "--n", "80", "--dim", "600", "--mode", "jaccard",
         "--planted", "10x0.8", "--seed", "6"]
    )
    assert code == 0
    return path


class TestGen:
    def test_reproducible_and_echoes_seed(self, capsys, tmp_path):
        paths = [tmp_path / "a.tsv", tmp_path / "b.tsv"]
        for path in paths:
            code, _, err = _run(
                capsys,
                ["gen", str(path), "--n", "20", "--dim", "200", "--seed", "3"],
            )
            assert code == 0
            assert "# effective seed: 3" in err
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_bad_planted_spec(self, capsys, tmp_path):
        code, _, err = _run(
            capsys,
            ["gen", str(tmp_path / "x.tsv"), "--n", "10", "--dim", "50",
             "--planted", "10-0.8"],
        )
        assert code == 2
        assert "COUNTxSIM" in err


def _subparser(name):
    action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


class TestSearchConfigOptions:
    @pytest.mark.parametrize("mode", MODES)
    def test_options_left_out_keep_the_config_defaults(self, mode):
        args = build_parser().parse_args(["search", "c.tsv", "--mode", mode, "-t", "0.7"])
        assert _config_from_args(args) == SearchConfig(measure_for_mode(mode), 0.7)

    @pytest.mark.parametrize("command", ["search", "pruning-curve"])
    def test_every_config_field_but_measure_is_an_option(self, command):
        dests = {action.dest for action in _subparser(command)._actions}
        fields = {f.name for f in dataclasses.fields(SearchConfig)}
        assert fields - dests == {"measure"}

    def test_given_options_reach_their_fields(self):
        args = build_parser().parse_args(
            ["search", "c.tsv", "--mode", "jaccard", "-t", "0.6", "--epsilon", "0.1",
             "--max-hashes", "256", "--verifier", "exact", "--seed", "9",
             "--fresh-verification-hashes"]
        )
        assert _config_from_args(args) == SearchConfig(
            "jaccard", 0.6, epsilon=0.1, max_hashes=256, verifier="exact", seed=9,
            fresh_verification_hashes=True,
        )


class TestSearch:
    def test_stdout_tsv_shape(self, capsys, cosine_file):
        code, out, err = _run(
            capsys,
            ["search", str(cosine_file), "--mode", "cosine-weighted",
             "-t", "0.6", "--generator", "allpairs", "--seed", "7"],
        )
        assert code == 0
        assert "# effective seed: 7" in err
        lines = out.splitlines()
        headers = [ln for ln in lines if ln.startswith("#")]
        rows = [ln for ln in lines if not ln.startswith("#")]
        assert "# measure\tcosine" in headers
        assert "# threshold\t0.6" in headers
        assert "# id_i\tid_j\testimate\texact\tlow_confidence" in headers
        assert rows
        for row in rows:
            parts = row.split("\t")
            assert len(parts) == 5
            assert 0.0 <= float(parts[2]) <= 1.0

    def test_jaccard_lite_rows_are_exact(self, capsys, jaccard_file):
        code, out, _ = _run(
            capsys,
            ["search", str(jaccard_file), "--mode", "jaccard", "-t", "0.7",
             "--verifier", "bayeslsh-lite"],
        )
        assert code == 0
        rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert rows
        for row in rows:
            _, _, est, exact, low = row.split("\t")
            assert exact == "1" and low == "0"
            assert float(est) > 0.7

    def test_tfidf_flag(self, capsys, cosine_file):
        code, out, _ = _run(
            capsys,
            ["search", str(cosine_file), "--mode", "cosine-weighted",
             "-t", "0.5", "--tfidf", "--generator", "allpairs"],
        )
        assert code == 0
        assert "# similarity search results" in out

    def test_missing_corpus_is_input_error(self, capsys, tmp_path):
        code, _, err = _run(
            capsys,
            ["search", str(tmp_path / "nope.tsv"), "--mode", "jaccard", "-t", "0.7"],
        )
        assert code == 3
        assert "error:" in err

    def test_weight_that_normalizes_to_zero_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "tiny.tsv"
        path.write_text("a\t1:1\nb\t1:1e150 2:1e-200\n", encoding="utf-8")
        code, _, err = _run(
            capsys, ["search", str(path), "--mode", "cosine-weighted", "-t", "0.7"],
        )
        assert code == 3
        assert "line 2:" in err

    @pytest.mark.parametrize("mode", ["cosine-binary", "cosine-weighted"])
    def test_feature_beyond_int64_is_input_error(self, capsys, tmp_path, mode):
        entry = "{}:1" if mode == "cosine-weighted" else "{}"
        path = tmp_path / "huge.tsv"
        path.write_text(f"a\t{entry.format(1)}\nb\t{entry.format(10**20)} {entry.format(5)}\n",
                        encoding="utf-8")
        code, _, err = _run(capsys, ["search", str(path), "--mode", mode, "-t", "0.5"])
        assert code == 3
        assert "line 2: feature 100000000000000000000 exceeds" in err

    def test_bad_threshold_is_usage_error(self, capsys, cosine_file):
        code, _, err = _run(
            capsys,
            ["search", str(cosine_file), "--mode", "cosine-weighted", "-t", "1.5"],
        )
        assert code == 2
        assert "usage error" in err

    def test_allpairs_on_jaccard_is_usage_error(self, capsys, jaccard_file):
        code, _, _ = _run(
            capsys,
            ["search", str(jaccard_file), "--mode", "jaccard", "-t", "0.7",
             "--generator", "allpairs"],
        )
        assert code == 2

    def test_hash_cap_below_banding_need_is_guard_error(self, capsys, cosine_file):
        code, _, err = _run(
            capsys,
            ["search", str(cosine_file), "--mode", "cosine-weighted", "-t", "0.9",
             "--max-hashes", "32", "--batch-hashes", "32"],
        )
        assert code == 5
        assert "guard" in err

    @pytest.mark.parametrize("budget", [["--verifier", "lsh-approx", "--fixed-hashes", "8192"],
                                        ["--verifier", "bayeslsh-lite", "--lite-hashes", "8192"]])
    def test_budget_above_hash_cap_is_usage_error(self, capsys, cosine_file, budget):
        code, out, err = _run(
            capsys,
            ["search", str(cosine_file), "--mode", "cosine-weighted", "-t", "0.7", *budget],
        )
        assert code == 2
        assert "exceeds max_hashes 4096" in err
        assert out == ""

    def test_unknown_mode_rejected_by_parser(self, cosine_file):
        with pytest.raises(SystemExit) as exc:
            main(["search", str(cosine_file), "--mode", "euclid", "-t", "0.5"])
        assert exc.value.code == 2


class TestEvalRoundTrip:
    def _search_with_eval(self, capsys, cosine_file, tmp_path):
        results = tmp_path / "results.tsv"
        report = tmp_path / "report.json"
        code, _, err = _run(
            capsys,
            ["search", str(cosine_file), "--mode", "cosine-weighted", "-t", "0.6",
             "--generator", "allpairs", "--seed", "2",
             "-o", str(results), "--eval", str(report)],
        )
        assert code == 0
        assert "# recall" in err
        return results, report

    def test_report_fields(self, capsys, cosine_file, tmp_path):
        _, report_path = self._search_with_eval(capsys, cosine_file, tmp_path)
        report = json.loads(report_path.read_text())
        assert report["measure"] == "cosine"
        assert report["threshold"] == 0.6
        assert 0.0 <= report["recall"] <= 1.0
        assert report["emitted"] >= report["true_positives"]
        assert report["true_positives"] + report["false_negatives"] == report["truth_pairs"]
        assert sum(report["error_histogram"].values()) == report["emitted"]
        assert set(report["timings"]) == {"signatures", "generation", "verification"}
        # cosine bayeslsh emits posterior estimates and computes no exact similarity
        assert report["exact_computed"] == 0
        assert report["hash_evals"] > 0

    def test_load_seconds_times_the_load_with_tfidf(self, capsys, cosine_file, tmp_path,
                                                    monkeypatch):
        def slow_tfidf(corpus):
            time.sleep(0.2)
            return tfidf_weight(corpus)

        monkeypatch.setattr(corpus_mod, "tfidf_weight", slow_tfidf)
        report = tmp_path / "report.json"
        code, _, _ = _run(
            capsys,
            ["search", str(cosine_file), "--mode", "cosine-weighted", "-t", "0.6",
             "--tfidf", "-o", str(tmp_path / "results.tsv"), "--eval", str(report)],
        )
        assert code == 0
        assert 0.2 <= json.loads(report.read_text())["load_seconds"] < 60

    def test_check_eval_agrees(self, capsys, cosine_file, tmp_path):
        results, report = self._search_with_eval(capsys, cosine_file, tmp_path)
        code, out, _ = _run(
            capsys,
            ["check-eval", str(results), str(cosine_file),
             "--mode", "cosine-weighted", "--report", str(report)],
        )
        assert code == 0
        assert "report consistent: 8 fields match" in out

    def test_check_eval_catches_tampered_report(self, capsys, cosine_file, tmp_path):
        results, report_path = self._search_with_eval(capsys, cosine_file, tmp_path)
        report = json.loads(report_path.read_text())
        report["recall"] = max(0.0, report["recall"] - 0.1)
        report_path.write_text(json.dumps(report))
        code, _, err = _run(
            capsys,
            ["check-eval", str(results), str(cosine_file),
             "--mode", "cosine-weighted", "--report", str(report_path)],
        )
        assert code == 1
        assert "recall" in err

    def test_check_eval_catches_tampered_results(self, capsys, cosine_file, tmp_path):
        results, report = self._search_with_eval(capsys, cosine_file, tmp_path)
        lines = results.read_text().splitlines()
        for k, line in enumerate(lines):
            if not line.startswith("#"):
                parts = line.split("\t")
                parts[2] = "0.9999999"
                lines[k] = "\t".join(parts)
                break
        results.write_text("\n".join(lines) + "\n")
        code, _, err = _run(
            capsys,
            ["check-eval", str(results), str(cosine_file),
             "--mode", "cosine-weighted", "--report", str(report)],
        )
        assert code == 1
        assert "mean_abs_error" in err

    def test_check_eval_refuses_a_non_numeric_estimate(self, capsys, cosine_file, tmp_path):
        results, report = self._search_with_eval(capsys, cosine_file, tmp_path)
        lines = results.read_text().splitlines()
        row = next(k for k, line in enumerate(lines) if not line.startswith("#"))
        parts = lines[row].split("\t")
        parts[2] = "abc"
        lines[row] = "\t".join(parts)
        results.write_text("\n".join(lines) + "\n")
        code, _, err = _run(
            capsys,
            ["check-eval", str(results), str(cosine_file),
             "--mode", "cosine-weighted", "--report", str(report)],
        )
        assert code == 3
        assert f"line {row + 1}: estimate 'abc' is not a number" in err

    @pytest.mark.parametrize("text", ["not json", "{}", "[1]", '{"threshold": "0.6"}'],
                             ids=["not-json", "empty-object", "list", "string-threshold"])
    def test_check_eval_refuses_a_malformed_report(self, capsys, cosine_file, tmp_path, text):
        results, report = self._search_with_eval(capsys, cosine_file, tmp_path)
        report.write_text(text)
        code, _, err = _run(
            capsys,
            ["check-eval", str(results), str(cosine_file),
             "--mode", "cosine-weighted", "--report", str(report)],
        )
        assert code == 3
        assert f"error: report {report}: not " in err

    def test_check_eval_counts_a_non_numeric_field_as_a_mismatch(self, capsys, cosine_file,
                                                                 tmp_path):
        results, report_path = self._search_with_eval(capsys, cosine_file, tmp_path)
        report = json.loads(report_path.read_text())
        report["recall"] = "high"
        report_path.write_text(json.dumps(report))
        code, _, err = _run(
            capsys,
            ["check-eval", str(results), str(cosine_file),
             "--mode", "cosine-weighted", "--report", str(report_path)],
        )
        assert code == 1
        assert "recall: report 'high'" in err

    def test_eval_dash_writes_json_to_stdout(self, capsys, cosine_file, tmp_path):
        code, out, _ = _run(
            capsys,
            ["search", str(cosine_file), "--mode", "cosine-weighted", "-t", "0.6",
             "--generator", "allpairs", "-o", str(tmp_path / "r.tsv"), "--eval", "-"],
        )
        assert code == 0
        assert json.loads(out)["threshold"] == 0.6


class TestRequiredHashes:
    def test_default_curve(self, capsys):
        code, out, _ = _run(capsys, ["required-hashes"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# delta\t0.05\tgamma\t0.05"
        assert lines[1] == "# similarity\trequired_hashes"
        table = dict(
            (float(a), int(b)) for a, b in (ln.split("\t") for ln in lines[2:])
        )
        assert len(table) == 19
        assert table[0.5] == max(table.values())
        assert table[0.05] == table[0.95] == min(table.values())

    def test_single_point(self, capsys):
        code, out, _ = _run(
            capsys, ["required-hashes", "-s", "0.5", "--delta", "0.05", "--gamma", "0.05"]
        )
        assert code == 0
        assert out.splitlines()[-1] == "0.5\t352"

    def test_out_of_range_similarity(self, capsys):
        code, _, err = _run(capsys, ["required-hashes", "-s", "1.5"])
        assert code == 2
        assert "outside" in err

    def test_no_concentrating_count_below_the_cap_is_numeric_failure(self, capsys):
        code, _, err = _run(capsys, ["required-hashes", "-s", "0.5", "--delta", "1e-5",
                                     "--gamma", "1e-6"])
        assert code == 4
        assert "numeric failure: no hash count below 1048576 concentrates s=0.5" in err


class TestPriorDemo:
    def test_density_is_normalized(self, capsys):
        code, out, _ = _run(
            capsys,
            ["prior-demo", "--pairs", "24:32", "--exponents", "0", "--gridpoints", "101"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# exponent\tm\tn\tr\tdensity"
        rows = [ln.split("\t") for ln in lines[1:]]
        assert len(rows) == 101
        r = np.array([float(row[3]) for row in rows])
        d = np.array([float(row[4]) for row in rows])
        assert float(np.trapezoid(d, r)) == pytest.approx(1.0, abs=1e-6)

    def test_bad_pair_spec(self, capsys):
        code, _, err = _run(capsys, ["prior-demo", "--pairs", "24-32"])
        assert code == 2
        assert "M:N" in err

    def test_m_above_n_rejected(self, capsys):
        code, _, _ = _run(capsys, ["prior-demo", "--pairs", "33:32"])
        assert code == 2

    @pytest.mark.parametrize("exponent", ["inf", "nan"])
    def test_non_finite_exponent_is_usage_error(self, capsys, exponent):
        code, out, err = _run(capsys, ["prior-demo", "--exponents", exponent])
        assert code == 2
        assert "must be finite" in err
        assert out == "# exponent\tm\tn\tr\tdensity\n"


class TestPruningCurve:
    def test_counts_decrease(self, capsys, cosine_file):
        code, out, _ = _run(
            capsys,
            ["pruning-curve", str(cosine_file), "--mode", "cosine-weighted",
             "-t", "0.7", "--generator", "allpairs"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# hashes\tsurviving_candidates"
        counts = [int(ln.split("\t")[1]) for ln in lines[1:]]
        assert lines[1].startswith("0\t")
        assert counts == sorted(counts, reverse=True)

    def test_requires_pruning_verifier(self, capsys, cosine_file):
        code, _, err = _run(
            capsys,
            ["pruning-curve", str(cosine_file), "--mode", "cosine-weighted",
             "-t", "0.7", "--verifier", "exact"],
        )
        assert code == 2
        assert "pruning verifier" in err


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "bayeslsh.cli", "required-hashes", "-s", "0.9",
         "--grid", "64"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    sim, count = proc.stdout.splitlines()[-1].split("\t")
    assert float(sim) == 0.9 and int(count) % 64 == 0
