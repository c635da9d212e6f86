"""The pipeline benchmark still drives the package it measures."""

import subprocess
import sys
from pathlib import Path

import pytest

import bayeslsh
from bayeslsh.corpus import generate_synthetic
from bayeslsh.search import VERIFIERS, SearchConfig, run_search

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    # the traced runs wrap package attributes by name, so a renamed
    # function fails here rather than as failed searches in a benchmark run
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT,
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]


@pytest.mark.parametrize("verifier", VERIFIERS)
def test_traced_search_records_one_span_per_stage(verifier, monkeypatch):
    # the benchmark wraps the runners and generate_candidates as module
    # attributes; a search that calls around them would read 0 s verifying
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracing import Tracer
    from worker import Probe, instrument

    corpus = generate_synthetic(60, 600, [(5, 0.9)], seed=0, mode="cosine-weighted")
    tracer = Tracer()
    instrument(tracer, bayeslsh, Probe())
    try:
        run_search(corpus, SearchConfig("cosine", 0.7, verifier=verifier))
    finally:
        tracer.restore()
    totals = tracer.totals()
    assert totals["search.verify"]["calls"] == 1
    assert totals["search.generate_candidates"]["calls"] == 1
