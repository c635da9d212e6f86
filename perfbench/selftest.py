"""Self-test of the pipeline benchmark on tiny corpora (about a minute).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names the metrics spec.py defines, that every
workload emits every end-to-end, quality and per-layer metric with a unit
and a direction, that tracing restores every attribute it patched, and
that corrupted output rows trip the output checks.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import spec  # noqa: E402
import truth  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import Probe, instrument  # noqa: E402

TINY = spec.Shape(300, 3000, ((10, 0.55), (10, 0.75), (10, 0.95)))


def check_benchmark_json(errors: list[str]) -> None:
    with open(spec.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    if [w["name"] for w in bench["workloads"]] != list(spec.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from spec.WORKLOADS")
    for key, metrics in (("end_to_end", spec.END_TO_END), ("per_layer", spec.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in bench[key]]
        if listed != [(m.name, m.unit, m.better) for m in metrics]:
            errors.append(f"BENCHMARK.json {key} differs from spec.py")


def check_metrics(name: str, values: dict, metrics, errors: list[str]) -> None:
    for m in metrics:
        if not m.unit or m.better not in ("higher", "lower"):
            errors.append(f"{m.name}: missing unit or direction")
        v = values.get(m.name)
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"{name}: metric {m.name} missing or not a number: {v!r}")


def check_restore(errors: list[str]) -> None:
    bl = spec.import_bayeslsh()
    owners = (bl.search, bl.candidates, bl.corpus, bl.inference, bl.hashing.SignatureStore,
              bl.inference.ConcentrationCache)
    before = [dict(vars(o)) for o in owners]
    tracer = Tracer()
    instrument(tracer, bl, Probe())
    tracer.restore()
    for owner, saved in zip(owners, before):
        changed = [k for k, v in vars(owner).items() if saved.get(k) is not v]
        if changed:
            errors.append(f"tracing left {owner.__name__}.{changed} patched")


def check_corruption(errors: list[str]) -> None:
    ids = ["a", "b", "c"]
    sims = np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.8], [0.1, 0.8, 1.0]])
    good = [(0, 1, 0.9, True, False), (1, 2, 0.79, False, False)]
    if truth.check_rows(good, sims, 0.7):
        errors.append("a sound output failed the output check")
    corrupted = {
        "i > j": [(1, 0, 0.9, True, False)],
        "index out of range": [(0, 3, 0.9, False, False)],
        "estimate above 1": [(0, 1, 1.5, False, False)],
        "wrong exact value": [(0, 1, 0.8, True, False)],
        "exact row below t": [(0, 2, 0.1, True, False)],
        "duplicate row": [good[0], good[0]],
        "unsorted rows": [good[1], good[0]],
    }
    for what, rows in corrupted.items():
        if not truth.check_rows(rows, sims, 0.7):
            errors.append(f"corrupted output ({what}) passed the output check")
    header = "# id_i\tid_j\testimate\texact\tlow_confidence\n"
    tsv = header + "a\tb\t0.9\t1\t0\n"
    searches = [{"error": None, "tsv": tsv}, {"error": None, "tsv": header + "b\ta\t0.9\t1\t0\n"}]
    problems = run.check_searches(searches, ids, sims)
    if problems[0] or not problems[1]:
        errors.append(f"TSV row check: expected only the second search to fail, got {problems}")


def main() -> int:
    errors: list[str] = []
    check_benchmark_json(errors)
    check_restore(errors)
    check_corruption(errors)
    for name in spec.WORKLOADS:
        for trace in (0, 1):
            result = run.run_workload(name, seed=1, seconds=0.1, trace=trace, shape=TINY,
                                      work_root=spec.WORK_DIR / "selftest")
            if result["failed"]:
                errors.append(f"{name} trace {trace}: {result['problems']}")
            check_metrics(name, result["end_to_end"], spec.END_TO_END, errors)
            check_metrics(name, result["quality"], spec.QUALITY, errors)
            if trace:
                check_metrics(name, result["per_layer"], spec.PER_LAYER, errors)
            for line in run.report_lines(result):
                print(line)
    for e in errors:
        print(f"FAIL: {e}")
    print("selftest", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
