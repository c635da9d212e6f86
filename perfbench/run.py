"""Pipeline benchmark: run_search time, memory and result quality.

    python3 perfbench/run.py --workload cosine-lsh --seed 0 --seconds 35 --trace 0

Run from the repository root. One run:

1. set-up: writes the workload's synthetic corpus from --seed once, then
   times load_corpus on it several times;
2. ground truth: exact similarities from the benchmark's own reader and
   one scipy sparse product, outside any timing;
3. measurement: a fresh search process (worker.py) repeats
   load_corpus -> run_search -> results_to_tsv for --seconds, with
   SearchConfig(parallel=1). setup_s is the median over the loads of
   steps 1 and 3, which spread it over the whole run;
4. checks every search's output and scores its quality.

Every metric is printed by name with its unit. The last stdout line is
one JSON object {correct, attempted, failed, metrics}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. Files go to
.bench_work/<workload>/ in the repository root, including result.json with
the corpus sha256, so runs on different inputs are never compared.
`python3 perfbench/selftest.py` checks the benchmark itself on tiny corpora.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import spec  # noqa: E402
import truth  # noqa: E402

SETUP_LOADS = 7
TAIL_BEYOND = 10
RUN_LIMIT_S = 170.0


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Falls back to the maximum when there are too few samples for one.
    """
    s, n = sorted(samples), len(samples)
    if n > TAIL_BEYOND:
        k = n - TAIL_BEYOND - 1
        return s[k], f"p{100.0 * (k + 1) / n:.1f} of {n} searches"
    return s[-1], f"max of {n} searches; a percentile with {TAIL_BEYOND} beyond needs {TAIL_BEYOND + 1}"


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def set_up(bl, wl: spec.Workload, seed: int, shape: spec.Shape, work: Path) -> tuple[Path, list[float]]:
    corpus = bl.corpus.generate_synthetic(shape.n, shape.dim, list(shape.planted), seed=seed, mode=wl.mode)
    path = work / "corpus.txt"
    bl.corpus.serialize_corpus(corpus, path)
    del corpus
    loads = []
    for _ in range(SETUP_LOADS):
        t0 = perf_counter()
        bl.corpus.load_corpus(path, wl.mode)
        loads.append(perf_counter() - t0)
    return path, loads


def run_worker(corpus: Path, wl: spec.Workload, config: dict, seconds: float, trace: int,
               work: Path, timeout: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--corpus", str(corpus), "--mode", wl.mode, "--config", json.dumps(config),
        "--seconds", str(seconds), "--trace", str(trace), "--out", str(work),
    ]
    for stale in ("worker.json", "results.tsv", "trace.npz", "candidates.npy"):
        (work / stale).unlink(missing_ok=True)
    # the worker's stdout goes to stderr: our last stdout line is the result
    proc = subprocess.run(cmd, stdout=sys.stderr, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"search process exited with code {proc.returncode}")
    with open(work / "worker.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_searches(searches: list[dict], ids: list[str], sims: np.ndarray) -> list[list[str]]:
    """Problems per search: errors, malformed rows, TSV differing from the first."""
    index = {vid: i for i, vid in enumerate(ids)}
    reference = None
    out = []
    for rec in searches:
        if rec["error"] is not None:
            out.append([rec["error"].strip().splitlines()[-1]])
            continue
        rows, problems = truth.parse_tsv(rec["tsv"], index)
        problems += truth.check_rows(rows, sims, spec.THRESHOLD)
        if reference is None:
            reference = rec["tsv"]
        elif rec["tsv"] != reference:
            problems.append("results TSV differs from the run's first search")
        out.append(problems)
    return out


def layer_metrics(searches, real: set, n: int, work: Path) -> dict[str, float]:
    traced = [rec["layers"] for rec in searches if rec.get("layers")]
    if not traced:
        return {}
    values = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
    path = work / "candidates.npy"
    cands = np.load(path) if path.exists() else np.zeros((0, 2), dtype=np.int64)
    keys = np.array([i * n + j for i, j in real], dtype=np.int64)
    found = int(np.count_nonzero(np.isin(keys, cands[:, 0] * n + cands[:, 1])))
    values["candidates.recall"] = found / len(real) if real else 1.0
    values["candidates.useful_frac"] = found / len(cands) if len(cands) else 0.0
    plain = [rec["search_s"] for rec in searches if not rec["traced"]]
    values["trace.overhead_ratio"] = values["search.traced_s"] / statistics.median(plain)
    return values


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 shape: spec.Shape = spec.ACCEPTANCE_SHAPE, work_root: Path = spec.WORK_DIR) -> dict:
    """One benchmark run; returns metrics, quality, counts and report lines."""
    started = perf_counter()
    bl = spec.import_bayeslsh()
    wl = spec.WORKLOADS[name]
    measure = bl.corpus.measure_for_mode(wl.mode)
    config = wl.config_kwargs(measure)
    work = work_root / name
    work.mkdir(parents=True, exist_ok=True)

    corpus_path, loads = set_up(bl, wl, seed, shape, work)
    digest = sha256(corpus_path)
    ids, x = truth.read_corpus_file(corpus_path, weighted=wl.mode == "cosine-weighted")
    sims = truth.similarity_table(x, measure)
    real = truth.true_pairs(sims, spec.THRESHOLD)

    report = run_worker(corpus_path, wl, config, seconds, trace, work,
                        timeout=max(10.0, RUN_LIMIT_S - (perf_counter() - started)))
    searches = report["searches"]
    loads += [rec["load_s"] for rec in searches if "load_s" in rec]
    problems = check_searches(searches, ids, sims)
    failed = sum(1 for p in problems if p)
    # every sound search emitted the same TSV; with none, nothing was emitted
    sound = next((rec["tsv"] for rec, p in zip(searches, problems) if not p), "")
    rows, _ = truth.parse_tsv(sound, {vid: i for i, vid in enumerate(ids)})
    qual = truth.quality(rows, sims, real, bl.search.SearchConfig(**config).delta)
    qual["failed_frac"] = failed / len(searches)

    plain = [rec["search_s"] for rec in searches if not rec["traced"]]
    tail_s, tail_note = tail(plain)
    e2e = {
        "search_s": statistics.median(plain),
        "search_s_tail": tail_s,
        "setup_s": statistics.median(loads),
        "peak_rss_mb": report["peak_rss_mb"] or 0.0,
    }
    notes = {
        "search_s": f"median of {len(plain)} searches",
        "search_s_tail": tail_note,
        "setup_s": f"median of {len(loads)} loads",
        "peak_rss_mb": "peak RSS of the search process after its untraced searches",
        "precision": "0 when nothing is emitted",
        "hashing.count_bytes": "computed from call arguments and row width, not measured",
        "failed_frac": f"{failed} of {len(searches)} searches",
    }
    layers = layer_metrics(searches, real, len(ids), work) if trace else {}
    per_layer = {**layers, **qual} if trace else {}
    result = {
        "workload": name, "seed": seed, "corpus_sha256": digest, "shape": shape.__dict__,
        "config": config, "trace": trace, "attempted": len(searches), "failed": failed,
        "problems": problems, "end_to_end": e2e, "quality": qual, "per_layer": per_layer,
        "self_times": [rec.get("self_times") for rec in searches if rec.get("self_times")],
        "truth_pairs": len(real), "notes": notes,
    }
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def report_lines(result: dict) -> list[str]:
    units = {m.name: m for m in spec.END_TO_END + spec.PER_LAYER}
    lines = [
        f"# workload {result['workload']} seed {result['seed']}"
        f" corpus sha256 {result['corpus_sha256']} truth pairs {result['truth_pairs']}",
    ]
    for problem in (p for ps in result["problems"] for p in ps):
        lines.append(f"# FAILED CHECK: {problem}")

    def line(name, value):
        m = units[name]
        note = result["notes"].get(name)
        lines.append(f"{name:30s} {value:14.6g} {m.unit:10s} ({m.better} is better)"
                     + (f"  {note}" if note else ""))

    for name, value in result["end_to_end"].items():
        line(name, value)
    for name, value in result["quality"].items():
        line(name, value)
    for name, value in result["per_layer"].items():
        if name not in result["quality"]:
            line(name, value)
    for times in result["self_times"][-1:]:
        lines.append("# self time per span of the last traced search (sums to search.traced_s):")
        for span, s in sorted(times.items(), key=lambda kv: -kv[1]):
            lines.append(f"#   {span:34s} {s:10.4f} s")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bayeslsh pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for text in report_lines(result):
        print(text)
    chosen = spec.PER_LAYER if args.trace else spec.END_TO_END
    values = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        # a metric is missing only when every traced search failed (correct: false)
        "metrics": {m.name: {"value": values.get(m.name, 0.0), "unit": m.unit} for m in chosen},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
