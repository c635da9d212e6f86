"""Workloads, corpus shape and metric names of the pipeline benchmark.

Every workload searches a synthetic corpus of the acceptance shape (2,000
vectors, dim 20,000, 150 planted pairs at each of 0.55/0.75/0.95) at
t = 0.7, single-threaded. The input seed is the benchmark's --seed.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"

THRESHOLD = 0.7


@dataclass(frozen=True)
class Shape:
    n: int
    dim: int
    planted: tuple[tuple[int, float], ...]


ACCEPTANCE_SHAPE = Shape(2000, 20000, ((150, 0.55), (150, 0.75), (150, 0.95)))


@dataclass(frozen=True)
class Workload:
    mode: str
    generator: str
    verifier: str
    why: str

    def config_kwargs(self, measure: str) -> dict:
        # parallel=1: two thread workers measured slower than one on 2 cores
        return {
            "measure": measure,
            "threshold": THRESHOLD,
            "generator": self.generator,
            "verifier": self.verifier,
            "parallel": 1,
        }


WORKLOADS = {
    "cosine-lsh": Workload(
        "cosine-weighted", "lsh", "bayeslsh",
        "the paper's pipeline: banding plus Bayesian verification; hashing,"
        " match counting and inference all do real work",
    ),
    "cosine-allpairs-exact": Workload(
        "cosine-weighted", "allpairs", "exact",
        "control without hashing or inference: prefix-filtered index and"
        " per-pair exact similarity dominate",
    ),
    "jaccard-bruteforce": Workload(
        "jaccard", "bruteforce", "bayeslsh",
        "verification loop alone on 1,999,000 candidates: read-heavy match"
        " counting and the fitted-prior path",
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    what: str


# Gated end-to-end metrics: never 0 on any workload.
END_TO_END = (
    Metric("search_s", "s", "lower", "median wall time of one run_search call"),
    Metric("search_s_tail", "s", "lower",
           "highest percentile of the search_s samples with ten samples beyond it"),
    Metric("setup_s", "s", "lower", "median wall time of load_corpus on the corpus file"),
    Metric("peak_rss_mb", "MB", "lower",
           "peak resident memory of the search process, which holds no ground truth"),
)

# End-to-end result quality. Each reads 0 on some workload at the seed
# state (jaccard-bruteforce recall, exact-verifier errors, failed_frac),
# so they are printed on every run and recorded with the traced metrics
# rather than gated as a share of their median.
QUALITY = (
    Metric("recall", "frac", "higher", "true pairs emitted / true pairs"),
    Metric("precision", "frac", "higher", "true pairs emitted / pairs emitted (0 if none)"),
    Metric("err_above_delta", "frac", "lower",
           "share of emitted estimates more than delta from the exact similarity"),
    Metric("mean_abs_error", "similarity", "lower", "mean |estimate - exact| over emitted pairs"),
    Metric("failed_frac", "frac", "lower",
           "share of searches that raised or failed an output check"),
)

LAYERS = (
    Metric("corpus.exact_calls", "count", "lower", "calls to exact_similarity"),
    Metric("corpus.exact_s", "s", "lower", "time in exact_similarity"),
    Metric("hashing.extend_s", "s", "lower", "self time in SignatureStore.extend"),
    Metric("hashing.hashes", "count", "lower", "final hashes_available of the signature store"),
    Metric("hashing.hash_evals", "count", "lower", "objects x hashes produced by extend"),
    Metric("hashing.count_calls", "count", "lower", "calls to count_matches and count_matches_bulk"),
    Metric("hashing.count_pairs_bulk", "count", "lower", "pairs passed to count_matches_bulk"),
    Metric("hashing.count_s", "s", "lower", "time in count_matches and count_matches_bulk"),
    Metric("hashing.count_bytes", "bytes", "lower",
           "signature bytes read by match counting, computed from arguments and row width"),
    Metric("candidates.gen_s", "s", "lower", "self time in the candidate generator function"),
    Metric("candidates.count", "count", "lower", "candidate pairs generated"),
    Metric("candidates.recall", "frac", "higher", "true pairs among the candidates / true pairs"),
    Metric("candidates.useful_frac", "frac", "higher", "true pairs among the candidates / candidates"),
    Metric("inference.table_s", "s", "lower", "time in build_minmatch_table"),
    Metric("inference.lookup_calls", "count", "lower", "calls to ConcentrationCache.lookup"),
    Metric("inference.lookup_s", "s", "lower", "time in ConcentrationCache.lookup"),
    Metric("inference.lookup_distinct", "count", "lower", "distinct (m, n) keys looked up"),
    Metric("inference.prior_strength", "count", "lower",
           "alpha + beta of the fitted Beta prior (0 when none is fitted)"),
    Metric("search.verify_s", "s", "lower", "time in the verifier call"),
    Metric("search.verify_self_s", "s", "lower", "verifier time minus its child spans"),
    Metric("search.prior_s", "s", "lower", "time in fit_candidate_prior"),
    Metric("search.batch_steps", "count", "lower", "per-pair batch steps of the verifier"),
    Metric("search.pruned_by_64", "frac", "higher",
           "share of candidates pruned within 64 hashes (SearchStats.survivors)"),
    Metric("search.low_confidence", "count", "lower", "emitted pairs flagged low-confidence"),
    Metric("search.stage_signatures_s", "s", "lower", "SearchStats.timings['signatures']"),
    Metric("search.stage_generation_s", "s", "lower", "SearchStats.timings['generation']"),
    Metric("search.stage_verification_s", "s", "lower", "SearchStats.timings['verification']"),
    Metric("search.traced_s", "s", "lower", "traced run_search wall time"),
    Metric("search.unattributed_s", "s", "lower", "run_search self time outside every wrapped call"),
    Metric("cli.tsv_s", "s", "lower", "results_to_tsv plus writing the file"),
    Metric("cli.tsv_bytes", "bytes", "lower", "size of the results TSV"),
    Metric("trace.overhead_ratio", "ratio", "lower", "traced search_s / untraced search_s"),
)

PER_LAYER = LAYERS + QUALITY


def import_bayeslsh():
    """Import the package from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "bayeslsh" / "__init__.py").is_file():
        raise SystemExit(f"error: no bayeslsh sources under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("bayeslsh")
    if Path(pkg.__file__).resolve().parent != src / "bayeslsh":
        raise SystemExit(f"error: imported bayeslsh from {pkg.__file__}, not {src}")
    for name in ("corpus", "hashing", "candidates", "inference", "search"):
        importlib.import_module(f"bayeslsh.{name}")
    return pkg
