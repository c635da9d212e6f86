"""Search process of the pipeline benchmark.

Runs what `bayeslsh search` runs, over and over until --seconds have
passed: load_corpus -> run_search -> results_to_tsv plus the file write.
Each search loads the corpus afresh, as every CLI call does, so no cache
on the Corpus object outlives a search. The process holds nothing but what
a `bayeslsh search` process holds, so its peak RSS after the untraced
searches is the memory a search needs, with none of the benchmark's
ground-truth arrays in it.

With --trace 1 the first search runs untraced and every later one traced;
per-layer numbers come from the traced searches. Writes worker.json
(and, when traced, trace.npz and candidates.npy) into --out.

    python3 perfbench/worker.py --corpus FILE --mode MODE --config JSON \
        --seconds 35 --trace 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spec import import_bayeslsh  # noqa: E402
from tracing import Tracer  # noqa: E402

VERIFIER_FUNCS = ("bayeslsh_run", "bayeslsh_lite_run", "lsh_approx_run", "exact_run")
GENERATOR_FUNCS = ("lsh_banding_generate", "allpairs_generate", "bruteforce_generate")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Probe:
    """Counts gathered at the wrapped calls, beside their spans."""

    def __init__(self):
        self.candidates = None
        self.stores: dict[int, tuple[object, int]] = {}
        self.hash_evals = 0
        self.count_bytes = 0
        self.bulk_pairs = 0
        self.caches: list = []

    def on_candidates(self, args, kwargs, result):
        self.candidates = result

    def on_extend(self, args, kwargs, result):
        store = args[0]
        _, before = self.stores.get(id(store), (store, 0))
        self.hash_evals += (store.hashes_available - before) * store.n_objects
        self.stores[id(store)] = (store, store.hashes_available)

    def on_count(self, args, kwargs, result):
        store, _, _, lo, hi = args
        if store.measure == "cosine":
            self.count_bytes += 2 * 8 * (-(-hi // 64) - lo // 64)
        else:
            self.count_bytes += 2 * 4 * (hi - lo)

    def on_count_bulk(self, args, kwargs, result):
        store, pairs, lo, hi = args
        self.bulk_pairs += len(pairs)
        if store.measure == "cosine":
            # whole packed rows are gathered: max_hashes // 64 + 1 words each
            self.count_bytes += 2 * 8 * len(pairs) * (store.max_hashes // 64 + 1)
        else:
            self.count_bytes += 2 * 4 * len(pairs) * (hi - lo)

    def on_cache(self, args, kwargs, result):
        self.caches.append(args[0])

    @property
    def hashes(self) -> int:
        return max((h for _, h in self.stores.values()), default=0)


def instrument(tracer: Tracer, bl, probe: Probe) -> None:
    s, h, inf = bl.search, bl.hashing, bl.inference
    tracer.wrap(s, "generate_candidates", "search.generate_candidates", probe.on_candidates)
    for name in GENERATOR_FUNCS:
        tracer.wrap(bl.candidates, name, "candidates.generate")
    tracer.wrap(h.SignatureStore, "extend", "hashing.extend", probe.on_extend)
    tracer.wrap(h.SignatureStore, "count_matches", "hashing.count_matches", probe.on_count)
    tracer.wrap(h.SignatureStore, "count_matches_bulk", "hashing.count_matches_bulk",
                probe.on_count_bulk)
    tracer.wrap(bl.corpus, "exact_similarity", "corpus.exact_similarity")
    tracer.wrap(s, "fit_candidate_prior", "search.fit_candidate_prior")
    tracer.wrap(inf, "build_minmatch_table", "inference.build_minmatch_table")
    tracer.wrap(inf.ConcentrationCache, "__init__", "inference.cache_init", probe.on_cache)
    tracer.wrap(inf.ConcentrationCache, "lookup", "inference.lookup")
    for name in VERIFIER_FUNCS:
        tracer.wrap(s, name, "search.verify")


def layer_values(tracer: Tracer, probe: Probe, result) -> dict[str, float]:
    tot = tracer.totals()

    def get(name, key):
        return tot.get(name, {}).get(key, 0)

    stats = result.stats
    survivors = stats.survivors.get(64)
    pruned_by_64 = (
        (stats.candidates - survivors) / stats.candidates
        if survivors is not None and stats.candidates else 0.0
    )
    prior = stats.prior
    return {
        "corpus.exact_calls": get("corpus.exact_similarity", "calls"),
        "corpus.exact_s": get("corpus.exact_similarity", "total_s"),
        "hashing.extend_s": get("hashing.extend", "self_s"),
        "hashing.hashes": probe.hashes,
        "hashing.hash_evals": probe.hash_evals,
        "hashing.count_calls": get("hashing.count_matches", "calls")
        + get("hashing.count_matches_bulk", "calls"),
        "hashing.count_pairs_bulk": probe.bulk_pairs,
        "hashing.count_s": get("hashing.count_matches", "total_s")
        + get("hashing.count_matches_bulk", "total_s"),
        "hashing.count_bytes": probe.count_bytes,
        "candidates.gen_s": get("candidates.generate", "self_s"),
        "candidates.count": 0 if probe.candidates is None else len(probe.candidates),
        "inference.table_s": get("inference.build_minmatch_table", "total_s"),
        "inference.lookup_calls": get("inference.lookup", "calls"),
        "inference.lookup_s": get("inference.lookup", "total_s"),
        "inference.lookup_distinct": sum(len(c) for c in probe.caches),
        "inference.prior_strength": 0.0 if prior is None else prior.alpha + prior.beta,
        "search.verify_s": get("search.verify", "total_s"),
        "search.verify_self_s": get("search.verify", "self_s"),
        "search.prior_s": get("search.fit_candidate_prior", "total_s"),
        "search.batch_steps": tracer.calls_under("hashing.count_matches", "search.verify"),
        "search.pruned_by_64": pruned_by_64,
        "search.low_confidence": sum(1 for p in result.pairs if p.low_confidence),
        "search.stage_signatures_s": stats.timings.get("signatures", 0.0),
        "search.stage_generation_s": stats.timings.get("generation", 0.0),
        "search.stage_verification_s": stats.timings.get("verification", 0.0),
        "search.traced_s": get("search.run_search", "total_s"),
        "search.unattributed_s": get("search.run_search", "self_s"),
    }


def one_search(bl, corpus_path, mode, config, out: Path, traced: bool) -> dict:
    rec = {"traced": traced, "error": None, "tsv": None}
    tracer = probe = None
    try:
        t0 = perf_counter()
        corpus = bl.corpus.load_corpus(corpus_path, mode)
        rec["load_s"] = perf_counter() - t0
        if traced:
            tracer, probe = Tracer(), Probe()
            instrument(tracer, bl, probe)
            try:
                t0 = perf_counter()
                with tracer.span("search.run_search"):
                    result = bl.search.run_search(corpus, config)
                rec["search_s"] = perf_counter() - t0
            finally:
                tracer.restore()
        else:
            t0 = perf_counter()
            result = bl.search.run_search(corpus, config)
            rec["search_s"] = perf_counter() - t0
        t0 = perf_counter()
        tsv = bl.search.results_to_tsv(corpus, result)
        with open(out / "results.tsv", "w", encoding="utf-8") as fh:
            fh.write(tsv)
        rec["tsv_s"] = perf_counter() - t0
        rec["peak_rss_mb"] = _maxrss_mb()
    except Exception:  # a failed search is counted, never fatal
        rec.setdefault("search_s", perf_counter() - t0)
        rec["error"] = traceback.format_exc()
        print(rec["error"], file=sys.stderr)
        return rec
    rec["tsv"] = tsv
    if traced:
        rec["layers"] = layer_values(tracer, probe, result)
        rec["layers"]["cli.tsv_s"] = rec["tsv_s"]
        rec["layers"]["cli.tsv_bytes"] = len(tsv.encode("utf-8"))
        rec["self_times"] = {k: v["self_s"] for k, v in tracer.totals().items() if v["calls"]}
        tracer.save(out / "trace.npz")
        if probe.candidates is not None:
            np.save(out / "candidates.npy", np.asarray(probe.candidates))
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--corpus", required=True)
    ap.add_argument("--mode", required=True)
    ap.add_argument("--config", required=True, help="SearchConfig keyword arguments as JSON")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    bl = import_bayeslsh()
    # the pipeline imports scipy.sparse lazily; keep that out of the first search
    import scipy.sparse  # noqa: F401

    config = bl.search.SearchConfig(**json.loads(args.config))
    out = Path(args.out)
    searches: list[dict] = []
    start = perf_counter()
    while True:
        traced = bool(args.trace) and len(searches) > 0
        t_iter = perf_counter()
        searches.append(one_search(bl, args.corpus, args.mode, config, out, traced))
        cost = perf_counter() - t_iter
        if args.trace and len(searches) < 2:
            continue
        # start another search only if it is expected to end in time
        if perf_counter() - start + cost > args.seconds:
            break
    untraced = [rec["peak_rss_mb"] for rec in searches if "peak_rss_mb" in rec and not rec["traced"]]
    report = {"searches": searches, "peak_rss_mb": max(untraced, default=None)}
    with open(out / "worker.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
