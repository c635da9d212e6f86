"""Command-line interface.

Subcommands:

* ``search``: run the full pipeline on a corpus file and emit result TSV.
* ``required-hashes``: frequentist hash-count curve for target guarantees.
* ``prior-demo``: posterior densities under power-law priors.
* ``gen``: write a synthetic corpus with planted similar pairs.
* ``pruning-curve``: candidate survivor counts per hash batch.
* ``check-eval``: recompute an evaluation report from results and corpus.

All outputs are TSV with ``#``-prefixed header lines; randomized commands
print their effective seed. Exit codes: 0 success, 1 check mismatch,
2 usage, 3 input/parse, 4 numeric failure, 5 resource guard.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time

import numpy as np

from . import corpus as corpus_mod
from . import inference, search
from .corpus import MODES, Corpus, measure_for_mode
from .errors import GuardError, NumericError, ParseError, UnsupportedMeasure

EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4
EXIT_GUARD = 5

_HIST_EDGES = (0.01, 0.02, 0.05, 0.1, 1.0)


@dataclasses.dataclass
class EvalReport:
    """Quality numbers for one search run against brute-force ground truth."""

    measure: str
    threshold: float
    seed: int
    candidates: int
    exact_computed: int
    hash_evals: int
    truth_pairs: int
    emitted: int
    true_positives: int
    false_negatives: int
    recall: float
    mean_abs_error: float
    frac_error_above_005: float
    error_histogram: dict[str, int]
    survivors: dict[str, int]
    timings: dict[str, float]
    load_seconds: float

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)


def _score(corpus: Corpus, threshold: float, emitted: list[tuple[int, int, float]]) -> dict:
    """EvalReport's quality fields for emitted (i, j, estimate) rows against exact truth.

    Quadratic cost. Errors cover every emitted pair, so the histogram buckets
    sum to the emitted count; exact pairs contribute zero error.
    """
    sims = corpus_mod.similarity_matrix(corpus)
    iu = np.triu_indices(len(corpus), k=1)
    above = sims[iu] > threshold
    truth = set(zip(iu[0][above].tolist(), iu[1][above].tolist()))
    pairs = {(i, j) for i, j, _ in emitted}
    tp = len(truth & pairs)
    errors = [abs(est - float(sims[i, j])) for i, j, est in emitted]
    histogram = dict.fromkeys((f"<={edge:g}" for edge in _HIST_EDGES), 0)
    for err in errors:
        for edge in _HIST_EDGES:
            if err <= edge:
                histogram[f"<={edge:g}"] += 1
                break
    return {
        "truth_pairs": len(truth),
        "emitted": len(pairs),
        "true_positives": tp,
        "false_negatives": len(truth) - tp,
        "recall": tp / len(truth) if truth else 1.0,
        "mean_abs_error": float(np.mean(errors)) if errors else 0.0,
        "frac_error_above_005": (
            sum(1 for e in errors if e > 0.05) / len(errors) if errors else 0.0
        ),
        "error_histogram": histogram,
    }


def evaluate_run(corpus: Corpus, result: search.SearchResult,
                 load_seconds: float) -> EvalReport:
    """Score a run against exact all-pairs ground truth; `load_seconds` is the corpus read time."""
    cfg = result.config
    return EvalReport(
        measure=cfg.measure,
        threshold=cfg.threshold,
        seed=cfg.seed,
        candidates=result.stats.candidates,
        exact_computed=result.stats.exact_computed,
        hash_evals=result.stats.hash_evals,
        **_score(corpus, cfg.threshold, [(p.i, p.j, p.estimate) for p in result.pairs]),
        survivors={str(k): v for k, v in result.stats.survivors.items()},
        timings={k: round(v, 6) for k, v in result.stats.timings.items()},
        load_seconds=round(load_seconds, 6),
    )


def _add_search_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("corpus", help="corpus file (gzip ok)")
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--threshold", "-t", type=float, required=True)
    # SearchConfig holds every default: a field option left out is absent from args
    add = functools.partial(parser.add_argument, default=argparse.SUPPRESS)
    add("--epsilon", type=float,
        help="false-negative mass allowed per pair")
    add("--delta", type=float,
        help="half-width of the accuracy interval")
    add("--gamma", type=float,
        help="probability mass allowed outside the interval")
    add("--batch-hashes", type=int)
    add("--lite-hashes", type=int)
    add("--max-hashes", type=int)
    add("--fixed-hashes", type=int)
    add("--band-width", type=int)
    add("--fn-rate", type=float,
        help="candidate-generation false-negative rate for banding")
    add("--generator", choices=search.GENERATORS)
    add("--verifier", choices=search.VERIFIERS)
    add("--seed", type=int)
    add("--fresh-verification-hashes", action="store_true",
        help="verify with hashes independent of the banding ones")
    add("--parallel", type=int,
        help="kept for compatibility: verification runs batch-synchronously"
        " in one thread and the value never changes output")
    parser.add_argument("--tfidf", action="store_true",
                        help="tf-idf reweight a cosine-weighted corpus before searching")


def _config_from_args(args) -> search.SearchConfig:
    """The SearchConfig of the options given; every other field keeps its default."""
    names = {f.name for f in dataclasses.fields(search.SearchConfig)}
    given = {name: value for name, value in vars(args).items() if name in names}
    return search.SearchConfig(measure=measure_for_mode(args.mode), **given)


def _load_for_search(args) -> Corpus:
    corpus = corpus_mod.load_corpus(args.corpus, args.mode)
    if args.tfidf:
        corpus = corpus_mod.tfidf_weight(corpus)
    return corpus


def _cmd_search(args) -> int:
    start = time.perf_counter()
    corpus = _load_for_search(args)
    load_seconds = time.perf_counter() - start
    config = _config_from_args(args)
    print(f"# effective seed: {config.seed}", file=sys.stderr)
    result = search.run_search(corpus, config)
    tsv = search.results_to_tsv(corpus, result)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(tsv)
    else:
        sys.stdout.write(tsv)
    if args.eval is not None:
        report = evaluate_run(corpus, result, load_seconds)
        if args.eval == "-":
            print(report.to_json())
        else:
            with open(args.eval, "w", encoding="utf-8") as fh:
                fh.write(report.to_json() + "\n")
        print(
            f"# recall {report.recall:.4f}"
            f" emitted {report.emitted} truth {report.truth_pairs}"
            f" err>0.05 {report.frac_error_above_005:.4f}",
            file=sys.stderr,
        )
    return 0


def _cmd_required_hashes(args) -> int:
    if args.similarity:
        grid = args.similarity
    else:
        grid = [round(0.05 * k, 2) for k in range(1, 20)]
    print(f"# delta\t{args.delta:g}\tgamma\t{args.gamma:g}")
    print("# similarity\trequired_hashes")
    for s in grid:
        if not 0.0 < s < 1.0:
            raise ValueError(f"similarity {s} outside (0, 1)")
        n = inference.required_hashes(s, args.delta, args.gamma, grid=args.grid)
        print(f"{s:g}\t{n}")
    return 0


def _parse_mn(specs: list[str]) -> list[tuple[int, int]]:
    pairs = []
    for spec in specs:
        m, sep, n = spec.partition(":")
        if not sep:
            raise ValueError(f"pair spec {spec!r} must look like M:N, e.g. 24:32")
        pairs.append((int(m), int(n)))
    return pairs


def _cmd_prior_demo(args) -> int:
    """Posterior density series showing power-law priors converging."""
    print("# exponent\tm\tn\tr\tdensity")
    for m, n in _parse_mn(args.pairs):
        if not 0 <= m <= n:
            raise ValueError(f"need 0 <= m <= n, got {m}:{n}")
        for exponent in args.exponents:
            r, density = inference.power_law_posterior_grid(
                exponent, m, n, gridpoints=args.gridpoints
            )
            for rv, dv in zip(r, density):
                print(f"{exponent:g}\t{m}\t{n}\t{rv:.6f}\t{dv:.10g}")
    return 0


def _parse_planted(specs: list[str]) -> list[tuple[int, float]]:
    planted = []
    for spec in specs:
        count, sep, target = spec.partition("x")
        if not sep:
            raise ValueError(f"planted spec {spec!r} must look like COUNTxSIM, e.g. 100x0.7")
        planted.append((int(count), float(target)))
    return planted


def _cmd_gen(args) -> int:
    print(f"# effective seed: {args.seed}", file=sys.stderr)
    corpus = corpus_mod.generate_synthetic(
        args.n, args.dim, _parse_planted(args.planted), seed=args.seed, mode=args.mode
    )
    corpus_mod.serialize_corpus(corpus, args.output)
    print(f"wrote {len(corpus)} vectors to {args.output}", file=sys.stderr)
    return 0


def _cmd_pruning_curve(args) -> int:
    corpus = _load_for_search(args)
    config = _config_from_args(args)
    if config.verifier not in ("bayeslsh", "bayeslsh-lite"):
        raise ValueError("pruning curves require a pruning verifier")
    print(f"# effective seed: {config.seed}", file=sys.stderr)
    result = search.run_search(corpus, config)
    print("# hashes\tsurviving_candidates")
    print(f"0\t{result.stats.candidates}")
    for n, alive in sorted(result.stats.survivors.items()):
        print(f"{n}\t{alive}")
    return 0


def _read_results_tsv(path) -> list[tuple[str, str, float]]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise ParseError(f"expected 5 columns, got {len(parts)}", lineno)
            try:
                rows.append((parts[0], parts[1], float(parts[2])))
            except ValueError:
                raise ParseError(f"estimate {parts[2]!r} is not a number", lineno) from None
    return rows


def _cmd_check_eval(args) -> int:
    corpus = corpus_mod.load_corpus(args.corpus, args.mode)
    with open(args.report, encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except ValueError as exc:
            raise ParseError(f"report {args.report}: not JSON ({exc})") from None
    if not isinstance(report, dict) or not isinstance(report.get("threshold"), (int, float)):
        raise ParseError(f"report {args.report}: not a JSON object with a numeric threshold")
    rows = _read_results_tsv(args.results)
    index = {vid: k for k, vid in enumerate(corpus.ids)}
    try:
        emitted = [(index[a], index[b], est) for a, b, est in rows]
    except KeyError as exc:
        raise ParseError(f"result id {exc.args[0]!r} not present in corpus") from exc

    recomputed = _score(corpus, report["threshold"], emitted)
    mismatches = []
    for key, value in recomputed.items():
        got = report.get(key)
        if isinstance(value, float):
            ok = isinstance(got, (int, float)) and abs(got - value) <= 1e-9
        else:
            ok = got == value
        if not ok:
            mismatches.append(f"{key}: report {got!r} != recomputed {value!r}")
    if mismatches:
        for line in mismatches:
            print(line, file=sys.stderr)
        return EXIT_MISMATCH
    print(f"report consistent: {len(recomputed)} fields match")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayeslsh", description="All-pairs similarity search with Bayesian pruning"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="run a similarity search on a corpus file")
    _add_search_options(p)
    p.add_argument("--output", "-o", default=None, help="results TSV (default stdout)")
    p.add_argument("--eval", default=None, metavar="PATH",
                   help="write a ground-truth evaluation report as JSON ('-' for stdout)")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("required-hashes", help="hash-count curve for a target guarantee")
    p.add_argument("--similarity", "-s", type=float, nargs="+", default=None,
                   help="similarity grid (default: 0.05 .. 0.95 step 0.05)")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--gamma", type=float, default=0.05)
    p.add_argument("--grid", type=int, default=16, help="hash-count granularity")
    p.set_defaults(func=_cmd_required_hashes)

    p = sub.add_parser("prior-demo", help="posterior densities under power-law priors")
    p.add_argument("--pairs", nargs="+", metavar="M:N",
                   default=["0:0", "24:32", "48:64", "96:128"],
                   help="match counts m:n to condition on")
    p.add_argument("--exponents", type=float, nargs="+", default=[-3.0, 0.0, 3.0],
                   help="prior density exponents (prior proportional to r^e)")
    p.add_argument("--gridpoints", type=int, default=1001)
    p.set_defaults(func=_cmd_prior_demo)

    p = sub.add_parser("gen", help="generate a synthetic corpus")
    p.add_argument("output")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--mode", default=corpus_mod.COSINE_WEIGHTED, choices=MODES)
    p.add_argument("--planted", nargs="*", default=[], metavar="COUNTxSIM",
                   help="planted pair groups, e.g. 100x0.7 50x0.9")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("pruning-curve", help="surviving candidates per hash batch")
    _add_search_options(p)
    p.set_defaults(func=_cmd_pruning_curve)

    p = sub.add_parser("check-eval", help="recompute an evaluation report independently")
    p.add_argument("results", help="results TSV from `search`")
    p.add_argument("corpus")
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--report", required=True, help="evaluation JSON from `search --eval`")
    p.set_defaults(func=_cmd_check_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except GuardError as exc:
        print(f"guard tripped: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (UnsupportedMeasure, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
