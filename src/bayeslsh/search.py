"""End-to-end similarity search: candidate generation plus verification.

Verification strategies over a candidate list:

* ``bayeslsh``: incremental hash comparison with posterior pruning and an
  early stop once the similarity estimate is concentrated.
* ``bayeslsh-lite``: the same pruning on a fixed hash budget, then exact
  similarity for the survivors.
* ``lsh-approx``: maximum-likelihood estimates from a fixed hash count,
  kept where they reach the threshold.
* ``exact``: exact similarity for every candidate.

All but ``exact`` run through one core, `BayesVerifier`: it steps every
live candidate of a chunk through the batch boundaries together, in one
thread. ``lsh-approx`` is that core with a single batch of the fixed hash
count, decided by `inference.MaxLikelihoodPosterior`. Output is one
`np.recarray` of `PAIR_DTYPE` rows sorted by index pair.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import candidates as cand_mod
from . import corpus as corpus_mod
from . import inference
from .corpus import Corpus
from .errors import UnsupportedMeasure
from .hashing import SignatureStore

GENERATORS = ("lsh", "allpairs", "bruteforce")
VERIFIERS = ("bayeslsh", "bayeslsh-lite", "lsh-approx", "exact")

_MEASURE_DEFAULTS = {
    "cosine": {"lite_hashes": 128, "max_hashes": 4096, "fixed_hashes": 2048, "band_width": 8},
    "jaccard": {"lite_hashes": 64, "max_hashes": 512, "fixed_hashes": 360, "band_width": 4},
}

_PRIOR_SAMPLE_CAP = 10_000

# candidate pairs verified together; bounds the per-batch working arrays
_CHUNK = 1 << 16

# one emitted pair per row: indices i < j plus the similarity estimate
PAIR_DTYPE = np.dtype([("i", np.int64), ("j", np.int64), ("estimate", np.float64),
                       ("exact", bool), ("low_confidence", bool)])


@dataclass
class SearchConfig:
    """Knobs for one search run; None fields resolve to per-measure defaults.

    `parallel` is kept for compatibility: verification runs
    batch-synchronously in one thread, and the value never changes output.
    """

    measure: str
    threshold: float
    epsilon: float = 0.03
    delta: float = 0.05
    gamma: float = 0.03
    batch_hashes: int = 32
    lite_hashes: int | None = None
    max_hashes: int | None = None
    fixed_hashes: int | None = None
    band_width: int | None = None
    fn_rate: float = 0.03
    generator: str = "lsh"
    verifier: str = "bayeslsh"
    seed: int = 0
    fresh_verification_hashes: bool = False
    # stays until ROADMAP item 1's benchmark-only PR stops perfbench/spec.py passing it
    parallel: int = 1

    def __post_init__(self):
        if self.measure not in _MEASURE_DEFAULTS:
            raise ValueError(f"unknown measure {self.measure!r}")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        for name in ("epsilon", "delta", "gamma", "fn_rate"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in (0, 1)")
        if self.batch_hashes < 1:
            raise ValueError("batch size must be >= 1")
        defaults = _MEASURE_DEFAULTS[self.measure]
        for name in ("max_hashes", "band_width"):
            if getattr(self, name) is None:
                setattr(self, name, defaults[name])
        # the default hash budgets shrink to fit a smaller cap; explicit ones must fit it
        for name in ("lite_hashes", "fixed_hashes"):
            if getattr(self, name) is None:
                setattr(self, name, min(defaults[name], self.max_hashes))
        if self.max_hashes % self.batch_hashes != 0 or self.max_hashes < self.batch_hashes:
            raise ValueError("max hashes must be a positive multiple of the batch size")
        if self.lite_hashes % self.batch_hashes != 0 or self.lite_hashes < 0:
            raise ValueError("lite hash budget must be a non-negative multiple of the batch size")
        if self.fixed_hashes < 1:
            raise ValueError("fixed hashes must be >= 1")
        for name in ("lite_hashes", "fixed_hashes"):
            if getattr(self, name) > self.max_hashes:
                raise ValueError(
                    f"{name} {getattr(self, name)} exceeds max_hashes {self.max_hashes}"
                )
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        if self.verifier not in VERIFIERS:
            raise ValueError(f"unknown verifier {self.verifier!r}")
        if self.parallel < 1:
            raise ValueError("parallel must be >= 1")


@dataclass
class SearchStats:
    candidates: int = 0
    emitted: int = 0
    # exact similarities computed: the prior-fit sample plus exact verification
    exact_computed: int = 0
    # row x hash evaluations, summed over the banding and verification stores
    hash_evals: int = 0
    survivors: dict[int, int] = field(default_factory=dict)
    # pairs pruned, and pairs stopped with a concentrated estimate, at each
    # batch boundary; pairs left unconcentrated when the budget ran out. Every
    # verified candidate falls in exactly one of them.
    pruned: dict[int, int] = field(default_factory=dict)
    stopped: dict[int, int] = field(default_factory=dict)
    low_confidence: int = 0
    timings: dict[str, float] = field(default_factory=dict)
    prior: inference.BetaParams | None = None


class Verdicts(NamedTuple):
    """Verification outcome, held only for the pairs that passed the first batch.

    `passed` holds the ascending list positions of the pairs that passed
    the first batch's prune test, and the next four arrays one entry per
    such pair: `pruned_at` is the hash count at which it was pruned, 0 if
    it survived; survivors carry their posterior estimate, and those still
    unconcentrated when the budget ran out are flagged `low_confidence`.
    Every other pair was pruned at the first boundary k, with k hashes
    used and estimate 0. `pruned[b]` and `stopped[b]` count the pairs
    pruned and stopped concentrated at boundary (b + 1) * k.
    """

    passed: np.ndarray
    pruned_at: np.ndarray
    hashes_used: np.ndarray
    estimate: np.ndarray
    low_confidence: np.ndarray
    pruned: np.ndarray
    stopped: np.ndarray


def _pair_list(pairs):
    """An enumerated brute-force list as is; any other pairs as an (M, 2) int64 array."""
    if isinstance(pairs, cand_mod.BruteforcePairs):
        return pairs
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


class BayesVerifier:
    """Shared state for verifying candidate pairs against one store."""

    def __init__(self, store: SignatureStore, posterior, config: SearchConfig,
                 budget: int | None = None, batch: int | None = None):
        self.store = store
        self.posterior = posterior
        self.config = config
        self.budget = config.max_hashes if budget is None else budget
        self.batch = config.batch_hashes if batch is None else batch
        self.table = inference.build_minmatch_table(
            posterior, config.threshold, config.epsilon, self.batch, self.budget
        )
        self.cache = inference.ConcentrationCache(posterior, config.delta, config.gamma)
        # a row with no entries hashes to all ones yet has similarity 0 to every row
        empty = np.diff(store._corpus.flat()[0]) == 0
        self.empty = empty if empty.any() else None

    def _lookup(self, m: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(concentrated?, estimate) for each count, one lookup per distinct m."""
        distinct, inverse = np.unique(m, return_inverse=True)
        looked = [self.cache.lookup(int(d), n) for d in distinct]
        concentrated = np.array([c for c, _ in looked], dtype=bool)
        estimate = np.array([e for _, e in looked], dtype=np.float64)
        return concentrated[inverse], estimate[inverse]

    def _first_batch(self, pairs) -> tuple[np.ndarray, np.ndarray]:
        """Ascending positions and counts of the pairs that pass the first prune test.

        With minMatches(k) >= 1, a pair sharing none of the first k hashes
        is pruned, so when the store's `match_index` over [0, k) exists
        (the collisions number no more than the pairs) only its pairs are
        looked for in a brute-force enumeration, by arithmetic. Any other
        list is counted a chunk at a time, and a pair touching an empty row
        (cosine only: minhash refuses the empty set) is pruned whatever it counts.
        """
        k, total = self.batch, len(pairs)
        floor = self.table[k]
        if floor >= 1 and isinstance(pairs, cand_mod.BruteforcePairs):
            index = self.store.match_index(0, k, total)
            if index is not None:
                sel = index.counts >= floor
                return pairs.positions(index.keys[sel]), index.counts[sel]
        kept, kept_m = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        for lo in range(0, total, _CHUNK):
            part = pairs[lo : lo + _CHUNK]
            c = self.store.count_matches_bulk(part, 0, k)
            at = np.flatnonzero(c >= floor)
            if self.empty is not None:
                at = at[~self.empty[part[at]].any(axis=1)]
            kept.append(at + lo)
            kept_m.append(c[at])
        return np.concatenate(kept), np.concatenate(kept_m)

    def verify(self, pairs) -> Verdicts:
        """Algorithm: compare one batch at a time, prune or stop early.

        Both decisions depend only on (m, n), so all live pairs step through
        each batch boundary together. The first batch keeps only the pairs
        that pass its prune test (`_first_batch`); from then on they are
        counted and decided one chunk at a time, and only the live ones,
        with their match counts, go on to the next batch. Before each batch
        the store is extended once, to the rows that the live pairs still
        use. No array spans the pairs pruned at the first boundary.
        """
        pairs = _pair_list(pairs)
        k, budget, n_objects = self.batch, self.budget, self.store.n_objects
        pruned = np.zeros(budget // k, dtype=np.int64)
        stopped = np.zeros(budget // k, dtype=np.int64)
        if budget < k or len(pairs) == 0:
            passed = np.arange(len(pairs))
            m = np.zeros(len(pairs), dtype=np.int64)
        else:
            if k > self.store.hashes_available:
                if isinstance(pairs, cand_mod.BruteforcePairs):
                    rows = None  # a nonempty enumeration uses every row
                else:
                    used = np.zeros(n_objects, dtype=bool)
                    used[pairs.reshape(-1)] = True
                    rows = np.flatnonzero(used)
                self.store.extend(k, rows)
            passed, m = self._first_batch(pairs)
            pruned[0] = len(pairs) - len(passed)
        sub = pairs[passed]
        v = Verdicts(
            passed,
            np.zeros(len(passed), dtype=np.int64),
            np.zeros(len(passed), dtype=np.int64),
            np.zeros(len(passed), dtype=np.float64),
            np.zeros(len(passed), dtype=bool),
            pruned,
            stopped,
        )
        live = np.arange(len(passed))
        for b, n in enumerate(range(k, budget + 1, k)):
            if len(live) == 0:
                break
            if n > self.store.hashes_available:
                used = np.zeros(n_objects, dtype=bool)
                used[sub[live].reshape(-1)] = True
                self.store.extend(n, np.flatnonzero(used))
            kept, kept_m = [], []
            for lo in range(0, len(live), _CHUNK):
                at, c = live[lo : lo + _CHUNK], m[lo : lo + _CHUNK]
                if n > k:
                    c = c + self.store.count_matches_bulk(sub[at], n - k, n)
                alive = c >= self.table[n]
                v.pruned_at[at[~alive]] = n
                v.hashes_used[at] = n
                pruned[b] += len(at) - int(np.count_nonzero(alive))
                at, c = at[alive], c[alive]
                concentrated, estimate = self._lookup(c, n)
                v.estimate[at[concentrated]] = estimate[concentrated]
                stopped[b] += int(np.count_nonzero(concentrated))
                kept.append(at[~concentrated])
                kept_m.append(c[~concentrated])
            live, m = np.concatenate(kept), np.concatenate(kept_m)
        v.estimate[live] = self._lookup(m, budget)[1]
        v.low_confidence[live] = True
        return v


def fit_candidate_prior(
    corpus: Corpus, pairs: np.ndarray, seed: int
) -> inference.BetaParams:
    """Beta prior fitted on exact similarities of sampled candidate pairs."""
    if len(pairs) == 0:
        return inference.UNIFORM_PRIOR
    rng = np.random.default_rng(seed)
    size = min(_PRIOR_SAMPLE_CAP, len(pairs))
    chosen = rng.choice(len(pairs), size=size, replace=False)
    return inference.fit_beta_mom(corpus_mod.exact_similarities(corpus, pairs[chosen]))


def _survivor_counts(pruned, total: int, k: int) -> dict[int, int]:
    """Candidates still alive after each batch boundary (stopped pairs stay).

    `pruned[b]` is the number of pairs pruned at boundary (b + 1) * k.
    """
    cumulative = np.cumsum(np.asarray(pruned, dtype=np.int64))
    return {(b + 1) * k: int(total - gone) for b, gone in enumerate(cumulative.tolist())}


def _emit(corpus: Corpus, pairs, config: SearchConfig,
          estimate: np.ndarray | None, low_confidence: np.ndarray | None = None) -> np.recarray:
    """`PAIR_DTYPE` rows for the kept candidate `pairs`, sorted by index pair.

    `estimate` and `low_confidence` hold one entry per kept pair. With no
    `estimate`, the pairs (an array or a `BruteforcePairs`) are verified
    exactly a chunk at a time and emitted only strictly above the threshold.
    """
    exact = estimate is None
    if exact:
        pairs, estimate = corpus_mod.exact_above(corpus, pairs, config.threshold)
    order = np.argsort(pairs[:, 0] * len(corpus) + pairs[:, 1], kind="stable")
    out = np.recarray(len(pairs), dtype=PAIR_DTYPE)
    out.i, out.j = pairs[order].T
    out.estimate = estimate[order]
    out.exact = exact
    out.low_confidence = False if low_confidence is None else low_confidence[order]
    return out


def _default_store(corpus: Corpus, config: SearchConfig,
                   store: SignatureStore | None = None) -> SignatureStore:
    """`store`, or a new one over `corpus` with the configured seed and hash cap."""
    return SignatureStore(corpus, config.seed, config.max_hashes) if store is None else store


def _verify_run(corpus: Corpus, pairs, config: SearchConfig,
                store: SignatureStore | None, budget: int, exact: bool, posterior=None):
    """Prune on up to `budget` hashes, then emit posterior or exact estimates.

    An exact run with a zero budget hashes nothing and verifies every
    candidate exactly. A given `posterior` decides one batch of `budget`
    hashes; otherwise the measure's posterior decides batches of the
    configured size, and jaccard runs fit its prior on the candidates.
    """
    pairs = _pair_list(pairs)
    stats = SearchStats(candidates=len(pairs))
    if not budget and exact:
        out = _emit(corpus, pairs, config, None)
        stats.exact_computed = len(pairs)
        stats.emitted = len(out)
        return out, stats
    k = budget
    if posterior is None:
        k = config.batch_hashes
        if config.measure == "jaccard":
            stats.prior = fit_candidate_prior(corpus, pairs, config.seed)
            stats.exact_computed = min(_PRIOR_SAMPLE_CAP, len(pairs))
        posterior = inference.posterior_for_measure(config.measure, stats.prior)
    store = _default_store(corpus, config, store)
    v = BayesVerifier(store, posterior, config, budget, k).verify(pairs)
    kept = v.pruned_at == 0
    if exact:
        out = _emit(corpus, pairs[v.passed[kept]], config, None)
        stats.exact_computed += int(np.count_nonzero(kept))
    else:
        out = _emit(corpus, pairs[v.passed[kept]], config,
                    v.estimate[kept], v.low_confidence[kept])
    stats.emitted = len(out)
    stats.survivors = _survivor_counts(v.pruned, len(pairs), k)
    stats.pruned = {(b + 1) * k: int(c) for b, c in enumerate(v.pruned.tolist())}
    stats.stopped = {(b + 1) * k: int(c) for b, c in enumerate(v.stopped.tolist())}
    stats.low_confidence = int(np.count_nonzero(v.low_confidence))
    return out, stats


def bayeslsh_run(
    corpus: Corpus,
    pairs: np.ndarray,
    config: SearchConfig,
    store: SignatureStore | None = None,
) -> tuple[np.recarray, SearchStats]:
    """Verify candidates with posterior pruning and early-stopped estimates."""
    return _verify_run(corpus, pairs, config, store, config.max_hashes, False)


def bayeslsh_lite_run(
    corpus: Corpus,
    pairs: np.ndarray,
    config: SearchConfig,
    store: SignatureStore | None = None,
) -> tuple[np.recarray, SearchStats]:
    """Prune on a fixed hash budget, then verify survivors exactly.

    A zero budget skips hashing entirely and verifies every candidate.
    Emitted pairs carry their exact similarity and must clear the threshold
    strictly.
    """
    return _verify_run(corpus, pairs, config, store, config.lite_hashes, True)


def lsh_approx_run(
    corpus: Corpus,
    pairs: np.ndarray,
    config: SearchConfig,
    store: SignatureStore | None = None,
) -> tuple[np.recarray, SearchStats]:
    """Maximum-likelihood estimates from one batch of `fixed_hashes`; keep those reaching t."""
    posterior = inference.MaxLikelihoodPosterior(config.measure)
    return _verify_run(corpus, pairs, config, store, config.fixed_hashes, False, posterior)


def exact_run(
    corpus: Corpus,
    pairs: np.ndarray,
    config: SearchConfig,
) -> tuple[np.recarray, SearchStats]:
    """Exact similarity for every candidate; emit strictly above threshold."""
    return _verify_run(corpus, pairs, config, None, 0, True)


def generate_candidates(
    corpus: Corpus, config: SearchConfig, store: SignatureStore | None = None
) -> np.ndarray:
    """Dispatch to the configured candidate generator."""
    if config.generator == "bruteforce":
        return cand_mod.bruteforce_generate(len(corpus))
    if config.generator == "allpairs":
        return cand_mod.allpairs_generate(corpus, config.threshold)
    # banding sizes tables from the per-hash collision probability at the
    # threshold, which for cosine hashes is c2r(t) rather than t itself
    collide_at_t = (
        inference.c2r(config.threshold) if config.measure == "cosine" else config.threshold
    )
    params = cand_mod.BandingParams.for_threshold(
        config.fn_rate, collide_at_t, config.band_width
    )
    store = _default_store(corpus, config, store)
    store.extend(params.hashes_needed)
    return cand_mod.lsh_banding_generate(store, params, seed=config.seed)


@dataclass
class SearchResult:
    """Emitted `PAIR_DTYPE` rows sorted by (i, j), the run's counts and its config."""

    pairs: np.recarray
    stats: SearchStats
    config: SearchConfig


def run_search(corpus: Corpus, config: SearchConfig) -> SearchResult:
    """Full pipeline: signatures, candidate generation, verification."""
    expected = corpus_mod.measure_for_mode(corpus.mode)
    if config.measure != expected:
        raise UnsupportedMeasure(
            f"corpus mode {corpus.mode!r} requires measure {expected!r}, got {config.measure!r}"
        )
    # hashing inside SignatureStore.extend is booked to "signatures" and
    # taken out of the stage that triggered it, so the stages sum to the search
    t0 = time.perf_counter()
    # a search that never hashes builds no store, so it takes rows no hash family can
    hashes = config.generator == "lsh" or config.verifier != "exact"
    store = _default_store(corpus, config) if hashes else None
    pairs = generate_candidates(corpus, config, store)
    generation = time.perf_counter() - t0
    hashed = store.extend_seconds if hashes else 0.0

    t0 = time.perf_counter()
    if config.fresh_verification_hashes and config.verifier != "exact":
        verify_seed = int(
            np.random.SeedSequence(config.seed, spawn_key=(0x5EED,)).generate_state(1)[0]
        )
        verify_store = SignatureStore(corpus, verify_seed, config.max_hashes)
    else:
        verify_store = store

    if config.verifier == "bayeslsh":
        out, stats = bayeslsh_run(corpus, pairs, config, verify_store)
    elif config.verifier == "bayeslsh-lite":
        out, stats = bayeslsh_lite_run(corpus, pairs, config, verify_store)
    elif config.verifier == "lsh-approx":
        out, stats = lsh_approx_run(corpus, pairs, config, verify_store)
    else:
        out, stats = exact_run(corpus, pairs, config)
    stores = {store, verify_store} - {None}
    signatures = sum((s.extend_seconds for s in stores), 0.0)
    stats.hash_evals = sum(s.hash_evals for s in stores)
    stats.timings = {
        "signatures": signatures,
        "generation": generation - hashed,
        "verification": time.perf_counter() - t0 - (signatures - hashed),
    }
    return SearchResult(out, stats, config)


def results_to_tsv(corpus: Corpus, result: SearchResult) -> str:
    """Render emitted pairs as TSV with '#' parameter header lines."""
    cfg = result.config
    lines = [
        "# similarity search results",
        f"# measure\t{cfg.measure}",
        f"# threshold\t{cfg.threshold:g}",
        f"# epsilon\t{cfg.epsilon:g}\tdelta\t{cfg.delta:g}\tgamma\t{cfg.gamma:g}",
        f"# generator\t{cfg.generator}\tverifier\t{cfg.verifier}",
        f"# seed\t{cfg.seed}",
        "# id_i\tid_j\testimate\texact\tlow_confidence",
    ]
    ids, p = np.array(corpus.ids, dtype=object), result.pairs
    # flags read as uint8 print as 0 and 1
    lines.extend(map("{}\t{}\t{:.10g}\t{}\t{}".format, ids[p.i].tolist(), ids[p.j].tolist(),
                     p.estimate.tolist(), p.exact.view(np.uint8).tolist(),
                     p.low_confidence.view(np.uint8).tolist()))
    return "\n".join(lines) + "\n"
