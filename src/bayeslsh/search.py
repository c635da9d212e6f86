"""End-to-end similarity search: candidate generation plus verification.

Verification strategies over a candidate list:

* ``bayeslsh``: incremental hash comparison with posterior pruning and an
  early stop once the similarity estimate is concentrated.
* ``bayeslsh-lite``: the same pruning on a fixed hash budget, then exact
  similarity for the survivors.
* ``lsh-approx``: maximum-likelihood estimates from a fixed hash count.
* ``exact``: exact similarity for every candidate.

The Bayesian verifiers step every live candidate of a chunk through the
batch boundaries together, in one thread; output is sorted by index pair.
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
from .hashing import DEFAULT_MAX_BITS, DEFAULT_MAX_INTS, SignatureStore

GENERATORS = ("lsh", "allpairs", "bruteforce")
VERIFIERS = ("bayeslsh", "bayeslsh-lite", "lsh-approx", "exact")

_MEASURE_DEFAULTS = {
    "cosine": {"lite_hashes": 128, "max_hashes": DEFAULT_MAX_BITS, "fixed_hashes": 2048, "band_width": 8},
    "jaccard": {"lite_hashes": 64, "max_hashes": DEFAULT_MAX_INTS, "fixed_hashes": 360, "band_width": 4},
}

_PRIOR_SAMPLE_CAP = 10_000

# candidate pairs verified together; bounds the per-batch working arrays
_CHUNK = 1 << 16


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


@dataclass(frozen=True)
class OutputPair:
    """One emitted pair: indices i < j plus the similarity estimate."""

    i: int
    j: int
    estimate: float
    exact: bool
    low_confidence: bool = False


@dataclass
class SearchStats:
    candidates: int = 0
    emitted: int = 0
    # exact similarities computed: the prior-fit sample plus exact verification
    exact_computed: int = 0
    # row x hash evaluations, summed over the banding and verification stores
    hash_evals: int = 0
    survivors: dict[int, int] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    prior: inference.BetaParams | None = None


class Verdicts(NamedTuple):
    """Per-pair verification outcome, one entry per candidate pair.

    `pruned_at` is the hash count at which a pair was pruned, 0 if it
    survived; survivors carry their posterior estimate, and those still
    unconcentrated when the budget ran out are flagged `low_confidence`.
    """

    pruned_at: np.ndarray
    hashes_used: np.ndarray
    estimate: np.ndarray
    low_confidence: np.ndarray


class BayesVerifier:
    """Shared state for verifying candidate pairs against one store."""

    def __init__(self, store: SignatureStore, posterior, config: SearchConfig,
                 budget: int | None = None):
        self.store = store
        self.posterior = posterior
        self.config = config
        self.budget = config.max_hashes if budget is None else budget
        self.table = inference.build_minmatch_table(
            posterior, config.threshold, config.epsilon, config.batch_hashes, self.budget
        )
        self.cache = inference.ConcentrationCache(posterior, config.delta, config.gamma)

    def _lookup(self, m: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(concentrated?, estimate) for each count, one lookup per distinct m."""
        distinct, inverse = np.unique(m, return_inverse=True)
        looked = [self.cache.lookup(int(d), n) for d in distinct]
        concentrated = np.array([c for c, _ in looked], dtype=bool)
        estimate = np.array([e for _, e in looked], dtype=np.float64)
        return concentrated[inverse], estimate[inverse]

    def verify(self, pairs: np.ndarray) -> Verdicts:
        """Algorithm: compare one batch at a time, prune or stop early.

        Both decisions depend only on (m, n), so all live pairs step through
        each batch boundary together: they are counted and decided one
        chunk at a time, and only the survivors, with their match counts,
        go on to the next batch. Before each batch the store is extended
        once, to the rows that the live pairs still use. When the list holds
        at least one pair per row, the first batch's counts are read from
        the store's `match_index` (built when its collisions number no more
        than the pairs); the counts, and so the verdicts, are the same.
        """
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        k = self.config.batch_hashes
        v = Verdicts(
            np.zeros(len(pairs), dtype=np.int64),
            np.zeros(len(pairs), dtype=np.int64),
            np.zeros(len(pairs), dtype=np.float64),
            np.zeros(len(pairs), dtype=bool),
        )
        # None stands for every pair, so no index spans all the candidates
        live, m = None, None
        for n in range(k, self.budget + 1, k):
            total = len(pairs) if live is None else len(live)
            if total == 0:
                break
            if n > self.store.hashes_available:
                rows = np.zeros(self.store.n_objects, dtype=bool)
                rows[(pairs if live is None else pairs[live]).reshape(-1)] = True
                self.store.extend(n, np.flatnonzero(rows))
            index = (self.store.match_index(n - k, n, total)
                     if live is None and total >= self.store.n_objects else None)
            kept, kept_m = [], []
            for lo in range(0, total, _CHUNK):
                hi = min(lo + _CHUNK, total)
                # the first batch holds every pair, so it works on slices
                idx = slice(lo, hi) if live is None else live[lo:hi]
                c = self.store.count_matches_bulk(pairs[idx], n - k, n, index=index)
                if live is not None:
                    c += m[lo:hi]
                alive = c >= self.table.min_matches(n)
                v.pruned_at[idx] = np.where(alive, 0, n)
                v.hashes_used[idx] = n
                at = np.flatnonzero(alive)
                c = c[at]
                at = at + lo if live is None else idx[at]
                concentrated, estimate = self._lookup(c, n)
                v.estimate[at[concentrated]] = estimate[concentrated]
                kept.append(at[~concentrated])
                kept_m.append(c[~concentrated])
            live = np.concatenate(kept)
            m = np.concatenate(kept_m)
        if live is None:
            live, m = np.arange(len(pairs)), np.zeros(len(pairs), dtype=np.int64)
        v.estimate[live] = self._lookup(m, self.budget)[1]
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


def _survivor_counts(prune_ns, total: int, k: int, budget: int) -> dict[int, int]:
    """Candidates still alive after each batch boundary (stopped pairs stay).

    `prune_ns` holds the hash count each pair was pruned at; zeros, the
    pairs never pruned, fall in bin 0 and are not read.
    """
    # pairs are pruned only at multiples of k, so the histogram is read at those
    pruned = np.bincount(np.asarray(prune_ns, dtype=np.int64), minlength=budget + 1)[k::k]
    cumulative = np.cumsum(pruned)
    return {(batch + 1) * k: int(total - cumulative[batch]) for batch in range(budget // k)}


def _emit(corpus: Corpus, pairs: np.ndarray, keep: np.ndarray, config: SearchConfig,
          estimate: np.ndarray | None, low_confidence: np.ndarray | None = None) -> list:
    """Output pairs for the kept candidates, sorted by index pair.

    With no `estimate`, kept pairs are verified exactly in one batch and
    emitted only strictly above the threshold.
    """
    idx = np.flatnonzero(keep)
    exact = estimate is None
    if exact:
        sims = corpus_mod.exact_similarities(corpus, pairs[idx])
        above = sims > config.threshold
        idx, values = idx[above], sims[above]
    else:
        values = estimate[idx]
    low = low_confidence[idx] if low_confidence is not None else np.zeros(len(idx), dtype=bool)
    out = [
        OutputPair(i, j, e, exact, lo)
        for (i, j), e, lo in zip(pairs[idx].tolist(), values.tolist(), low.tolist())
    ]
    out.sort(key=lambda o: (o.i, o.j))
    return out


def _default_store(corpus: Corpus, config: SearchConfig,
                   store: SignatureStore | None = None) -> SignatureStore:
    """`store`, or a new one over `corpus` with the configured seed and hash cap."""
    return SignatureStore(corpus, config.seed, config.max_hashes) if store is None else store


def _verify_run(corpus: Corpus, pairs: np.ndarray, config: SearchConfig,
                store: SignatureStore | None, budget: int, exact: bool):
    """Prune on up to `budget` hashes, then emit posterior or exact estimates.

    An exact run with a zero budget hashes nothing and verifies every
    candidate exactly. Jaccard runs fit their prior on the candidates.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    stats = SearchStats(candidates=len(pairs))
    verdicts = None
    if budget or not exact:
        if config.measure == "jaccard":
            stats.prior = fit_candidate_prior(corpus, pairs, config.seed)
            stats.exact_computed = min(_PRIOR_SAMPLE_CAP, len(pairs))
        posterior = inference.posterior_for_measure(config.measure, stats.prior)
        store = _default_store(corpus, config, store)
        verdicts = BayesVerifier(store, posterior, config, budget).verify(pairs)
    keep = np.ones(len(pairs), dtype=bool) if verdicts is None else verdicts.pruned_at == 0
    if exact:
        out = _emit(corpus, pairs, keep, config, None)
        stats.exact_computed += int(np.count_nonzero(keep))
    else:
        out = _emit(corpus, pairs, keep, config, verdicts.estimate, verdicts.low_confidence)
    stats.emitted = len(out)
    if verdicts is not None:
        stats.survivors = _survivor_counts(
            verdicts.pruned_at, len(pairs), config.batch_hashes, budget
        )
    return out, stats


def bayeslsh_run(
    corpus: Corpus,
    pairs: np.ndarray,
    config: SearchConfig,
    store: SignatureStore | None = None,
) -> tuple[list[OutputPair], SearchStats]:
    """Verify candidates with posterior pruning and early-stopped estimates."""
    return _verify_run(corpus, pairs, config, store, config.max_hashes, False)


def bayeslsh_lite_run(
    corpus: Corpus,
    pairs: np.ndarray,
    config: SearchConfig,
    store: SignatureStore | None = None,
) -> tuple[list[OutputPair], SearchStats]:
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
) -> tuple[list[OutputPair], SearchStats]:
    """Fixed-hash-count maximum-likelihood estimates, no pruning."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    store = _default_store(corpus, config, store)
    n = config.fixed_hashes
    store.extend(n)
    estimate_of = inference.cosine_map if config.measure == "cosine" else inference.ml_estimate
    estimate = np.zeros(len(pairs), dtype=np.float64)
    for lo in range(0, len(pairs), _CHUNK):
        counts = store.count_matches_bulk(pairs[lo : lo + _CHUNK], 0, n)
        distinct, inverse = np.unique(counts, return_inverse=True)
        looked = np.array([estimate_of(int(m), n) for m in distinct], dtype=np.float64)
        estimate[lo : lo + len(counts)] = looked[inverse]
    out = _emit(corpus, pairs, estimate >= config.threshold, config, estimate)
    return out, SearchStats(candidates=len(pairs), emitted=len(out))


def exact_run(
    corpus: Corpus,
    pairs: np.ndarray,
    config: SearchConfig,
) -> tuple[list[OutputPair], SearchStats]:
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
    pairs: list[OutputPair]
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
    store = _default_store(corpus, config)
    pairs = generate_candidates(corpus, config, store)
    generation = time.perf_counter() - t0
    hashed = store.extend_seconds

    t0 = time.perf_counter()
    if config.fresh_verification_hashes:
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
    stores = {store, verify_store}
    signatures = sum(s.extend_seconds for s in stores)
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
    for pair in result.pairs:
        lines.append(
            f"{corpus.ids[pair.i]}\t{corpus.ids[pair.j]}\t{pair.estimate:.10g}"
            f"\t{int(pair.exact)}\t{int(pair.low_confidence)}"
        )
    return "\n".join(lines) + "\n"
