"""Shared fixtures: synthetic corpora with cached ground truth.

The acceptance-scale corpora (2,000 vectors) are expensive, so they are
built lazily through a session-scoped factory and reused by every test
that needs them. Bundles cache truth sets, candidate arrays, and signature
stores keyed by their parameters; all of it is deterministic in the
bundle seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from bayeslsh import candidates as cand_mod
from bayeslsh import corpus as corpus_mod
from bayeslsh.hashing import SignatureStore

ACCEPTANCE_SEEDS = (0, 1, 2)
ACCEPTANCE_PLANTED = ((150, 0.55), (150, 0.75), (150, 0.95))

# one "criterion NN: PASS/FAIL (...)" line per acceptance criterion,
# echoed into the terminal summary by the hook below
CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(CRITERION_LINES):
            terminalreporter.write_line(line)


class CorpusBundle:
    """A synthetic corpus plus lazily computed derived artifacts."""

    def __init__(self, seed, mode=corpus_mod.COSINE_WEIGHTED, n=2000, dim=20000,
                 planted=ACCEPTANCE_PLANTED):
        self.seed = seed
        self.mode = mode
        self.corpus = corpus_mod.generate_synthetic(
            n, dim, list(planted), seed=seed, mode=mode
        )
        self._truth: dict[float, set] = {}
        self._cands: dict[float, np.ndarray] = {}
        self._store: SignatureStore | None = None

    def sims(self, pairs) -> np.ndarray:
        """Exact similarity of each (i, j) row of `pairs`."""
        return corpus_mod.exact_similarities(self.corpus, pairs)

    def errors(self, out) -> np.ndarray:
        """|estimate - exact similarity| of each emitted PAIR_DTYPE row."""
        return np.abs([p.estimate for p in out] - self.sims([(p.i, p.j) for p in out]))

    def truth(self, threshold: float) -> set[tuple[int, int]]:
        """Index pairs with exact similarity strictly above the threshold."""
        if threshold not in self._truth:
            every = cand_mod.bruteforce_generate(len(self.corpus))
            above, _ = corpus_mod.exact_above(self.corpus, every, threshold)
            self._truth[threshold] = set(map(tuple, above.tolist()))
        return self._truth[threshold]

    def allpairs(self, threshold: float) -> np.ndarray:
        if threshold not in self._cands:
            self._cands[threshold] = cand_mod.allpairs_generate(self.corpus, threshold)
        return self._cands[threshold]

    def store(self, max_hashes: int = 4096) -> SignatureStore:
        """Shared signature store; extension is idempotent and append-only."""
        if self._store is None or self._store.max_hashes < max_hashes:
            self._store = SignatureStore(self.corpus, self.seed, max_hashes)
        return self._store


@pytest.fixture(scope="session")
def bundles():
    """Factory for the acceptance corpora, one per seed and mode, built on first use."""
    cache: dict[tuple[int, str], CorpusBundle] = {}

    def get(seed: int, mode: str = corpus_mod.COSINE_WEIGHTED) -> CorpusBundle:
        if (seed, mode) not in cache:
            cache[seed, mode] = CorpusBundle(seed, mode)
        return cache[seed, mode]

    return get


@pytest.fixture(scope="session")
def small_cosine() -> CorpusBundle:
    return CorpusBundle(11, n=300, dim=2500, planted=((20, 0.8), (15, 0.6)))


@pytest.fixture(scope="session")
def small_jaccard() -> CorpusBundle:
    return CorpusBundle(
        13, mode=corpus_mod.JACCARD, n=300, dim=2500, planted=((20, 0.8), (15, 0.6))
    )
