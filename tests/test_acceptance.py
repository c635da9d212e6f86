"""Acceptance gate: one test per shipped guarantee, one summary line each.

Every test prints ``criterion NN: PASS/FAIL (detail)`` and the conftest
terminal hook replays the lines after the run. Numeric targets are asserted
at their stated tolerances; several criteria also carry runtime budgets.
"""

import time

import numpy as np
import pytest
from conftest import ACCEPTANCE_SEEDS, CRITERION_LINES, CorpusBundle

from bayeslsh import cli, inference
from bayeslsh.candidates import BandingParams, bruteforce_generate, lsh_banding_generate, num_tables
from bayeslsh.corpus import (
    COSINE_WEIGHTED,
    JACCARD,
    Corpus,
    SparseVector,
    generate_synthetic,
    similarity_matrix,
)
from bayeslsh.hashing import SignatureStore, decode_gaussian_2byte, encode_gaussian_2byte
from bayeslsh.search import (
    SearchConfig,
    bayeslsh_lite_run,
    bayeslsh_run,
    generate_candidates,
    lsh_approx_run,
)
from oracles import (
    cosine_concentration_oracle,
    cosine_prune_oracle,
    jaccard_concentration_oracle,
    jaccard_prune_oracle,
)


def _criterion(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def recall_runs(bundles):
    """Factory caching one verified run per (seed, generator, verifier)."""
    cache: dict = {}

    def get(seed: int, generator: str, verifier: str):
        key = (seed, generator, verifier)
        if key not in cache:
            bundle = bundles(seed)
            cfg = SearchConfig(
                "cosine", 0.5, generator=generator, verifier=verifier, seed=seed
            )
            store = bundle.store()
            pairs = generate_candidates(bundle.corpus, cfg, store)
            runner = bayeslsh_run if verifier == "bayeslsh" else bayeslsh_lite_run
            cache[key], _ = runner(bundle.corpus, pairs, cfg, store=store)
        return cache[key]

    return get


def test_criterion_01_hash_count_curve():
    t0 = time.perf_counter()
    curve = {
        s: inference.required_hashes(s, 0.05, 0.05)
        for s in [round(0.05 * k, 2) for k in range(1, 20)]
    }
    elapsed = time.perf_counter() - t0
    mid, edge = curve[0.5], curve[0.95]
    ok = (
        abs(mid - 350) <= 35
        and abs(edge - 16) <= 1.6
        and mid == max(curve.values())
        and elapsed < 1.0
    )
    _criterion(1, ok, f"n(0.5)={mid}, n(0.95)={edge}, peak at 0.5, {elapsed:.2f}s")


def test_criterion_02_collision_law():
    t0 = time.perf_counter()
    hashes = 100_032  # multiple of the 64-hash extension step
    targets = [0.1, 0.3, 0.5, 0.7, 0.9]

    vecs, expected = [], []
    for s in targets:
        vecs.append(SparseVector(np.array([0]), np.array([1.0])))
        vecs.append(
            SparseVector(np.array([0, 1]), np.array([s, np.sqrt(1.0 - s * s)]))
        )
        expected.append(inference.c2r(s))
    ids = [f"v{k}" for k in range(len(vecs))]
    cosine = Corpus(ids, vecs, COSINE_WEIGHTED, dim=4)

    vecs = []
    for s in targets:
        shared = int(round(20 * s))
        extra = 20 - shared
        common = np.arange(shared)
        vecs.append(SparseVector(common, np.ones(shared)))
        vecs.append(
            SparseVector(
                np.concatenate([common, np.arange(1000, 1000 + extra)]),
                np.ones(shared + extra),
            )
        )
    jaccard = Corpus(ids, vecs, JACCARD, dim=2048)

    worst = {}
    for name, corpus, exp in [
        ("cosine", cosine, expected),
        ("jaccard", jaccard, targets),
    ]:
        store = SignatureStore(corpus, seed=97, max_hashes=hashes)
        store.extend(hashes)
        devs = [
            abs(store.count_matches(2 * k, 2 * k + 1, 0, hashes) / hashes - exp[k])
            for k in range(len(targets))
        ]
        worst[name] = max(devs)
    elapsed = time.perf_counter() - t0
    ok = worst["cosine"] <= 0.01 and worst["jaccard"] <= 0.01 and elapsed < 30.0
    _criterion(
        2,
        ok,
        f"max dev cosine {worst['cosine']:.4f}, jaccard {worst['jaccard']:.4f}"
        f" over {hashes} hashes, {elapsed:.1f}s",
    )


def test_criterion_03_posterior_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        alpha, beta = rng.uniform(0.5, 8.0, size=2)
        prior = inference.BetaParams(alpha, beta)
        n = int(rng.integers(8, 513))
        m = int(rng.integers(0, n + 1))
        t = float(rng.uniform(0.05, 0.95))
        d = float(rng.uniform(0.01, 0.2))
        worst = max(
            worst,
            abs(
                inference.jaccard_prune_prob(prior, m, n, t)
                - jaccard_prune_oracle(alpha, beta, m, n, t)
            ),
        )
        est = inference.jaccard_map(prior, m, n)
        worst = max(
            worst,
            abs(
                inference.jaccard_concentration_prob(prior, m, n, est, d)
                - jaccard_concentration_oracle(alpha, beta, m, n, est, d)
            ),
        )
    for _ in range(100):
        n = int(rng.integers(8, 513))
        m = int(rng.integers(0, n + 1))
        t = float(rng.uniform(0.05, 0.95))
        d = float(rng.uniform(0.01, 0.2))
        worst = max(
            worst,
            abs(inference.cosine_prune_prob(m, n, t) - cosine_prune_oracle(m, n, t)),
        )
        est = inference.cosine_map(m, n)
        worst = max(
            worst,
            abs(
                inference.cosine_concentration_prob(m, n, est, d)
                - cosine_concentration_oracle(m, n, est, d)
            ),
        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _criterion(3, ok, f"max |impl - quadrature| {worst:.2e} on 400 checks, {elapsed:.1f}s")


def test_criterion_04_minmatch_boundary_and_monotonicity():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for measure in ("jaccard", "cosine"):
        posterior = inference.posterior_for_measure(measure)
        for t in (0.5, 0.7, 0.9):
            for eps in (0.01, 0.03, 0.09):
                table = inference.build_minmatch_table(posterior, t, eps, 32, 4096)
                prev = 0
                for n, m_star in table.items():
                    checked += 1
                    if m_star > n:  # infeasible: even all-matching cannot clear eps
                        ok = ok and posterior.prune_prob(n, n, t) < eps and prev == 0
                        continue
                    ok = ok and posterior.prune_prob(m_star, n, t) >= eps
                    if m_star > 0:
                        ok = ok and posterior.prune_prob(m_star - 1, n, t) < eps
                    ok = ok and m_star >= prev
                    prev = m_star
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _criterion(4, ok, f"{checked} entries over 18 (measure,t,eps) tables, {elapsed:.1f}s")


def test_criterion_05_recall_all_pipelines(bundles, recall_runs):
    recalls = {}
    for generator in ("lsh", "allpairs"):
        for verifier in ("bayeslsh", "bayeslsh-lite"):
            per_seed = []
            for seed in ACCEPTANCE_SEEDS:
                truth = bundles(seed).truth(0.5)
                got = {(p.i, p.j) for p in recall_runs(seed, generator, verifier)}
                per_seed.append(len(got & truth) / len(truth))
            recalls[f"{generator}+{verifier}"] = float(np.mean(per_seed))
    ok = all(r >= 0.95 for r in recalls.values())
    detail = ", ".join(f"{k} {v:.4f}" for k, v in recalls.items())
    _criterion(5, ok, f"3-seed mean recall: {detail}")


def test_criterion_06_estimate_accuracy(bundles, recall_runs):
    errors = []
    for seed in ACCEPTANCE_SEEDS:
        sims = bundles(seed).sims
        for p in recall_runs(seed, "lsh", "bayeslsh"):
            errors.append(abs(p.estimate - float(sims[p.i, p.j])))
    frac_bayes = sum(1 for e in errors if e > 0.05) / len(errors)

    bundle = bundles(0)
    frac_approx = {}
    for t in (0.5, 0.9):
        cfg = SearchConfig("cosine", t, generator="allpairs", verifier="lsh-approx", seed=0)
        out, _ = lsh_approx_run(bundle.corpus, bundle.allpairs(t), cfg, store=bundle.store())
        errs = [abs(p.estimate - float(bundle.sims[p.i, p.j])) for p in out]
        frac_approx[t] = sum(1 for e in errs if e > 0.05) / len(errs)
    ok = frac_bayes <= 0.06 and frac_approx[0.5] > frac_approx[0.9]
    _criterion(
        6,
        ok,
        f"bayeslsh err>0.05 {frac_bayes:.4f} on {len(errors)} estimates;"
        f" lsh-approx {frac_approx[0.5]:.4f} @t=0.5 vs {frac_approx[0.9]:.4f} @t=0.9",
    )


def test_criterion_07_pruning_curve():
    corpus = generate_synthetic(
        500, 5000, [(15, 0.75), (25, 0.45)], seed=21, mode=COSINE_WEIGHTED
    )
    sims = similarity_matrix(corpus)
    iu = np.triu_indices(len(corpus), k=1)
    low_frac = float(np.mean(sims[iu] < 0.3))
    assert low_frac >= 0.95, "candidate set must be dominated by low-similarity pairs"

    pairs = bruteforce_generate(len(corpus))
    cfg = SearchConfig("cosine", 0.7, generator="bruteforce", seed=21)
    _, stats = bayeslsh_run(corpus, pairs, cfg)
    total = len(pairs)
    pruned64 = 1.0 - stats.survivors[64] / total
    pruned256 = 1.0 - stats.survivors[256] / total
    ok = pruned64 >= 0.80 and pruned256 >= 0.99
    _criterion(
        7,
        ok,
        f"pruned {pruned64:.4f} by 64 bits, {pruned256:.4f} by 256"
        f" of {total} pairs ({low_frac:.1%} below 0.3)",
    )


def test_criterion_08_parameter_sweeps(bundles):
    bundle = bundles(0)
    cands = bundle.allpairs(0.7)
    truth = bundle.truth(0.7)
    store = bundle.store()
    cache: dict = {}

    def metrics(eps, delta, gamma):
        key = (eps, delta, gamma)
        if key not in cache:
            cfg = SearchConfig(
                "cosine", 0.7, epsilon=eps, delta=delta, gamma=gamma, seed=0
            )
            out, _ = bayeslsh_run(bundle.corpus, cands, cfg, store=store)
            emitted = {(p.i, p.j) for p in out}
            errs = [abs(p.estimate - float(bundle.sims[p.i, p.j])) for p in out]
            cache[key] = {
                "fn": len(truth - emitted) / len(truth),
                "frac05": sum(1 for e in errs if e > 0.05) / len(errs),
                "mean_err": float(np.mean(errs)),
            }
        return cache[key]

    grid = (0.01, 0.03, 0.05, 0.07, 0.09)
    gamma_frac = [metrics(0.05, 0.05, g)["frac05"] for g in grid]
    eps_fn = [metrics(e, 0.05, 0.05)["fn"] for e in grid]
    delta_err = [metrics(0.05, d, 0.05)["mean_err"] for d in (0.09, 0.05, 0.01)]

    ok_gamma = all(f <= g + 0.02 for f, g in zip(gamma_frac, grid))
    ok_gamma = ok_gamma and all(a <= b for a, b in zip(gamma_frac, gamma_frac[1:]))
    ok_gamma = ok_gamma and gamma_frac[-1] > gamma_frac[0]
    ok_eps = all(f <= e + 0.02 for f, e in zip(eps_fn, grid))
    ok_eps = ok_eps and all(a <= b for a, b in zip(eps_fn, eps_fn[1:]))
    ok_eps = ok_eps and eps_fn[-1] > eps_fn[0]
    ok_delta = delta_err[0] > delta_err[1] > delta_err[2]
    _criterion(
        8,
        ok_gamma and ok_eps and ok_delta,
        f"gamma->err>0.05 {[round(f, 4) for f in gamma_frac]},"
        f" eps->fn {[round(f, 4) for f in eps_fn]},"
        f" delta->mean_err {[round(f, 4) for f in delta_err]}",
    )


def test_criterion_09_banding_miss_rate():
    tables = num_tables(0.03, 0.9, 10)
    common = np.arange(18)
    x = SparseVector(np.concatenate([common, [100]]), np.ones(19))
    y = SparseVector(np.concatenate([common, [200]]), np.ones(19))
    corpus = Corpus(["x", "y"], [x, y], JACCARD, dim=256)

    params = BandingParams(band_width=10, tables=9)
    trials = 200
    misses = 0
    for seed in range(trials):
        store = SignatureStore(corpus, seed=seed, max_hashes=128)
        store.extend(params.hashes_needed)
        misses += not len(lsh_banding_generate(store, params, seed=seed))
    rate = misses / trials
    bound = 0.03 + 3.0 * np.sqrt(0.03 * 0.97 / trials)
    ok = tables == 9 and rate <= bound
    _criterion(
        9, ok, f"num_tables=9 -> {tables}; miss rate {rate:.4f} <= {bound:.4f} at sim 0.9"
    )


def test_criterion_10_codec_error():
    xs = np.linspace(-7.999, 7.999, 1_000_001)
    err = float(np.max(np.abs(decode_gaussian_2byte(encode_gaussian_2byte(xs)) - xs)))
    ok = err <= 1.25e-4
    _criterion(10, ok, f"max |decode(encode(x)) - x| = {err:.3e} over 1e6-point sweep")


def test_criterion_11_prior_convergence():
    gaps = []
    for m, n in [(0, 0), (24, 32), (48, 64), (96, 128)]:
        r_lo, d_lo = inference.power_law_posterior_grid(-3.0, m, n)
        r_hi, d_hi = inference.power_law_posterior_grid(3.0, m, n)
        assert np.array_equal(r_lo, r_hi)
        gaps.append(float(np.max(np.abs(d_hi - d_lo))))
    ok = all(a > b for a, b in zip(gaps, gaps[1:]))
    _criterion(11, ok, "posterior gap " + " > ".join(f"{g:.3f}" for g in gaps))


def test_criterion_12_parallel_determinism(tmp_path):
    corpus_path = tmp_path / "corpus.tsv"
    assert (
        cli.main(
            ["gen", str(corpus_path), "--n", "150", "--dim", "1000",
             "--planted", "12x0.8", "--seed", "3"]
        )
        == 0
    )
    outputs = []
    for workers in ("1", "4"):
        out = tmp_path / f"run{workers}.tsv"
        code = cli.main(
            ["search", str(corpus_path), "--mode", "cosine-weighted", "-t", "0.7",
             "--seed", "9", "--parallel", workers, "-o", str(out)]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _criterion(12, ok, f"{len(outputs[0])} TSV bytes identical across 1 and 4 workers")
