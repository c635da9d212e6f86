"""Ground truth, output checks and result quality, independent of bayeslsh.

The corpus file is parsed here with its own reader, and exact
similarities come from one scipy sparse product, so a bug in the
package's loader or similarity code cannot hide in its own reference.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse

EXACT_TOL = 1e-9
TSV_FIELDS = 5


def read_corpus_file(path, weighted: bool) -> tuple[list[str], sparse.csr_matrix]:
    """Ids and raw weights of a `id<TAB>feature[:weight] ...` text file."""
    ids: list[str] = []
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            vid, _, body = line.partition("\t")
            for token in body.split():
                feat, _, weight = token.partition(":")
                rows.append(len(ids))
                cols.append(int(feat))
                vals.append(float(weight) if weighted else 1.0)
            ids.append(vid)
    dim = max(cols, default=-1) + 1
    x = sparse.csr_matrix((vals, (rows, cols)), shape=(len(ids), dim), dtype=np.float64)
    return ids, x


def similarity_table(x: sparse.csr_matrix, measure: str) -> np.ndarray:
    """Dense n x n exact similarities: cosine of rows, or jaccard of supports."""
    if measure == "cosine":
        norms = np.sqrt(np.asarray(x.multiply(x).sum(axis=1)).ravel())
        x = sparse.diags(1.0 / norms) @ x
        sims = (x @ x.T).toarray()
        np.clip(sims, 0.0, 1.0, out=sims)
        return sims
    b = (x > 0).astype(np.float64)
    inter = (b @ b.T).toarray()
    sizes = np.asarray(b.sum(axis=1)).ravel()
    return inter / (sizes[:, None] + sizes[None, :] - inter)


def true_pairs(sims: np.ndarray, t: float) -> set[tuple[int, int]]:
    ii, jj = np.nonzero(np.triu(sims > t, k=1))
    return set(zip(ii.tolist(), jj.tolist()))


def parse_tsv(text: str, index: dict[str, int]) -> tuple[list[tuple], list[str]]:
    """Rows (i, j, estimate, exact, low_confidence) and format problems."""
    rows, problems = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != TSV_FIELDS:
            problems.append(f"line {lineno}: {len(fields)} fields, want {TSV_FIELDS}")
            continue
        a, b, est, exact, low = fields
        if a not in index or b not in index:
            problems.append(f"line {lineno}: unknown id in {a!r}, {b!r}")
            continue
        try:
            rows.append((index[a], index[b], float(est), exact == "1", low == "1"))
        except ValueError:
            problems.append(f"line {lineno}: bad estimate {est!r}")
    return rows, problems


def check_rows(rows: list[tuple], sims: np.ndarray, t: float) -> list[str]:
    """Problems in emitted rows; an empty list means the output is sound.

    Rows must have i < j within range, appear once, sorted by (i, j);
    every estimate lies in [0, 1]; a row flagged exact carries the true
    similarity within EXACT_TOL and lies strictly above t.
    """
    n = len(sims)
    problems = []
    for k, (i, j, est, exact, _) in enumerate(rows):
        if not (0 <= i < j < n):
            problems.append(f"row {k}: indices ({i}, {j}) not 0 <= i < j < {n}")
            continue
        if not (math.isfinite(est) and 0.0 <= est <= 1.0):
            problems.append(f"row {k}: estimate {est!r} outside [0, 1]")
        if exact and not (abs(est - sims[i, j]) <= EXACT_TOL and est > t):
            problems.append(
                f"row {k}: exact row ({i}, {j}) reads {est!r}, true {sims[i, j]!r}, t {t}"
            )
    keys = [(r[0], r[1]) for r in rows]
    if len(set(keys)) != len(keys):
        problems.append("duplicate pairs")
    if keys != sorted(keys):
        problems.append("rows not sorted by (i, j)")
    return problems


def quality(rows: list[tuple], sims: np.ndarray, truth: set, delta: float) -> dict[str, float]:
    emitted = {(r[0], r[1]) for r in rows}
    hits = len(emitted & truth)
    errors = np.array([abs(est - sims[i, j]) for i, j, est, _, _ in rows])
    return {
        "recall": hits / len(truth) if truth else 1.0,
        "precision": hits / len(emitted) if emitted else 0.0,
        "err_above_delta": float(np.mean(errors > delta)) if len(errors) else 0.0,
        "mean_abs_error": float(errors.mean()) if len(errors) else 0.0,
    }
