"""Numeric kernels for the vector index, in numpy.

``topk_scan`` ranks the rows of a matrix against a query and
``mmr_greedy`` selects a diverse subset of a candidate pool.

Tie-breaking contract shared by every kernel: candidates are presented
in ascending chunk-key order, and exact score ties resolve to the lowest
index, i.e. the lowest chunk key.

The index's matrix is float32 (see ``vecindex``), so a scan reads half the
bytes a float64 one does.  Similarities are widened to float64 as they
leave the mat-vec: the threshold test, the sort and every MMR score run in
float64, whatever the matrix dtype.
"""

from __future__ import annotations

import numpy as np

# a constant, not a selector: perfbench/run.py environment() records it in
# every benchmark result
ACTIVE_PATH = "numpy"


def topk_scan(matrix: np.ndarray, query: np.ndarray, k: int, min_sim: float):
    """Top-k dot products of ``query`` against rows of ``matrix``.

    Returns (indices, sims) sorted by similarity descending, row index
    ascending on ties, keeping only sims >= min_sim; ``sims`` are the
    mat-vec's values widened to float64.
    """
    if matrix.shape[0] == 0 or k <= 0:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    sims = (matrix @ query).astype(np.float64, copy=False)
    keep = np.nonzero(sims >= min_sim)[0]
    if keep.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    order = np.lexsort((keep, -sims[keep]))[:k]
    chosen = keep[order]
    return chosen.astype(np.int64), sims[chosen]


def mmr_greedy(cand_sims: np.ndarray, pairwise: np.ndarray, lam: float, k: int) -> np.ndarray:
    """Greedy maximal-marginal-relevance selection over a candidate pool.

    Score of a remaining candidate is ``lam * sim_to_query -
    (1 - lam) * max_sim_to_selected`` with the redundancy term equal to 0
    while nothing is selected.  Returns selected indices in pick order.
    """
    p = int(cand_sims.shape[0])
    k = min(k, p)
    if k <= 0:
        return np.empty(0, np.int64)
    out = np.empty(k, np.int64)
    redundancy = np.zeros(p, np.float64)
    masked = np.zeros(p, bool)
    for step in range(k):
        scores = lam * cand_sims - (1.0 - lam) * redundancy
        scores[masked] = -np.inf
        best = int(np.argmax(scores))  # first max wins ties -> lowest index
        out[step] = best
        masked[best] = True
        redundancy = np.maximum(redundancy, pairwise[best])
    return out
