"""The numpy kernels: ranking, thresholds, edge cases and tie-breaking."""

from __future__ import annotations

import numpy as np
import pytest

from claimcheck import kernels

# a single kernel path; the "numpy" id keeps these tests' names stable
with_topk = pytest.mark.parametrize("topk", [kernels.topk_scan], ids=["numpy"])
with_mmr = pytest.mark.parametrize("mmr", [kernels.mmr_greedy], ids=["numpy"])


# -- topk_scan ----------------------------------------------------------------


@with_topk
def test_topk_basic(topk):
    matrix = np.array([[1.0, 0.0], [0.0, 1.0], [0.8, 0.6]])
    query = np.array([1.0, 0.0])
    idx, sims = topk(matrix, query, 2, -1.0)
    assert idx.tolist() == [0, 2]
    np.testing.assert_allclose(sims, [1.0, 0.8])


@with_topk
def test_topk_edge_cases(topk):
    matrix = np.eye(3)
    query = np.array([1.0, 0.0, 0.0])
    idx, sims = topk(matrix, query, 10, -1.0)  # k > n
    assert idx.shape == (3,)
    idx, _ = topk(matrix, query, 0, -1.0)  # k = 0
    assert idx.size == 0
    idx, _ = topk(np.empty((0, 3)), query, 5, -1.0)  # empty matrix
    assert idx.size == 0
    idx, _ = topk(matrix, query, 5, 2.0)  # threshold excludes everything
    assert idx.size == 0


@with_topk
def test_topk_threshold_is_inclusive(topk):
    matrix = np.array([[1.0, 0.0], [0.0, 1.0]])
    idx, sims = topk(matrix, np.array([1.0, 0.0]), 5, 1.0)
    assert idx.tolist() == [0]


@with_topk
def test_topk_exact_ties_prefer_low_index(topk):
    row = np.array([0.6, 0.8])
    matrix = np.vstack([row, row, row])
    idx, sims = topk(matrix, np.array([1.0, 0.0]), 2, -1.0)
    assert idx.tolist() == [0, 1]
    assert sims[0] == sims[1]


# -- mmr_greedy ---------------------------------------------------------------


@with_mmr
def test_mmr_hand_case(mmr):
    # a is most relevant; b is nearly a duplicate of a, so diversity
    # prefers the weaker but novel c
    cand_sims = np.array([0.9, 0.85, 0.5])
    pairwise = np.array([[1.0, 0.95, 0.1], [0.95, 1.0, 0.12], [0.1, 0.12, 1.0]])
    assert mmr(cand_sims, pairwise, 0.5, 2).tolist() == [0, 2]


@with_mmr
def test_mmr_lambda_one_is_pure_relevance(mmr):
    cand_sims = np.array([0.2, 0.9, 0.9, 0.5])
    pairwise = np.ones((4, 4))
    assert mmr(cand_sims, pairwise, 1.0, 3).tolist() == [1, 2, 3]


@with_mmr
def test_mmr_edge_cases(mmr):
    cand_sims = np.array([0.9, 0.1])
    pairwise = np.eye(2)
    assert mmr(cand_sims, pairwise, 0.5, 5).tolist() == [0, 1]  # k > n
    assert mmr(cand_sims, pairwise, 0.5, 0).size == 0
    assert mmr(np.empty(0), np.empty((0, 0)), 0.5, 3).size == 0


@with_mmr
def test_mmr_ties_prefer_low_index(mmr):
    cand_sims = np.array([0.7, 0.7, 0.7])
    pairwise = np.eye(3)
    assert mmr(cand_sims, pairwise, 1.0, 2).tolist() == [0, 1]
