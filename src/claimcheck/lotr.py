"""Merged retrieval over two embedding spaces.

A claim is embedded independently by each configured model, each index
answers with a diversity-selected hit list, and the lists are merged by
round-robin interleaving, deduplicated on chunk key, then reordered so
the strongest evidence sits at both ends of the context rather than in
its middle, where generation models tend to lose it.  The result is an
:class:`EvidenceBundle`: the indexes' own :class:`~.vecindex.Hit`
objects in context order, plus a warning for each leg that was down.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

from .config import REORDER_MODES, RetrievalConfig
from .corpus import ChunkKey
from .errors import ConfigError, TransportError
from .transport import run_all, waits_on
from .vecindex import Hit, VectorIndex

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EvidenceBundle:
    """Evidence for one claim: merged, deduplicated and reordered index
    hits, and one warning per retriever leg that was down."""

    hits: tuple[Hit, ...]
    warnings: tuple[str, ...] = ()


def merge_interleave(hit_lists: Sequence[Sequence[Hit]]) -> list[Hit]:
    """Round-robin merge preserving each list's internal order."""
    merged: list[Hit] = []
    width = max((len(lst) for lst in hit_lists), default=0)
    for rank in range(width):
        for lst in hit_lists:
            if rank < len(lst):
                merged.append(lst[rank])
    return merged


def dedupe(hits: Sequence[Hit]) -> list[Hit]:
    """Drop repeated chunk keys, keeping the first occurrence.  Idempotent."""
    first: dict[ChunkKey, Hit] = {}
    for hit in hits:
        first.setdefault(hit.chunk_key, hit)
    return list(first.values())


def long_context_reorder(hits: Sequence[Hit], mode: str = RetrievalConfig.reorder) -> list[Hit]:
    """Place the most relevant hits at the edges of the context.

    ``ends`` sends input ranks 1,3,5,... to the front and 2,4,6,... to
    the back in reverse, so rank 1 opens the context and rank 2 closes
    it: [d1, d2, d3, d4, d5] -> [d1, d3, d5, d4, d2].  ``none`` keeps
    the merged order.
    """
    if mode not in REORDER_MODES:
        raise ConfigError(f"unknown reorder mode {mode!r}, expected one of {REORDER_MODES}")
    items = list(hits)
    if mode == "none" or len(items) < 3:
        return items
    return items[0::2] + items[1::2][::-1]


@dataclass(frozen=True)
class RetrieverLeg:
    """One (embedder, index) pair taking part in the merge."""

    retriever_id: str
    embedder: object  # anything whose .embed(list[str]) returns a (len, dimension) float64 matrix
    index: VectorIndex


class MergingRetriever:
    """Dual-space retrieval with interleave, dedupe, and ends reordering."""

    def __init__(
        self,
        legs: Sequence[RetrieverLeg],
        k: int = RetrievalConfig.k,
        lambda_: float = RetrievalConfig.lambda_,
        min_similarity: float = RetrievalConfig.min_similarity,
        pool_size: int = RetrievalConfig.pool_size,
        reorder: str = RetrievalConfig.reorder,
    ):
        if not legs:
            raise ConfigError("retriever needs at least one leg")
        if reorder not in REORDER_MODES:
            raise ConfigError(f"unknown reorder mode {reorder!r}, expected one of {REORDER_MODES}")
        self.legs = list(legs)
        self.k = int(k)
        self.lambda_ = float(lambda_)
        self.min_similarity = float(min_similarity)
        self.pool_size = int(pool_size)
        self.reorder = reorder

    def retrieve(self, claim_text: str, queries: Sequence | None = None) -> EvidenceBundle:
        """Evidence for one claim; degrades to the remaining legs if an embedder is down.

        ``queries``, when given, holds one entry per leg: the leg's query
        vector for ``claim_text``, searched without embedding it again;
        the ``TransportError`` the leg's embedder already failed with,
        which counts the leg as down without a new request; or None, to
        embed ``claim_text`` as when ``queries`` is not given.  A leg
        that waits on a remote embedder is queried on that embedder's
        endpoint pool, overlapped with the others; every other leg,
        in-process, given its vector or answered by a memo, runs in the
        caller's thread.
        """
        firsts = [None] * len(self.legs) if queries is None else list(queries)

        def query(i: int) -> list[Hit] | TransportError:
            leg, first = self.legs[i], firsts[i]
            if isinstance(first, TransportError):
                return first
            try:
                vector = leg.embedder.embed([claim_text])[0] if first is None else first
            except TransportError as exc:
                return exc
            return leg.index.mmr_select(
                vector, k=self.k, pool_size=self.pool_size, lambda_=self.lambda_, min_similarity=self.min_similarity
            )

        def endpoint_of(i: int):
            return None if firsts[i] is not None else waits_on(self.legs[i].embedder, [claim_text])

        per_leg = run_all(query, range(len(self.legs)), endpoint_of)
        failures = [
            (leg.retriever_id, out) for leg, out in zip(self.legs, per_leg) if isinstance(out, TransportError)
        ]
        for rid, exc in failures:
            logger.warning("retriever leg %r is down: %s", rid, exc)
        alive = [hits for hits in per_leg if not isinstance(hits, TransportError)]
        if not alive:
            detail = "; ".join(f"{rid}: {exc}" for rid, exc in failures)
            raise TransportError(f"all retriever legs failed: {detail}")
        merged = merge_interleave(alive)
        unique = dedupe(merged)
        ordered = long_context_reorder(unique, self.reorder)
        warnings = tuple(f"retriever {rid!r} unavailable, degraded to remaining legs" for rid, _ in failures)
        return EvidenceBundle(hits=tuple(ordered), warnings=warnings)
