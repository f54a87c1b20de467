"""Merging retriever: interleave, dedupe, reorder, and degraded legs."""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from claimcheck.config import EmbedderSpec
from claimcheck.corpus import ChunkKey
from claimcheck.embedding import (
    DETERMINISTIC_ENDPOINT,
    MAX_BATCH,
    DeterministicEmbedder,
    RemoteEmbedder,
)
from claimcheck.errors import ConfigError, TransportError
from claimcheck.lotr import (
    MergingRetriever,
    RetrieverLeg,
    dedupe,
    long_context_reorder,
    merge_interleave,
)
from claimcheck.transport import run_all
from claimcheck.vecindex import Hit, VectorIndex
from conftest import EmbeddingSession, RecordingEmbedder


def hit(name: str, sim: float = 0.5, **meta) -> Hit:
    parent, _, seq = name.partition(":")
    return Hit(chunk_key=ChunkKey(parent, int(seq or 0)), similarity=sim, metadata=meta)


def names(hits) -> list[str]:
    return [h.chunk_key.parent_id for h in hits]


# -- merge_interleave ---------------------------------------------------------


def test_interleave_round_robin():
    a = [hit("a1"), hit("a2")]
    b = [hit("b1")]
    assert names(merge_interleave([a, b])) == ["a1", "b1", "a2"]


def test_interleave_preserves_within_list_order():
    a = [hit("a1"), hit("a2"), hit("a3")]
    b = [hit("b1"), hit("b2"), hit("b3"), hit("b4")]
    assert names(merge_interleave([a, b])) == ["a1", "b1", "a2", "b2", "a3", "b3", "b4"]


def test_interleave_empty_inputs():
    assert merge_interleave([]) == []
    assert merge_interleave([[], []]) == []
    assert names(merge_interleave([[], [hit("b1")]])) == ["b1"]


# -- dedupe -------------------------------------------------------------------


def test_dedupe_keeps_first_occurrence():
    hits = [
        hit("x:1", sim=0.7, occurrence=1),
        hit("y:1", sim=0.6, occurrence=2),
        hit("x:1", sim=0.9, occurrence=3),
        hit("x:1", sim=0.5, occurrence=4),
    ]
    result = dedupe(hits)
    assert [tuple(h.chunk_key) for h in result] == [("x", 1), ("y", 1)]
    assert result[0] is hits[0]  # the first occurrence, unchanged
    assert result[1] is hits[1]


def test_dedupe_is_idempotent():
    hits = [hit("x:1", 0.7), hit("x:1", 0.9), hit("z:2", 0.3), hit("z:2", 0.1)]
    once = dedupe(hits)
    assert dedupe(once) == once


def test_dedupe_without_duplicates_is_identity():
    hits = [hit("a"), hit("b"), hit("c")]
    assert dedupe(hits) == hits


# -- long_context_reorder -----------------------------------------------------


def test_reorder_ends_rule():
    d = [hit(f"d{i}") for i in range(1, 6)]
    assert names(long_context_reorder(d)) == ["d1", "d3", "d5", "d4", "d2"]


def test_reorder_even_count():
    d = [hit(f"d{i}") for i in range(1, 7)]
    assert names(long_context_reorder(d)) == ["d1", "d3", "d5", "d6", "d4", "d2"]


@pytest.mark.parametrize("n", [0, 1, 2])
def test_reorder_short_lists_unchanged(n):
    d = [hit(f"d{i}") for i in range(n)]
    assert long_context_reorder(d) == d


def test_reorder_none_mode_keeps_order():
    d = [hit(f"d{i}") for i in range(1, 6)]
    assert long_context_reorder(d, mode="none") == d


def test_reorder_unknown_mode():
    with pytest.raises(ConfigError):
        long_context_reorder([], mode="shuffle")


def test_reorder_is_a_permutation():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(0, 20))
        d = [hit(f"d{i}") for i in range(n)]
        out = long_context_reorder(d)
        assert sorted(names(out)) == sorted(names(d))
        if n >= 2:
            assert out[0] == d[0]  # best evidence opens the context
            assert out[-1] == d[1] if n >= 3 else True  # second best closes it


# -- MergingRetriever ---------------------------------------------------------


def tiny_spec(model_id: str, seed: int) -> EmbedderSpec:
    return EmbedderSpec(model_id=model_id, dimension=48, endpoint=DETERMINISTIC_ENDPOINT, seed=seed)


def build_leg(model_id: str, seed: int, texts: dict[str, str]) -> RetrieverLeg:
    spec = tiny_spec(model_id, seed)
    embedder = DeterministicEmbedder(spec)
    index = VectorIndex(model_id=model_id, dimension=spec.dimension)
    keys = sorted(texts)
    vectors = embedder.embed([texts[k] for k in keys])
    index.upsert(
        (ChunkKey(key, 0), vec, {"text": texts[key], "title": key.title()})
        for key, vec in zip(keys, vectors)
    )
    return RetrieverLeg(retriever_id=model_id, embedder=embedder, index=index)


TEXTS = {
    "zinc": "zinc lozenges shorten the duration of cold symptoms",
    "vitd": "vitamin d supplementation and respiratory infection prevention trial",
    "tea": "green tea polyphenols as antiviral agents in vitro",
    "sleep": "sleep duration and vaccine antibody response in adults",
}


def make_retriever(**kwargs) -> MergingRetriever:
    legs = [build_leg("m-a", 1, TEXTS), build_leg("m-b", 2, TEXTS)]
    defaults = dict(k=3, lambda_=0.5, min_similarity=-1.0, pool_size=4, reorder="none")
    defaults.update(kwargs)
    return MergingRetriever(legs, **defaults)


def test_retrieve_merges_and_dedupes_across_legs():
    bundle = make_retriever().retrieve("zinc lozenges for cold symptoms")
    keys = [h.chunk_key for h in bundle.hits]
    assert len(keys) == len(set(keys))  # same chunk from both legs appears once
    assert bundle.hits[0].chunk_key.parent_id == "zinc"
    assert bundle.warnings == ()


def leg_hits(retriever: MergingRetriever, leg: RetrieverLeg, text: str) -> list[Hit]:
    """What ``leg``'s index alone answers for ``text`` under the retriever's settings."""
    return leg.index.mmr_select(
        leg.embedder.embed([text])[0],
        k=retriever.k,
        pool_size=retriever.pool_size,
        lambda_=retriever.lambda_,
        min_similarity=retriever.min_similarity,
    )


def test_one_leg_without_reorder_returns_the_index_hits_as_they_are():
    leg = build_leg("m-a", 1, TEXTS)
    retriever = MergingRetriever([leg], k=3, lambda_=0.5, min_similarity=-1.0, pool_size=4, reorder="none")
    bundle = retriever.retrieve("vitamin d for infection prevention")
    assert bundle.hits == tuple(leg_hits(retriever, leg, "vitamin d for infection prevention"))
    assert bundle.warnings == ()


def test_retrieve_applies_reorder():
    plain = make_retriever(reorder="none").retrieve("zinc and vitamin d")
    ends = make_retriever(reorder="ends").retrieve("zinc and vitamin d")
    expected = long_context_reorder(plain.hits, "ends")
    assert [h.chunk_key for h in ends.hits] == [h.chunk_key for h in expected]


class DownEmbedder:
    def embed(self, texts):
        raise TransportError("endpoint is down")


def test_retrieve_degrades_when_one_leg_is_down():
    legs = [
        RetrieverLeg(retriever_id="dead", embedder=DownEmbedder(), index=VectorIndex("dead", 8)),
        build_leg("m-b", 2, TEXTS),
    ]
    retriever = MergingRetriever(legs, k=3, min_similarity=-1.0, pool_size=4)
    bundle = retriever.retrieve("zinc lozenges")
    assert bundle.hits  # survived on the healthy leg
    healthy = leg_hits(retriever, legs[1], "zinc lozenges")
    assert [h.chunk_key for h in bundle.hits] == [h.chunk_key for h in long_context_reorder(healthy)]
    assert len(bundle.warnings) == 1
    assert "degraded" in bundle.warnings[0]
    assert "dead" in bundle.warnings[0]


def test_retrieve_fails_when_all_legs_are_down():
    legs = [
        RetrieverLeg(retriever_id="d1", embedder=DownEmbedder(), index=VectorIndex("d1", 8)),
        RetrieverLeg(retriever_id="d2", embedder=DownEmbedder(), index=VectorIndex("d2", 8)),
    ]
    retriever = MergingRetriever(legs, k=3, min_similarity=-1.0, pool_size=4)
    with pytest.raises(TransportError, match="all retriever legs failed"):
        retriever.retrieve("anything")


def test_retriever_validation():
    with pytest.raises(ConfigError):
        MergingRetriever([])
    with pytest.raises(ConfigError):
        make_retriever(reorder="bogus")


# -- where the legs run ---------------------------------------------------------


def test_retrieve_runs_in_process_legs_in_the_callers_thread(monkeypatch):
    legs = [build_leg("m-a", 1, TEXTS), build_leg("m-b", 2, TEXTS)]
    legs = [replace(leg, embedder=RecordingEmbedder(leg.embedder.spec)) for leg in legs]
    retriever = MergingRetriever(legs, k=3, min_similarity=-1.0, pool_size=4, reorder="none")
    expected = make_retriever().retrieve("zinc lozenges for cold symptoms")

    def no_thread(self):
        raise AssertionError(f"started thread {self.name!r}")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    bundle = retriever.retrieve("zinc lozenges for cold symptoms")
    assert bundle == expected
    assert [leg.embedder.threads for leg in legs] == [[threading.get_ident()]] * 2


def remote_leg(model_id: str, seed: int, barrier=None, **transport) -> tuple[RetrieverLeg, EmbeddingSession]:
    """``build_leg``'s leg with its embedder behind HTTP."""
    leg = build_leg(model_id, seed, TEXTS)
    session = EmbeddingSession(leg.embedder.spec, barrier)
    spec = replace(leg.embedder.spec, endpoint="http://embeddings.invalid/v1")
    return replace(leg, embedder=RemoteEmbedder(spec, session=session, **transport)), session


def test_retrieve_overlaps_remote_legs_on_their_endpoint_pools():
    # each leg's query post waits until the other's is in flight too
    barrier = threading.Barrier(2, timeout=10)
    (leg_a, session_a), (leg_b, session_b) = remote_leg("m-a", 1, barrier), remote_leg("m-b", 2, barrier)
    retriever = MergingRetriever([leg_a, leg_b], k=3, min_similarity=-1.0, pool_size=4, reorder="none")
    bundle = retriever.retrieve("zinc lozenges for cold symptoms")
    assert bundle == make_retriever().retrieve("zinc lozenges for cold symptoms")
    assert threading.get_ident() not in session_a.threads + session_b.threads


def one_thread_endpoint_jobs() -> None:
    """A remote leg's query and a multi-batch embed, each run as a task on
    the one pool thread of the endpoint it waits on.  Exits the process
    with status 1 if they do not finish within 10 s."""
    leg, _ = remote_leg("m-a", 1, max_in_flight=1)
    endpoint = leg.embedder.endpoint
    # both legs wait on one endpoint whose pool has a single thread
    retriever = MergingRetriever([leg, replace(leg, retriever_id="m-a2")], k=3, min_similarity=-1.0)
    texts = [f"text {i}" for i in range(2 * MAX_BATCH + 1)]
    jobs = [
        lambda: retriever.retrieve("zinc lozenges"),
        lambda: leg.embedder.embed(texts),
    ]
    results: list = []

    def run():
        results.append(retriever.retrieve("zinc lozenges"))
        # inside the pool's one thread, each job queries legs or posts
        # batches on that same endpoint
        results.append(run_all(lambda job: job(), jobs, lambda job: endpoint.pool))

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=10)
    if worker.is_alive():
        print("a task waited on its own endpoint's pool", flush=True)
        os._exit(1)  # a stuck pool thread would also block a normal exit
    direct, (nested, vectors) = results
    assert nested == direct
    assert len(vectors) == len(texts)


def test_remote_leg_and_multi_batch_embed_finish_on_a_one_thread_endpoint():
    # in a child process, because a pool thread stuck on its own pool
    # cannot be stopped and would keep the test run from exiting
    here = Path(__file__).resolve().parent
    code = (
        f"import sys; sys.path[:0] = {[str(here.parent / 'src'), str(here)]!r}; "
        "import test_lotr; test_lotr.one_thread_endpoint_jobs()"
    )
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stdout + child.stderr


def test_repeated_set_ups_do_not_accumulate_pool_threads():
    before = threading.active_count()
    for _ in range(20):
        legs = [remote_leg("m-a", 1)[0], remote_leg("m-b", 2)[0]]
        MergingRetriever(legs, k=3, min_similarity=-1.0).retrieve("zinc lozenges")
        del legs
    gc.collect()
    # a dropped endpoint's pool threads exit; 20 set-ups started 40
    deadline = time.monotonic() + 10
    while threading.active_count() > before + 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= before + 2
