"""Reports do not depend on the thread schedule.

The golden article is checked over HTTP: the generator, grader and
rewriter are remote chat backends answering from the mock fixtures, and
both retriever legs are remote embedders serving the deterministic
vectors.  Each request waits a seeded random delay, so every seed
interleaves the calls on the claim pool, the endpoint pools and the
memos differently; every report must still be the golden one, byte for
byte, ``token_usage`` included.
"""

from __future__ import annotations

import gc
from dataclasses import replace

import pytest

from claimcheck import corpus, service
from claimcheck.agents import ChatMemo, FactCheckAgents, RemoteChatBackend
from claimcheck.config import load_config
from claimcheck.embedding import EmbeddingMemo, RemoteEmbedder
from claimcheck.pipeline import FactCheckPipeline, render_report
from claimcheck.transport import JsonEndpoint
from conftest import FIXTURES, StubHttpServer, replay_fixtures

SEEDS = range(20)
MODES = ("lotr", "lotr_srag")


class Served:
    """The fixture config, its in-memory indexes, and remote models on one stub.

    The remote clients are made once, so every run shares their endpoints
    and kept-alive connections; each pipeline gets fresh memos around
    them, so that its first check posts every call.
    """

    def __init__(self, stub: StubHttpServer):
        self.config = load_config(FIXTURES / "config.yaml")
        self.stub = stub
        stub.default = replay_fixtures(self.config.embedders)
        records, _ = corpus.ingest_corpus(self.config.corpus_path)
        chunks = corpus.chunk_corpus(records, self.config.chunking.kb_chunk_size, self.config.chunking.kb_overlap)
        self.indexes = list(service.build_indexes(self.config, chunks, service.build_embedders(self.config)))
        self.article = corpus.load_article(FIXTURES / "immune-boosters.md")
        c = self.config
        self.chat = [RemoteChatBackend(replace(cfg, endpoint=stub.url)) for cfg in (c.generator, c.grader, c.rewriter)]
        self.embedders = [RemoteEmbedder(replace(spec, endpoint=stub.url)) for spec in c.embedders]

    def pipeline(self, concurrency: int) -> FactCheckPipeline:
        embedders = [EmbeddingMemo(inner) for inner in self.embedders]
        generator, grader, rewriter = (ChatMemo(inner) for inner in self.chat)
        agents = FactCheckAgents(generator, grader, rewriter, embedders[0])
        retriever = service.build_retriever(self.config, embedders, self.indexes)
        return FactCheckPipeline(replace(self.config, concurrency=concurrency), agents, retriever)


@pytest.fixture(scope="module")
def served():
    with StubHttpServer() as stub:
        yield Served(stub)
    gc.collect()  # the endpoints' pool threads exit with them


def golden(mode: str, concurrency: int) -> str:
    """The golden report of ``mode``, echoing ``concurrency`` in its config."""
    text = (FIXTURES / "golden" / f"report_{mode}.json").read_text(encoding="utf-8")
    assert text.count('"concurrency": 4\n') == 1
    return text.replace('"concurrency": 4\n', f'"concurrency": {concurrency}\n')


@pytest.mark.parametrize("concurrency", [1, 4])
def test_reports_equal_the_golden_ones_under_any_request_schedule(served, concurrency):
    expected = {mode: golden(mode, concurrency) for mode in MODES}
    differ = []
    for seed in SEEDS:
        served.stub.seed_delays(seed)
        for mode in MODES:
            pipeline = served.pipeline(concurrency)
            # the second check finds every call kept in the memos
            for check in ("first", "second"):
                if render_report(pipeline.check_article(served.article, mode)) != expected[mode]:
                    differ.append(f"seed {seed}, {mode}, {check} check")
    assert not differ, f"reports differ from the golden ones at concurrency {concurrency}: {differ}"


def test_a_second_check_answers_every_memo_hit_in_place(served, monkeypatch):
    """Once the memos hold an article's every grade, listing and vector,
    checking it again sends nothing to any endpoint pool, nor to the stub."""
    served.stub.seed_delays(0)
    pipeline = served.pipeline(concurrency=4)
    first = render_report(pipeline.check_article(served.article, "lotr_srag"))
    submitted: list[str] = []
    submit = JsonEndpoint._submit

    def spy(endpoint, fn, item):
        submitted.append(endpoint.name)
        return submit(endpoint, fn, item)

    monkeypatch.setattr(JsonEndpoint, "_submit", spy)
    posted = len(served.stub.requests)
    second = render_report(pipeline.check_article(served.article, "lotr_srag"))
    assert submitted == []
    assert len(served.stub.requests) == posted
    assert second == first == golden("lotr_srag", 4)
