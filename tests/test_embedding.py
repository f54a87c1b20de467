"""Deterministic embedder properties and the remote client contract."""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from claimcheck.embedding import (
    DETERMINISTIC_ENDPOINT,
    MAX_BATCH,
    DeterministicEmbedder,
    EmbedderSpec,
    EmbeddingVector,
    RemoteEmbedder,
    build_embedder,
    cosine_similarity,
    deterministic_test_embedder,
    unit_normalize,
)
from claimcheck.errors import ConfigError, ProtocolError, TransportError, ValidationError
from claimcheck.transport import MAX_ATTEMPTS
from conftest import FakeResponse


def spec(**overrides) -> EmbedderSpec:
    base = dict(model_id="hash-test", dimension=32, endpoint=DETERMINISTIC_ENDPOINT, seed=3)
    base.update(overrides)
    return EmbedderSpec(**base)


# -- deterministic embedder ---------------------------------------------------


def test_same_input_same_vector():
    a = deterministic_test_embedder("Zinc lozenges shorten colds.", 64, seed=7)
    b = deterministic_test_embedder("Zinc lozenges shorten colds.", 64, seed=7)
    np.testing.assert_array_equal(a, b)


def test_known_vector_prefix_is_stable():
    # regression pin: a change here would silently invalidate every index
    v = deterministic_test_embedder("stable anchor text", 8, seed=0)
    np.testing.assert_allclose(
        v[:3], [0.6272450970962439, 0.0015250042498607737, -0.2519644181620608], atol=1e-15
    )


def test_seed_and_dimension_change_vector():
    a = deterministic_test_embedder("text", 32, seed=1)
    b = deterministic_test_embedder("text", 32, seed=2)
    assert not np.allclose(a, b)
    assert deterministic_test_embedder("text", 16, seed=1).shape == (16,)


def test_vectors_are_unit_norm():
    for text in ("one", "two words", "a much longer sentence with many tokens in it"):
        v = deterministic_test_embedder(text, 48, seed=5)
        assert abs(float(np.linalg.norm(v)) - 1.0) < 1e-12


def test_case_and_whitespace_insensitive():
    a = deterministic_test_embedder("Vitamin D Trial", 32)
    b = deterministic_test_embedder("  vitamin   d trial ", 32)
    np.testing.assert_allclose(a, b, atol=1e-15)


def test_token_overlap_raises_similarity():
    q = deterministic_test_embedder("vitamin d daily dose", 128)
    near = deterministic_test_embedder("vitamin d randomized trial", 128)
    far = deterministic_test_embedder("quantum chess openings", 128)
    assert cosine_similarity(q, near) > cosine_similarity(q, far)


def test_empty_string_falls_back_to_raw_hash():
    v = deterministic_test_embedder("", 16, seed=0)
    assert abs(float(np.linalg.norm(v)) - 1.0) < 1e-12


def test_bad_dimension():
    with pytest.raises(ConfigError):
        deterministic_test_embedder("text", 0)


def test_deterministic_provider_validates_texts():
    embedder = DeterministicEmbedder(spec())
    with pytest.raises(ValidationError):
        embedder.embed(["ok", "   "])
    with pytest.raises(ValidationError):
        embedder.embed("not a list")
    vectors = embedder.embed(["ok", "also ok"])
    assert [v.model_id for v in vectors] == ["hash-test", "hash-test"]
    assert all(v.dimension == 32 for v in vectors)


# -- vector math --------------------------------------------------------------


def test_embedding_vector_validation():
    with pytest.raises(ValidationError):
        EmbeddingVector(np.zeros((2, 2)), "m")
    with pytest.raises(ValidationError):
        EmbeddingVector(np.array([]), "m")
    with pytest.raises(ValidationError):
        EmbeddingVector(np.array([1.0, np.nan]), "m")
    vec = EmbeddingVector(np.array([3.0, 4.0]), "m")
    with pytest.raises(ValueError):
        vec.values[0] = 9.0  # frozen storage


def test_unit_normalize():
    np.testing.assert_allclose(unit_normalize([3.0, 4.0]), [0.6, 0.8])
    with pytest.raises(ValidationError):
        unit_normalize([0.0, 0.0])


def test_cosine_similarity_contract():
    assert cosine_similarity([1, 0], [0, 1]) == 0.0
    assert cosine_similarity([1, 0], [2, 0]) == 1.0
    assert cosine_similarity([1, 0], [-1, 0]) == -1.0
    a, b = [0.3, -0.7, 0.1], [0.9, 0.2, -0.5]
    assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a))
    with pytest.raises(ValidationError):
        cosine_similarity([1, 0], [1, 0, 0])
    with pytest.raises(ValidationError):
        cosine_similarity([0, 0], [1, 0])


# -- provider dispatch --------------------------------------------------------


def test_build_embedder_dispatch():
    assert isinstance(build_embedder(spec()), DeterministicEmbedder)
    assert isinstance(build_embedder(spec(endpoint="http://localhost:1/v1")), RemoteEmbedder)
    with pytest.raises(ConfigError):
        build_embedder(spec(endpoint="ftp://nope"))


def test_spec_validation():
    with pytest.raises(ConfigError):
        EmbedderSpec(model_id="", dimension=8, endpoint=DETERMINISTIC_ENDPOINT)
    with pytest.raises(ConfigError):
        EmbedderSpec(model_id="m", dimension=0, endpoint=DETERMINISTIC_ENDPOINT)
    with pytest.raises(ConfigError):
        EmbedderSpec(model_id="m", dimension=8, endpoint="")


# -- remote client ------------------------------------------------------------


def embedding_payload(batch, dimension=4):
    # deliberately out of order: the client must sort by index
    rows = [{"index": i, "embedding": [float(i + 1)] * dimension} for i in range(len(batch))]
    return {"data": rows[::-1]}


def remote(http_stub, dimension=4, **kwargs) -> RemoteEmbedder:
    return RemoteEmbedder(
        spec(endpoint=http_stub.url, dimension=dimension),
        base_delay=0.001,
        sleep=kwargs.pop("sleep", lambda s: None),
        **kwargs,
    )


def test_remote_embed_sorts_by_index(http_stub):
    http_stub.default = lambda body: (200, embedding_payload(body["input"]))
    vectors = remote(http_stub).embed(["a", "b", "c"])
    assert [v.values[0] for v in vectors] == [1.0, 2.0, 3.0]
    path, headers, body = http_stub.requests[0]
    assert body == {"model": "hash-test", "input": ["a", "b", "c"]}
    assert headers["Content-Type"] == "application/json"
    assert "Authorization" not in headers


def test_remote_embed_batches_at_64(http_stub):
    http_stub.default = lambda body: (200, embedding_payload(body["input"]))
    texts = [f"t{i}" for i in range(MAX_BATCH * 2 + 2)]
    vectors = remote(http_stub).embed(texts)
    assert len(vectors) == len(texts)
    # batches are posted concurrently, so they may arrive in any order
    batches = sorted(
        (body["input"] for _, _, body in http_stub.requests), key=lambda b: texts.index(b[0])
    )
    sizes = [len(batch) for batch in batches]
    assert sizes == [64, 64, 2]
    assert sum(batches, []) == texts


class OverlapSession:
    """A session whose posts only return once ``parties`` of them are in
    flight together, and then after ``hold`` seconds; records the peak
    number in flight and, with ``reverse``, answers the batch furthest
    into the input first.  Each vector's first value is its text's
    position in the input."""

    def __init__(
        self, parties: int, reverse: bool = False, failing: int | None = None, hold: float = 0.0
    ):
        self.barrier = threading.Barrier(parties, timeout=10)
        self.reverse = reverse
        self.failing = failing
        self.hold = hold
        self.cond = threading.Condition()
        self.in_flight: set[int] = set()
        self.peak = 0
        self.answered: list[int] = []

    def post(self, url, json, headers, timeout):
        first = int(json["input"][0][1:])
        with self.cond:
            self.in_flight.add(first)
            self.peak = max(self.peak, len(self.in_flight))
        self.barrier.wait()
        time.sleep(self.hold)
        with self.cond:
            if self.reverse and not self.cond.wait_for(
                lambda: max(self.in_flight) == first, timeout=10
            ):
                raise AssertionError("a later batch never answered")
            self.in_flight.remove(first)
            self.answered.append(first)
            self.cond.notify_all()
        if first == self.failing:
            return FakeResponse(500, {})
        rows = [{"index": i, "embedding": [float(first + i)] * 4} for i in range(len(json["input"]))]
        return FakeResponse(200, {"data": rows[::-1]})


def overlap_embedder(session: OverlapSession, **kwargs) -> RemoteEmbedder:
    return RemoteEmbedder(
        spec(endpoint="http://embeddings.invalid/v1", dimension=4),
        session=session,
        base_delay=0.001,
        sleep=lambda s: None,
        **kwargs,
    )


def test_remote_embed_overlaps_batches_and_keeps_input_order():
    texts = [f"t{i}" for i in range(MAX_BATCH * 3 + 10)]
    session = OverlapSession(parties=4, reverse=True)
    vectors = overlap_embedder(session).embed(texts)
    assert session.peak == 4
    assert session.answered == [192, 128, 64, 0]
    assert [v.values[0] for v in vectors] == [float(i) for i in range(len(texts))]


def test_remote_embed_overlap_respects_in_flight_cap():
    texts = [f"t{i}" for i in range(MAX_BATCH * 6)]
    # two calls of three batches each, from two threads: both submit to
    # the endpoint's one pool of two threads, so at most two are in flight
    session = OverlapSession(parties=2, hold=0.05)
    embedder = overlap_embedder(session, max_in_flight=2)
    halves = [texts[: MAX_BATCH * 3], texts[MAX_BATCH * 3 :]]
    with ThreadPoolExecutor(max_workers=2) as callers:
        futures = [callers.submit(embedder.embed, half) for half in halves]
        vectors = [v for future in futures for v in future.result(timeout=30)]
    assert session.peak == 2
    assert sorted(session.answered) == list(range(0, len(texts), MAX_BATCH))
    assert [v.values[0] for v in vectors] == [float(i) for i in range(len(texts))]


def test_remote_embed_failed_batch_reports_its_indices():
    texts = [f"t{i}" for i in range(MAX_BATCH * 2)]
    session = OverlapSession(parties=1, failing=MAX_BATCH)
    with pytest.raises(TransportError) as exc_info:
        overlap_embedder(session).embed(texts)
    assert exc_info.value.failed_indices == list(range(MAX_BATCH, 2 * MAX_BATCH))
    assert session.answered.count(0) == 1
    assert session.answered.count(MAX_BATCH) == MAX_ATTEMPTS


def test_remote_embed_of_no_texts_posts_nothing():
    session = OverlapSession(parties=1)
    assert overlap_embedder(session).embed([]) == []
    assert session.answered == []


def test_remote_embed_retries_with_backoff(http_stub):
    http_stub.responses = [(500, {}), (503, {})]
    http_stub.default = lambda body: (200, embedding_payload(body["input"]))
    delays = []
    client = remote(http_stub, sleep=delays.append)
    client.embed(["a"])
    assert len(http_stub.requests) == 3
    assert delays == [0.001, 0.002]  # base * factor^attempt


def test_remote_embed_exhausted_retries_reports_indices(http_stub):
    http_stub.default = lambda body: (500, {})
    with pytest.raises(TransportError) as exc_info:
        remote(http_stub).embed(["a", "b", "c"])
    assert exc_info.value.failed_indices == [0, 1, 2]
    assert len(http_stub.requests) == MAX_ATTEMPTS


def test_remote_embed_protocol_errors_not_retried(http_stub):
    http_stub.responses = [(200, "this is not json")]
    with pytest.raises(ProtocolError):
        remote(http_stub).embed(["a"])
    assert len(http_stub.requests) == 1

    http_stub.responses = [(200, {"data": [{"index": 0}]})]
    with pytest.raises(ProtocolError):
        remote(http_stub).embed(["a"])


def test_remote_embed_count_mismatch(http_stub):
    http_stub.responses = [(200, {"data": [{"index": 0, "embedding": [1.0] * 4}]})]
    with pytest.raises(ProtocolError, match="sent 2"):
        remote(http_stub).embed(["a", "b"])


def test_remote_embed_dimension_mismatch(http_stub):
    http_stub.responses = [(200, {"data": [{"index": 0, "embedding": [1.0, 2.0]}]})]
    with pytest.raises(ProtocolError, match="expected dimension 4"):
        remote(http_stub).embed(["a"])


def test_remote_embed_api_key(http_stub, monkeypatch):
    monkeypatch.delenv("EMBED_KEY", raising=False)
    client = RemoteEmbedder(
        spec(endpoint=http_stub.url, dimension=4, api_key_env="EMBED_KEY"), sleep=lambda s: None
    )
    with pytest.raises(ConfigError, match="EMBED_KEY"):
        client.embed(["a"])

    monkeypatch.setenv("EMBED_KEY", "s3cret")
    http_stub.default = lambda body: (200, embedding_payload(body["input"]))
    client.embed(["a"])
    _, headers, _ = http_stub.requests[0]
    assert headers["Authorization"] == "Bearer s3cret"
