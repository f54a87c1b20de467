"""Deterministic embedder properties, the remote client contract and the
embedding memo."""

from __future__ import annotations

import hashlib
import struct
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from claimcheck import embedding
from claimcheck.config import EmbedderSpec, typed
from claimcheck.embedding import (
    DETERMINISTIC_ENDPOINT,
    MAX_BATCH,
    DeterministicEmbedder,
    EmbeddingMemo,
    RemoteEmbedder,
    build_embedder,
    checked_norm,
    cosine_similarity,
    deterministic_test_embedder,
    unit_normalize,
)
from claimcheck.errors import ConfigError, ProtocolError, TransportError, ValidationError
from claimcheck.transport import MAX_ATTEMPTS
from conftest import EmbeddingSession, FakeResponse


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


def hash_direction_oracle(key: str, dimension: int) -> np.ndarray:
    """One uint64 at a time from SHA-256 of ``key\\x1f<block>``, mapped onto [-1, 1)."""
    out = np.empty(dimension, dtype=np.float64)
    block = 0
    filled = 0
    while filled < dimension:
        digest = hashlib.sha256(f"{key}\x1f{block}".encode("utf-8")).digest()
        for (u,) in struct.iter_unpack(">Q", digest):
            if filled >= dimension:
                break
            out[filled] = (u / 2.0**63) - 1.0
            filled += 1
        block += 1
    return out


def embedder_oracle(text: str, dimension: int, seed: int) -> np.ndarray:
    tokens = text.lower().split()
    acc = np.zeros(dimension, dtype=np.float64)
    for tok in tokens:
        acc = acc + hash_direction_oracle(f"{seed}\x1ftok\x1f{tok}", dimension)
    if not tokens or float(np.linalg.norm(acc)) < 1e-12:
        acc = hash_direction_oracle(f"{seed}\x1fraw\x1f{text}", dimension)
    return unit_normalize(acc)


def test_hash_directions_match_the_one_word_at_a_time_oracle():
    rng = np.random.default_rng(12)
    alphabet = list("abcxyz é\x1f0123")
    for n in range(1500):
        key = "".join(rng.choice(alphabet, size=int(rng.integers(0, 12))))
        # every dimension up to two digests, then any up to 1 536
        dimension = n + 1 if n < 64 else int(rng.integers(1, 1537))
        got = embedding._hash_direction.__wrapped__(key, dimension)
        assert got.dtype == np.float64 and got.shape == (dimension,)
        assert got.tobytes() == hash_direction_oracle(key, dimension).tobytes(), (key, dimension)


def test_embedder_matches_its_oracle_bit_for_bit():
    rng = np.random.default_rng(13)
    words = ["vitamin", "D", "zinc", "colds", "trial", "dose", "the", "a", "Échinacée"]
    texts = ["", "   ", "one"] + [
        " ".join(rng.choice(words, size=int(rng.integers(1, 30)))) for _ in range(300)
    ]
    for n, text in enumerate(texts):
        dimension, seed = (8, 32, 256, 384)[n % 4], n % 3
        got = deterministic_test_embedder(text, dimension, seed)
        assert got.tobytes() == embedder_oracle(text, dimension, seed).tobytes(), text


def test_deterministic_provider_validates_texts():
    embedder = DeterministicEmbedder(spec())
    with pytest.raises(ValidationError):
        embedder.embed(["ok", "   "])
    with pytest.raises(ValidationError):
        embedder.embed("not a list")
    vectors = embedder.embed(["ok", "also ok"])
    assert vectors.shape == (2, 32)
    np.testing.assert_array_equal(vectors[1], deterministic_test_embedder("also ok", 32, seed=3))


# -- vector math --------------------------------------------------------------


def test_embedding_vector_validation():
    with pytest.raises(ValidationError):
        checked_norm(np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        checked_norm(np.array([]))
    with pytest.raises(ValidationError):
        checked_norm(np.array([1.0, np.nan]))
    with pytest.raises(ValidationError):
        checked_norm(np.array([1.0, np.inf]))
    assert checked_norm(np.array([3.0, 4.0])) == 5.0


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
    # in-process: bare; remote: behind a memo of its own, over its endpoint
    assert type(build_embedder(spec())) is DeterministicEmbedder
    for endpoint in ("http://localhost:1/v1", "https://embeddings.invalid/v1"):
        memo = build_embedder(spec(endpoint=endpoint))
        assert isinstance(memo, EmbeddingMemo) and type(memo.inner) is RemoteEmbedder
        assert memo.endpoint is memo.inner.endpoint and memo.spec is memo.inner.spec
    with pytest.raises(ConfigError):
        build_embedder(spec(endpoint="ftp://nope"))


def test_spec_validation():
    # a blank model_id or endpoint is refused where a config is read
    with pytest.raises(ConfigError):
        typed({"model_id": "", "dimension": 8, "endpoint": DETERMINISTIC_ENDPOINT}, EmbedderSpec, "embedder")
    with pytest.raises(ConfigError):
        EmbedderSpec(model_id="m", dimension=0, endpoint=DETERMINISTIC_ENDPOINT)
    with pytest.raises(ConfigError):
        typed({"model_id": "m", "dimension": 8, "endpoint": ""}, EmbedderSpec, "embedder")


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
    assert vectors[:, 0].tolist() == [1.0, 2.0, 3.0]
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
    assert vectors[:, 0].tolist() == [float(i) for i in range(len(texts))]


def test_remote_embed_overlap_respects_in_flight_cap():
    texts = [f"t{i}" for i in range(MAX_BATCH * 6)]
    # two calls of three batches each, from two threads: both submit to
    # the endpoint's one pool of two threads, so at most two are in flight
    session = OverlapSession(parties=2, hold=0.05)
    embedder = overlap_embedder(session, max_in_flight=2)
    halves = [texts[: MAX_BATCH * 3], texts[MAX_BATCH * 3 :]]
    with ThreadPoolExecutor(max_workers=2) as callers:
        futures = [callers.submit(embedder.embed, half) for half in halves]
        vectors = np.vstack([future.result(timeout=30) for future in futures])
    assert session.peak == 2
    assert sorted(session.answered) == list(range(0, len(texts), MAX_BATCH))
    assert vectors[:, 0].tolist() == [float(i) for i in range(len(texts))]


def test_remote_embed_failed_batch_reports_its_indices():
    texts = [f"t{i}" for i in range(MAX_BATCH * 2)]
    session = OverlapSession(parties=1, failing=MAX_BATCH)
    with pytest.raises(TransportError):
        overlap_embedder(session).embed(texts)
    assert session.answered.count(0) == 1
    assert session.answered.count(MAX_BATCH) == MAX_ATTEMPTS


def test_remote_embed_of_no_texts_posts_nothing():
    session = OverlapSession(parties=1)
    assert overlap_embedder(session).embed([]).shape == (0, 4)
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
    with pytest.raises(TransportError):
        remote(http_stub).embed(["a", "b", "c"])
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


@pytest.mark.parametrize(
    "indices",
    [[0, 0], [0, 5], [str(i) for i in range(12)], [1.0, 0], [True, 0]],
    ids=["duplicate", "gap", "12-strings", "float", "bool"],
)
def test_remote_embed_rejects_indices_other_than_0_to_n(http_stub, indices):
    # as text, "10" and "11" sort before "2": sorting string indices would
    # hand text 10's vector to text 2
    rows = [{"index": index, "embedding": [float(i)] * 4} for i, index in enumerate(indices)]
    http_stub.responses = [(200, {"data": rows})]
    texts = [f"t{i}" for i in range(len(indices))]
    with pytest.raises(ProtocolError, match="indices are not 0"):
        remote(http_stub).embed(texts)
    assert len(http_stub.requests) == 1  # not retried


def test_remote_embed_places_rows_by_index(http_stub):
    order = [10, 2, 11, 0, 1, 3, 4, 5, 6, 7, 8, 9]
    rows = [{"index": i, "embedding": [float(i)] * 4} for i in order]
    http_stub.responses = [(200, {"data": rows})]
    vectors = remote(http_stub).embed([f"t{i}" for i in range(12)])
    assert vectors[:, 0].tolist() == [float(i) for i in range(12)]


def test_remote_embed_dimension_mismatch(http_stub):
    http_stub.responses = [(200, {"data": [{"index": 0, "embedding": [1.0, 2.0]}]})]
    with pytest.raises(ProtocolError, match="expected dimension 4"):
        remote(http_stub).embed(["a"])


@pytest.mark.parametrize(
    "embedding",
    [
        "5",
        "null",
        '["a", "b", "c", "d"]',
        "[1.0, NaN, 1.0, 1.0]",
        "[1.0, 1.0, Infinity, 1.0]",
        '["1.0", "2.0", "3.0", "4.0"]',
        "[true, false, true, false]",
        "[1.0, null, 1.0, 1.0]",
    ],
)
def test_remote_embed_malformed_vector_is_a_protocol_error(http_stub, embedding):
    # every list holds 4 values, the dimension, so only their type is at
    # fault; json decodes NaN and Infinity, so they reach the client as floats
    http_stub.responses = [(200, f'{{"data": [{{"index": 0, "embedding": {embedding}}}]}}')]
    with pytest.raises(ProtocolError, match="malformed|dimension|non-finite|non-numeric"):
        remote(http_stub).embed(["a"])
    assert len(http_stub.requests) == 1  # not retried


@pytest.mark.parametrize("count", [0, 1, MAX_BATCH + 1])
def test_embedders_return_one_float64_matrix(http_stub, count):
    http_stub.default = lambda body: (200, embedding_payload(body["input"]))
    texts = [f"text {i}" for i in range(count)]
    for embedder in (DeterministicEmbedder(spec(dimension=4)), remote(http_stub)):
        vectors = embedder.embed(texts)
        assert isinstance(vectors, np.ndarray)
        assert vectors.dtype == np.float64
        assert vectors.shape == (count, 4)
        assert vectors.flags.c_contiguous


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


# -- embedding memo -----------------------------------------------------------


class FlakySession(EmbeddingSession):
    """:class:`EmbeddingSession` at dimension 4; while ``failure`` is set,
    every post answers with it: ``"null"`` gives a malformed embedding, a
    number that HTTP status."""

    def __init__(self):
        super().__init__(spec(dimension=4))
        self.failure: str | int | None = None

    def post(self, url, json, headers, timeout):
        if self.failure is None:
            return super().post(url, json, headers, timeout)
        self.inputs.append(list(json["input"]))
        if self.failure == "null":
            rows = [{"index": i, "embedding": None} for i in range(len(json["input"]))]
            return FakeResponse(200, {"data": rows})
        return FakeResponse(self.failure, {})


def memo_over(session: EmbeddingSession) -> EmbeddingMemo:
    return EmbeddingMemo(
        RemoteEmbedder(
            spec(endpoint="http://embeddings.invalid/v1", dimension=4),
            session=session,
            base_delay=0.001,
            sleep=lambda s: None,
        )
    )


def test_embedding_memo_hit_posts_nothing():
    session = EmbeddingSession(spec(dimension=4))
    memo = memo_over(session)
    first = memo.embed(["zinc cures colds", "garlic prevents flu"])
    again = memo.embed(["garlic prevents flu", "zinc cures colds"])
    assert session.inputs == [["zinc cures colds", "garlic prevents flu"]]
    assert np.array_equal(again, first[::-1])
    assert again.dtype == np.float64 and again.flags.c_contiguous


def test_embedding_memo_posts_only_the_distinct_missing_texts_in_input_order():
    session = EmbeddingSession(spec(dimension=4))
    memo = memo_over(session)
    memo.embed(["a", "b"])
    texts = ["c", "a", "d", "c", "b", "d"]
    vectors = memo.embed(texts)
    assert session.inputs == [["a", "b"], ["c", "d"]]
    assert np.array_equal(vectors, session.local.embed(texts))
    assert memo.embed([]).shape == (0, 4)
    assert len(session.inputs) == 2


@pytest.mark.parametrize("failure,error", [(500, TransportError), ("null", ProtocolError)])
def test_embedding_memo_keeps_nothing_from_a_failed_call(failure, error):
    session = FlakySession()
    memo = memo_over(session)
    memo.embed(["a"])
    session.failure = failure
    with pytest.raises(error):
        memo.embed(["a", "b"])
    posted = len(session.inputs)
    assert session.inputs[-1] == ["b"]
    session.failure = None
    assert np.array_equal(memo.embed(["b", "a"]), session.local.embed(["b", "a"]))
    assert memo.embed(["b"]).shape == (1, 4)
    assert session.inputs[posted:] == [["b"]]


def test_embedding_memo_evicts_the_least_recently_used(monkeypatch):
    monkeypatch.setattr("claimcheck.embedding.EMBEDDING_MEMO_ENTRIES", 2)
    session = EmbeddingSession(spec(dimension=4))
    memo = memo_over(session)
    for text in ("a", "b", "a", "c", "a", "b"):
        memo.embed([text])
    # "a" was used again before "c" arrived, so "b" was the one evicted
    assert session.inputs == [["a"], ["b"], ["c"], ["b"]]


def test_embedding_memo_answers_do_not_share_memory():
    session = EmbeddingSession(spec(dimension=4))
    memo = memo_over(session)
    expected = session.local.embed(["a"])
    memo.embed(["a"])[:] = 0.0  # the answer to a miss
    memo.embed(["a"])[:] = 0.0  # the answer to a hit
    assert np.array_equal(memo.embed(["a"]), expected)
    assert len(session.inputs) == 1


def test_embedding_memo_passes_a_call_larger_than_itself_through(monkeypatch):
    # such a call, like an index build, would only evict its own rows
    monkeypatch.setattr("claimcheck.embedding.EMBEDDING_MEMO_ENTRIES", 4)
    session = EmbeddingSession(spec(dimension=4))
    memo = memo_over(session)
    texts = ["a", "b", "c", "a", "d"]
    assert np.array_equal(memo.embed(texts), session.local.embed(texts))
    assert session.inputs == [texts]
    memo.embed(["a"])
    assert session.inputs == [texts, ["a"]]  # nothing was kept


def test_embedding_memo_stays_consistent_under_threads(monkeypatch):
    monkeypatch.setattr("claimcheck.embedding.EMBEDDING_MEMO_ENTRIES", 3)
    pool = [f"text {i}" for i in range(6)]
    session = EmbeddingSession(spec(dimension=4))
    memo = memo_over(session)
    expected = {text: session.local.embed([text])[0] for text in pool}
    wrong: list[str] = []

    def call(offset: int) -> None:
        for n in range(200):
            texts = [pool[(offset + n * (offset + 1) + k) % len(pool)] for k in range(2)]
            for text, vector in zip(texts, memo.embed(texts)):
                if not np.array_equal(vector, expected[text]):
                    wrong.append(text)

    # more threads than cores, switching often, with evictions: a race on
    # the map would show as a crossed row, an exception or a long map
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as callers:
            futures = [callers.submit(call, i) for i in range(8)]
            for future in futures:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert len(memo._rows) <= 3
    assert len(session.inputs) < 8 * 200
