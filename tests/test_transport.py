"""The retry policy both remote adapters share through ``JsonEndpoint``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pytest
import requests

from claimcheck.agents import LlmBackendConfig, RemoteChatBackend
from claimcheck.embedding import EmbedderSpec, RemoteEmbedder
from claimcheck.errors import TransportError
from claimcheck.transport import MAX_ATTEMPTS
from conftest import FakeResponse

URL = "http://models.invalid/v1"
BASE_DELAY = 0.25


class ScriptedSession:
    """Answers each post with the next step of ``script``, a status code
    or an exception to raise, and 200 once the script runs dry."""

    def __init__(self, script, answer: Callable[[dict], dict]):
        self.script = list(script)
        self.answer = answer
        self.timeouts: list[float] = []

    def post(self, url, json, headers, timeout):
        self.timeouts.append(timeout)
        step = self.script.pop(0) if self.script else 200
        if isinstance(step, Exception):
            raise step
        return FakeResponse(step, self.answer(json) if step == 200 else {})


@dataclass(frozen=True)
class Adapter:
    build: Callable[..., object]
    call: Callable[[object], object]
    answer: Callable[[dict], dict]
    timeout: float


ADAPTERS = {
    "chat": Adapter(
        build=lambda **kw: RemoteChatBackend(LlmBackendConfig(model_id="chat-model", endpoint=URL), **kw),
        call=lambda backend: backend.complete("p"),
        answer=lambda body: {"choices": [{"message": {"content": "True."}}]},
        timeout=120.0,
    ),
    "embed": Adapter(
        build=lambda **kw: RemoteEmbedder(EmbedderSpec(model_id="emb", dimension=4, endpoint=URL), **kw),
        call=lambda embedder: embedder.embed(["a", "b"]),
        answer=lambda body: {"data": [{"index": i, "embedding": [1.0] * 4} for i in range(len(body["input"]))]},
        timeout=60.0,
    ),
}


@pytest.fixture(params=sorted(ADAPTERS))
def adapter(request) -> Adapter:
    return ADAPTERS[request.param]


def run(adapter: Adapter, script):
    session = ScriptedSession(script, adapter.answer)
    delays: list[float] = []
    client = adapter.build(session=session, base_delay=BASE_DELAY, sleep=delays.append)
    return session, delays, lambda: adapter.call(client)


@pytest.mark.parametrize(
    "failure",
    [400, 401, 403, 404, requests.exceptions.InvalidURL("bad url")],
    ids=["400", "401", "403", "404", "invalid-url"],
)
def test_failures_a_retry_cannot_cure_raise_at_once(adapter, failure):
    session, delays, call = run(adapter, [failure])
    with pytest.raises(TransportError) as exc_info:
        call()
    assert session.timeouts == [adapter.timeout]
    assert delays == []
    if adapter is ADAPTERS["embed"]:
        assert exc_info.value.failed_indices == [0, 1]


@pytest.mark.parametrize("status", [408, 429, 500, 502, 599])
def test_retryable_statuses_are_retried(adapter, status):
    session, delays, call = run(adapter, [status])
    call()
    assert session.timeouts == [adapter.timeout] * 2
    assert delays == [BASE_DELAY]


@pytest.mark.parametrize(
    "failure",
    [requests.ConnectionError("refused"), requests.Timeout("read timed out")],
    ids=["connection", "timeout"],
)
def test_connection_errors_and_timeouts_retry_with_backoff(adapter, failure):
    session, delays, call = run(adapter, [failure] * MAX_ATTEMPTS)
    with pytest.raises(TransportError, match=f"after {MAX_ATTEMPTS} attempts"):
        call()
    assert len(session.timeouts) == MAX_ATTEMPTS
    assert delays == [BASE_DELAY * 2**k for k in range(MAX_ATTEMPTS - 1)]
