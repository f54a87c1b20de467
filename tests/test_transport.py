"""The retry policy both remote adapters share through ``JsonEndpoint``,
and where :func:`run_all` runs its calls."""

from __future__ import annotations

import contextvars
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

import pytest
import requests

from claimcheck.agents import LlmBackendConfig, RemoteChatBackend
from claimcheck.embedding import EmbedderSpec, RemoteEmbedder
from claimcheck.errors import TransportError
from claimcheck.transport import MAX_ATTEMPTS, MAX_RETRY_AFTER, JsonEndpoint, run_all
from conftest import FakeResponse

URL = "http://models.invalid/v1"
BASE_DELAY = 0.25


class ScriptedSession:
    """Answers each post with the next step of ``script``, a status code,
    a (status code, headers) pair or an exception to raise, and 200 once
    the script runs dry."""

    def __init__(self, script, answer: Callable[[dict], dict]):
        self.script = list(script)
        self.answer = answer
        self.timeouts: list[float] = []

    def post(self, url, json, headers, timeout):
        self.timeouts.append(timeout)
        step = self.script.pop(0) if self.script else 200
        if isinstance(step, Exception):
            raise step
        status, headers = step if isinstance(step, tuple) else (step, {})
        return FakeResponse(status, self.answer(json) if status == 200 else {}, headers)


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


@pytest.mark.parametrize("status", [429, 503])
@pytest.mark.parametrize(
    "retry_after, delay",
    [("3", 3.0), (" 0 ", 0.0), ("86400", MAX_RETRY_AFTER)],
    ids=["seconds", "zero", "capped"],
)
def test_retry_after_seconds_replace_the_backoff(adapter, status, retry_after, delay):
    session, delays, call = run(adapter, [(status, {"Retry-After": retry_after}), status])
    call()
    assert len(session.timeouts) == 3
    assert delays == [delay, BASE_DELAY * 2]  # the next attempt backs off as usual


@pytest.mark.parametrize(
    "status, retry_after",
    [
        (429, "Wed, 21 Oct 2015 07:28:00 GMT"),
        (503, "soon"),
        (503, "-1"),
        (429, "1.5"),
        (429, "\u0663"),  # a digit, but not an ASCII one
        (500, "3"),  # only 429 and 503 ask for a wait
    ],
    ids=["http-date", "word", "negative", "fraction", "non-ascii", "500"],
)
def test_other_retry_after_values_keep_the_backoff(adapter, status, retry_after):
    session, delays, call = run(adapter, [(status, {"Retry-After": retry_after})])
    call()
    assert len(session.timeouts) == 2
    assert delays == [BASE_DELAY]


# -- run_all ------------------------------------------------------------------


def endpoint(max_in_flight: int = 4) -> JsonEndpoint:
    return JsonEndpoint(URL, "test endpoint", timeout=1.0, max_in_flight=max_in_flight)


def test_run_all_without_an_endpoint_runs_in_order_in_the_callers_thread():
    seen: list[tuple[int, int]] = []

    def call(item: int) -> int:
        seen.append((item, threading.get_ident()))
        return item * 10

    assert run_all(call, [3, 1, 2]) == [30, 10, 20]
    assert seen == [(3, threading.get_ident()), (1, threading.get_ident()), (2, threading.get_ident())]


def test_run_all_raises_the_first_failure_by_position_after_every_call():
    remote = endpoint()
    finished: list[int] = []

    def call(item: int) -> int:
        if item in (1, 2):
            raise ValueError(f"item {item}")
        time.sleep(0.05)
        finished.append(item)
        return item

    for endpoint_of in (lambda item: None, lambda item: remote):
        finished.clear()
        with pytest.raises(ValueError, match="item 1"):
            run_all(call, [0, 1, 2, 3], endpoint_of)
        assert sorted(finished) == [0, 3]


def test_endpoint_pool_tasks_see_the_submitters_context():
    remote = endpoint()
    var: contextvars.ContextVar[str] = contextvars.ContextVar("test_var", default="unset")
    barrier = threading.Barrier(3, timeout=10)

    def call(item: int) -> tuple[str, int]:
        barrier.wait()  # all three on the pool at once
        seen = var.get()
        var.set(f"changed by {item}")  # in the task's own copy only
        return seen, threading.get_ident()

    token = var.set("submitter")
    try:
        seen = run_all(call, [0, 1, 2], lambda item: remote)
        assert var.get() == "submitter"
    finally:
        var.reset(token)
    assert [value for value, _ in seen] == ["submitter"] * 3
    assert threading.get_ident() not in {ident for _, ident in seen}


def test_concurrent_callers_share_one_pool_per_endpoint():
    remote = endpoint(max_in_flight=3)
    callers = 8
    ran_on: set[int] = set()
    lock = threading.Lock()

    def call(item: int) -> int:
        with lock:
            ran_on.add(threading.get_ident())
        return item * 2

    results: list[list[int]] = [[] for _ in range(callers)]

    def caller(n: int) -> None:
        for _ in range(20):
            results[n] = run_all(call, list(range(n, n + 5)), lambda item: remote)

    # callers racing to start the pool, switching often: a second pool
    # would show as more pool threads than the endpoint's cap
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(n,)) for n in range(callers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[2 * i for i in range(n, n + 5)] for n in range(callers)]
    assert len(ran_on) <= 3
