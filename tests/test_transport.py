"""The retry policy both remote adapters share through ``JsonEndpoint``,
the keep-alive client beneath it, and where :func:`run_all` runs its
calls."""

from __future__ import annotations

import contextvars
import http.client
import os
import ssl
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

import claimcheck
from claimcheck.agents import RemoteChatBackend
from claimcheck.config import EmbedderSpec, LlmBackendConfig
from claimcheck.embedding import RemoteEmbedder
from claimcheck.errors import TransportError
from claimcheck.transport import MAX_ATTEMPTS, MAX_RETRY_AFTER, USER_AGENT, JsonEndpoint, LruMap, run_all
from conftest import FakeResponse, StubHttpServer

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
    [400, 401, 403, 404, http.client.InvalidURL("bad url")],
    ids=["400", "401", "403", "404", "invalid-url"],
)
def test_failures_a_retry_cannot_cure_raise_at_once(adapter, failure):
    session, delays, call = run(adapter, [failure])
    with pytest.raises(TransportError):
        call()
    assert session.timeouts == [adapter.timeout]
    assert delays == []


@pytest.mark.parametrize("status", [408, 429, 500, 502, 599])
def test_retryable_statuses_are_retried(adapter, status):
    session, delays, call = run(adapter, [status])
    call()
    assert session.timeouts == [adapter.timeout] * 2
    assert delays == [BASE_DELAY]


@pytest.mark.parametrize(
    "failure",
    [ConnectionRefusedError("refused"), TimeoutError("read timed out")],
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


# -- the keep-alive client ----------------------------------------------------


def stub_endpoint(stub: StubHttpServer, delays: list[float], max_in_flight: int = 4) -> JsonEndpoint:
    """An endpoint on ``stub``, which answers every post with ``{"ok": true}``."""
    stub.default = lambda body: (200, {"ok": True})
    return JsonEndpoint(
        stub.url, "stub endpoint", timeout=10.0, max_in_flight=max_in_flight, sleep=delays.append
    )


def test_sequential_posts_share_one_connection(http_stub):
    delays: list[float] = []
    remote = stub_endpoint(http_stub, delays)
    assert [remote.post({"n": n}) for n in range(5)] == [{"ok": True}] * 5
    assert http_stub.accepted == 1
    assert len(http_stub.requests) == 5
    assert delays == []


def test_concurrent_posts_open_at_most_max_in_flight_connections(http_stub):
    delays: list[float] = []
    http_stub.delay = 0.02
    remote = stub_endpoint(http_stub, delays, max_in_flight=3)

    def caller() -> None:
        for n in range(3):
            remote.post({"n": n})

    # more callers than the cap, switching often: a connection lost or
    # shared between two posts would show as a failed post or as more
    # connections than the cap
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(http_stub.requests) == 24
    assert 1 <= http_stub.accepted <= 3
    assert delays == []


def test_a_connection_the_server_closed_costs_no_sleep_and_no_attempt(http_stub):
    delays: list[float] = []
    http_stub.close_idle = True
    remote = stub_endpoint(http_stub, delays)
    for n in range(3):
        remote.post({"n": n})
        time.sleep(0.05)  # the server closes the idle connection meanwhile
    assert http_stub.accepted == 3
    assert len(http_stub.requests) == 3  # each post answered once
    assert delays == []


def test_posts_name_the_client_and_version(http_stub):
    stub_endpoint(http_stub, []).post({})
    _, headers, _ = http_stub.requests[0]
    assert headers["User-Agent"] == USER_AGENT == f"claimcheck/{claimcheck.__version__}"


@pytest.mark.parametrize("url", ["http:///v1", "http://models.invalid:port/v1"], ids=["no-host", "bad-port"])
def test_an_invalid_url_fails_at_once(url):
    delays: list[float] = []
    remote = JsonEndpoint(url, "bad endpoint", timeout=1.0, sleep=delays.append)
    with pytest.raises(TransportError, match="bad endpoint request failed"):
        remote.post({})
    assert delays == []


def test_https_verifies_certificates_and_host_names(monkeypatch):
    contexts: list[ssl.SSLContext] = []

    class Unreachable:
        """An HTTPS connection that notes its TLS context and never connects."""

        def __init__(self, host, timeout, context):
            contexts.append(context)

        def request(self, *args):
            raise ConnectionRefusedError("no network in this test")

        def close(self):
            pass

    monkeypatch.setattr(http.client, "HTTPSConnection", Unreachable)
    delays: list[float] = []
    remote = JsonEndpoint("https://models.invalid/v1", "tls endpoint", timeout=1.0, sleep=delays.append)
    with pytest.raises(TransportError, match="no network in this test"):
        remote.post({})
    assert len(contexts) == MAX_ATTEMPTS
    assert all(context is contexts[0] for context in contexts)  # one context per endpoint
    assert contexts[0].verify_mode is ssl.CERT_REQUIRED
    assert contexts[0].check_hostname


def test_the_runtime_imports_without_requests():
    src = Path(claimcheck.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = "import sys; sys.modules['requests'] = None; import claimcheck.cli"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


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

    for pool_of in (lambda item: None, lambda item: remote.pool):
        finished.clear()
        with pytest.raises(ValueError, match="item 1"):
            run_all(call, [0, 1, 2, 3], pool_of)
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
        seen = run_all(call, [0, 1, 2], lambda item: remote.pool)
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
            results[n] = run_all(call, list(range(n, n + 5)), lambda item: remote.pool)

    # callers racing to start the pool's threads, switching often: a
    # second pool would show as more pool threads than the endpoint's cap
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


def test_lru_map_makes_a_key_kept_again_the_most_recent():
    # two callers that miss the same key at once both keep it
    memo = LruMap(2)
    for key in ("a", "b", "a", "c"):
        memo.keep(key, key.upper())
    assert (memo.get("a"), memo.get("b"), memo.get("c"), len(memo)) == ("A", None, "C", 2)
