"""The HTTP client behind every remote model.

Chat backends and embedders both POST a JSON body to one URL and read a
JSON answer.  :class:`JsonEndpoint` owns everything that path shares:
the http(s) check, the bearer header read from the environment, the cap
on requests in flight, the timeout, the retry policy, and the one thread
pool on which calls that wait on the endpoint overlap.  Only failures a
later attempt can get past are retried: connection errors, timeouts,
HTTP 408, 429 and 5xx.

:func:`run_all` is the one place that decides where concurrency
happens: work on an in-process model runs in the caller's thread, and
only calls that wait on an endpoint are overlapped, on that endpoint's
pool.
"""

from __future__ import annotations

import contextvars
import logging
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Callable, Sequence, TypeVar

import requests

from .errors import ConfigError, ProtocolError, TransportError

logger = logging.getLogger(__name__)

RETRY_BASE_DELAY = 1.0
RETRY_FACTOR = 2.0
MAX_ATTEMPTS = 5
DEFAULT_MAX_IN_FLIGHT = 4
MAX_RETRY_AFTER = 30.0

T = TypeVar("T")
R = TypeVar("R")

# the endpoints whose pools run the current task and the tasks that wait on it
_running_on: contextvars.ContextVar[tuple[JsonEndpoint, ...]] = contextvars.ContextVar(
    "claimcheck_endpoint_pools", default=()
)


def _retryable(status: int) -> bool:
    return status in (408, 429) or 500 <= status < 600


def _retry_after(resp) -> float | None:
    """The delay-seconds form of a 429 or 503's ``Retry-After``, capped;
    None for an HTTP date, a malformed value or no header."""
    if resp.status_code not in (429, 503):
        return None
    value = (resp.headers.get("Retry-After") or "").strip()
    if not (value.isascii() and value.isdigit()):
        return None
    return min(float(value), MAX_RETRY_AFTER)


class JsonEndpoint:
    """POSTs JSON bodies to one http(s) URL and decodes the JSON answers.

    ``name`` says whose endpoint it is in every error and log message.
    At most ``max_in_flight`` requests are in flight at once; the rest
    wait.  A retryable failure is tried again up to ``MAX_ATTEMPTS``
    times in all, sleeping ``base_delay * RETRY_FACTOR**k`` after the
    k-th failure, or the ``Retry-After`` seconds of a 429 or 503 (at most
    ``MAX_RETRY_AFTER``); any other status or request error raises
    :class:`TransportError` at once.  A 200 whose body is not JSON raises
    :class:`ProtocolError` without a retry.

    Calls that wait on the endpoint overlap on its one pool of
    ``max_in_flight`` threads, started on first use (see :func:`run_all`).
    The pool's threads exit once the endpoint is garbage collected.
    """

    def __init__(
        self,
        url: str,
        name: str,
        timeout: float,
        api_key_env: str | None = None,
        session: requests.Session | None = None,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        base_delay: float = RETRY_BASE_DELAY,
        sleep=time.sleep,
    ):
        if not url.startswith(("http://", "https://")):
            raise ConfigError(f"{name} needs an http(s) endpoint, got {url!r}")
        self.url = url
        self.name = name
        self.timeout = timeout
        self.api_key_env = api_key_env
        self.session = session or requests.Session()
        self.max_in_flight = max_in_flight
        self._gate = threading.Semaphore(max_in_flight)
        self.base_delay = base_delay
        self.sleep = sleep
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def _submit(self, fn: Callable[[T], R], item: T) -> Future:
        """Run ``fn(item)`` on the pool, in a copy of the caller's context."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_in_flight, thread_name_prefix="claimcheck-endpoint"
                )
        return self._pool.submit(contextvars.copy_context().run, self._run_task, fn, item)

    def _run_task(self, fn: Callable[[T], R], item: T) -> R:
        _running_on.set(_running_on.get() + (self,))
        return fn(item)

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.api_key_env:
            secret = os.environ.get(self.api_key_env)
            if not secret:
                raise ConfigError(
                    f"{self.name} expects the secret in environment variable "
                    f"{self.api_key_env!r}, which is not set"
                )
            headers["Authorization"] = f"Bearer {secret}"
        return headers

    def post(self, body: dict):
        """The decoded JSON answer to ``body``."""
        headers = self._headers()
        for attempt in range(1, MAX_ATTEMPTS + 1):
            delay = self.base_delay * RETRY_FACTOR ** (attempt - 1)
            try:
                with self._gate:
                    resp = self.session.post(self.url, json=body, headers=headers, timeout=self.timeout)
            except (requests.ConnectionError, requests.Timeout) as exc:
                failure = str(exc)
            except requests.RequestException as exc:
                raise TransportError(f"{self.name} request failed: {exc}") from exc
            else:
                if resp.status_code == 200:
                    try:
                        return resp.json()
                    except ValueError as exc:
                        raise ProtocolError(f"{self.name} answered with a body that is not JSON: {exc}") from exc
                failure = f"HTTP {resp.status_code}"
                if not _retryable(resp.status_code):
                    raise TransportError(f"{self.name} returned {failure}")
                asked = _retry_after(resp)
                if asked is not None:
                    delay = asked
            if attempt < MAX_ATTEMPTS:
                logger.warning("%s call failed (attempt %d/%d): %s", self.name, attempt, MAX_ATTEMPTS, failure)
                self.sleep(delay)
        raise TransportError(f"{self.name} call failed after {MAX_ATTEMPTS} attempts: {failure}")


def remote_endpoint(model) -> JsonEndpoint | None:
    """The endpoint a backend or embedder waits on; None for an in-process one."""
    return getattr(model, "endpoint", None)


def run_all(
    fn: Callable[[T], R],
    items: Sequence[T],
    endpoint_of: Callable[[T], JsonEndpoint | None] = lambda item: None,
) -> list[R]:
    """``fn(item)`` for every item, with the results in input order.

    An item whose call waits on an endpoint (``endpoint_of(item)``) runs
    on that endpoint's pool, overlapped with the others; every other item
    runs in the caller's thread, in order.  A lone item runs inline too,
    having nothing to overlap with, and so does an item whose endpoint's
    pool is running the caller or a task waiting on it: no task waits on
    its own pool.  The first failure by position is raised once every
    call has finished.
    """
    pending: dict[int, Future] = {}
    if len(items) > 1:
        for i, item in enumerate(items):
            endpoint = endpoint_of(item)
            if endpoint is not None and endpoint not in _running_on.get():
                pending[i] = endpoint._submit(fn, item)
    outcomes: list[Future] = []
    for i, item in enumerate(items):
        if i in pending:
            outcomes.append(pending[i])
            continue
        done: Future = Future()
        try:
            done.set_result(fn(item))
        except Exception as exc:
            done.set_exception(exc)
        outcomes.append(done)
    wait(pending.values())
    return [outcome.result() for outcome in outcomes]
