"""The HTTP client behind every remote model.

Chat backends and embedders both POST a JSON body to one URL and read a
JSON answer.  :class:`JsonEndpoint` owns everything that path shares:
the http(s) check, the bearer header read from the environment, the cap
on requests in flight, the timeout, the retry policy, and the one thread
pool on which calls that wait on the endpoint overlap.  Only failures a
later attempt can get past are retried: connection errors, timeouts,
HTTP 408, 429 and 5xx.

The posts go out over the standard library's ``http.client`` on
kept-alive connections, at most one per request in flight.  HTTPS
verifies certificates and host names against the system trust store (or
``SSL_CERT_FILE``); no proxy is used and no redirect is followed.

:func:`run_all` is the one place where work is overlapped: an article's
claims on the pipeline's pool, and listings, grades, retriever legs and
embedding batches on the pool of the endpoint they wait on.  Work on an
in-process model, and work a memo answers, runs in the caller's thread.
"""

from __future__ import annotations

import contextvars
import http.client
import logging
import os
import ssl
import threading
import time
from collections import OrderedDict
from concurrent.futures import Executor, Future, ThreadPoolExecutor, wait
from json import dumps, loads
from typing import Callable, Sequence, TypeVar
from urllib.parse import urlsplit

from . import __version__
from .errors import ConfigError, ProtocolError, TransportError

logger = logging.getLogger(__name__)

RETRY_BASE_DELAY = 1.0
RETRY_FACTOR = 2.0
MAX_ATTEMPTS = 5
DEFAULT_MAX_IN_FLIGHT = 4
MAX_RETRY_AFTER = 30.0
USER_AGENT = f"claimcheck/{__version__}"

# how a kept connection the server has since closed fails the next post
# (http.client.RemoteDisconnected is a ConnectionResetError)
_STALE = (ConnectionResetError, BrokenPipeError)

T = TypeVar("T")
R = TypeVar("R")

# the pools that run the current task and the tasks that wait on it
_running_on: contextvars.ContextVar[tuple[Executor, ...]] = contextvars.ContextVar("claimcheck_pools", default=())


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


class _Response:
    """A finished answer: its status, its headers (``get`` ignores case) and its body."""

    def __init__(self, status_code: int, headers: http.client.HTTPMessage, body: bytes):
        self.status_code = status_code
        self.headers = headers
        self.body = body

    def json(self):
        return loads(self.body)


class _KeepAliveSession:
    """POSTs JSON over kept-alive ``http.client`` connections.

    Idle connections wait on one stack per origin.  A post takes the most
    recently used one, or opens a new one when none is idle, so posts
    made under an endpoint's gate never hold more connections open than
    requests in flight.  A connection goes back on the stack once its
    answer is read, unless the answer closes it.  A post on a kept
    connection that the server has since closed is sent again, once, on a
    fresh one; any other failure is raised to the caller.  A connection
    keeps the timeout it was opened with: the one endpoint that owns the
    session always passes the same one.
    """

    def __init__(self):
        self._idle: dict[tuple[str, str], list[http.client.HTTPConnection]] = {}
        self._lock = threading.Lock()
        self._tls: ssl.SSLContext | None = None

    def _open(self, scheme: str, netloc: str, timeout: float) -> http.client.HTTPConnection:
        if scheme != "https":
            return http.client.HTTPConnection(netloc, timeout=timeout)
        with self._lock:
            if self._tls is None:
                self._tls = ssl.create_default_context()
        return http.client.HTTPSConnection(netloc, timeout=timeout, context=self._tls)

    @staticmethod
    def _send(conn: http.client.HTTPConnection, target: str, body: bytes, headers: dict):
        """Send the request on ``conn`` and read the answer's status and
        headers; a failure closes ``conn``."""
        try:
            conn.request("POST", target, body, headers)
            return conn.getresponse()
        except BaseException:
            conn.close()
            raise

    def post(self, url: str, json, headers: dict, timeout: float) -> _Response:
        parts = urlsplit(url)
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        body = dumps(json, allow_nan=False).encode("utf-8")
        if not parts.netloc:
            raise http.client.InvalidURL(f"no host in {url!r}")
        with self._lock:
            idle = self._idle.setdefault((parts.scheme, parts.netloc), [])
            conn = idle.pop() if idle else None
        resp = None
        if conn is not None:
            try:
                resp = self._send(conn, target, body, headers)
            except _STALE:
                pass  # closed by the server while idle: sent again on a fresh connection
        if resp is None:
            conn = self._open(parts.scheme, parts.netloc, timeout)
            resp = self._send(conn, target, body, headers)
        try:
            data = resp.read()
        except BaseException:
            conn.close()
            raise
        if resp.will_close:
            conn.close()
        else:
            with self._lock:
                idle.append(conn)
        return _Response(resp.status, resp.headers, data)


class JsonEndpoint:
    """POSTs JSON bodies to one http(s) URL and decodes the JSON answers.

    ``name`` says whose endpoint it is in every error and log message.
    At most ``max_in_flight`` requests are in flight at once; the rest
    wait.  A retryable failure is tried again up to ``MAX_ATTEMPTS``
    times in all, sleeping ``base_delay * RETRY_FACTOR**k`` after the
    k-th failure, or the ``Retry-After`` seconds of a 429 or 503 (at most
    ``MAX_RETRY_AFTER``); any other status, a redirect included, and an
    invalid URL raise :class:`TransportError` at once.  A 200 whose body
    is not JSON raises :class:`ProtocolError` without a retry.

    ``session`` is what posts: ``post(url, json, headers, timeout)``
    returns an answer with ``status_code``, ``headers`` and ``json()``,
    and raises ``OSError`` or ``http.client.HTTPException`` when the
    request fails.  By default it is a private keep-alive client.

    Calls that wait on the endpoint overlap on ``pool``, an executor of
    ``max_in_flight`` threads, started on first use (see :func:`run_all`).
    The pool's threads exit once the endpoint is garbage collected.
    """

    def __init__(
        self,
        url: str,
        name: str,
        timeout: float,
        api_key_env: str | None = None,
        session=None,
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
        self.session = session or _KeepAliveSession()
        self._gate = threading.Semaphore(max_in_flight)
        self.base_delay = base_delay
        self.sleep = sleep
        self.pool = ThreadPoolExecutor(max_workers=max_in_flight, thread_name_prefix="claimcheck-endpoint")

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json", "User-Agent": USER_AGENT}
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
            except http.client.InvalidURL as exc:
                raise TransportError(f"{self.name} request failed: {exc}") from exc
            except (OSError, http.client.HTTPException) as exc:
                failure = str(exc) or type(exc).__name__
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


def waits_on(model, request) -> Executor | None:
    """The pool of the endpoint ``model`` waits on to answer ``request``:
    None for an in-process model, and for a memo that already holds the
    answer (its ``holds(request)``), which it gives without a request."""
    endpoint = remote_endpoint(model)
    if endpoint is None or getattr(model, "holds", lambda request: False)(request):
        return None
    return endpoint.pool


def _run_on(pool: Executor, fn: Callable[[T], R], item: T) -> R:
    _running_on.set(_running_on.get() + (pool,))
    return fn(item)


def run_all(
    fn: Callable[[T], R],
    items: Sequence[T],
    pool_of: Callable[[T], Executor | None] = lambda item: None,
) -> list[R]:
    """``fn(item)`` for every item, with the results in input order.

    An item routed to a pool (``pool_of(item)``) runs there, in a copy of
    the caller's context, overlapped with the others; every other item
    runs in the caller's thread, in order.  Callers route a call that
    waits on an endpoint to that endpoint's pool, and name no pool for a
    call that a memo answers (see :func:`waits_on`), so a hit costs no
    hop to a pool thread and back.  A lone item runs inline too, having
    nothing to overlap with, and so does an item whose pool is running
    the caller or a task waiting on it: no task waits on its own pool.
    An ``Exception`` fails only its own item, and the first failure by
    position is raised once every call has finished.
    """
    pending: dict[int, Future] = {}
    if len(items) > 1:
        for i, item in enumerate(items):
            pool = pool_of(item)
            if pool is not None and pool not in _running_on.get():
                pending[i] = pool.submit(contextvars.copy_context().run, _run_on, pool, fn, item)
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


class LruMap:
    """A lock-guarded least-recently-used map of at most ``size`` entries.

    ``get`` makes a hit the most recent entry (None on a miss), and ``keep``
    evicts the oldest past ``size``.  Callers never change a kept value.
    """

    def __init__(self, size: int):
        self.size = size
        self._entries = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key):
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            return self._entries.get(key)

    def values(self) -> list:
        with self._lock:
            return list(self._entries.values())

    def keep(self, key, value) -> None:
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = value
            if len(self._entries) > self.size:
                self._entries.popitem(last=False)
