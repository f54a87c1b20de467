"""The HTTP client behind every remote model.

Chat backends and embedders both POST a JSON body to one URL and read a
JSON answer.  :class:`JsonEndpoint` owns everything that path shares:
the http(s) check, the bearer header read from the environment, the cap
on requests in flight, the timeout, and the retry policy.  Only failures
a later attempt can get past are retried: connection errors, timeouts,
HTTP 408, 429 and 5xx.
"""

from __future__ import annotations

import logging
import os
import threading
import time

import requests

from .errors import ConfigError, ProtocolError, TransportError

logger = logging.getLogger(__name__)

RETRY_BASE_DELAY = 1.0
RETRY_FACTOR = 2.0
MAX_ATTEMPTS = 5
DEFAULT_MAX_IN_FLIGHT = 4


def _retryable(status: int) -> bool:
    return status in (408, 429) or 500 <= status < 600


class JsonEndpoint:
    """POSTs JSON bodies to one http(s) URL and decodes the JSON answers.

    ``name`` says whose endpoint it is in every error and log message.
    At most ``max_in_flight`` requests are in flight at once; the rest
    wait.  A retryable failure is tried again up to ``MAX_ATTEMPTS``
    times in all, sleeping ``base_delay * RETRY_FACTOR**k`` after the
    k-th failure; any other status or request error raises
    :class:`TransportError` at once.  A 200 whose body is not JSON raises
    :class:`ProtocolError` without a retry.
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
            if attempt < MAX_ATTEMPTS:
                logger.warning("%s call failed (attempt %d/%d): %s", self.name, attempt, MAX_ATTEMPTS, failure)
                self.sleep(self.base_delay * RETRY_FACTOR ** (attempt - 1))
        raise TransportError(f"{self.name} call failed after {MAX_ATTEMPTS} attempts: {failure}")
