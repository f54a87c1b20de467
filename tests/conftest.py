"""Shared test fixtures: the committed fixture bundle, a local HTTP stub,
and small scripted backends used across the suite."""

from __future__ import annotations

import http.server
import json
import shutil
import threading
from pathlib import Path

import pytest

from claimcheck.agents import LlmBackendConfig, RawAnswer, prompt_fingerprint
from claimcheck.config import RunConfig
from claimcheck.embedding import DETERMINISTIC_ENDPOINT, DeterministicEmbedder, EmbedderSpec

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture()
def bundle(tmp_path: Path) -> Path:
    """A throwaway copy of the committed fixture bundle."""
    dest = tmp_path / "bundle"
    shutil.copytree(FIXTURES, dest)
    return dest


class StubHttpServer:
    """Local endpoint replaying canned responses and recording requests.

    ``responses`` is a queue of (status, payload) pairs; when it runs dry
    the optional ``default`` callable builds a response from the request
    body, and with neither the server answers 500.
    """

    def __init__(self):
        self.responses: list[tuple[int, object]] = []
        self.requests: list[tuple[str, dict, dict]] = []
        self.default = None
        self._lock = threading.Lock()
        outer = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                try:
                    body = json.loads(self.rfile.read(length) or b"{}")
                except json.JSONDecodeError:
                    body = {}
                with outer._lock:
                    outer.requests.append((self.path, dict(self.headers), body))
                    if outer.responses:
                        status, payload = outer.responses.pop(0)
                    elif outer.default is not None:
                        status, payload = outer.default(body)
                    else:
                        status, payload = 500, {}
                raw = payload.encode() if isinstance(payload, str) else json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(raw)))
                self.end_headers()
                self.wfile.write(raw)

            def log_message(self, *args):  # quiet
                pass

        self._server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/v1"

    def __enter__(self) -> "StubHttpServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()


@pytest.fixture()
def http_stub():
    with StubHttpServer() as server:
        yield server


class FakeResponse:
    """The part of ``requests.Response`` the remote clients read."""

    def __init__(self, status_code: int, payload: dict, headers: dict | None = None):
        self.status_code = status_code
        self._payload = payload
        self.headers = dict(headers or {})

    def json(self) -> dict:
        return self._payload


class QueueBackend:
    """LLM backend that pops canned completions in order."""

    def __init__(self, responses, model_id: str = "queued"):
        self.responses = list(responses)
        self.model_id = model_id
        self.prompts: list[str] = []
        self._lock = threading.Lock()

    def complete(self, prompt: str) -> RawAnswer:
        with self._lock:
            self.prompts.append(prompt)
            if not self.responses:
                raise AssertionError(f"QueueBackend({self.model_id}) ran out of responses")
            text = self.responses.pop(0)
        return RawAnswer(
            text=text,
            prompt_fingerprint=prompt_fingerprint(prompt),
            model_id=self.model_id,
            prompt_tokens=len(prompt.split()),
            completion_tokens=len(text.split()),
        )


class RuleBackend:
    """LLM backend answering via a prompt -> text callable."""

    def __init__(self, rule, model_id: str = "rule"):
        self.rule = rule
        self.model_id = model_id
        self.prompts: list[str] = []
        self._lock = threading.Lock()

    def complete(self, prompt: str) -> RawAnswer:
        with self._lock:
            self.prompts.append(prompt)
        text = self.rule(prompt)
        return RawAnswer(
            text=text,
            prompt_fingerprint=prompt_fingerprint(prompt),
            model_id=self.model_id,
            prompt_tokens=len(prompt.split()),
            completion_tokens=len(text.split()),
        )


class RecordingEmbedder(DeterministicEmbedder):
    """The deterministic embedder, noting the thread each call runs on."""

    def __init__(self, spec: EmbedderSpec):
        super().__init__(spec)
        self.threads: list[int] = []

    def embed(self, texts):
        self.threads.append(threading.get_ident())
        return super().embed(texts)


def make_run_config(base_dir: Path, **overrides) -> RunConfig:
    """A minimal valid RunConfig rooted in ``base_dir``."""
    defaults = dict(
        corpus_path=str(base_dir / "corpus.jsonl"),
        index_dir=str(base_dir / "indexes"),
        embedders=(
            EmbedderSpec(model_id="hash-a", dimension=64, endpoint=DETERMINISTIC_ENDPOINT, seed=1),
            EmbedderSpec(model_id="hash-b", dimension=96, endpoint=DETERMINISTIC_ENDPOINT, seed=2),
        ),
        generator=LlmBackendConfig(model_id="gen", endpoint="scripted", role="generator"),
        grader=LlmBackendConfig(model_id="grade", endpoint="scripted", role="grader"),
        rewriter=LlmBackendConfig(model_id="rewrite", endpoint="scripted", role="rewriter"),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)
