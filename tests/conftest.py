"""Shared test fixtures: the committed fixture bundle, a local HTTP stub,
and small scripted backends used across the suite."""

from __future__ import annotations

import errno
import hashlib
import http.server
import json
import os
import shutil
import threading
import time
from pathlib import Path

import pytest

from claimcheck.agents import RawAnswer, prompt_fingerprint
from claimcheck.config import EmbedderSpec, LlmBackendConfig, RunConfig
from claimcheck.embedding import DETERMINISTIC_ENDPOINT, DeterministicEmbedder

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


def split_sections(path) -> tuple[dict, bytes, bytes]:
    """(header, metadata, matrix) of the index leg ``path``: its header and
    matrix, and the metadata file beside it."""
    path = Path(path)
    header_line, matrix = path.read_bytes().split(b"\n", 1)
    return json.loads(header_line), path.with_name("metadata.jsonl").read_bytes(), matrix


def write_sealed(path, header: dict, metadata: bytes, matrix: bytes) -> None:
    """Write ``metadata`` as the metadata file beside ``path``, and ``path`` as
    a leg sealed to it, with sizes and digests computed as the format documents."""
    path = Path(path)
    header = {k: v for k, v in header.items() if k != "sha256"}
    header["metadata_bytes"] = len(metadata)
    header["metadata_sha256"] = hashlib.sha256(metadata).hexdigest()
    line = (json.dumps(header, ensure_ascii=False, sort_keys=True) + "\n").encode("utf-8")
    header["sha256"] = hashlib.sha256(line + matrix).hexdigest()
    line = (json.dumps(header, ensure_ascii=False, sort_keys=True) + "\n").encode("utf-8")
    path.with_name("metadata.jsonl").write_bytes(metadata)
    path.write_bytes(line + matrix)


class FillsUp:
    """An open file on a disk that fills up partway through the first write."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), self.fh.name)


def fill_the_disk(monkeypatch) -> None:
    """From now on, every file opened for writing through ``Path.open`` fills
    the disk partway through its first write."""
    real_open = Path.open

    def open_on_a_full_disk(self, mode="r", *args, **kwargs):
        fh = real_open(self, mode, *args, **kwargs)
        return FillsUp(fh) if "w" in mode else fh

    monkeypatch.setattr(Path, "open", open_on_a_full_disk)


class StubHttpServer:
    """Local HTTP/1.1 endpoint replaying canned responses and recording
    requests.

    ``responses`` is a queue of (status, payload) pairs; when it runs dry
    the optional ``default`` callable builds a response from the request
    body, and with neither the server answers 500.  Each answer waits
    ``delay`` seconds first.  Connections are kept alive, and
    ``accepted`` counts them; with ``close_idle`` the server closes each
    one after its answer without saying so, as a server that drops idle
    connections does.
    """

    def __init__(self):
        self.responses: list[tuple[int, object]] = []
        self.requests: list[tuple[str, dict, dict]] = []
        self.default = None
        self.delay = 0.0
        self.close_idle = False
        self.accepted = 0
        self._lock = threading.Lock()
        outer = self

        class Handler(http.server.BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            wbufsize = -1  # each answer in one write, so Nagle's algorithm never holds its body

            def setup(self):
                super().setup()
                with outer._lock:
                    outer.accepted += 1

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
                time.sleep(outer.delay)
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(raw)))
                self.end_headers()
                self.wfile.write(raw)
                self.close_connection = outer.close_idle

            def log_message(self, *args):  # quiet
                pass

        self._server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, args=(0.05,), daemon=True)

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
    """The part of a transport session's answer the remote clients read."""

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


def chat_payload(text: str) -> dict:
    return {
        "choices": [{"message": {"content": text}}],
        "usage": {"prompt_tokens": 7, "completion_tokens": 3},
    }


class CountingSession:
    """A fake transport session answering each chat post with
    ``answer(prompt)`` and recording every prompt it was posted; a ``None``
    answer is an HTTP 503."""

    def __init__(self, answer):
        self.answer = answer
        self.lock = threading.Lock()
        self.posts: list[str] = []

    def post(self, url, json, headers, timeout):
        prompt = json["messages"][0]["content"]
        with self.lock:
            self.posts.append(prompt)
        text = self.answer(prompt)
        if text is None:
            return FakeResponse(503, {})
        return FakeResponse(200, chat_payload(text))


class EmbeddingSession:
    """A fake transport session serving the deterministic embedder's
    vectors for ``spec`` over HTTP.  Every post waits at ``barrier``, when
    there is one, and notes its input texts and the thread it runs on."""

    def __init__(self, spec: EmbedderSpec, barrier: threading.Barrier | None = None):
        self.local = DeterministicEmbedder(spec)
        self.barrier = barrier
        self.inputs: list[list[str]] = []
        self.threads: list[int] = []
        self._lock = threading.Lock()

    def post(self, url, json, headers, timeout):
        with self._lock:
            self.inputs.append(list(json["input"]))
            self.threads.append(threading.get_ident())
        if self.barrier is not None:
            self.barrier.wait()
        vectors = self.local.embed(json["input"])
        rows = [{"index": i, "embedding": v.tolist()} for i, v in enumerate(vectors)]
        return FakeResponse(200, {"data": rows})


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
