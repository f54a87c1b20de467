"""Local HTTP stand-in for hosted chat and embedding models.

Serves ``/v1/chat/completions`` through the rule-driven responder and
``/v1/embeddings`` through ``deterministic_test_embedder``, so its
vectors match an index built from the same config.  Every request takes
a fixed service time per model, padded with a sleep.

Each response goes out in one write on a TCP_NODELAY socket: a status
line and body in separate writes meet Nagle's algorithm and delayed ACK
on loopback and stall each round trip by tens of milliseconds.

Usage (started and stopped by run.py; exits when its stdin closes):

    python3 perfbench/stub.py --workload check-remote --seed 1
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from claimcheck.embedding import deterministic_test_embedder  # noqa: E402

from responder import Responder, UnknownPrompt  # noqa: E402
from synth import PROFILES, Synth  # noqa: E402


def make_handler(responder: Responder, embedders: dict, models: dict, service_s: dict):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self) -> None:
            super().setup()
            self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        def log_message(self, *args) -> None:
            pass

        def _send(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            head = (
                f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("ascii")
            self.wfile.write(head + body)

        def do_POST(self) -> None:
            start = time.perf_counter()
            request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            model = request.get("model")
            if self.path == "/v1/embeddings" and model in embedders:
                dim, seed = embedders[model]
                payload = {
                    "data": [
                        {"index": i, "embedding": deterministic_test_embedder(t, dim, seed).tolist()}
                        for i, t in enumerate(request["input"])
                    ]
                }
                service = service_s["embeddings"]
            elif self.path == "/v1/chat/completions" and model in models:
                prompt = request["messages"][0]["content"]
                try:
                    text = responder.respond(prompt)
                except UnknownPrompt:
                    text = ""  # the client reports an empty completion, never retries it
                payload = {
                    "choices": [{"message": {"role": "assistant", "content": text}}],
                    "usage": {
                        "prompt_tokens": len(prompt.split()),
                        "completion_tokens": len(text.split()),
                    },
                }
                service = service_s[models[model]]
            else:
                self._send(404, {"error": f"unknown route {self.path} or model {model!r}"})
                return
            remaining = service - (time.perf_counter() - start)
            if remaining > 0:
                time.sleep(remaining)
            self._send(200, payload)

    return Handler


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROFILES))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    synth = Synth(PROFILES[args.workload], args.seed)
    config = synth.config_dict(endpoint="http://unused")
    embedders = {e["model_id"]: (e["dimension"], e["seed"]) for e in config["embedders"]}
    models = {b["model_id"]: role for role, b in config["backends"].items()}
    service_s = {k: v / 1000.0 for k, v in synth.profile.service_ms.items()}

    handler = make_handler(Responder(synth), embedders, models, service_s)
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        sys.stdin.read()  # returns when the parent closes our stdin or exits
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


if __name__ == "__main__":
    main()
