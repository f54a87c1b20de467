"""Embedding providers and vector math.

Two providers share one interface: a remote HTTP endpoint following the
common hosted-embeddings wire format, and a fully deterministic local
embedder used for offline runs and tests.  The deterministic embedder
hashes whitespace tokens into pseudo-random directions and sums them, so
texts sharing vocabulary land near each other while remaining a pure
function of (text, dimension, seed).
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ProtocolError, TransportError, ValidationError
from .transport import JsonEndpoint, run_all

DETERMINISTIC_ENDPOINT = "deterministic-test"
MAX_BATCH = 64


@dataclass(frozen=True)
class EmbedderSpec:
    """Configuration for one embedding model."""

    model_id: str
    dimension: int
    endpoint: str
    seed: int = 0
    api_key_env: str | None = None

    def __post_init__(self) -> None:
        if not self.model_id:
            raise ConfigError("embedder spec needs a model_id")
        if self.dimension <= 0:
            raise ConfigError(f"embedder dimension must be positive, got {self.dimension}")
        if not self.endpoint:
            raise ConfigError(f"embedder {self.model_id!r} needs an endpoint")


@dataclass(frozen=True)
class EmbeddingVector:
    """A single embedding tagged with the model that produced it."""

    values: np.ndarray
    model_id: str

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("embedding must be a non-empty 1-D array")
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"embedding from {self.model_id!r} contains non-finite values")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def dimension(self) -> int:
        return int(self.values.shape[0])


def _as_array(vec) -> np.ndarray:
    if isinstance(vec, EmbeddingVector):
        return vec.values
    arr = np.asarray(vec, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError("expected a 1-D vector")
    return arr


def unit_normalize(vec) -> np.ndarray:
    """Scale a vector to unit L2 norm; a zero vector is an error."""
    arr = _as_array(vec)
    norm = float(np.linalg.norm(arr))
    if norm == 0.0 or not np.isfinite(norm):
        raise ValidationError("cannot normalize a zero or non-finite vector")
    return arr / norm


def cosine_similarity(a, b) -> float:
    """Cosine similarity in [-1, 1]; symmetric in its arguments."""
    va, vb = _as_array(a), _as_array(b)
    if va.shape != vb.shape:
        raise ValidationError(f"dimension mismatch: {va.shape[0]} vs {vb.shape[0]}")
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        raise ValidationError("cosine similarity of a zero vector is undefined")
    sim = float(np.dot(va, vb) / (na * nb))
    return max(-1.0, min(1.0, sim))


@functools.lru_cache(maxsize=200_000)
def _hash_direction(key: str, dimension: int) -> np.ndarray:
    """A pseudo-random unit-scale direction derived from SHA-256 of ``key``."""
    out = np.empty(dimension, dtype=np.float64)
    block = 0
    filled = 0
    while filled < dimension:
        digest = hashlib.sha256(f"{key}\x1f{block}".encode("utf-8")).digest()
        for (u,) in struct.iter_unpack(">Q", digest):
            if filled >= dimension:
                break
            # map uint64 onto [-1, 1)
            out[filled] = (u / 2.0**63) - 1.0
            filled += 1
        block += 1
    out.flags.writeable = False
    return out


def deterministic_test_embedder(text: str, dimension: int, seed: int = 0) -> np.ndarray:
    """Hash-based embedding: a pure function of (text, dimension, seed).

    The vector is the normalized sum of per-token hash directions, so
    identical texts embed identically and token overlap raises cosine
    similarity.  No randomness, no state, stable across platforms.
    """
    if dimension <= 0:
        raise ConfigError(f"dimension must be positive, got {dimension}")
    tokens = text.lower().split()
    acc = np.zeros(dimension, dtype=np.float64)
    for tok in tokens:
        acc = acc + _hash_direction(f"{seed}\x1ftok\x1f{tok}", dimension)
    if not tokens or float(np.linalg.norm(acc)) < 1e-12:
        acc = _hash_direction(f"{seed}\x1fraw\x1f{text}", dimension).copy()
    return unit_normalize(acc)


class DeterministicEmbedder:
    """Local provider wrapping :func:`deterministic_test_embedder`."""

    def __init__(self, spec: EmbedderSpec):
        self.spec = spec

    def embed(self, texts: list[str]) -> list[EmbeddingVector]:
        _check_texts(texts)
        return [
            EmbeddingVector(
                deterministic_test_embedder(t, self.spec.dimension, self.spec.seed),
                self.spec.model_id,
            )
            for t in texts
        ]


class RemoteEmbedder:
    """Embeddings adapter over one :class:`JsonEndpoint`.

    POSTs ``{"model": ..., "input": [...]}`` in batches of at most 64
    texts and expects ``{"data": [{"index": i, "embedding": [...]}, ...]}``.
    ``transport`` holds the endpoint's seams: ``session``,
    ``max_in_flight``, ``base_delay`` and ``sleep``.
    """

    def __init__(self, spec: EmbedderSpec, **transport):
        self.spec = spec
        self.endpoint = JsonEndpoint(
            spec.endpoint,
            f"embedder {spec.model_id!r}",
            timeout=60.0,
            api_key_env=spec.api_key_env,
            **transport,
        )

    def _post_batch(self, batch: list[str], offset: int) -> list[list[float]]:
        try:
            payload = self.endpoint.post({"model": self.spec.model_id, "input": batch})
        except TransportError as exc:
            raise TransportError(str(exc), failed_indices=list(range(offset, offset + len(batch)))) from exc
        try:
            rows = sorted(payload["data"], key=lambda d: d["index"])
            vectors = [row["embedding"] for row in rows]
        except (KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed embedding response: {exc}") from exc
        if len(vectors) != len(batch):
            raise ProtocolError(f"sent {len(batch)} texts, received {len(vectors)} embeddings")
        return vectors

    def embed(self, texts: list[str]) -> list[EmbeddingVector]:
        """Embed ``texts`` in batches of at most 64, posted concurrently.

        The batches overlap on the endpoint's pool, at most
        ``max_in_flight`` at once, and each retries on its own; a single
        batch posts in the caller's thread.  Vectors come back in input
        order.  When batches fail, the earliest one's error is raised once
        every batch has finished.
        """
        _check_texts(texts)
        offsets = range(0, len(texts), MAX_BATCH)
        batches = run_all(
            lambda lo: self._post_batch(texts[lo : lo + MAX_BATCH], lo), offsets, lambda lo: self.endpoint
        )
        out: list[EmbeddingVector] = []
        for vectors in batches:
            for vec in vectors:
                if len(vec) != self.spec.dimension:
                    raise ProtocolError(
                        f"model {self.spec.model_id!r}: expected dimension "
                        f"{self.spec.dimension}, received {len(vec)}"
                    )
                out.append(EmbeddingVector(np.asarray(vec, dtype=np.float64), self.spec.model_id))
        return out


def _check_texts(texts: list[str]) -> None:
    if not isinstance(texts, (list, tuple)):
        raise ValidationError("embed expects a list of texts")
    for i, t in enumerate(texts):
        if not isinstance(t, str) or not t.strip():
            raise ValidationError(f"text at position {i} is empty")


def build_embedder(spec: EmbedderSpec):
    """Pick the provider implied by the spec's endpoint."""
    if spec.endpoint == DETERMINISTIC_ENDPOINT:
        return DeterministicEmbedder(spec)
    return RemoteEmbedder(spec)
