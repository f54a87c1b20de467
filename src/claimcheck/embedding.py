"""Embedding providers and vector math.

Two providers share one interface: a remote HTTP endpoint following the
common hosted-embeddings wire format, and a fully deterministic local
embedder used for offline runs and tests.  The deterministic embedder
hashes whitespace tokens into pseudo-random directions and sums them, so
texts sharing vocabulary land near each other while remaining a pure
function of (text, dimension, seed).  :func:`build_embedder` puts each
remote embedder behind an :class:`EmbeddingMemo`, so a recurring claim
text is posted once per model.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from .config import EmbedderSpec
from .errors import ConfigError, ProtocolError, ValidationError
from .transport import JsonEndpoint, LruMap, run_all

DETERMINISTIC_ENDPOINT = "deterministic-test"
MAX_BATCH = 64
# about 12 MiB of rows per memo at 1 536 dimensions
EMBEDDING_MEMO_ENTRIES = 1024


def _as_array(vec) -> np.ndarray:
    arr = np.asarray(vec, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError("expected a 1-D vector")
    return arr


def checked_norm(vec) -> float:
    """The L2 norm of a vector that can be normalized; a zero or non-finite
    norm is an error."""
    norm = float(np.linalg.norm(_as_array(vec)))
    if norm == 0.0 or not np.isfinite(norm):
        raise ValidationError("cannot normalize a zero or non-finite vector")
    return norm


def unit_normalize(vec) -> np.ndarray:
    """Scale a vector to unit L2 norm; a zero vector is an error."""
    arr = _as_array(vec)
    return arr / checked_norm(arr)


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
    """A pseudo-random unit-scale direction derived from SHA-256 of ``key``.

    Component i is the i-th big-endian uint64 of the digests of
    ``key\x1f0``, ``key\x1f1``, ..., mapped onto [-1, 1).
    """
    digests = b"".join(
        hashlib.sha256(f"{key}\x1f{block}".encode("utf-8")).digest()
        for block in range(-(-dimension // 4))
    )
    out = np.frombuffer(digests, ">u8", dimension).astype(np.float64) / 2.0**63 - 1.0
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
        acc += _hash_direction(f"{seed}\x1ftok\x1f{tok}", dimension)
    if not tokens or float(np.linalg.norm(acc)) < 1e-12:
        acc = _hash_direction(f"{seed}\x1fraw\x1f{text}", dimension).copy()
    return unit_normalize(acc)


class DeterministicEmbedder:
    """Local provider wrapping :func:`deterministic_test_embedder`."""

    def __init__(self, spec: EmbedderSpec):
        self.spec = spec

    def embed(self, texts: list[str]) -> np.ndarray:
        """A float64 matrix of shape ``(len(texts), dimension)``, row i
        being the vector of ``texts[i]``."""
        _check_texts(texts)
        out = np.empty((len(texts), self.spec.dimension), np.float64)
        for row, text in zip(out, texts):
            row[:] = deterministic_test_embedder(text, self.spec.dimension, self.spec.seed)
        return out


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

    def _post_batch(self, texts: list[str], offset: int, out: np.ndarray) -> None:
        """Embed the batch of ``texts`` starting at ``offset`` into the same rows of ``out``."""
        batch = texts[offset : offset + MAX_BATCH]
        payload = self.endpoint.post({"model": self.spec.model_id, "input": batch})
        try:
            indices = [row["index"] for row in payload["data"]]
            vectors = np.array([row["embedding"] for row in payload["data"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed embedding response: {exc}") from exc
        if len(vectors) != len(batch):
            raise ProtocolError(f"sent {len(batch)} texts, received {len(vectors)} embeddings")
        # each row names its text: exactly the ints 0..n-1, once each
        if any(type(i) is not int for i in indices) or sorted(indices) != list(range(len(batch))):
            raise ProtocolError(
                f"model {self.spec.model_id!r}: embedding indices are not 0..{len(batch) - 1} once each"
            )
        # JSON numbers only: a string, boolean or null gives another dtype kind
        if vectors.dtype.kind not in "fi":
            raise ProtocolError(f"model {self.spec.model_id!r}: non-numeric embedding values")
        if vectors.shape[1:] != (self.spec.dimension,):
            raise ProtocolError(
                f"model {self.spec.model_id!r}: expected dimension "
                f"{self.spec.dimension}, received shape {vectors.shape[1:]}"
            )
        out[offset + np.array(indices)] = vectors

    def embed(self, texts: list[str]) -> np.ndarray:
        """Embed ``texts`` in batches of at most 64, posted concurrently.

        The batches overlap on the endpoint's pool, at most
        ``max_in_flight`` at once, and each retries on its own; a single
        batch posts in the caller's thread.  Each batch writes its rows
        into one float64 matrix of shape ``(len(texts), dimension)``, row
        i being the vector of ``texts[i]``.  When batches fail, the
        earliest one's error is raised once every batch has finished.  A
        non-numeric, misshapen or non-finite embedding, and a batch whose
        ``index`` values are not the ints 0..n-1 once each, is a
        :class:`ProtocolError`.
        """
        _check_texts(texts)
        out = np.empty((len(texts), self.spec.dimension), np.float64)
        run_all(
            lambda offset: self._post_batch(texts, offset, out),
            range(0, len(texts), MAX_BATCH),
            lambda offset: self.endpoint,
        )
        bad = ~np.isfinite(out).all(axis=1)
        if bad.any():
            raise ProtocolError(
                f"model {self.spec.model_id!r}: non-finite embedding for text {int(bad.argmax())}"
            )
        return out


class EmbeddingMemo:
    """Reuses a remote embedder's vectors for texts it has embedded before.

    Rows are kept by text in an :class:`LruMap` of at most
    ``EMBEDDING_MEMO_ENTRIES`` entries.  ``embed`` copies kept rows out
    and posts only the distinct texts it does not hold, in one call to
    the inner embedder; a row is kept only once that call has returned
    it, so a failed call is asked again the next time.  A call of more
    texts than the map holds, such as an index build, would only evict
    its own rows, so it goes straight to the inner embedder and keeps
    nothing.  Kept rows are private copies, so no caller's matrix shares
    memory with the memo.  ``endpoint`` and ``spec`` are the inner
    embedder's.
    """

    def __init__(self, inner: RemoteEmbedder):
        self.inner = inner
        self.spec = inner.spec
        self.endpoint = inner.endpoint
        self._rows = LruMap(EMBEDDING_MEMO_ENTRIES)

    def holds(self, texts: list[str]) -> bool:
        """Whether a row is kept for every one of ``texts``, so that ``embed`` posts nothing."""
        return len(texts) <= self._rows.size and all(text in self._rows for text in texts)

    def embed(self, texts: list[str]) -> np.ndarray:
        """The inner embedder's ``(len(texts), dimension)`` float64 matrix."""
        if len(texts) > self._rows.size:
            return self.inner.embed(texts)
        _check_texts(texts)
        out = np.empty((len(texts), self.spec.dimension), np.float64)
        missing: dict[str, list[int]] = {}
        for i, text in enumerate(texts):
            row = self._rows.get(text)
            if row is None:
                missing.setdefault(text, []).append(i)
            else:
                out[i] = row
        if missing:
            fresh = self.inner.embed(list(missing))
            for (text, positions), vector in zip(missing.items(), fresh):
                out[positions] = vector
                self._rows.keep(text, vector.copy())
        return out


def _check_texts(texts: list[str]) -> None:
    if not isinstance(texts, (list, tuple)):
        raise ValidationError("embed expects a list of texts")
    for i, t in enumerate(texts):
        if not isinstance(t, str) or not t.strip():
            raise ValidationError(f"text at position {i} is empty")


def build_embedder(spec: EmbedderSpec):
    """Pick the provider implied by the spec's endpoint; a remote one
    comes behind its own :class:`EmbeddingMemo`."""
    if spec.endpoint == DETERMINISTIC_ENDPOINT:
        return DeterministicEmbedder(spec)
    return EmbeddingMemo(RemoteEmbedder(spec))
