"""In-process exact-search vector index with diversity-aware selection.

Vectors are stored unit-normalized so cosine similarity reduces to a dot
product.  Entries are keyed by (parent_id, seq); upserting an existing
key replaces its vector.  The index holds one immutable snapshot, the
key-sorted (keys, matrix, metadata) triple: searches read it without
locking, and an upsert swaps in a new one under the upsert lock.

On-disk format (version 2), one file in three sections:

    header    one UTF-8 JSON line, keys sorted:
              {"count": int, "dimension": int, "format": "claimcheck-index",
               "metadata_bytes": int, "model_id": str, "sha256": str,
               "version": 2}
    metadata  ``metadata_bytes`` bytes, one UTF-8 JSON line per entry in
              ascending chunk-key order:
              {"metadata": {str: str}, "parent_id": str, "seq": int}
    matrix    ``count * dimension`` little-endian float64 (``<f8``),
              row-major, row i being the vector of metadata line i

Each metadata line is exactly one JSON value, as ``persist`` writes it:
a line with whitespace around its value, or a value that spans two
lines, is a bad entry.  ``sha256`` is the hex SHA-256 of the header line
without its ``sha256`` key, followed by the metadata and matrix
sections, so a truncated file or any altered byte, header included,
fails the load with :class:`IndexFormatError` rather than yielding a
partial index.  The matrix bytes are written and read exactly, with no
renormalizing, so a rebuild from identical inputs is byte-identical and
a loaded index scores exactly as the one that was persisted.  Version 1
files (vectors as JSON floats) are refused; ``claimcheck build-index``
rebuilds them.

Indexes loaded in one process from byte-identical metadata sections,
such as the two legs of one corpus, share one parsed copy of the keys
and metadata while any of them is alive; each file still passes its own
size, digest, line-count and vector checks.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from . import kernels
from .corpus import ChunkKey
from .embedding import checked_norm, unit_normalize
from .errors import ConfigError, IndexFormatError, ValidationError

FORMAT_NAME = "claimcheck-index"
FORMAT_VERSION = 2
_MATRIX_DTYPE = np.dtype("<f8")
_HEADER_FIELDS = frozenset(
    {"count", "dimension", "format", "metadata_bytes", "model_id", "sha256", "version"}
)
_ENTRY_FIELDS = frozenset({"metadata", "parent_id", "seq"})

DEFAULT_K = 5
DEFAULT_POOL_SIZE = 20
DEFAULT_LAMBDA = 0.5
NO_THRESHOLD = -1.0


@dataclass(frozen=True)
class Hit:
    """One search result."""

    chunk_key: ChunkKey
    similarity: float
    metadata: dict = field(default_factory=dict)


class VectorIndex:
    """Exact cosine search over unit-normalized vectors."""

    def __init__(self, model_id: str, dimension: int):
        if dimension <= 0:
            raise ConfigError(f"index dimension must be positive, got {dimension}")
        self.model_id = model_id
        self.dimension = int(dimension)
        self._lock = threading.Lock()
        # the only store: key-sorted keys, their rows, their metadata
        self._snapshot: tuple[tuple[ChunkKey, ...], np.ndarray, tuple[dict, ...]] = (
            (),
            np.empty((0, dimension), np.float64),
            (),
        )
        # the shared parse that a loaded snapshot's keys and metadata come from
        self._entries: _Entries | None = None

    def __len__(self) -> int:
        return len(self._snapshot[0])

    def upsert(self, items: Iterable[tuple[ChunkKey, np.ndarray, dict]]) -> None:
        """Insert or replace entries; the whole batch validates before any write.

        Each new vector is normalized straight into its row of the new
        snapshot matrix, the only copy made of it, once the whole batch
        has validated: a vector must not change until upsert returns.
        Stored rows are copied bit for bit, never renormalized.
        """
        batch: dict[ChunkKey, tuple[np.ndarray, float | None, dict]] = {}
        for key, vector, metadata in items:
            arr = np.asarray(vector, dtype=np.float64)
            if arr.ndim != 1 or arr.shape[0] != self.dimension:
                got = arr.shape[0] if arr.ndim == 1 else f"shape {arr.shape}"
                raise ValidationError(
                    f"vector for {tuple(key)} has dimension {got}, index expects {self.dimension}"
                )
            batch[ChunkKey(str(key[0]), int(key[1]))] = (arr, checked_norm(arr), dict(metadata or {}))
        if not batch:
            return
        with self._lock:
            keys, matrix, metas = self._snapshot
            # old rows enter as views with no norm to divide by
            merged = {key: (row, None, meta) for key, row, meta in zip(keys, matrix, metas)}
            merged.update(batch)
            keys = tuple(sorted(merged))
            matrix = np.empty((len(keys), self.dimension), np.float64)
            for row, key in zip(matrix, keys):
                vector, norm, _ = merged[key]
                if norm is None:
                    row[:] = vector
                else:
                    np.divide(vector, norm, out=row)
            self._snapshot = (keys, matrix, tuple(merged[k][2] for k in keys))
            self._entries = None

    def _prepare_query(self, query) -> np.ndarray:
        arr = np.asarray(query, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] != self.dimension:
            got = arr.shape[0] if arr.ndim == 1 else f"shape {arr.shape}"
            raise ValidationError(f"query has dimension {got}, index expects {self.dimension}")
        return unit_normalize(arr)

    def mmr_select(
        self,
        query,
        k: int = DEFAULT_K,
        pool_size: int = DEFAULT_POOL_SIZE,
        lambda_: float = DEFAULT_LAMBDA,
        min_similarity: float = NO_THRESHOLD,
    ) -> list[Hit]:
        """Relevance/diversity trade-off selection.

        Fetches the ``pool_size`` most similar entries above the
        threshold, then greedily picks k of them maximizing
        ``lambda_ * sim(query, c) - (1 - lambda_) * max_sim(c, selected)``.
        ``lambda_ = 1`` returns the k most similar entries, similarity
        descending; score ties break toward the lowest chunk key.
        """
        if not 0.0 <= lambda_ <= 1.0:
            raise ConfigError(f"lambda must be within [0, 1], got {lambda_}")
        if pool_size < k:
            raise ConfigError(f"pool_size {pool_size} is smaller than k {k}")
        q = self._prepare_query(query)
        keys, matrix, metas = self._snapshot
        if not keys:
            return []
        idx, sims = kernels.topk_scan(matrix, q, int(pool_size), float(min_similarity))
        if idx.size == 0:
            return []
        # kernels break ties by position, so order the pool by chunk key;
        # snapshot rows are already key-sorted, making that ascending row index
        order = np.argsort(idx)
        pool_rows = idx[order]
        cand_sims = sims[order]
        rows = matrix[pool_rows]
        pairwise = rows @ rows.T
        chosen = kernels.mmr_greedy(cand_sims, pairwise, float(lambda_), int(k))
        return [
            Hit(keys[pool_rows[i]], float(cand_sims[i]), dict(metas[pool_rows[i]]))
            for i in chosen
        ]

    def persist(self, path: str | Path) -> None:
        """Write the index to ``path`` atomically in format version 2."""
        path = Path(path)
        keys, matrix, metas = self._snapshot
        metadata = b"".join(
            _json_line(
                {
                    "parent_id": key.parent_id,
                    "seq": key.seq,
                    "metadata": {str(k): str(v) for k, v in meta.items()},
                }
            )
            for key, meta in zip(keys, metas)
        )
        matrix = np.ascontiguousarray(matrix, dtype=_MATRIX_DTYPE)  # no copy on little-endian hosts
        header = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "model_id": self.model_id,
            "dimension": self.dimension,
            "count": len(keys),
            "metadata_bytes": len(metadata),
        }
        header["sha256"] = _digest(header, metadata, matrix)
        tmp = path.with_name(path.name + ".tmp")
        with tmp.open("wb") as fh:
            fh.write(_json_line(header))
            fh.write(metadata)
            fh.write(matrix.data)
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str | Path) -> "VectorIndex":
        """Read a persisted index; a damaged file never yields a partial index."""
        path = Path(path)
        try:
            fh = path.open("rb")
        except FileNotFoundError as exc:
            raise IndexFormatError(f"index file not found: {path}") from exc
        with fh:
            size = os.fstat(fh.fileno()).st_size
            header_line = fh.readline()
            header = _parse_header(path, header_line)
            count, dimension = header["count"], header["dimension"]
            # checked before allocating, so a damaged count cannot ask for more
            # memory than the file could fill
            expected = (
                len(header_line) + header["metadata_bytes"] + count * dimension * _MATRIX_DTYPE.itemsize
            )
            if size != expected:
                raise IndexFormatError(
                    f"{path}: file holds {size} bytes, but {count} entries of dimension "
                    f"{dimension} need {expected} (truncated?)"
                )
            metadata = fh.read(header["metadata_bytes"])
            matrix = np.empty((count, dimension), _MATRIX_DTYPE)
            read = fh.readinto(matrix.data)
        if len(metadata) != header["metadata_bytes"] or read != matrix.nbytes:
            raise IndexFormatError(f"{path}: file shrank while it was read (truncated?)")
        if _digest(header, metadata, matrix) != header["sha256"]:
            raise IndexFormatError(f"{path}: checksum mismatch, the file is damaged")
        entries = _shared_entries(path, metadata, count)
        bad = ~(np.isfinite(matrix).all(axis=1) & matrix.any(axis=1))
        if bad.any():
            raise IndexFormatError(
                f"{path}: entry {int(bad.argmax())} holds a zero or non-finite vector"
            )
        index = cls(model_id=header["model_id"], dimension=dimension)
        index._snapshot = (entries.keys, matrix, entries.metas)
        index._entries = entries
        return index


def _json_line(obj) -> bytes:
    return (json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n").encode("utf-8")


def _digest(header: dict, metadata: bytes, matrix: np.ndarray) -> str:
    h = hashlib.sha256(_json_line({k: v for k, v in header.items() if k != "sha256"}))
    h.update(metadata)
    h.update(matrix.data)
    return h.hexdigest()


def _parse_header(path: Path, line: bytes) -> dict:
    if not line.strip():
        raise IndexFormatError(f"{path}: missing header line")
    try:
        header = json.loads(line.decode("utf-8"))
    except ValueError as exc:
        raise IndexFormatError(f"{path}: header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise IndexFormatError(f"{path}: not a {FORMAT_NAME} file")
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise IndexFormatError(
            f"{path}: format version {version} is not supported (expected {FORMAT_VERSION}); "
            "re-run `claimcheck build-index` to rebuild the index"
        )
    # a header that parses but is not byte-for-byte the canonical line was
    # altered outside the digested values (whitespace, escapes, key order)
    sizes = ("count", "dimension", "metadata_bytes")
    if (
        set(header) != _HEADER_FIELDS
        or _json_line(header) != line
        or any(type(header[k]) is not int or header[k] < 0 for k in sizes)
        or header["dimension"] == 0
        or not isinstance(header["model_id"], str)
        or not isinstance(header["sha256"], str)
    ):
        raise IndexFormatError(f"{path}: damaged header")
    return header


class _Entries:
    """The parsed keys and metadata of one metadata section."""

    __slots__ = ("keys", "metas", "__weakref__")

    def __init__(self, keys: tuple[ChunkKey, ...], metas: tuple[dict, ...]):
        self.keys = keys
        self.metas = metas


# SHA-256 of a metadata section -> its parse, for as long as an index holds it;
# neither tuple nor any metadata dict is ever mutated (upsert builds a new
# snapshot and every Hit copies its metadata).  Two loads racing on one
# section may each parse it; either parse is correct.
_PARSED: weakref.WeakValueDictionary[bytes, _Entries] = weakref.WeakValueDictionary()


def _shared_entries(path: Path, metadata: bytes, count: int) -> _Entries:
    """The entries of a metadata section whose file passed its own checks,
    parsed once while any index loaded from the same bytes is alive."""
    lines = metadata.count(b"\n")
    # an empty section, or one whose last line ends in its newline
    if lines != count or metadata[-1:] not in (b"", b"\n"):
        raise IndexFormatError(f"{path}: metadata holds {lines} lines for {count} entries")
    digest = hashlib.sha256(metadata).digest()
    entries = _PARSED.get(digest)
    if entries is None:
        entries = _PARSED[digest] = _Entries(*_parse_entries(path, metadata, count))
    return entries


def _parse_entries(
    path: Path, metadata: bytes, count: int
) -> tuple[tuple[ChunkKey, ...], tuple[dict, ...]]:
    """Every entry of a section of ``count`` whole lines, decoded and scanned in one pass."""
    try:
        text = metadata.decode("utf-8")
    except UnicodeDecodeError as exc:
        n = metadata.count(b"\n", 0, exc.start)
        raise IndexFormatError(f"{path}: bad entry {n}: {exc}") from exc
    # the C scanner json.loads ends in: one value at an offset, no whitespace skipped
    scan = json.JSONDecoder().scan_once
    keys: list[ChunkKey] = []
    metas: list[dict] = []
    start = 0
    for n in range(count):
        end = text.index("\n", start)
        try:
            entry, stop = scan(text, start)
        except (StopIteration, ValueError):
            stop = -1
        if not (
            stop == end
            and type(entry) is dict
            and entry.keys() == _ENTRY_FIELDS
            and type(entry["parent_id"]) is str
            and type(entry["seq"]) is int
            and type(entry["metadata"]) is dict
            and all(type(v) is str for v in entry["metadata"].values())
        ):
            raise _bad_entry(path, n, text[start:end])
        key = ChunkKey(entry["parent_id"], entry["seq"])
        if keys and not keys[-1] < key:
            raise IndexFormatError(f"{path}: entry {n} is not in ascending chunk-key order")
        keys.append(key)
        metas.append(entry["metadata"])
        start = end + 1
    return tuple(keys), tuple(metas)


def _bad_entry(path: Path, n: int, line: str) -> IndexFormatError:
    """json's own message when line ``n`` alone is not JSON, else its first bytes."""
    try:
        json.loads(line)
    except ValueError as exc:
        return IndexFormatError(f"{path}: bad entry {n}: {exc}")
    return IndexFormatError(f"{path}: bad entry {n}: {line.encode('utf-8')[:200]!r}")
