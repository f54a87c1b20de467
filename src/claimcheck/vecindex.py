"""In-process exact-search vector index with diversity-aware selection.

Vectors are stored unit-normalized so cosine similarity reduces to a dot
product.  Entries are keyed by (parent_id, seq); upserting an existing
key replaces its vector.  The index holds one immutable snapshot, the
key-sorted (keys, matrix, metadata) triple: searches read it without
locking, and an upsert swaps in a new one under the upsert lock.

The matrix is float32, in memory as on disk: every search reads the whole
matrix, so its bytes bound the scan.  Vectors are checked and normalized
in float64 and rounded once into their float32 row; a query is
normalized in float64 and rounded the same way, and the kernels widen
similarities to float64 before any threshold, sort or MMR score.

On-disk format (version 4): an index directory holds the legs of one
chunk set, each leg file ``<slug>.idx`` beside one shared ``metadata.jsonl``.

    metadata.jsonl  one UTF-8 JSON line per entry in ascending chunk-key
                    order, the same for every leg in the directory:
                    {"metadata": {str: str}, "parent_id": str, "seq": int}
    leg header      one UTF-8 JSON line, keys sorted:
                    {"count": int, "dimension": int, "format": "claimcheck-index",
                     "metadata_bytes": int, "metadata_sha256": str,
                     "model_id": str, "sha256": str, "version": 4}
    leg matrix      ``count * dimension`` little-endian float32 (``<f4``),
                    row-major, row i being the vector of metadata line i

Each metadata line is exactly one JSON value, as ``persist`` writes it:
a line with whitespace around its value, or a value that spans two
lines, is a bad entry.  ``sha256`` is the hex SHA-256 of the header line
without its ``sha256`` key, followed by the matrix, so a truncated leg or
any altered byte, header included, fails the load with
:class:`IndexFormatError` rather than yielding a partial index.  The
header binds the leg to its metadata: a ``metadata.jsonl`` whose length,
SHA-256 (``metadata_sha256``) or line count differs from the leg's, as
when it is missing, damaged, or rewritten by a later build over another
chunk set, fails the load with a message to re-run ``claimcheck
build-index``.  The matrix bytes are written and read exactly, with no
renormalizing, so a rebuild from identical inputs is byte-identical and
a loaded index scores exactly as the one that was persisted.  Files of
versions 1 (vectors as JSON floats), 2 (float64 matrix) and 3 (metadata
inside each leg) are refused; ``claimcheck build-index`` rebuilds them.

Indexes loaded in one process from byte-identical metadata, such as the
legs of one index directory, share one parsed copy of the keys and
metadata while any of them is alive; each load still checks its leg
file and the metadata file against that leg's header.
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
from .config import write_whole
from .corpus import ChunkKey
from .embedding import checked_norm, unit_normalize
from .errors import ConfigError, IndexFormatError, ValidationError

FORMAT_NAME = "claimcheck-index"
FORMAT_VERSION = 4
METADATA_FILE = "metadata.jsonl"
_REBUILD = "re-run `claimcheck build-index` to rebuild the index"
_MATRIX_DTYPE = np.dtype("<f4")
_HEADER_FIELDS = frozenset(
    {"count", "dimension", "format", "metadata_bytes", "metadata_sha256", "model_id", "sha256", "version"}
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
            np.empty((0, dimension), _MATRIX_DTYPE),
            (),
        )
        # the shared parse that a loaded snapshot's keys and metadata come from
        self._entries: _Entries | None = None

    def __len__(self) -> int:
        return len(self._snapshot[0])

    def upsert(self, items: Iterable[tuple[ChunkKey, np.ndarray, dict]]) -> None:
        """Insert or replace entries; the whole batch validates before any write.

        Each new vector is normalized in float64 and rounded straight
        into its float32 row of the new snapshot matrix, the only copy
        made of it, once the whole batch has validated: a vector must not
        change until upsert returns.  Stored rows are copied bit for bit,
        never renormalized.
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
            matrix = np.empty((len(keys), self.dimension), _MATRIX_DTYPE)
            for row, key in zip(matrix, keys):
                vector, norm, _ = merged[key]
                if norm is None:
                    row[:] = vector
                else:
                    np.divide(vector, norm, out=row)
            self._snapshot = (keys, matrix, tuple(merged[k][2] for k in keys))
            self._entries = None

    def _prepare_query(self, query) -> np.ndarray:
        """The query normalized in float64, then rounded as a stored row is."""
        arr = np.asarray(query, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] != self.dimension:
            got = arr.shape[0] if arr.ndim == 1 else f"shape {arr.shape}"
            raise ValidationError(f"query has dimension {got}, index expects {self.dimension}")
        return unit_normalize(arr).astype(_MATRIX_DTYPE)

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
        pairwise = (rows @ rows.T).astype(np.float64)
        chosen = kernels.mmr_greedy(cand_sims, pairwise, float(lambda_), int(k))
        return [
            Hit(keys[pool_rows[i]], float(cand_sims[i]), dict(metas[pool_rows[i]]))
            for i in chosen
        ]

    def persist(self, path: str | Path) -> None:
        """Write the index in format version 4: the metadata to ``metadata.jsonl``
        beside ``path``, then the leg to ``path``, each whole (see
        ``config.write_whole``).  The metadata file is shared by every leg
        in the directory, so it must hold the chunk set they were built from."""
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
        header = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "model_id": self.model_id,
            "dimension": self.dimension,
            "count": len(keys),
            "metadata_bytes": len(metadata),
            "metadata_sha256": hashlib.sha256(metadata).hexdigest(),
        }
        header["sha256"] = _digest(header, matrix)
        write_whole(path.with_name(METADATA_FILE), (metadata,))
        write_whole(path, (_json_line(header), matrix.data))

    @classmethod
    def load(cls, path: str | Path) -> "VectorIndex":
        """Read the leg ``path`` and its directory's metadata file; a damaged,
        missing or mismatched file never yields a partial index."""
        path = Path(path)
        with _open(path, f"index file not found: {path}") as fh:
            size = os.fstat(fh.fileno()).st_size
            header_line = fh.readline()
            header = _parse_header(path, header_line)
            count, dimension = header["count"], header["dimension"]
            # checked before allocating, so a damaged count cannot ask for more
            # memory than the file could fill
            expected = len(header_line) + count * dimension * _MATRIX_DTYPE.itemsize
            if size != expected:
                raise IndexFormatError(
                    f"{path}: file holds {size} bytes, but {count} entries of dimension "
                    f"{dimension} need {expected} (truncated?)"
                )
            matrix = np.empty((count, dimension), _MATRIX_DTYPE)
            read = fh.readinto(matrix.data)
        if read != matrix.nbytes:
            raise IndexFormatError(f"{path}: file shrank while it was read (truncated?)")
        if _digest(header, matrix) != header["sha256"]:
            raise IndexFormatError(f"{path}: checksum mismatch, the file is damaged")
        # each row's sum of squares in float64, summed without an n x d
        # temporary: zero only for a zero row, finite only for a finite one
        squares = np.einsum("ij,ij->i", matrix, matrix, dtype=np.float64)
        bad = ~(np.isfinite(squares) & (squares > 0.0))
        if bad.any():
            raise IndexFormatError(
                f"{path}: entry {int(bad.argmax())} holds a zero or non-finite vector"
            )
        entries = _shared_entries(path, header)
        index = cls(model_id=header["model_id"], dimension=dimension)
        index._snapshot = (entries.keys, matrix, entries.metas)
        index._entries = entries
        return index


def _open(path: Path, missing: str):
    """``path`` opened for reading; a missing file raises
    :class:`IndexFormatError` saying ``missing``, and so does one that cannot
    be opened, such as a directory, naming the reason."""
    try:
        return path.open("rb")
    except FileNotFoundError as exc:
        raise IndexFormatError(missing) from exc
    except OSError as exc:
        raise IndexFormatError(f"{path}: {exc.strerror or exc}") from exc


def _json_line(obj) -> bytes:
    return (json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n").encode("utf-8")


def _encoded(obj) -> bytes | None:
    """``_json_line(obj)``, or None where a string has no UTF-8 form: JSON's
    escapes can stand for a lone surrogate such as ``"\\ud800"``."""
    try:
        return _json_line(obj)
    except UnicodeEncodeError:
        return None


def _digest(header: dict, matrix: np.ndarray) -> str:
    h = hashlib.sha256(_json_line({k: v for k, v in header.items() if k != "sha256"}))
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
            f"{path}: format version {version} is not supported (expected {FORMAT_VERSION}); {_REBUILD}"
        )
    # a header that parses but is not byte-for-byte the canonical line was
    # altered outside the digested values (whitespace, escapes, key order)
    sizes = ("count", "dimension", "metadata_bytes")
    if (
        set(header) != _HEADER_FIELDS
        or _encoded(header) != line
        or any(type(header[k]) is not int or header[k] < 0 for k in sizes)
        or header["dimension"] == 0
        or not all(isinstance(header[k], str) for k in ("metadata_sha256", "model_id", "sha256"))
    ):
        raise IndexFormatError(f"{path}: damaged header")
    return header


class _Entries:
    """The parsed keys and metadata of one metadata section."""

    __slots__ = ("keys", "metas", "__weakref__")

    def __init__(self, keys: tuple[ChunkKey, ...], metas: tuple[dict, ...]):
        self.keys = keys
        self.metas = metas


# SHA-256 of a metadata file -> its parse, for as long as an index holds it;
# neither tuple nor any metadata dict is ever mutated (upsert builds a new
# snapshot and every Hit copies its metadata).  Two loads racing on one
# file may each parse it; either parse is correct.
_PARSED: weakref.WeakValueDictionary[bytes, _Entries] = weakref.WeakValueDictionary()


def _shared_entries(leg: Path, header: dict) -> _Entries:
    """The entries of the metadata file beside the leg ``leg``, which passed
    its own checks, once the file matches the leg's header; parsed once
    while any index loaded from the same bytes is alive."""
    path = leg.with_name(METADATA_FILE)
    count = header["count"]
    with _open(path, f"{path}: metadata file of {leg.name} not found; {_REBUILD}") as fh:
        # checked before reading, so a file of another size is never read
        size = os.fstat(fh.fileno()).st_size
        if size != header["metadata_bytes"]:
            raise IndexFormatError(
                f"{path}: holds {size} bytes, {leg.name} expects {header['metadata_bytes']} "
                f"(damaged, or written for another chunk set); {_REBUILD}"
            )
        metadata = fh.read()
    # a file that changed since it was sized fails here too
    digest = hashlib.sha256(metadata)
    if digest.hexdigest() != header["metadata_sha256"]:
        raise IndexFormatError(
            f"{path}: checksum does not match {leg.name} (damaged, or written for another chunk set); "
            f"{_REBUILD}"
        )
    lines = metadata.count(b"\n")
    # an empty file, or one whose last line ends in its newline
    if lines != count or metadata[-1:] not in (b"", b"\n"):
        raise IndexFormatError(f"{path}: metadata holds {lines} lines for {count} entries; {_REBUILD}")
    key = digest.digest()
    entries = _PARSED.get(key)
    if entries is None:
        entries = _PARSED[key] = _Entries(*_parse_entries(path, metadata, count))
    return entries


def _parse_entries(
    path: Path, metadata: bytes, count: int
) -> tuple[tuple[ChunkKey, ...], tuple[dict, ...]]:
    """Every entry of metadata of ``count`` whole lines, decoded and scanned in one pass."""
    try:
        text = metadata.decode("utf-8")
    except UnicodeDecodeError as exc:
        n = metadata.count(b"\n", 0, exc.start)
        raise IndexFormatError(f"{path}: bad entry {n}: {exc}") from exc
    # the C scanner json.loads ends in: one value at an offset, no whitespace skipped
    scan = json.JSONDecoder().scan_once
    escaped = b"\\" in metadata
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
            and not (escaped and text.find("\\u", start, end) >= 0 and _encoded(entry) is None)
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
