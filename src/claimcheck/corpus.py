"""Corpus ingestion and overlapping-window chunking.

Knowledge-base records arrive as JSONL or CSV rows; articles arrive as
plain text.  Both are cut into token windows whose character offsets
point back into the source string, so any chunk can be traced to the
exact text it came from.
"""

from __future__ import annotations

import csv
import datetime as _dt
import json
import re
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import ConfigError, ValidationError

ARTICLE_CHUNK_SIZE = 2000
ARTICLE_CHUNK_OVERLAP = 200
KB_CHUNK_SIZE = 400
KB_CHUNK_OVERLAP = 50

_CSV_COLUMNS = ["id", "title", "abstract", "authors", "published_date", "keywords"]
# the reason a JSONL line is rejected, by the error reading it raised; else "invalid json"
_LINE_ERRORS = {UnicodeDecodeError: "invalid utf-8", UnicodeEncodeError: "lone surrogate escape: no UTF-8 form"}

# A token is a run of word characters or a single non-space symbol, so
# concatenating tokens with the whitespace between them restores the input.
# Each match is a token with the whitespace before it: ``findall`` then
# returns plain strings, and offsets come from running sums of their
# lengths instead of one match object per token.
_PIECE_RE = re.compile(r"\s*(?:\w+|[^\w\s])", re.UNICODE)


class ChunkKey(NamedTuple):
    parent_id: str
    seq: int


@dataclass(frozen=True)
class CorpusRecord:
    """One knowledge-base document (typically a paper abstract)."""

    id: str
    title: str
    abstract: str
    authors: tuple[str, ...] = ()
    published_date: _dt.date | None = None
    keywords: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("corpus record must have a non-empty id")
        if not self.title.strip() and not self.abstract.strip():
            raise ValidationError(f"record {self.id!r}: title and abstract are both empty")


@dataclass(frozen=True)
class ArticleText:
    """A long-form article to be fact-checked."""

    id: str
    body: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("article must have a non-empty id")
        if not self.body.strip():
            raise ValidationError(f"article {self.id!r} has an empty body")


@dataclass(frozen=True)
class Chunk:
    """A token window of a parent document.

    ``token_span`` is half-open in the parent's token sequence; ``text``
    is the exact substring covering those tokens.
    """

    parent_id: str
    seq: int
    token_span: tuple[int, int]
    text: str
    metadata: dict = field(default_factory=dict)

    @property
    def key(self) -> ChunkKey:
        return ChunkKey(self.parent_id, self.seq)


@dataclass(frozen=True)
class RejectedRow:
    location: str
    reason: str


def _token_pieces(text: str) -> tuple[list[str], list[int]]:
    """Each token with its leading whitespace, and each token's end offset."""
    # Trailing whitespace is cut off first: ``\s*`` would otherwise retry
    # the rest of it from every position, quadratic in its length.
    pieces = _PIECE_RE.findall(text, 0, len(text.rstrip()))
    return pieces, list(accumulate(map(len, pieces)))


def chunk_text(
    parent_id: str,
    text: str,
    chunk_size: int = ARTICLE_CHUNK_SIZE,
    overlap: int = ARTICLE_CHUNK_OVERLAP,
    metadata: dict | None = None,
) -> list[Chunk]:
    """Cut ``text`` into overlapping token windows.

    Consecutive spans satisfy ``next.start == prev.end - overlap``; the
    final window may be shorter but is never empty, and a text that fits
    one window exactly yields a single chunk.
    """
    if not 0 <= overlap < chunk_size:
        raise ConfigError(f"need 0 <= overlap < chunk_size, got overlap={overlap} chunk_size={chunk_size}")
    pieces, ends = _token_pieces(text)
    total = len(pieces)
    if total == 0:
        return []
    meta = dict(metadata or {})
    chunks: list[Chunk] = []
    start = 0
    while True:
        end = min(start + chunk_size, total)
        chunks.append(
            Chunk(
                parent_id=parent_id,
                seq=len(chunks),
                token_span=(start, end),
                text=text[ends[start] - len(pieces[start].lstrip()) : ends[end - 1]],
                metadata=dict(meta),
            )
        )
        if end == total:
            break
        start = end - overlap
    return chunks


def _parse_date(raw: str) -> _dt.date | None:
    if not raw or not raw.strip():
        return None
    try:
        return _dt.date.fromisoformat(raw.strip())
    except ValueError:
        raise ValidationError(f"invalid date {raw!r}")


def _string_list(value, *, split: bool) -> tuple[str, ...]:
    if value is None:
        return ()
    if isinstance(value, str):
        if not split:
            raise ValidationError(f"expected an array, got string {value!r}")
        parts = value.split(";")
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        raise ValidationError(f"expected an array of strings, got {type(value).__name__}")
    out = []
    for p in parts:
        if not isinstance(p, str):
            raise ValidationError(f"expected string items, got {type(p).__name__}")
        p = p.strip()
        if p:
            out.append(p)
    return tuple(out)


def _record_from_mapping(row: dict, *, split_arrays: bool) -> CorpusRecord:
    rec_id = row.get("id")
    if rec_id is None or not str(rec_id).strip():
        raise ValidationError("missing id")
    title = str(row.get("title") or "")
    abstract = str(row.get("abstract") or "")
    if not title.strip() and not abstract.strip():
        raise ValidationError("empty content")
    return CorpusRecord(
        id=str(rec_id).strip(),
        title=title,
        abstract=abstract,
        authors=_string_list(row.get("authors"), split=split_arrays),
        published_date=_parse_date(str(row.get("published_date") or "")),
        keywords=_string_list(row.get("keywords"), split=split_arrays),
    )


def ingest_corpus(path: str | Path) -> tuple[list[CorpusRecord], list[RejectedRow]]:
    """Load corpus records from a JSONL file, or CSV if the suffix is ``.csv``.

    Malformed rows never abort the load; each one lands in the rejects
    list with its location and a reason (``empty content``,
    ``duplicate id``, ...).
    """
    path = Path(path)
    is_csv = path.suffix.lower() == ".csv"
    if not path.exists():
        raise ValidationError(f"corpus file not found: {path}")

    records: list[CorpusRecord] = []
    rejects: list[RejectedRow] = []
    seen: set[str] = set()

    def consume(location: str, row: dict | None, err: str | None) -> None:
        if err is not None:
            rejects.append(RejectedRow(location, err))
            return
        try:
            rec = _record_from_mapping(row, split_arrays=is_csv)
        except ValidationError as exc:
            rejects.append(RejectedRow(location, str(exc)))
            return
        if rec.id in seen:
            rejects.append(RejectedRow(location, "duplicate id"))
            return
        seen.add(rec.id)
        records.append(rec)

    if not is_csv:
        with path.open("rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    row = json.loads(line.decode("utf-8"))
                    if b"\\u" in line:  # only an escape can stand for a lone surrogate
                        json.dumps(row, ensure_ascii=False).encode("utf-8")
                except ValueError as exc:
                    consume(f"line {lineno}", None, _LINE_ERRORS.get(type(exc), "invalid json"))
                    continue
                consume(f"line {lineno}", row, None if isinstance(row, dict) else "row is not an object")
    else:
        try:
            with path.open(encoding="utf-8", newline="") as fh:
                reader = csv.DictReader(fh)
                header = reader.fieldnames or []
                missing = [c for c in _CSV_COLUMNS if c not in header]
                if missing:
                    raise ValidationError(f"csv corpus is missing columns: {', '.join(missing)}")
                for lineno, row in enumerate(reader, start=2):
                    consume(f"line {lineno}", {k: row.get(k) for k in _CSV_COLUMNS}, None)
        except UnicodeDecodeError as exc:
            raise ValidationError(f"cannot read corpus {path}: {exc}") from exc

    return records, rejects


def record_metadata(record: CorpusRecord) -> dict:
    """Flat string metadata carried on every chunk of a record."""
    return {
        "title": record.title,
        "authors": "; ".join(record.authors),
        "published_date": record.published_date.isoformat() if record.published_date else "",
        "keywords": "; ".join(record.keywords),
    }


def chunk_corpus(
    records: Iterable[CorpusRecord],
    chunk_size: int = KB_CHUNK_SIZE,
    overlap: int = KB_CHUNK_OVERLAP,
) -> list[Chunk]:
    """Chunk every record's abstract, falling back to the title when empty."""
    chunks: list[Chunk] = []
    for rec in records:
        body = rec.abstract if rec.abstract.strip() else rec.title
        chunks.extend(chunk_text(rec.id, body, chunk_size, overlap, metadata=record_metadata(rec)))
    return chunks


def load_article(path: str | Path) -> ArticleText:
    """Read an article from a text file; the id is the file stem."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"article file not found: {path}")
    try:
        body = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"cannot read article {path}: {exc}") from exc
    return ArticleText(id=path.stem, body=body)
