"""Run configuration: one YAML document drives every command.

Relative paths are resolved against the config file's directory, so a
bundle of fixtures stays self-contained wherever it is copied.  Secrets
never live here; backend entries name the environment variable that
holds the API key instead.  The reader of the config, ``typed``, reads
every other file of outside data too, and ``write_whole`` writes every
output file.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import re
import sys
import types
import typing
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, NewType

import yaml

from .errors import ClaimcheckError, ConfigError

MODES = ("baseline", "lotr", "lotr_srag")
ROLES = ("generator", "grader", "rewriter")


FreeText = NewType("FreeText", str)
"""A string that may be blank: free text a report carries, such as an
explanation.  A ``str`` setting or key must hold a string that is not blank."""

_hints = functools.cache(typing.get_type_hints)
_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a number"}


def typed(value, kind, path: str | None):
    """``value``, plain data of a config file or a report's JSON, read as the
    resolved annotation ``kind``; an error names ``path`` (see ``_at``).

    ``str`` takes a string that is not blank and ``FreeText`` any string,
    neither one that UTF-8 cannot encode, such as the lone surrogate
    ``"\\ud800"``.  ``bool`` takes a boolean, ``int`` an integer, ``float``
    any finite number, returned as a float; ``X | None`` null or an ``X``;
    an ``Enum`` one of its values; a dataclass a mapping of its fields (see
    ``_load``); ``dict[K, V]`` a mapping, and a bare ``dict`` any mapping,
    as it is; ``list[X]``, ``tuple[X, ...]`` and a NamedTuple a list.
    """
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (typing.Union, types.UnionType):
        (inner,) = (arg for arg in args if arg is not type(None))
        return None if value is None else typed(value, inner, path)
    if kind is str or kind is FreeText:
        if not isinstance(value, str) or not (kind is FreeText or value.strip()):
            raise ConfigError(f"{path} must be a {'' if kind is FreeText else 'non-empty '}string, got {value!r}")
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ConfigError(f"{path} must be text UTF-8 can encode: {exc}") from None
        return value
    if kind in (bool, int, float):
        # a boolean is never a number
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, (int, float) if kind is float else kind):
            raise ConfigError(f"{path} must be {_KIND_NAMES[kind]}, got {value!r}")
        # false for NaN, the infinities and integers too large for a float
        if kind is float and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{path} must be a finite number, got {value!r}")
        return kind(value)
    if kind is dict or origin is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be a mapping, got {value!r}")
        if not args:
            return value
        key_kind, item_kind = args
        return {
            typed(key, key_kind, f"{path} key"): typed(item, item_kind, f"{path}.{key}") for key, item in value.items()
        }
    if dataclasses.is_dataclass(kind):
        return _load(kind, value, path)
    if origin is None and issubclass(kind, Enum):
        try:
            return kind(value)
        except (ValueError, TypeError):
            raise ConfigError(f"{path} must be one of {[m.value for m in kind]}, got {value!r}") from None
    # what is left reads a list: list[X], tuple[X, ...] or a NamedTuple's fields
    if not isinstance(value, list):
        raise ConfigError(f"{path} must be a list, got {value!r}")
    kinds = list(_hints(kind).values()) if origin is None else [args[0]] * len(value)
    if len(value) != len(kinds):
        raise ConfigError(f"{path} must list {len(kinds)} items, got {value!r}")
    items = [typed(item, k, f"{path}[{i}]") for i, (item, k) in enumerate(zip(value, kinds))]
    return items if origin is list else tuple(items) if origin is tuple else kind(*items)


def read_json_lines(path: str | Path, kind, what: str, error: type[ClaimcheckError]) -> list:
    """Each non-blank line of the UTF-8 JSONL file ``path``, read as ``kind``
    with ``typed``; a missing file, a line that is not UTF-8 or JSON, and a
    value ``typed`` refuses raise ``error`` naming the file (and the line)."""
    path = Path(path)
    if not path.exists():
        raise error(f"{what} file not found: {path}")
    rows = []
    with path.open("rb") as fh:
        for n, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    rows.append(typed(json.loads(line.decode("utf-8")), kind, None))
                except (ValueError, ConfigError) as exc:
                    raise error(f"{path}: bad {what} line {n}: {exc}") from None
    return rows


def write_whole(path: str | Path, parts: Iterable[bytes]) -> None:
    """``parts`` as the file ``path``, written to a temporary file beside it and
    moved into place, so a write that fails partway leaves ``path`` as it was;
    an ``OSError``, such as a full disk, raises ``ClaimcheckError`` naming ``path``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with tmp.open("wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except OSError as exc:
        raise ClaimcheckError(f"{path}: {exc.strerror or exc}") from None
    finally:
        tmp.unlink(missing_ok=True)


@dataclass(frozen=True)
class LlmBackendConfig:
    """Transport settings for one agent role."""

    model_id: str
    endpoint: str
    role: str = "generator"
    temperature: float = 0.0
    max_output_tokens: int = 512
    api_key_env: str | None = None

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ConfigError(f"temperature must be >= 0, got {self.temperature}")
        if self.max_output_tokens < 1:
            raise ConfigError(f"max_output_tokens must be >= 1, got {self.max_output_tokens}")


@dataclass(frozen=True)
class EmbedderSpec:
    """Configuration for one embedding model."""

    model_id: str
    dimension: int
    endpoint: str
    seed: int = 0
    api_key_env: str | None = None

    def __post_init__(self) -> None:
        if self.dimension <= 0:
            raise ConfigError(f"dimension must be positive, got {self.dimension}")


@dataclass(frozen=True)
class ChunkingConfig:
    article_chunk_size: int = 2000
    article_overlap: int = 200
    kb_chunk_size: int = 400
    kb_overlap: int = 50

    def __post_init__(self) -> None:
        for size, overlap, what in (
            (self.article_chunk_size, self.article_overlap, "article"),
            (self.kb_chunk_size, self.kb_overlap, "kb"),
        ):
            if not 0 <= overlap < size:
                key = f"{what}_chunk_size" if size <= 0 else f"{what}_overlap"
                raise ConfigError(
                    f"{key} needs 0 <= overlap < {what}_chunk_size, "
                    f"got {what}_chunk_size={size} {what}_overlap={overlap}"
                )


@dataclass(frozen=True)
class RetrievalConfig:
    k: int = 5
    lambda_: float = 0.5
    min_similarity: float = 0.8
    pool_size: int = 20
    reorder: str = "ends"

    def __post_init__(self) -> None:
        if not 0.0 <= self.lambda_ <= 1.0:
            raise ConfigError(f"lambda must be within [0, 1], got {self.lambda_}")
        if not -1.0 <= self.min_similarity <= 1.0:
            raise ConfigError(f"min_similarity must be within [-1, 1], got {self.min_similarity}")
        if self.k <= 0 or self.pool_size < self.k:
            key = "k" if self.k <= 0 else "pool_size"
            raise ConfigError(
                f"{key} needs 0 < k <= pool_size, got k={self.k} pool_size={self.pool_size}"
            )
        if self.reorder not in ("ends", "none"):
            raise ConfigError(f"reorder must be 'ends' or 'none', got {self.reorder!r}")


@dataclass(frozen=True)
class RefinementConfig:
    max_rewrites: int = 2
    max_regenerations: int = 1
    # fraction of retrieved docs that must grade relevant before generation;
    # 0.0 means any single relevant doc is enough
    min_relevant_fraction: float = 0.0

    def __post_init__(self) -> None:
        for key in ("max_rewrites", "max_regenerations"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be non-negative, got {getattr(self, key)}")
        if not 0.0 <= self.min_relevant_fraction <= 1.0:
            raise ConfigError(
                f"min_relevant_fraction must be within [0, 1], got {self.min_relevant_fraction}"
            )


@dataclass(frozen=True)
class EvaluationConfig:
    match_threshold: float = 0.75
    statement_source: str = "backend"  # "backend" | "sentences"
    judge: str = "backend"  # "backend" | "lexical"

    def __post_init__(self) -> None:
        if not 0.0 <= self.match_threshold <= 1.0:
            raise ConfigError(f"match_threshold must be within [0, 1], got {self.match_threshold}")
        if self.statement_source not in ("backend", "sentences"):
            raise ConfigError(
                f"statement_source must be 'backend' or 'sentences', got {self.statement_source!r}"
            )
        if self.judge not in ("backend", "lexical"):
            raise ConfigError(f"judge must be 'backend' or 'lexical', got {self.judge!r}")


@dataclass(frozen=True)
class RunConfig:
    corpus_path: str
    index_dir: str
    embedders: tuple[EmbedderSpec, ...]
    generator: LlmBackendConfig
    grader: LlmBackendConfig
    rewriter: LlmBackendConfig
    chunking: ChunkingConfig = field(default_factory=ChunkingConfig)
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    refinement: RefinementConfig = field(default_factory=RefinementConfig)
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)
    mock_fixtures: str | None = None
    concurrency: int = 4

    def __post_init__(self) -> None:
        if len(self.embedders) != 2:
            raise ConfigError(f"exactly two embedder specs are required, got {len(self.embedders)}")
        first, second = (spec.model_id for spec in self.embedders)
        if first == second:
            raise ConfigError("the two embedders must have distinct model ids")
        if index_path(self, first) == index_path(self, second):
            raise ConfigError(
                f"embedders {first!r} and {second!r} would share the index file {index_path(self, first)}"
            )
        if self.concurrency < 1:
            raise ConfigError(f"concurrency must be >= 1, got {self.concurrency}")

    def to_dict(self) -> dict:
        """Plain-data snapshot embedded into reports; round-trips via config_from_dict."""
        data = {}
        for key, value in plain(self).items():
            if key in ROLES:
                data.setdefault("backends", {})[key] = value
            else:
                data[key] = value
        return data

    def public_dict(self) -> dict:
        """The snapshot embedded into reports.

        Filesystem paths are dropped so a report's bytes do not depend on
        where the bundle happens to live.
        """
        data = self.to_dict()
        for key in ("corpus_path", "index_dir", "mock_fixtures"):
            data.pop(key, None)
        return data


def index_path(config: RunConfig, model_id: str) -> Path:
    """The model id, each run of characters outside [A-Za-z0-9._-] as ``_``."""
    slug = re.sub(r"[^A-Za-z0-9._-]+", "_", model_id)
    return Path(config.index_dir) / f"{slug}.idx"


def plain(value):
    """``value`` as the plain data of a config file or a report's JSON: a dataclass
    maps each field name without its trailing ``_`` to the field's value, in field
    order; an ``Enum`` is its value; a tuple or list is a list, a dict a copied dict."""
    if dataclasses.is_dataclass(value):
        return {f.name.rstrip("_"): plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [plain(item) for item in value]
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    return value


def _at(where: str | None, message: str, sep: str = ": ") -> str:
    """``message`` about the value at the key path ``where``: "" is the top
    level of a file, and None a whole JSONL line, which its reader names."""
    return message if where is None else f"{where or 'the top level'}{sep}{message}"


def _mapping(data, where: str | None, known) -> dict:
    """``data``, checked to be a mapping whose keys are all in ``known``."""
    if not isinstance(data, dict):
        raise ConfigError(_at(where, f"must be a mapping, got {data!r}", " "))
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(_at(where, f"unknown keys {sorted(unknown, key=str)}"))
    return data


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise ConfigError(_at(where, f"missing required key {key!r}"))
    return data[key]


def _load(cls, data, where: str | None, **given):
    """The dataclass ``cls`` read from the mapping at ``where`` (see ``_at``).

    A key is a field name without its trailing ``_``, so YAML's ``lambda`` is
    ``lambda_``; each value is read with ``typed``.  A key may be left out
    only where its field has a default.  The caller sets the fields in
    ``given``: the file may repeat them but not change them.  An error
    ``cls`` raises names its own key, here prefixed with ``where``.
    """
    fields, kinds = {f.name.rstrip("_"): f for f in dataclasses.fields(cls)}, _hints(cls)
    data = _mapping(data, where, fields)
    values = dict(given)
    for key, f in fields.items():
        if key in data:
            value = typed(data[key], kinds[f.name], f"{where}.{key}" if where else key)
            if given.get(f.name, value) != value:
                raise ConfigError(f"{where}.{key} must be {given[f.name]!r}, got {value!r}")
            values[f.name] = value
        elif f.name not in given and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(_at(where, f"missing required key {key!r}"))
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(f"{where}.{exc}" if where else str(exc)) from None


def config_from_dict(data: dict, base_dir: Path | None = None) -> RunConfig:
    """The run config in ``data``; relative paths resolve against ``base_dir``."""
    kinds = _hints(RunConfig)
    _mapping(data, "config root", {*kinds, "backends"} - set(ROLES))
    backends = _mapping(_require(data, "backends", "config"), "backends", ROLES)
    roles = {
        role: _load(LlmBackendConfig, _require(backends, role, "backends"), f"backends.{role}", role=role)
        for role in ROLES
    }
    # a null section takes every default, as a missing one does
    settings = {
        key: value for key, value in data.items()
        if key != "backends" and not (value is None and dataclasses.is_dataclass(kinds[key]))
    }
    if base_dir is not None:
        for key in ("corpus_path", "index_dir", "mock_fixtures"):
            value = typed(settings[key], kinds[key], key) if key in settings else None
            if value is not None and not Path(value).is_absolute():
                settings[key] = str((base_dir / value).resolve())
    return _load(RunConfig, settings, "", **roles)


def load_config(path: str | Path) -> RunConfig:
    """Parse a YAML config file; relative paths resolve against its directory."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if data is None:
        raise ConfigError(f"{path}: config file is empty")
    try:
        return config_from_dict(data, base_dir=path.parent)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
