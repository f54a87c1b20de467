"""Run configuration: one YAML document drives every command.

Relative paths are resolved against the config file's directory, so a
bundle of fixtures stays self-contained wherever it is copied.  Secrets
never live here; backend entries name the environment variable that
holds the API key instead.
"""

from __future__ import annotations

import dataclasses
import re
import sys
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import yaml

from .agents import LlmBackendConfig
from .embedding import EmbedderSpec
from .errors import ConfigError

MODES = ("baseline", "lotr", "lotr_srag")
ROLES = ("generator", "grader", "rewriter")


def _typed(value, kind: str, path: str):
    """``value`` checked against a field annotation of this package.

    ``int`` takes a YAML integer; ``float`` any finite number, returned as a
    float; ``str`` a string that is not blank; ``str | None`` that or null.
    A boolean is never a number.
    """
    if kind in ("str", "str | None"):
        if (isinstance(value, str) and value.strip()) or (value is None and kind == "str | None"):
            return value
        raise ConfigError(f"{path} must be a non-empty string, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind == "float" else int):
        raise ConfigError(f"{path} must be {'a number' if kind == 'float' else 'an integer'}, got {value!r}")
    if kind == "int":
        return value
    # false for NaN, the infinities and integers too large for a float
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    return float(value)


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
                    f"chunking.{key} needs 0 <= overlap < {what}_chunk_size, "
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
            raise ConfigError(f"retrieval.lambda must be within [0, 1], got {self.lambda_}")
        if not -1.0 <= self.min_similarity <= 1.0:
            raise ConfigError(f"retrieval.min_similarity must be within [-1, 1], got {self.min_similarity}")
        if self.k <= 0 or self.pool_size < self.k:
            key = "k" if self.k <= 0 else "pool_size"
            raise ConfigError(
                f"retrieval.{key} needs 0 < k <= pool_size, got k={self.k} pool_size={self.pool_size}"
            )
        if self.reorder not in ("ends", "none"):
            raise ConfigError(f"retrieval.reorder must be 'ends' or 'none', got {self.reorder!r}")


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
                raise ConfigError(f"refinement.{key} must be non-negative, got {getattr(self, key)}")
        if not 0.0 <= self.min_relevant_fraction <= 1.0:
            raise ConfigError(
                f"refinement.min_relevant_fraction must be within [0, 1], got {self.min_relevant_fraction}"
            )


@dataclass(frozen=True)
class EvaluationConfig:
    match_threshold: float = 0.75
    statement_source: str = "backend"  # "backend" | "sentences"
    judge: str = "backend"  # "backend" | "lexical"

    def __post_init__(self) -> None:
        if not 0.0 <= self.match_threshold <= 1.0:
            raise ConfigError(f"evaluation.match_threshold must be within [0, 1], got {self.match_threshold}")
        if self.statement_source not in ("backend", "sentences"):
            raise ConfigError(
                f"evaluation.statement_source must be 'backend' or 'sentences', got {self.statement_source!r}"
            )
        if self.judge not in ("backend", "lexical"):
            raise ConfigError(f"evaluation.judge must be 'backend' or 'lexical', got {self.judge!r}")


@dataclass(frozen=True)
class RunConfig:
    corpus_path: str
    index_dir: str
    embedders: tuple[EmbedderSpec, EmbedderSpec]
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


def _mapping(data, where: str, known) -> dict:
    """``data``, checked to be a mapping whose keys are all in ``known``."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a mapping, got {data!r}")
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown, key=str)}")
    return data


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return data[key]


def _load(cls, data, where: str, **given):
    """The settings object ``cls`` read from the mapping at ``where`` in the file.

    A key is a field name without its trailing ``_``, so YAML's ``lambda`` is
    ``lambda_``; each value is checked against its field's annotation.  A
    missing or null mapping takes every default.  The caller sets the fields
    in ``given``: the file may repeat them but not change them.
    """
    fields = {f.name.rstrip("_"): f for f in dataclasses.fields(cls)}
    data = _mapping({} if data is None else data, where, fields)
    values = dict(given)
    for key, f in fields.items():
        if key not in data:
            if f.name not in given and f.default is dataclasses.MISSING:
                raise ConfigError(f"{where}: missing required key {key!r}")
            continue
        value = _typed(data[key], f.type, f"{where}.{key}")
        if given.get(f.name, value) != value:
            raise ConfigError(f"{where}.{key} must be {given[f.name]!r}, got {value!r}")
        values[f.name] = value
    return cls(**values)


def config_from_dict(data: dict, base_dir: Path | None = None) -> RunConfig:
    root = {f.name: f for f in dataclasses.fields(RunConfig)}
    _mapping(data, "config root", {*root, "backends"} - set(ROLES))
    embedders = _require(data, "embedders", "config")
    if not isinstance(embedders, (list, tuple)) or len(embedders) != 2:
        raise ConfigError("config: 'embedders' must list exactly two specs")
    backends = _mapping(_require(data, "backends", "config"), "backends", ROLES)

    def path(key: str, value) -> str | None:
        """The path setting ``key``, resolved against ``base_dir`` when relative."""
        value = _typed(value, root[key].type, key)
        if value is None or base_dir is None or Path(value).is_absolute():
            return value
        return str((base_dir / value).resolve())

    return RunConfig(
        corpus_path=path("corpus_path", _require(data, "corpus_path", "config")),
        index_dir=path("index_dir", _require(data, "index_dir", "config")),
        embedders=tuple(_load(EmbedderSpec, spec, f"embedders[{i}]") for i, spec in enumerate(embedders)),
        **{
            role: _load(LlmBackendConfig, _require(backends, role, "backends"), f"backends.{role}", role=role)
            for role in ROLES
        },
        chunking=_load(ChunkingConfig, data.get("chunking"), "chunking"),
        retrieval=_load(RetrievalConfig, data.get("retrieval"), "retrieval"),
        refinement=_load(RefinementConfig, data.get("refinement"), "refinement"),
        evaluation=_load(EvaluationConfig, data.get("evaluation"), "evaluation"),
        mock_fixtures=path("mock_fixtures", data.get("mock_fixtures")),
        concurrency=_typed(data.get("concurrency", RunConfig.concurrency), root["concurrency"].type, "concurrency"),
    )


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
