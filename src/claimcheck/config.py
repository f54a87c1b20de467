"""Run configuration: one YAML document drives every command.

Relative paths are resolved against the config file's directory, so a
bundle of fixtures stays self-contained wherever it is copied.  Secrets
never live here; backend entries name the environment variable that
holds the API key instead.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .agents import LlmBackendConfig
from .embedding import EmbedderSpec
from .errors import ConfigError

MODES = ("baseline", "lotr", "lotr_srag")
ROLES = ("generator", "grader", "rewriter")
ROOT_KEYS = (
    "corpus_path", "index_dir", "embedders", "backends", "chunking", "retrieval",
    "refinement", "evaluation", "mock_fixtures", "concurrency",
)


def _number(value, kind: str, what: str):
    """``value`` if it is an integer (``kind`` ``"int"``) or a real number
    (``"float"``); a boolean is neither."""
    ok = isinstance(value, int) if kind == "int" else isinstance(value, (int, float))
    if isinstance(value, bool) or not ok:
        raise ConfigError(f"{what} must be {'an integer' if kind == 'int' else 'a number'}, got {value!r}")
    return value


def _string(value, what: str, optional: bool = False):
    """``value`` if it is a string that is not blank; also None when ``optional``."""
    if value is None and optional:
        return None
    if not isinstance(value, str) or not value.strip():
        raise ConfigError(f"{what} must be a non-empty string, got {value!r}")
    return value


def _check_numbers(settings, section: str) -> None:
    """Every ``int`` and ``float`` field of a settings dataclass holds a number
    of its kind; the field types are the annotation strings of this module."""
    for f in dataclasses.fields(settings):
        if f.type in ("int", "float"):
            _number(getattr(settings, f.name), f.type, f"{section}.{f.name.rstrip('_')}")


@dataclass(frozen=True)
class ChunkingConfig:
    article_chunk_size: int = 2000
    article_overlap: int = 200
    kb_chunk_size: int = 400
    kb_overlap: int = 50

    def __post_init__(self) -> None:
        _check_numbers(self, "chunking")
        for size, overlap, what in (
            (self.article_chunk_size, self.article_overlap, "article"),
            (self.kb_chunk_size, self.kb_overlap, "kb"),
        ):
            if not 0 <= overlap < size:
                raise ConfigError(
                    f"{what} chunking needs 0 <= overlap < size, got size={size} overlap={overlap}"
                )


@dataclass(frozen=True)
class RetrievalConfig:
    k: int = 5
    lambda_: float = 0.5
    min_similarity: float = 0.8
    pool_size: int = 20
    reorder: str = "ends"

    def __post_init__(self) -> None:
        _check_numbers(self, "retrieval")
        if not 0.0 <= self.lambda_ <= 1.0:
            raise ConfigError(f"retrieval lambda must be within [0, 1], got {self.lambda_}")
        if not -1.0 <= self.min_similarity <= 1.0:
            raise ConfigError(f"min_similarity must be within [-1, 1], got {self.min_similarity}")
        if self.k <= 0 or self.pool_size < self.k:
            raise ConfigError(
                f"retrieval needs 0 < k <= pool_size, got k={self.k} pool_size={self.pool_size}"
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
        _check_numbers(self, "refinement")
        if self.max_rewrites < 0 or self.max_regenerations < 0:
            raise ConfigError("refinement budgets must be non-negative")
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
        _check_numbers(self, "evaluation")
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
        _number(self.concurrency, "int", "concurrency")
        if self.concurrency < 1:
            raise ConfigError(f"concurrency must be >= 1, got {self.concurrency}")

    def to_dict(self) -> dict:
        """Plain-data snapshot embedded into reports; round-trips via config_from_dict."""
        return {
            "corpus_path": self.corpus_path,
            "index_dir": self.index_dir,
            "embedders": [dataclasses.asdict(e) for e in self.embedders],
            "backends": {
                role: dataclasses.asdict(cfg)
                for role, cfg in (
                    ("generator", self.generator),
                    ("grader", self.grader),
                    ("rewriter", self.rewriter),
                )
            },
            "chunking": dataclasses.asdict(self.chunking),
            "retrieval": {
                "k": self.retrieval.k,
                "lambda": self.retrieval.lambda_,
                "min_similarity": self.retrieval.min_similarity,
                "pool_size": self.retrieval.pool_size,
                "reorder": self.retrieval.reorder,
            },
            "refinement": dataclasses.asdict(self.refinement),
            "evaluation": dataclasses.asdict(self.evaluation),
            "mock_fixtures": self.mock_fixtures,
            "concurrency": self.concurrency,
        }

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


def _mapping(data, where: str, known) -> dict:
    """``data``, checked to be a mapping whose keys are all in ``known``."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown, key=str)}")
    return data


def _section(data: dict, name: str, cls):
    """The ``name`` section as a ``cls``; YAML's ``lambda`` is the field ``lambda_``."""
    fields = {f.name.rstrip("_"): f.name for f in dataclasses.fields(cls)}
    raw = _mapping(data.get(name) or {}, name, fields)
    return cls(**{fields[key]: value for key, value in raw.items()})


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return data[key]


def _build_backend_config(data: dict, role: str) -> LlmBackendConfig:
    where = f"backend {role!r}"
    _mapping(data, where, {f.name for f in dataclasses.fields(LlmBackendConfig)})
    return LlmBackendConfig(
        model_id=_string(_require(data, "model_id", where), f"{where} model_id"),
        endpoint=_string(_require(data, "endpoint", where), f"{where} endpoint"),
        role=role,
        temperature=float(_number(data.get("temperature", 0.0), "float", f"{where} temperature")),
        max_output_tokens=_number(data.get("max_output_tokens", 512), "int", f"{where} max_output_tokens"),
        api_key_env=_string(data.get("api_key_env"), f"{where} api_key_env", optional=True),
    )


def _build_embedder_spec(data: dict, position: int) -> EmbedderSpec:
    where = f"embedders[{position}]"
    _mapping(data, where, {f.name for f in dataclasses.fields(EmbedderSpec)})
    return EmbedderSpec(
        model_id=_string(_require(data, "model_id", where), f"{where}.model_id"),
        dimension=_number(_require(data, "dimension", where), "int", f"{where}.dimension"),
        endpoint=_string(_require(data, "endpoint", where), f"{where}.endpoint"),
        seed=_number(data.get("seed", 0), "int", f"{where}.seed"),
        api_key_env=_string(data.get("api_key_env"), f"{where}.api_key_env", optional=True),
    )


def config_from_dict(data: dict, base_dir: Path | None = None) -> RunConfig:
    _mapping(data, "config root", ROOT_KEYS)

    def resolve(p: str) -> str:
        if base_dir is not None and not Path(p).is_absolute():
            return str((base_dir / p).resolve())
        return p

    embedders_raw = _require(data, "embedders", "config")
    if not isinstance(embedders_raw, (list, tuple)) or len(embedders_raw) != 2:
        raise ConfigError("config: 'embedders' must list exactly two specs")
    backends_raw = _mapping(_require(data, "backends", "config"), "config: 'backends'", ROLES)
    for role in ROLES:
        _require(backends_raw, role, "backends")

    mock = _string(data.get("mock_fixtures"), "mock_fixtures", optional=True)
    return RunConfig(
        corpus_path=resolve(_string(_require(data, "corpus_path", "config"), "corpus_path")),
        index_dir=resolve(_string(_require(data, "index_dir", "config"), "index_dir")),
        embedders=tuple(_build_embedder_spec(e, i) for i, e in enumerate(embedders_raw)),
        generator=_build_backend_config(backends_raw["generator"], "generator"),
        grader=_build_backend_config(backends_raw["grader"], "grader"),
        rewriter=_build_backend_config(backends_raw["rewriter"], "rewriter"),
        chunking=_section(data, "chunking", ChunkingConfig),
        retrieval=_section(data, "retrieval", RetrievalConfig),
        refinement=_section(data, "refinement", RefinementConfig),
        evaluation=_section(data, "evaluation", EvaluationConfig),
        mock_fixtures=resolve(mock) if mock else None,
        concurrency=data.get("concurrency", 4),
    )


def load_config(path: str | Path) -> RunConfig:
    """Parse a YAML config file; relative paths resolve against its directory."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if data is None:
        raise ConfigError(f"{path}: config file is empty")
    try:
        return config_from_dict(data, base_dir=path.parent)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
