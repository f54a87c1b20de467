"""Run configuration: one YAML document drives every command.

Relative paths are resolved against the config file's directory, so a
bundle of fixtures stays self-contained wherever it is copied.  Secrets
never live here; backend entries name the environment variable that
holds the API key instead.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .agents import LlmBackendConfig
from .embedding import EmbedderSpec
from .errors import ConfigError

MODES = ("baseline", "lotr", "lotr_srag")


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
        if not 0.0 <= self.lambda_ <= 1.0:
            raise ConfigError(f"retrieval lambda must be within [0, 1], got {self.lambda_}")
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
        if self.embedders[0].model_id == self.embedders[1].model_id:
            raise ConfigError("the two embedders must have distinct model ids")
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


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return data[key]


def _build_backend_config(data: dict, role: str) -> LlmBackendConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"backend {role!r} must be a mapping")
    known = {"model_id", "endpoint", "temperature", "max_output_tokens", "api_key_env"}
    unknown = set(data) - known - {"role"}
    if unknown:
        raise ConfigError(f"backend {role!r}: unknown keys {sorted(unknown)}")
    return LlmBackendConfig(
        model_id=str(_require(data, "model_id", f"backend {role!r}")),
        endpoint=str(_require(data, "endpoint", f"backend {role!r}")),
        role=role,
        temperature=float(data.get("temperature", 0.0)),
        max_output_tokens=int(data.get("max_output_tokens", 512)),
        api_key_env=data.get("api_key_env"),
    )


def _build_embedder_spec(data: dict, position: int) -> EmbedderSpec:
    where = f"embedders[{position}]"
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a mapping")
    return EmbedderSpec(
        model_id=str(_require(data, "model_id", where)),
        dimension=int(_require(data, "dimension", where)),
        endpoint=str(_require(data, "endpoint", where)),
        seed=int(data.get("seed", 0)),
        api_key_env=data.get("api_key_env"),
    )


def config_from_dict(data: dict, base_dir: Path | None = None) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")

    def resolve(p) -> str:
        p = str(p)
        if base_dir is not None and not Path(p).is_absolute():
            return str((base_dir / p).resolve())
        return p

    embedders_raw = _require(data, "embedders", "config")
    if not isinstance(embedders_raw, (list, tuple)) or len(embedders_raw) != 2:
        raise ConfigError("config: 'embedders' must list exactly two specs")
    backends_raw = _require(data, "backends", "config")
    if not isinstance(backends_raw, dict):
        raise ConfigError("config: 'backends' must be a mapping")
    for role in ("generator", "grader", "rewriter"):
        _require(backends_raw, role, "backends")

    retrieval_raw = dict(data.get("retrieval") or {})
    if "lambda" in retrieval_raw:
        retrieval_raw["lambda_"] = retrieval_raw.pop("lambda")

    mock = data.get("mock_fixtures")
    return RunConfig(
        corpus_path=resolve(_require(data, "corpus_path", "config")),
        index_dir=resolve(_require(data, "index_dir", "config")),
        embedders=tuple(_build_embedder_spec(e, i) for i, e in enumerate(embedders_raw)),
        generator=_build_backend_config(backends_raw["generator"], "generator"),
        grader=_build_backend_config(backends_raw["grader"], "grader"),
        rewriter=_build_backend_config(backends_raw["rewriter"], "rewriter"),
        chunking=ChunkingConfig(**(data.get("chunking") or {})),
        retrieval=RetrievalConfig(**retrieval_raw),
        refinement=RefinementConfig(**(data.get("refinement") or {})),
        evaluation=EvaluationConfig(**(data.get("evaluation") or {})),
        mock_fixtures=resolve(mock) if mock else None,
        concurrency=int(data.get("concurrency", 4)),
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
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
