"""Set-up from a run config: the indexes, the retriever, and the agents
with one embedder per configured model."""

from __future__ import annotations

from typing import Iterator, Sequence

from .agents import FactCheckAgents, LlmBackend, build_backend
from .config import RunConfig, index_path
from .corpus import Chunk
from .embedding import build_embedder
from .errors import ConfigError
from .lotr import MergingRetriever, RetrieverLeg
from .pipeline import FactCheckPipeline
from .vecindex import VectorIndex


def build_embedders(config: RunConfig) -> list:
    """One embedder per configured model, in config order."""
    return [build_embedder(spec) for spec in config.embedders]


def build_indexes(config: RunConfig, chunks: Sequence[Chunk], embedders: list) -> Iterator[VectorIndex]:
    """One index per model, each yielded before the next model embeds; the
    vectors live only as long as their upsert."""
    texts = [c.text for c in chunks]
    for spec, embedder in zip(config.embedders, embedders):
        index = VectorIndex(model_id=spec.model_id, dimension=spec.dimension)
        index.upsert(
            # evidence text rides along in the metadata: retrieval feeds it
            # to grading and generation without a second corpus lookup
            (chunk.key, vector, {**chunk.metadata, "text": chunk.text})
            for chunk, vector in zip(chunks, embedder.embed(texts))
        )
        yield index


def load_indexes(config: RunConfig) -> list[VectorIndex]:
    """The persisted index of every configured model, checked against its spec.

    Each leg is checked, and so is the one metadata file of ``index_dir``
    against that leg's header; the legs of one directory share one parse
    of that file.
    """
    indexes = []
    for spec in config.embedders:
        path = index_path(config, spec.model_id)
        if not path.exists():
            raise ConfigError(f"index for {spec.model_id!r} not found at {path}; run build-index")
        index = VectorIndex.load(path)
        if index.model_id != spec.model_id:
            raise ConfigError(f"index {path} holds model {index.model_id!r}, config says {spec.model_id!r}")
        if index.dimension != spec.dimension:
            raise ConfigError(
                f"index {path} has dimension {index.dimension}, config says {spec.dimension}"
            )
        indexes.append(index)
    return indexes


def build_retriever(config: RunConfig, embedders: list, indexes: list[VectorIndex]) -> MergingRetriever:
    legs = [
        RetrieverLeg(retriever_id=spec.model_id, embedder=embedder, index=index)
        for spec, embedder, index in zip(config.embedders, embedders, indexes)
    ]
    r = config.retrieval
    return MergingRetriever(
        legs,
        k=r.k,
        lambda_=r.lambda_,
        min_similarity=r.min_similarity,
        pool_size=r.pool_size,
        reorder=r.reorder,
    )


def build_agents(config: RunConfig, embedders: list, **backends: LlmBackend) -> FactCheckAgents:
    """The configured backends, except those passed by role name; claim
    dedupe embeds with the first model's embedder, shared with its leg."""

    def backend(cfg):
        if cfg.role in backends:
            return backends[cfg.role]
        return build_backend(cfg, mock_fixtures=config.mock_fixtures)

    return FactCheckAgents(
        generator=backend(config.generator),
        grader=backend(config.grader),
        rewriter=backend(config.rewriter),
        embedder=embedders[0],
    )


def build_pipeline(config: RunConfig, mode: str) -> FactCheckPipeline:
    """A pipeline for ``mode``; only the retrieval modes load indexes.

    Claim dedupe and the first leg share one embedder, and so one
    embedding memo when it is remote: a claim's first-round query on
    that leg is its dedupe vector.
    """
    embedders = build_embedders(config)
    retriever = None if mode == "baseline" else build_retriever(config, embedders, load_indexes(config))
    return FactCheckPipeline(config, build_agents(config, embedders), retriever)
