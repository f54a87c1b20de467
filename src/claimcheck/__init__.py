"""Retrieval-augmented fact checking for long-form articles.

Claims are extracted from overlapping article chunks, evidence is
retrieved from two embedding spaces and merged, and a grader loop can
rewrite claims and regenerate answers until the verdict is grounded.
"""

# before the imports: the transport names this version in its User-Agent
__version__ = "0.1.0"

from .agents import Claim, FactCheckAgents, VerdictLabel, parse_score, parse_verdict
from .config import RunConfig, load_config
from .corpus import Chunk, ChunkKey, CorpusRecord, chunk_text, ingest_corpus
from .errors import (
    BackendError,
    ClaimcheckError,
    ConfigError,
    DegenerateSampleError,
    ExtractionError,
    GradingError,
    IndexFormatError,
    ProtocolError,
    RewriteError,
    TransportError,
    ValidationError,
)
from .evaluation import (
    ConsistencyScore,
    compare_systems,
    consistency,
    paired_t_test,
    semantic_similarity,
    wilcoxon_signed_rank,
)
from .lotr import EvidenceBundle, MergingRetriever, RetrieverLeg
from .pipeline import FactCheckEntry, FactCheckPipeline, Report, render_report
from .vecindex import VectorIndex

__all__ = [
    "BackendError",
    "Chunk",
    "ChunkKey",
    "Claim",
    "ClaimcheckError",
    "ConfigError",
    "ConsistencyScore",
    "CorpusRecord",
    "DegenerateSampleError",
    "EvidenceBundle",
    "ExtractionError",
    "FactCheckAgents",
    "FactCheckEntry",
    "FactCheckPipeline",
    "GradingError",
    "IndexFormatError",
    "MergingRetriever",
    "ProtocolError",
    "Report",
    "RetrieverLeg",
    "RewriteError",
    "RunConfig",
    "TransportError",
    "ValidationError",
    "VectorIndex",
    "VerdictLabel",
    "chunk_text",
    "compare_systems",
    "consistency",
    "ingest_corpus",
    "load_config",
    "paired_t_test",
    "parse_score",
    "parse_verdict",
    "render_report",
    "semantic_similarity",
    "wilcoxon_signed_rank",
    "__version__",
]
