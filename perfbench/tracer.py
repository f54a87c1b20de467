"""In-memory span tracing around calls into claimcheck's modules.

Nothing in ``src/`` knows about tracing.  :func:`install` replaces
module functions and class attributes with timing wrappers at run time
and :meth:`Tracer.restore` puts the originals back, so an untraced run
executes the program exactly as shipped.  The pipeline's and the
retriever's thread pools are swapped for one that carries the caller's
context into each task, which links spans in worker threads to the span
that submitted them.  Every span also carries the id of the article in
flight; the benchmark is a single closed-loop client, so there is only
ever one.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import sys
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, NamedTuple

import numpy as np

_current_span: contextvars.ContextVar[int] = contextvars.ContextVar("perfbench_span", default=0)


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    start: float
    end: float
    article: str | None
    value: object  # what the call's note hook recorded; None when it raised


class _ContextExecutor(ThreadPoolExecutor):
    """Runs each task inside a copy of the submitting thread's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


Note = Callable[[tuple, dict, object], object]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.article: str | None = None
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, note: Note | None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(tracer._ids)
            parent = _current_span.get()
            token = _current_span.set(span_id)
            value = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    value = note(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                _current_span.reset(token)
                tracer.spans.append(Span(span_id, parent, name, start, end, tracer.article, value))

        return traced

    def patch_function(self, module, attr: str, name: str, note: Note | None = None) -> None:
        """Wrap ``module.attr`` and every claimcheck module's alias of it."""
        original = getattr(module, attr)
        wrapped = self._wrap(name, original, note)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "claimcheck" or mod_name.startswith("claimcheck.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def patch_method(self, cls, attr: str, name: str, note: Note | None = None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(name, raw.__func__, note))
        else:
            wrapped = self._wrap(name, raw, note)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def patch_executor(self, module) -> None:
        if getattr(module, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
            self._patches.append((module, "ThreadPoolExecutor", ThreadPoolExecutor))
            module.ThreadPoolExecutor = _ContextExecutor

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _role(backend) -> str:
    role = getattr(backend, "role", None)
    if role is None:
        role = getattr(getattr(backend, "config", None), "role", "unknown")
    return str(role)


def install(tracer: Tracer, backend_classes: tuple[type, ...]) -> None:
    """Wrap every layer boundary named in the per-layer metric table."""
    import requests

    from claimcheck import agents, config, corpus, embedding, kernels, lotr, pipeline, prompts, vecindex

    retry_suffixes = (prompts.SCORE_RETRY_SUFFIX, prompts.CLAIMS_RETRY_SUFFIX)

    tracer.patch_function(config, "load_config", "config.load_config")
    tracer.patch_function(corpus, "ingest_corpus", "corpus.ingest_corpus")
    tracer.patch_function(corpus, "chunk_text", "corpus.chunk_text", lambda a, k, r: len(r))
    for cls in (embedding.DeterministicEmbedder, embedding.RemoteEmbedder):
        tracer.patch_method(cls, "embed", "embedding.embed", lambda a, k, r: len(r))
    tracer.patch_method(
        requests.Session,
        "post",
        "http.post",
        lambda a, k, r: (str(a[1]).rsplit("/", 1)[-1], r.status_code),
    )
    tracer.patch_method(vecindex.VectorIndex, "mmr_select", "vecindex.mmr_select")
    tracer.patch_method(vecindex.VectorIndex, "upsert", "vecindex.upsert")
    tracer.patch_method(vecindex.VectorIndex, "persist", "vecindex.persist")
    tracer.patch_method(vecindex.VectorIndex, "load", "vecindex.load")
    tracer.patch_function(kernels, "topk_scan", "kernels.topk_scan", lambda a, k, r: a[0].shape)
    tracer.patch_function(kernels, "mmr_greedy", "kernels.mmr_greedy")
    tracer.patch_method(lotr.MergingRetriever, "retrieve", "lotr.retrieve", lambda a, k, r: len(r.hits))
    tracer.patch_function(lotr, "dedupe", "lotr.dedupe", lambda a, k, r: (len(a[0]), len(r)))
    tracer.patch_method(prompts.PromptTemplate, "render", "prompts.render")
    tracer.patch_method(agents.FactCheckAgents, "extract_claims", "agents.extract_claims", lambda a, k, r: len(r))
    for op in ("grade_document", "grade_answer"):
        tracer.patch_method(agents.FactCheckAgents, op, f"agents.{op}", lambda a, k, r: bool(r))
    for op in ("generate_answer", "rewrite_claim"):
        tracer.patch_method(agents.FactCheckAgents, op, f"agents.{op}")
    for cls in backend_classes:
        tracer.patch_method(
            cls,
            "complete",
            "backend.complete",
            lambda a, k, r: (_role(a[0]), str(a[1]).endswith(retry_suffixes)),
        )
    tracer.patch_method(pipeline.FactCheckPipeline, "check_article", "pipeline.check_article")
    tracer.patch_method(
        pipeline.FactCheckPipeline,
        "verify_claim_srag",
        "pipeline.verify_claim_srag",
        lambda a, k, r: (r.trace.retrieval_rounds, r.trace.regenerations_used, r.trace.terminal_state),
    )
    tracer.patch_executor(pipeline)
    tracer.patch_executor(lotr)


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over the traced work, keyed by metric name."""
    self_time = _self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    name_of = {s.id: s.name for s in spans}

    def calls(name: str) -> int:
        return len(by_name[name])

    def total(name: str) -> float:
        return sum(s.end - s.start for s in by_name[name])

    def self_total(name: str) -> float:
        return sum(self_time[s.id] for s in by_name[name])

    def ok(name: str) -> list[Span]:
        return [s for s in by_name[name] if s.value is not None]

    m: dict[str, float] = {}
    m["config.load_config.s"] = total("config.load_config")
    m["corpus.ingest_corpus.s"] = total("corpus.ingest_corpus")
    m["corpus.chunk_text.s"] = total("corpus.chunk_text")
    m["corpus.chunks"] = sum(s.value for s in ok("corpus.chunk_text"))

    m["embedding.embed.calls"] = calls("embedding.embed")
    m["embedding.embed.texts"] = sum(s.value for s in ok("embedding.embed"))
    m["embedding.embed.s"] = total("embedding.embed")
    posts = by_name["http.post"]
    embed_posts = [s for s in posts if s.value is not None and s.value[0] == "embeddings"]
    m["embedding.requests"] = len(embed_posts)
    m["embedding.wait_s"] = sum(s.end - s.start for s in embed_posts)

    m["vecindex.mmr_select.calls"] = calls("vecindex.mmr_select")
    m["vecindex.mmr_select.s"] = self_total("vecindex.mmr_select")
    m["vecindex.upsert.s"] = total("vecindex.upsert")
    m["vecindex.persist.s"] = total("vecindex.persist")
    m["vecindex.load.s"] = total("vecindex.load")

    scans = ok("kernels.topk_scan")
    m["kernels.topk_scan.calls"] = calls("kernels.topk_scan")
    m["kernels.topk_scan.s"] = total("kernels.topk_scan")
    m["kernels.topk_scan.rows"] = sum(s.value[0] for s in scans)
    # computed, not measured: each scan reads every row once in float64
    m["kernels.topk_scan.bytes"] = sum(s.value[0] * s.value[1] * 8 for s in scans)
    m["kernels.mmr_greedy.s"] = total("kernels.mmr_greedy")

    m["lotr.retrieve.calls"] = calls("lotr.retrieve")
    # dedupe is traced as a span of its own but belongs to the merge work
    m["lotr.retrieve.s"] = self_total("lotr.retrieve") + total("lotr.dedupe")
    retrieved = ok("lotr.retrieve")
    m["lotr.hits_per_retrieve"] = _ratio(sum(s.value for s in retrieved), len(retrieved))
    dedupes = ok("lotr.dedupe")
    m["lotr.dedupe.kept_ratio"] = _ratio(sum(s.value[1] for s in dedupes), sum(s.value[0] for s in dedupes))

    m["prompts.render.calls"] = calls("prompts.render")
    m["prompts.render.s"] = total("prompts.render")

    extracted = sum(
        s.value
        for s in ok("embedding.embed")
        if name_of.get(s.parent) == "agents.extract_claims"
    )
    m["agents.extract_claims.s"] = self_total("agents.extract_claims")
    m["agents.claims_extracted"] = extracted
    m["agents.claims_kept_ratio"] = _ratio(sum(s.value for s in ok("agents.extract_claims")), extracted)
    for op, ratio_name in (("grade_document", "doc_relevant_ratio"), ("grade_answer", "answer_useful_ratio")):
        graded = ok(f"agents.{op}")
        m[f"agents.{op}.calls"] = calls(f"agents.{op}")
        m[f"agents.{ratio_name}"] = _ratio(sum(s.value for s in graded), len(graded))
    m["agents.generate_answer.calls"] = calls("agents.generate_answer")
    m["agents.rewrite_claim.calls"] = calls("agents.rewrite_claim")
    completes = ok("backend.complete")
    m["agents.reformat_retries"] = sum(1 for s in completes if s.value[1])
    for role in ("generator", "grader", "rewriter"):
        m[f"agents.{role}.wait_s"] = sum(s.end - s.start for s in completes if s.value[0] == role)
    m["agents.transport_retries"] = sum(
        1 for s in posts if s.value is None or (s.value[0] != "embeddings" and s.value[1] != 200)
    )

    verifies = by_name["pipeline.verify_claim_srag"]
    durations_ms = [(s.end - s.start) * 1e3 for s in verifies]
    article_start = {s.article: s.start for s in by_name["pipeline.check_article"]}
    waits_ms = [(s.start - article_start[s.article]) * 1e3 for s in verifies if s.article in article_start]
    m["pipeline.verify_claim.p50_ms"] = float(np.percentile(durations_ms, 50)) if durations_ms else 0.0
    m["pipeline.verify_claim.p90_ms"] = float(np.percentile(durations_ms, 90)) if durations_ms else 0.0
    m["pipeline.claim_wait_ms"] = float(np.percentile(waits_ms, 50)) if waits_ms else 0.0
    traces = [s.value for s in verifies if s.value is not None]
    m["pipeline.retrieval_rounds_per_claim"] = _ratio(sum(t[0] for t in traces), len(traces))
    m["pipeline.regenerations_per_claim"] = _ratio(sum(t[1] for t in traces), len(traces))
    m["pipeline.exhausted_frac"] = _ratio(sum(t[2] == "refinement_exhausted" for t in traces), len(traces))
    return m
