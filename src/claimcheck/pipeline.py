"""Article-level fact-checking: claim extraction, per-claim verification,
and report rendering.

Three modes share the same report shape.  ``baseline`` hands each claim
to the generator with the whole article as context and no retrieval.
``lotr`` retrieves a merged evidence bundle and generates once.
``lotr_srag`` adds self-reflection around that flow:

    retrieve -> grade documents -> (none relevant? rewrite, retry)
             -> generate -> grade answer -> (not useful? regenerate,
                then rewrite, retry)

Budgets bound the loop: at most ``max_rewrites`` rewrites and
``max_regenerations`` regenerations per claim, after which the claim
terminates as ``refinement_exhausted``.  A claim that fails for any
reason becomes an Unverifiable entry; one claim never aborts the
article.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .agents import Claim, FactCheckAgents, ParsedVerdict, RawAnswer, VerdictLabel, parse_verdict
from .config import MODES, RunConfig
from .corpus import ArticleText, ChunkKey, chunk_text
from .errors import ClaimcheckError, ConfigError, GradingError, ValidationError
from .lotr import EvidenceBundle, EvidenceHit, MergingRetriever
from .transport import remote_endpoint, run_all

logger = logging.getLogger(__name__)

TERMINAL_DONE = "done"
TERMINAL_EXHAUSTED = "refinement_exhausted"
TERMINAL_ERROR = "error"


@dataclass(frozen=True)
class Source:
    """A citation resolved against evidence metadata (or kept as free text)."""

    title: str
    authors: str = ""
    date: str = ""


@dataclass
class SragTrace:
    """What the refinement loop actually did for one claim."""

    retrieval_rounds: int = 0
    rewrites_used: int = 0
    regenerations_used: int = 0
    doc_grades: list[list[bool]] = field(default_factory=list)
    answer_grades: list[bool] = field(default_factory=list)
    terminal_state: str = TERMINAL_DONE
    notes: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class FactCheckEntry:
    claim: Claim
    label: VerdictLabel
    explanation: str
    sources: tuple[Source, ...]
    evidence_keys: tuple[ChunkKey, ...]
    trace: SragTrace


@dataclass
class Report:
    article_id: str
    mode: str
    config: dict
    entries: list[FactCheckEntry]
    token_usage: dict
    warnings: list[str] = field(default_factory=list)
    timing_seconds: float | None = None  # kept out of the canonical JSON


class _UsageCounter:
    """Thread-safe running totals of backend calls and tokens."""

    def __init__(self):
        self._lock = threading.Lock()
        self._totals = {"backend_calls": 0, "prompt_tokens": 0, "completion_tokens": 0}

    def add(self, answer: RawAnswer) -> None:
        with self._lock:
            self._totals["backend_calls"] += 1
            self._totals["prompt_tokens"] += answer.prompt_tokens
            self._totals["completion_tokens"] += answer.completion_tokens

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._totals)


class _CountingBackend:
    """Records every completion of ``inner`` in a shared usage counter."""

    def __init__(self, inner, usage: _UsageCounter):
        self.inner = inner
        self.usage = usage
        self.endpoint = remote_endpoint(inner)

    def complete(self, prompt: str) -> RawAnswer:
        answer = self.inner.complete(prompt)
        self.usage.add(answer)
        return answer


def _hit_text(hit: EvidenceHit) -> str:
    return str(hit.metadata.get("text", ""))


def _source_from_hit(hit: EvidenceHit) -> Source:
    meta = hit.metadata
    return Source(
        title=str(meta.get("title", "")),
        authors=str(meta.get("authors", "")),
        date=str(meta.get("published_date", "")),
    )


def _cited_matches_hit(cited: str, hit: EvidenceHit) -> bool:
    c = cited.casefold()
    title = str(hit.metadata.get("title", "")).casefold()
    if title and (title in c or c in title):
        return True
    authors = str(hit.metadata.get("authors", ""))
    for token in authors.replace(",", " ").replace(";", " ").split():
        if len(token) > 2 and token.casefold() in c:
            return True
    return False


class FactCheckPipeline:
    """Wires agents, retrieval, and config into article-level checking."""

    def __init__(
        self,
        config: RunConfig,
        agents: FactCheckAgents,
        retriever: MergingRetriever | None,
    ):
        self.config = config
        self.retriever = retriever
        self._usage = _UsageCounter()
        self.agents = FactCheckAgents(
            generator=_CountingBackend(agents.generator, self._usage),
            grader=_CountingBackend(agents.grader, self._usage),
            rewriter=_CountingBackend(agents.rewriter, self._usage),
            embedder=agents.embedder,
            dedupe_threshold=agents.dedupe_threshold,
        )

    # -- per-claim flows -------------------------------------------------

    def _entry_from_answer(
        self,
        claim: Claim,
        parsed: ParsedVerdict,
        hits: tuple[EvidenceHit, ...],
        trace: SragTrace,
        baseline: bool = False,
    ) -> FactCheckEntry:
        """Assemble an entry, enforcing that verdicts carry citations.

        A non-Unverifiable verdict must cite at least one source; in the
        retrieval modes an uncited or unmatched citation falls back to
        the top-ranked evidence document, while in baseline mode (no
        evidence) the verdict is downgraded to Unverifiable.
        """
        if parsed.parse_warning:
            trace.notes.append("verdict parse warning: no label recognized in the answer")
        label = parsed.label
        sources: list[Source] = []
        matched_evidence = False
        for cited in parsed.sources:
            hit = next((h for h in hits if _cited_matches_hit(cited, h)), None)
            if hit is not None:
                source = _source_from_hit(hit)
                matched_evidence = True
            else:
                source = Source(title=cited)
            if source not in sources:
                sources.append(source)
        if label is not VerdictLabel.UNVERIFIABLE:
            if hits and not matched_evidence:
                top = _source_from_hit(hits[0])
                if top not in sources:
                    sources.insert(0, top)
                trace.notes.append(
                    "citation did not match retrieved evidence; citing top-ranked evidence"
                )
            elif baseline and not sources:
                trace.notes.append("uncited verdict downgraded to Unverifiable")
                label = VerdictLabel.UNVERIFIABLE
        return FactCheckEntry(
            claim=claim,
            label=label,
            explanation=parsed.explanation,
            sources=tuple(sources),
            evidence_keys=tuple(h.chunk_key for h in hits),
            trace=trace,
        )

    def _unverifiable_entry(
        self, claim: Claim, reason: str, trace: SragTrace, hits: tuple[EvidenceHit, ...] = ()
    ) -> FactCheckEntry:
        return FactCheckEntry(
            claim=claim,
            label=VerdictLabel.UNVERIFIABLE,
            explanation=reason,
            sources=(),
            evidence_keys=tuple(h.chunk_key for h in hits),
            trace=trace,
        )

    def verify_claim_baseline(self, claim: Claim, article: ArticleText) -> FactCheckEntry:
        trace = SragTrace()
        answer = self.agents.baseline_answer(claim, article.body)
        return self._entry_from_answer(claim, parse_verdict(answer.text), (), trace, baseline=True)

    def _retrieve(self, claim: Claim, trace: SragTrace) -> EvidenceBundle:
        if self.retriever is None:
            raise ConfigError("retrieval mode requested but no retriever is configured")
        bundle = self.retriever.retrieve(claim.text)
        trace.retrieval_rounds += 1
        trace.notes.extend(bundle.provenance.get("warnings", ()))
        return bundle

    def verify_claim_lotr(self, claim: Claim) -> FactCheckEntry:
        """Single retrieve-then-generate pass."""
        trace = SragTrace()
        bundle = self._retrieve(claim, trace)
        if not bundle.hits:
            return self._unverifiable_entry(
                claim, "No evidence above the similarity threshold.", trace
            )
        context = self.agents.format_context([(h.metadata, _hit_text(h)) for h in bundle.hits])
        answer = self.agents.generate_answer(claim, context)
        return self._entry_from_answer(claim, parse_verdict(answer.text), bundle.hits, trace)

    def _grade_documents(
        self, claim: Claim, hits: tuple[EvidenceHit, ...], trace: SragTrace
    ) -> list[bool]:
        """Grade one round's documents; grades and notes in hit order.

        The grades are independent, so a remote grader's are issued
        together on its endpoint's pool, whose in-flight cap bounds how
        many reach it at once; an in-process grader answers them in this
        thread, one after another.  A GradingError makes its document a
        "no".  Any other error fails the claim, but only after every
        sibling grade has finished, so no grading task outlives the call.
        """

        def grade(hit: EvidenceHit) -> tuple[bool, str | None]:
            try:
                return self.agents.grade_document(claim, _hit_text(hit)), None
            except GradingError as exc:
                return False, f"document grade treated as no: {exc}"

        endpoint = remote_endpoint(self.agents.grader)
        grades: list[bool] = []
        for ok, note in run_all(grade, hits, lambda hit: endpoint):
            grades.append(ok)
            if note is not None:
                trace.notes.append(note)
        return grades

    def verify_claim_srag(self, claim: Claim) -> FactCheckEntry:
        """Self-reflective loop: grade evidence, regenerate, rewrite, within budgets."""
        budget = self.config.refinement
        trace = SragTrace()
        current = claim
        last_parsed: ParsedVerdict | None = None
        last_kept: tuple[EvidenceHit, ...] = ()
        while True:
            bundle = self._retrieve(current, trace)
            grades = self._grade_documents(current, bundle.hits, trace)
            kept = [hit for hit, ok in zip(bundle.hits, grades) if ok]
            trace.doc_grades.append(grades)

            if not kept or len(kept) < budget.min_relevant_fraction * len(grades):
                if trace.rewrites_used < budget.max_rewrites:
                    current = self.agents.rewrite_claim(current, trace.rewrites_used + 1)
                    trace.rewrites_used += 1
                    continue
                trace.terminal_state = TERMINAL_EXHAUSTED
                return self._unverifiable_entry(
                    current,
                    "No retrieved evidence was graded relevant within the refinement budget.",
                    trace,
                )

            hits = tuple(kept)
            context = self.agents.format_context([(h.metadata, _hit_text(h)) for h in hits])
            while True:
                answer = self.agents.generate_answer(current, context)
                last_parsed = parse_verdict(answer.text)
                last_kept = hits
                try:
                    useful = self.agents.grade_answer(current, answer.text)
                except GradingError as exc:
                    useful = False
                    trace.notes.append(f"answer grade treated as no: {exc}")
                trace.answer_grades.append(useful)
                if useful:
                    trace.terminal_state = TERMINAL_DONE
                    return self._entry_from_answer(current, last_parsed, hits, trace)
                if trace.regenerations_used < budget.max_regenerations:
                    trace.regenerations_used += 1
                    continue
                break

            if trace.rewrites_used < budget.max_rewrites:
                current = self.agents.rewrite_claim(current, trace.rewrites_used + 1)
                trace.rewrites_used += 1
                continue
            trace.terminal_state = TERMINAL_EXHAUSTED
            trace.notes.append("refinement budget exhausted; reporting the last answer")
            return self._entry_from_answer(current, last_parsed, last_kept, trace)

    # -- article flow ------------------------------------------------------

    def _verify(self, claim: Claim, article: ArticleText, mode: str) -> FactCheckEntry:
        if mode == "baseline":
            return self.verify_claim_baseline(claim, article)
        if mode == "lotr":
            return self.verify_claim_lotr(claim)
        return self.verify_claim_srag(claim)

    def _verify_safely(self, claim: Claim, article: ArticleText, mode: str) -> FactCheckEntry:
        try:
            return self._verify(claim, article, mode)
        except ClaimcheckError as exc:
            logger.warning("claim %s failed: %s", claim.id, exc)
            trace = SragTrace(terminal_state=TERMINAL_ERROR, notes=[f"claim failed: {exc}"])
            return self._unverifiable_entry(claim, f"Verification failed: {exc}", trace)

    def check_article(self, article: ArticleText, mode: str) -> Report:
        """Extract and verify every claim of ``article``.

        ``token_usage`` counts the backend calls made during this call, so
        a pipeline reused across articles reports each article's own usage.
        Calls made by another check on the same pipeline while this one
        runs are counted here as well.
        """
        if mode not in MODES:
            raise ConfigError(f"unknown mode {mode!r}, expected one of {MODES}")
        start = time.perf_counter()
        before = self._usage.snapshot()
        warnings: list[str] = []
        chunks = chunk_text(
            article.id,
            article.body,
            self.config.chunking.article_chunk_size,
            self.config.chunking.article_overlap,
        )
        claims = self.agents.extract_claims(article.id, chunks, warnings=warnings)
        entries: list[FactCheckEntry] = []
        if claims:
            workers = min(self.config.concurrency, len(claims))
            with ThreadPoolExecutor(max_workers=workers) as pool:
                entries = list(pool.map(lambda c: self._verify_safely(c, article, mode), claims))
        after = self._usage.snapshot()
        token_usage = {key: after[key] - before[key] for key in after}
        return Report(
            article_id=article.id,
            mode=mode,
            config=self.config.public_dict(),
            entries=entries,
            token_usage=token_usage,
            warnings=warnings,
            timing_seconds=time.perf_counter() - start,
        )


# -- rendering --------------------------------------------------------------


def report_to_dict(report: Report) -> dict:
    """Canonical plain-data form; deterministic, no timestamps."""
    return {
        "article_id": report.article_id,
        "mode": report.mode,
        "config": report.config,
        "token_usage": dict(report.token_usage),
        "warnings": list(report.warnings),
        "entries": [
            {
                "claim": {
                    "id": e.claim.id,
                    "text": e.claim.text,
                    "source_chunk": list(e.claim.source_chunk),
                    "rewritten_from": e.claim.rewritten_from,
                },
                "label": e.label.value,
                "explanation": e.explanation,
                "sources": [
                    {"title": s.title, "authors": s.authors, "date": s.date} for s in e.sources
                ],
                "evidence_keys": [list(k) for k in e.evidence_keys],
                "trace": {
                    "retrieval_rounds": e.trace.retrieval_rounds,
                    "rewrites_used": e.trace.rewrites_used,
                    "regenerations_used": e.trace.regenerations_used,
                    "doc_grades": [list(g) for g in e.trace.doc_grades],
                    "answer_grades": list(e.trace.answer_grades),
                    "terminal_state": e.trace.terminal_state,
                    "notes": list(e.trace.notes),
                },
            }
            for e in report.entries
        ],
    }


def _md_escape(text: str) -> str:
    return text.replace("|", "\\|").replace("\n", " ")


def render_report(report: Report, fmt: str = "json") -> str:
    """Serialize a report as canonical JSON or a two-column markdown table."""
    if fmt == "json":
        return json.dumps(report_to_dict(report), ensure_ascii=False, indent=2) + "\n"
    if fmt != "markdown":
        raise ConfigError(f"unknown report format {fmt!r}, expected 'json' or 'markdown'")
    lines = [
        f"# Fact-check report: {report.article_id}",
        "",
        f"Mode: `{report.mode}`",
        "",
        "| Extracted claims | Response of fact-checking |",
        "| --- | --- |",
    ]
    for i, e in enumerate(report.entries, start=1):
        response = f"{e.label.display}."
        if e.explanation:
            response += f" {e.explanation}"
        if e.sources:
            cited = "; ".join(
                ", ".join(part for part in (s.title, s.authors, s.date) if part)
                for s in e.sources
            )
            response += f" Source: {cited}"
        lines.append(f"| {i}. {_md_escape(e.claim.text)} | {i}. {_md_escape(response)} |")
    if report.warnings:
        lines += ["", "## Warnings", ""]
        lines += [f"- {w}" for w in report.warnings]
    return "\n".join(lines) + "\n"
