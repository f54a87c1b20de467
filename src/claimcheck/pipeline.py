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

import contextvars
import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .agents import Claim, FactCheckAgents, ParsedVerdict, VerdictLabel, count_usage, parse_verdict
from .config import MODES, FreeText, RunConfig, plain
from .corpus import ArticleText, ChunkKey, chunk_text
from .errors import ClaimcheckError, ConfigError, GradingError, ValidationError
from .lotr import EvidenceBundle, MergingRetriever
from .transport import remote_endpoint, run_all
from .vecindex import Hit

logger = logging.getLogger(__name__)

TERMINAL_DONE = "done"
TERMINAL_EXHAUSTED = "refinement_exhausted"
TERMINAL_ERROR = "error"


@dataclass(frozen=True)
class Source:
    """A citation resolved against evidence metadata (or kept as free text)."""

    title: FreeText
    authors: FreeText = ""
    date: FreeText = ""


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
    explanation: FreeText
    sources: tuple[Source, ...]
    evidence_keys: tuple[ChunkKey, ...]
    trace: SragTrace


@dataclass
class Report:
    """One article's fact-check.  The fields, in order, are the keys of the
    report's JSON (``plain``), which ``evaluate`` reads back with ``typed``;
    no timing is kept, so repeated runs give identical bytes."""

    article_id: str
    mode: str
    config: dict
    token_usage: dict[str, int]
    warnings: list[str]
    entries: list[FactCheckEntry]


def _hit_text(hit: Hit) -> str:
    return str(hit.metadata.get("text", ""))


def _source_from_hit(hit: Hit) -> Source:
    meta = hit.metadata
    return Source(
        title=str(meta.get("title", "")),
        authors=str(meta.get("authors", "")),
        date=str(meta.get("published_date", "")),
    )


def _cited_matches_hit(cited: str, hit: Hit) -> bool:
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
        self.agents = agents
        self.retriever = retriever
        models = [agents.generator, agents.grader, agents.rewriter, agents.embedder]
        if retriever is not None:
            models.extend(leg.embedder for leg in retriever.legs)
        # claims overlap only where some call waits on an HTTP endpoint
        self._any_remote = any(remote_endpoint(model) is not None for model in models)

    # -- per-claim flows -------------------------------------------------

    def _entry_from_answer(
        self,
        claim: Claim,
        parsed: ParsedVerdict,
        hits: tuple[Hit, ...],
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
        self, claim: Claim, reason: str, trace: SragTrace, hits: tuple[Hit, ...] = ()
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

    def _retrieve(self, claim: Claim, trace: SragTrace, queries: list | None = None) -> EvidenceBundle:
        if self.retriever is None:
            raise ConfigError("retrieval mode requested but no retriever is configured")
        if queries is None:
            bundle = self.retriever.retrieve(claim.text)
        else:
            bundle = self.retriever.retrieve(claim.text, queries)
        trace.retrieval_rounds += 1
        trace.notes.extend(bundle.warnings)
        return bundle

    def verify_claim_lotr(self, claim: Claim, queries: list | None = None) -> FactCheckEntry:
        """Single retrieve-then-generate pass; ``queries`` are the claim's
        first-round leg queries (see ``MergingRetriever.retrieve``)."""
        trace = SragTrace()
        bundle = self._retrieve(claim, trace, queries)
        if not bundle.hits:
            return self._unverifiable_entry(
                claim, "No evidence above the similarity threshold.", trace
            )
        context = self.agents.format_context([(h.metadata, _hit_text(h)) for h in bundle.hits])
        answer = self.agents.generate_answer(claim, context)
        return self._entry_from_answer(claim, parse_verdict(answer.text), bundle.hits, trace)

    def _grade_documents(
        self, claim: Claim, hits: tuple[Hit, ...], trace: SragTrace
    ) -> list[bool]:
        """Grade one round's documents; grades and notes in hit order.

        The grades are independent, so a remote grader's are issued
        together on its endpoint's pool, whose in-flight cap bounds how
        many reach it at once; an in-process grader, and a memo holding
        the grade, answer in this thread, one after another.  A
        GradingError makes its document a "no".  Any other error fails
        the claim, but only after every sibling grade has finished, so no
        grading task outlives the call.
        """

        def grade(hit: Hit) -> tuple[bool, str | None]:
            try:
                return self.agents.grade_document(claim, _hit_text(hit)), None
            except GradingError as exc:
                return False, f"document grade treated as no: {exc}"

        grades: list[bool] = []
        for ok, note in run_all(grade, hits, lambda hit: self.agents.grade_document_waits_on(claim, _hit_text(hit))):
            grades.append(ok)
            if note is not None:
                trace.notes.append(note)
        return grades

    def verify_claim_srag(self, claim: Claim, queries: list | None = None) -> FactCheckEntry:
        """Self-reflective loop: grade evidence, regenerate, rewrite, within
        budgets; ``queries`` serve the first round (see :meth:`verify_claim_lotr`)."""
        budget = self.config.refinement
        trace = SragTrace()
        current = claim
        last_parsed: ParsedVerdict | None = None
        last_kept: tuple[Hit, ...] = ()
        while True:
            bundle = self._retrieve(current, trace, queries)
            queries = None
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

    def _verify(self, claim: Claim, article: ArticleText, mode: str, queries: list | None) -> FactCheckEntry:
        if mode == "baseline":
            return self.verify_claim_baseline(claim, article)
        if mode == "lotr":
            return self.verify_claim_lotr(claim, queries)
        return self.verify_claim_srag(claim, queries)

    def _verify_safely(
        self, claim: Claim, article: ArticleText, mode: str, queries: list | None = None
    ) -> FactCheckEntry:
        try:
            return self._verify(claim, article, mode, queries)
        except ClaimcheckError as exc:
            logger.warning("claim %s failed: %s", claim.id, exc)
            trace = SragTrace(terminal_state=TERMINAL_ERROR, notes=[f"claim failed: {exc}"])
            return self._unverifiable_entry(claim, f"Verification failed: {exc}", trace)

    def check_article(self, article: ArticleText, mode: str) -> Report:
        """Extract and verify every claim of ``article``; entries in claim order.

        The chunks' listings, and in the retrieval modes every listed
        claim's first-round leg queries, are asked for once per article,
        so that their waits overlap; each claim's first round searches
        with its own rows (see ``FactCheckAgents.extract_claims``).

        When some model answers over HTTP, the claims are verified side by
        side on a pool of ``concurrency`` workers.  When every model is
        in-process there is nothing to wait on, so the claims are verified
        one after another in the caller's thread; so is an article whose
        pool would have one worker.  A grade or leg query that a memo
        holds is answered in the thread that needs it.

        ``token_usage`` counts the backend calls this call makes, in its
        own context: checks that share the pipeline, one after another or
        at the same time, each report their own calls.
        """
        if mode not in MODES:
            raise ConfigError(f"unknown mode {mode!r}, expected one of {MODES}")
        warnings: list[str] = []
        chunks = chunk_text(
            article.id,
            article.body,
            self.config.chunking.article_chunk_size,
            self.config.chunking.article_overlap,
        )
        legs = () if mode == "baseline" or self.retriever is None else self.retriever.legs
        queries: list = []
        with count_usage() as token_usage:
            claims = self.agents.extract_claims(
                article.id, chunks, warnings=warnings, query_embedders=[leg.embedder for leg in legs], queries=queries
            )
            work = list(zip(claims, queries or [None] * len(claims)))
            workers = min(self.config.concurrency, len(claims))
            if self._any_remote and workers > 1:
                # each claim runs in its own copy of this context, which
                # carries the usage totals into the pool's threads; one
                # Context cannot be entered by two threads at once
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    futures = [
                        pool.submit(contextvars.copy_context().run, self._verify_safely, c, article, mode, q)
                        for c, q in work
                    ]
                entries = [future.result() for future in futures]
            else:
                entries = [self._verify_safely(c, article, mode, q) for c, q in work]
        return Report(
            article_id=article.id,
            mode=mode,
            config=self.config.public_dict(),
            token_usage=token_usage,
            warnings=warnings,
            entries=entries,
        )


# -- rendering --------------------------------------------------------------


def entry_response_text(entry: FactCheckEntry) -> str:
    """The response to an entry: the text the markdown table shows and the
    text ``evaluate`` scores against the reference."""
    parts = [f"{entry.label.display}."]
    explanation = entry.explanation.strip()
    if explanation:
        parts.append(explanation)
    if entry.sources:
        cited = "; ".join(", ".join(x for x in (s.title, s.authors, s.date) if x) for s in entry.sources)
        parts.append(f"Source: {cited}")
    return " ".join(parts)


def _md_escape(text: str) -> str:
    return text.replace("|", "\\|").replace("\n", " ")


def render_report(report: Report, fmt: str = "json") -> str:
    """Serialize a report as canonical JSON or a two-column markdown table."""
    if fmt == "json":
        return json.dumps(plain(report), ensure_ascii=False, indent=2) + "\n"
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
        lines.append(f"| {i}. {_md_escape(e.claim.text)} | {i}. {_md_escape(entry_response_text(e))} |")
    if report.warnings:
        lines += ["", "## Warnings", ""]
        lines += [f"- {w}" for w in report.warnings]
    return "\n".join(lines) + "\n"
