"""LLM backends and the agent operations built on them.

Every completion is keyed by the SHA-256 fingerprint of its rendered
prompt.  One store, :class:`ChatMemo`, keeps answers by that key: in
front of a remote temperature-0 backend it reuses the answers it was
given, and with nothing behind it (the ``scripted`` endpoint) it
replays a committed mock-fixtures file, answer text and token counts,
and fails loudly on anything unknown, which is what makes whole
pipeline runs reproducible byte for byte.
"""

from __future__ import annotations

import contextvars
import hashlib
import json
import re
import threading
from concurrent.futures import Executor
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator, Protocol, Sequence

from . import prompts
from .config import LlmBackendConfig, plain, read_json_lines, write_whole
from .corpus import Chunk, ChunkKey
from .embedding import cosine_similarity
from .errors import (
    BackendError,
    ClaimcheckError,
    ConfigError,
    GradingError,
    ProtocolError,
    RewriteError,
    TransportError,
    ValidationError,
)
from .transport import JsonEndpoint, LruMap, remote_endpoint, run_all, waits_on

SCRIPTED_ENDPOINT = "scripted"
CLAIM_DEDUPE_THRESHOLD = 0.9
CHAT_MEMO_ENTRIES = 4096


def prompt_fingerprint(prompt: str) -> str:
    """SHA-256 hex digest of the rendered prompt."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RawAnswer:
    """One completion plus its provenance and usage counters."""

    text: str
    prompt_fingerprint: str
    model_id: str
    prompt_tokens: int = 0
    completion_tokens: int = 0


class LlmBackend(Protocol):
    def complete(self, prompt: str) -> RawAnswer: ...


class RemoteChatBackend:
    """Chat-completions adapter over one :class:`JsonEndpoint`.

    POSTs ``{"model", "messages", "temperature", "max_tokens"}`` and
    reads ``choices[0].message.content``.  ``transport`` holds the
    endpoint's seams: ``session``, ``max_in_flight``, ``base_delay`` and
    ``sleep``.
    """

    def __init__(self, config: LlmBackendConfig, **transport):
        self.config = config
        self.endpoint = JsonEndpoint(
            config.endpoint,
            f"backend {config.model_id!r} ({config.role})",
            timeout=120.0,
            api_key_env=config.api_key_env,
            **transport,
        )

    def complete(self, prompt: str) -> RawAnswer:
        payload = self.endpoint.post(
            {
                "model": self.config.model_id,
                "messages": [{"role": "user", "content": prompt}],
                "temperature": self.config.temperature,
                "max_tokens": self.config.max_output_tokens,
            }
        )
        try:
            text = payload["choices"][0]["message"]["content"]
            usage = {} if payload.get("usage") is None else payload["usage"]
            prompt_tokens, completion_tokens = (usage.get(k, 0) for k in ("prompt_tokens", "completion_tokens"))
        except (KeyError, IndexError, TypeError, AttributeError) as exc:
            raise ProtocolError(f"malformed chat response: {exc}") from exc
        if not all(type(n) is int and n >= 0 for n in (prompt_tokens, completion_tokens)):
            raise ProtocolError(f"malformed chat response: token counts must be integers >= 0, got {usage!r}")
        if not isinstance(text, str) or not text.strip():
            raise BackendError(f"backend {self.config.model_id!r} returned an empty completion")
        try:
            text.encode("utf-8")  # JSON can escape a lone surrogate, which has no UTF-8 form
        except UnicodeEncodeError as exc:
            raise ProtocolError(f"malformed chat response: {exc}") from exc
        return RawAnswer(
            text=text,
            prompt_fingerprint=prompt_fingerprint(prompt),
            model_id=self.config.model_id,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
        )


@dataclass(frozen=True)
class MockAnswer:
    """One line of a mock-fixtures file: a kept answer and its token counts."""

    fingerprint: str
    prompt_tokens: int
    completion_tokens: int
    response: str

    def __post_init__(self) -> None:
        for key in ("prompt_tokens", "completion_tokens"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0, got {getattr(self, key)}")


class ChatMemo:
    """Answers kept by prompt fingerprint, in front of an optional backend.

    A miss asks ``inner`` and keeps its :class:`RawAnswer`, token counts
    included, in an :class:`LruMap` of at most ``CHAT_MEMO_ENTRIES``; a
    call that raises keeps nothing.  A hit counts as a call, so usage
    totals do not depend on it.  With no inner backend the memo replays
    ``answers`` (a mock-fixtures file, see :meth:`from_file`), evicts none
    of them, and a miss raises: a silent fallback would hide prompt drift.
    """

    def __init__(self, inner: LlmBackend | None, answers: Sequence[RawAnswer] = ()):
        self.inner = inner
        self.endpoint = remote_endpoint(inner)
        self._answers = LruMap(max(CHAT_MEMO_ENTRIES, len(answers)))
        for answer in answers:
            self._answers.keep(answer.prompt_fingerprint, answer)

    @classmethod
    def from_file(cls, path: str | Path, model_id: str = "scripted") -> "ChatMemo":
        """A memo with nothing behind it, replaying the :class:`MockAnswer`
        lines of the JSONL file ``path`` as answers of ``model_id``."""
        lines = read_json_lines(path, MockAnswer, "fixture", ConfigError)
        answers = [RawAnswer(a.response, a.fingerprint, model_id, a.prompt_tokens, a.completion_tokens) for a in lines]
        return cls(None, answers)

    def answers(self) -> list[RawAnswer]:
        """The kept answers, in fingerprint order."""
        return sorted(self._answers.values(), key=lambda a: a.prompt_fingerprint)

    def save(self, path: str | Path) -> None:
        """The kept answers as a mock-fixtures file, written whole (see ``config.write_whole``)."""
        lines = (MockAnswer(a.prompt_fingerprint, a.prompt_tokens, a.completion_tokens, a.text) for a in self.answers())
        text = "".join(json.dumps(plain(line), ensure_ascii=False) + "\n" for line in lines)
        write_whole(path, (text.encode("utf-8"),))

    def holds(self, prompt: str) -> bool:
        """Whether an answer to ``prompt`` is kept, so that ``complete`` posts nothing."""
        return prompt_fingerprint(prompt) in self._answers

    def complete(self, prompt: str) -> RawAnswer:
        key = prompt_fingerprint(prompt)
        answer = self._answers.get(key)
        if answer is None:
            if self.inner is None:
                head = prompt[:120].replace("\n", "\\n")
                raise BackendError(f"scripted backend has no response for fingerprint {key} (prompt starts: {head!r})")
            answer = self.inner.complete(prompt)
            self._answers.keep(key, answer)
        return answer


# the usage totals of the count_usage() block in progress; None outside one
_usage: contextvars.ContextVar[dict[str, int] | None] = contextvars.ContextVar(
    "claimcheck_usage", default=None
)
_usage_lock = threading.Lock()


@contextmanager
def count_usage() -> Iterator[dict[str, int]]:
    """Totals of the completions :class:`FactCheckAgents` makes in the block.

    Yields a dict of ``backend_calls``, ``prompt_tokens`` and
    ``completion_tokens`` that every completion made in this context, or
    in a thread running a copy of it, adds to until the block exits.  A
    completion that raises adds nothing.  Each block counts its own calls
    alone, so checks that run at the same time never see each other's.
    """
    totals = {"backend_calls": 0, "prompt_tokens": 0, "completion_tokens": 0}
    token = _usage.set(totals)
    try:
        yield totals
    finally:
        _usage.reset(token)


def _complete(backend: LlmBackend, prompt: str) -> RawAnswer:
    """``backend.complete(prompt)``, added to the open :func:`count_usage` totals."""
    answer = backend.complete(prompt)
    totals = _usage.get()
    if totals is not None:
        with _usage_lock:
            totals["backend_calls"] += 1
            totals["prompt_tokens"] += answer.prompt_tokens
            totals["completion_tokens"] += answer.completion_tokens
    return answer


def build_backend(config: LlmBackendConfig, mock_fixtures: str | Path | None = None) -> LlmBackend:
    """Pick the transport implied by the config's endpoint.

    A scripted backend is a :class:`ChatMemo` with nothing behind it,
    replaying ``mock_fixtures``.  A remote backend at temperature 0
    answers an identical prompt identically, whatever its role, so it
    comes with a :class:`ChatMemo` of its own; one at a higher
    temperature, which samples anew each time, is never wrapped.
    """
    if config.endpoint != SCRIPTED_ENDPOINT:
        backend = RemoteChatBackend(config)
        return ChatMemo(backend) if config.temperature == 0 else backend
    if mock_fixtures is None:
        raise ConfigError(
            f"backend {config.model_id!r} is scripted but no mock-fixtures path is configured"
        )
    return ChatMemo.from_file(mock_fixtures, model_id=config.model_id)


class VerdictLabel(str, Enum):
    TRUE = "true"
    PARTLY_TRUE = "partly_true"
    FALSE = "false"
    PARTLY_FALSE = "partly_false"
    MISLEADING = "misleading"
    UNVERIFIABLE = "unverifiable"

    @property
    def display(self) -> str:
        """The label as reports show it: ``partly_true`` reads ``Partly true``."""
        return self.value.replace("_", " ").capitalize()


# longest match first so "partly true" is not read as "true"
_LABEL_PATTERNS: tuple[tuple[str, VerdictLabel], ...] = (
    ("partly true", VerdictLabel.PARTLY_TRUE),
    ("partially true", VerdictLabel.PARTLY_TRUE),
    ("partly false", VerdictLabel.PARTLY_FALSE),
    ("partially false", VerdictLabel.PARTLY_FALSE),
    ("misleading", VerdictLabel.MISLEADING),
    ("unverifiable", VerdictLabel.UNVERIFIABLE),
    ("true", VerdictLabel.TRUE),
    ("false", VerdictLabel.FALSE),
)

_DONT_KNOW_RE = re.compile(r"\b(?:don[’']?t know|do not know|cannot verify|can[’']?t verify)\b", re.IGNORECASE)
_SOURCE_RE = re.compile(r"\bsources?\s*:\s*", re.IGNORECASE)


@dataclass(frozen=True)
class ParsedVerdict:
    label: VerdictLabel
    explanation: str
    sources: tuple[str, ...]
    parse_warning: bool = False


def parse_verdict(text: str) -> ParsedVerdict:
    """Split a generation into (label, explanation, cited sources).

    The label is matched case-insensitively at the start of the answer,
    tolerating leading punctuation; an answer admitting it does not know
    maps to Unverifiable.  Anything unrecognizable maps to Unverifiable
    with the parse-warning flag set.
    """
    raw = (text or "").strip()
    sources: tuple[str, ...] = ()
    body = raw
    marker = _SOURCE_RE.search(raw)
    if marker:
        body = raw[: marker.start()].strip()
        tail = raw[marker.end() :].strip()
        sources = tuple(filter(None, (s.strip().rstrip(".").strip() for s in tail.split(";"))))

    lead = body.lstrip(" \t\r\n\"'“‘([*-")
    lowered = lead.lower()
    label: VerdictLabel | None = None
    explanation = body
    for pattern, candidate in _LABEL_PATTERNS:
        if lowered.startswith(pattern):
            rest = lead[len(pattern) :]
            if rest and (rest[0].isalnum()):
                continue  # e.g. "trueish" is not a label
            label = candidate
            explanation = rest.lstrip(" \t\r\n.:;,!–—-”\"')")
            break
    if label is None:
        if _DONT_KNOW_RE.search(raw):
            return ParsedVerdict(VerdictLabel.UNVERIFIABLE, body, sources, parse_warning=False)
        return ParsedVerdict(VerdictLabel.UNVERIFIABLE, raw, sources, parse_warning=True)
    return ParsedVerdict(label, explanation, sources, parse_warning=False)


_SCORE_JSON_RE = re.compile(r"\{[^{}]*\}", re.DOTALL)
_SCORE_FALLBACK_RE = re.compile(r"[\"“']?score[\"”']?\s*:\s*[\"“']?(yes|no)\b", re.IGNORECASE)


def parse_score(text: str) -> bool | None:
    """Read the single-key score object; None when unparseable."""
    for block in _SCORE_JSON_RE.findall(text):
        try:
            obj = json.loads(block)
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict) and "score" in obj:
            value = str(obj["score"]).strip().lower()
            if value in ("yes", "no"):
                return value == "yes"
    match = _SCORE_FALLBACK_RE.search(text)
    if match:
        return match.group(1).lower() == "yes"
    return None


@dataclass(frozen=True)
class Claim:
    """One checkable statement extracted from an article."""

    id: str
    text: str
    source_chunk: ChunkKey
    rewritten_from: str | None = None

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValidationError(f"claim {self.id!r} has empty text")


_ENUMERATION_RE = re.compile(r"^\s*(?:[-*•]|\d+[.)])\s*")


def parse_listed_lines(text: str) -> list[str] | None:
    """Lines of an enumerated list; [] for an explicit NONE; None when unparseable."""
    if not text.strip():
        return None
    lines = []
    for line in text.splitlines():
        line = _ENUMERATION_RE.sub("", line).strip()
        if line:
            lines.append(line)
    if not lines:
        return None
    if len(lines) == 1 and lines[0].strip(".!").lower() == "none":
        return []
    return lines


def list_with_retry(backend: LlmBackend, prompt: str) -> list[str] | None:
    """The listing ``backend`` answers, asked once more with a stricter
    prompt if unparseable; None if it stays unparseable."""
    lines = parse_listed_lines(_complete(backend, prompt).text)
    if lines is None:
        lines = parse_listed_lines(_complete(backend, prompt + prompts.CLAIMS_RETRY_SUFFIX).text)
    return lines


def score_with_retry(backend: LlmBackend, prompt: str, what: str) -> bool:
    """The yes/no score ``backend`` answers, asked once more with a stricter
    prompt if unparseable; :class:`GradingError` if it stays unparseable."""
    verdict = parse_score(_complete(backend, prompt).text)
    if verdict is None:
        verdict = parse_score(_complete(backend, prompt + prompts.SCORE_RETRY_SUFFIX).text)
    if verdict is None:
        raise GradingError(f"{what}: grader output unparseable after reformat retry")
    return verdict


def _dedupe_near(vectors) -> list[int]:
    """Positions of the first of each group of claims whose embeddings' cosine reaches the threshold."""
    kept: list[int] = []
    for i, vec in enumerate(vectors):
        if not any(cosine_similarity(vec, vectors[j]) >= CLAIM_DEDUPE_THRESHOLD for j in kept):
            kept.append(i)
    return kept


def _dedupe_exact(texts: list[str]) -> list[int]:
    """Positions of the first of each group of claims equal once case-folded and whitespace-collapsed."""
    seen: set[str] = set()
    kept = []
    for i, text in enumerate(texts):
        normal = " ".join(text.casefold().split())
        if normal not in seen:
            seen.add(normal)
            kept.append(i)
    return kept


def _same_model(a, b) -> bool:
    """Whether embedders ``a`` and ``b`` give the same vectors: one object, or one ``spec``."""
    spec = getattr(a, "spec", None)
    return a is b or (spec is not None and spec == getattr(b, "spec", None))


def _first_query(outcome, i: int):
    """Claim ``i``'s first-round query from a leg's batch ``outcome``: its row,
    the ``TransportError`` that took the leg down, or None after any other error."""
    if isinstance(outcome, TransportError):
        return outcome
    return None if isinstance(outcome, ClaimcheckError) else outcome[i]


class FactCheckAgents:
    """The generator/grader/rewriter trio plus claim extraction.

    Every completion is added to the totals of the :func:`count_usage`
    block it runs in, if any.
    """

    def __init__(
        self,
        generator: LlmBackend,
        grader: LlmBackend,
        rewriter: LlmBackend,
        embedder,
    ):
        self.generator = generator
        self.grader = grader
        self.rewriter = rewriter
        self.embedder = embedder

    # -- extraction ----------------------------------------------------

    def extract_claims(
        self,
        article_id: str,
        chunks: Sequence[Chunk],
        warnings: list[str],
        query_embedders: Sequence = (),
        queries: list | None = None,
    ) -> list[Claim]:
        """Per-chunk extraction followed by cross-chunk near-duplicate removal.

        The chunks' listings are asked for together (see
        ``transport.run_all``), so a remote generator's overlap.  A chunk
        whose generator call fails with a transport, protocol or backend
        error, or whose listing stays unparseable after one stricter
        retry, is skipped with a note appended to ``warnings``, in chunk
        order.  If every chunk's call failed, the first chunk's failure is
        raised instead, since no part of the article was read.
        Duplicates (embedding cosine >= the threshold) keep the earliest
        chunk's copy; if the dedupe embedding fails with a transport or
        protocol error, only exact repeats (case-folded, whitespace
        collapsed) are dropped, with a note.  Any other error of the
        dedupe embedding, ``ConfigError`` included, is raised.

        Each of ``query_embedders`` (the retriever legs' embedders) embeds
        the listed claim texts in one call, at the same time as the dedupe
        embedding; one with the dedupe embedder's ``spec`` reuses its rows
        instead.  ``queries`` then receives, per kept claim in claim
        order, a list holding per query embedder the claim's first-round
        query vector; the ``TransportError`` its call failed with, which
        marks that leg down for every claim; or None after any other
        error, so that each claim embeds on its own and a malformed
        vector fails only its own claim.
        """
        listings = [prompts.EXTRACT_CLAIMS.render(chunk=chunk.text) for chunk in chunks]

        def listing(prompt: str) -> list[str] | None | ClaimcheckError:
            try:
                return list_with_retry(self.generator, prompt)
            except (TransportError, ProtocolError, BackendError) as exc:
                return exc

        found: list[tuple[str, ChunkKey]] = []
        failures: list[ClaimcheckError] = []
        for chunk, lines in zip(chunks, run_all(listing, listings, lambda p: waits_on(self.generator, p))):
            if isinstance(lines, ClaimcheckError):
                failures.append(lines)
                warnings.append(f"chunk {tuple(chunk.key)}: claim extraction failed: {lines}; chunk skipped")
            elif lines is None:
                warnings.append(
                    f"chunk {tuple(chunk.key)}: claim listing unparseable after retry; chunk skipped"
                )
            else:
                found.extend((line, chunk.key) for line in lines)
        if failures and len(failures) == len(chunks):
            raise failures[0]

        if not found:
            return []
        texts = [text for text, _ in found]
        models = [self.embedder]
        for embedder in query_embedders:
            if not any(_same_model(model, embedder) for model in models):
                models.append(embedder)

        def embed(model):
            try:
                return model.embed(texts)
            except ClaimcheckError as exc:
                return exc

        outcomes = run_all(embed, models, lambda model: waits_on(model, texts))
        vectors = outcomes[0]
        if isinstance(vectors, (TransportError, ProtocolError)):
            warnings.append(f"claim dedupe embedding failed: {vectors}; only exact repeats dropped")
            kept = _dedupe_exact(texts)
        elif isinstance(vectors, ClaimcheckError):
            raise vectors
        else:
            kept = _dedupe_near(vectors)
        if query_embedders and queries is not None:
            legs = [next(o for m, o in zip(models, outcomes) if _same_model(m, e)) for e in query_embedders]
            queries.extend([_first_query(out, i) for out in legs] for i in kept)
        return [
            Claim(id=f"{article_id}:c{n + 1}", text=found[i][0], source_chunk=found[i][1])
            for n, i in enumerate(kept)
        ]

    # -- generation ----------------------------------------------------

    @staticmethod
    def format_context(docs: Sequence[tuple[dict, str]]) -> str:
        """Render evidence docs as a numbered context block."""
        blocks = []
        for i, (meta, text) in enumerate(docs, start=1):
            title = meta.get("title", "")
            authors = meta.get("authors", "")
            date = meta.get("published_date", "")
            blocks.append(f"[{i}] Title: {title}. Authors: {authors}. ({date})\n{text}")
        return "\n\n".join(blocks)

    def generate_answer(self, claim: Claim, context: str) -> RawAnswer:
        prompt = prompts.GENERATE_ANSWER.render(question=claim.text, context=context)
        return _complete(self.generator, prompt)

    def baseline_answer(self, claim: Claim, article_body: str) -> RawAnswer:
        prompt = prompts.BASELINE_CHECK.render(question=claim.text, context=article_body)
        return _complete(self.generator, prompt)

    # -- grading -------------------------------------------------------

    def grade_document_waits_on(self, claim: Claim, document: str) -> Executor | None:
        """The pool of the endpoint :meth:`grade_document` waits on: None
        for an in-process grader, and for a memo that holds the grade."""
        if remote_endpoint(self.grader) is None:
            return None
        return waits_on(self.grader, prompts.GRADE_DOCUMENT.render(document=document, question=claim.text))

    def grade_document(self, claim: Claim, document: str) -> bool:
        prompt = prompts.GRADE_DOCUMENT.render(document=document, question=claim.text)
        return score_with_retry(self.grader, prompt, "document grade")

    def grade_answer(self, claim: Claim, answer: str) -> bool:
        prompt = prompts.GRADE_ANSWER.render(generation=answer, question=claim.text)
        return score_with_retry(self.grader, prompt, "answer grade")

    # -- rewriting -----------------------------------------------------

    def rewrite_claim(self, claim: Claim, rewrite_number: int) -> Claim:
        """A retrieval-optimized restatement linked back to its original."""
        prompt = prompts.REWRITE_CLAIM.render(question=claim.text)
        text = _complete(self.rewriter, prompt).text.strip()
        text = " ".join(text.split())
        if not text:
            raise RewriteError(f"rewriter returned an empty rewrite for {claim.id!r}")
        base_id = re.sub(r"\.r\d+$", "", claim.id)
        return Claim(
            id=f"{base_id}.r{rewrite_number}",
            text=text,
            source_chunk=claim.source_chunk,
            rewritten_from=claim.id,
        )
