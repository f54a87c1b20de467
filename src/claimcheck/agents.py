"""LLM backends and the agent operations built on them.

Every completion is keyed by the SHA-256 fingerprint of its rendered
prompt.  The scripted backend replays a committed fingerprint-to-response
table and fails loudly on anything unknown, which is what makes whole
pipeline runs reproducible byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Protocol, Sequence

from . import prompts
from .corpus import Chunk, ChunkKey
from .embedding import cosine_similarity
from .errors import (
    BackendError,
    ConfigError,
    ExtractionError,
    GradingError,
    ProtocolError,
    RewriteError,
    ValidationError,
)
from .transport import JsonEndpoint, remote_endpoint

SCRIPTED_ENDPOINT = "scripted"
CLAIM_DEDUPE_THRESHOLD = 0.9
GRADE_MEMO_ENTRIES = 4096


def prompt_fingerprint(prompt: str) -> str:
    """SHA-256 hex digest of the rendered prompt."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


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
        if not self.model_id:
            raise ConfigError("backend config needs a model_id")
        if not self.endpoint:
            raise ConfigError(f"backend {self.model_id!r} ({self.role}) has no endpoint configured")
        if self.temperature < 0:
            raise ConfigError(f"temperature must be >= 0, got {self.temperature}")


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
            usage = payload.get("usage") or {}
        except (KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"malformed chat response: {exc}") from exc
        if not isinstance(text, str) or not text.strip():
            raise BackendError(f"backend {self.config.model_id!r} returned an empty completion")
        return RawAnswer(
            text=text,
            prompt_fingerprint=prompt_fingerprint(prompt),
            model_id=self.config.model_id,
            prompt_tokens=int(usage.get("prompt_tokens", 0)),
            completion_tokens=int(usage.get("completion_tokens", 0)),
        )


class ScriptedBackend:
    """Replays responses keyed by prompt fingerprint from a fixtures file.

    The file is line-delimited JSON: {"fingerprint": ..., "response": ...}.
    Unknown fingerprints raise immediately; silent fallbacks would hide a
    prompt drift from the recorded script.
    """

    def __init__(self, responses: dict[str, str] | None = None, model_id: str = "scripted"):
        self.model_id = model_id
        self._responses = dict(responses or {})

    @classmethod
    def from_file(cls, path: str | Path, model_id: str = "scripted") -> "ScriptedBackend":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"scripted backend fixtures not found: {path}")
        responses: dict[str, str] = {}
        with path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                    responses[row["fingerprint"]] = row["response"]
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    raise ConfigError(f"{path}: bad fixture line {lineno}: {exc}") from exc
        return cls(responses, model_id=model_id)

    def save(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            for fingerprint in sorted(self._responses):
                fh.write(
                    json.dumps(
                        {"fingerprint": fingerprint, "response": self._responses[fingerprint]},
                        ensure_ascii=False,
                    )
                    + "\n"
                )

    def register(self, prompt: str, response: str) -> None:
        self._responses[prompt_fingerprint(prompt)] = response

    def complete(self, prompt: str) -> RawAnswer:
        fingerprint = prompt_fingerprint(prompt)
        if fingerprint not in self._responses:
            head = prompt[:120].replace("\n", "\\n")
            raise BackendError(
                f"scripted backend has no response for fingerprint {fingerprint} "
                f"(prompt starts: {head!r})"
            )
        text = self._responses[fingerprint]
        if not text.strip():
            raise BackendError(f"scripted backend returned an empty completion for {fingerprint}")
        return RawAnswer(
            text=text,
            prompt_fingerprint=fingerprint,
            model_id=self.model_id,
            prompt_tokens=len(prompt.split()),
            completion_tokens=len(text.split()),
        )


class GradeMemo:
    """Reuses a deterministic grader's answers to identical prompts.

    Answers are kept by prompt fingerprint in a least-recently-used map
    of at most ``GRADE_MEMO_ENTRIES`` entries, and only when they parse
    as a score: an unparseable answer, and any failure, is asked again
    the next time.  A reused answer is the stored :class:`RawAnswer`,
    token counts included, so callers that count calls above the memo
    count the same calls and tokens whether or not it hit.
    """

    def __init__(self, inner: LlmBackend):
        self.inner = inner
        self.endpoint = remote_endpoint(inner)
        self._answers: OrderedDict[str, RawAnswer] = OrderedDict()
        self._lock = threading.Lock()

    def complete(self, prompt: str) -> RawAnswer:
        key = prompt_fingerprint(prompt)
        with self._lock:
            answer = self._answers.get(key)
            if answer is not None:
                self._answers.move_to_end(key)
                return answer
        answer = self.inner.complete(prompt)
        if parse_score(answer.text) is not None:
            with self._lock:
                self._answers[key] = answer
                self._answers.move_to_end(key)
                if len(self._answers) > GRADE_MEMO_ENTRIES:
                    self._answers.popitem(last=False)
        return answer


def build_backend(config: LlmBackendConfig, mock_fixtures: str | Path | None = None) -> LlmBackend:
    """Pick the transport implied by the config's endpoint.

    A grader at temperature 0 answers an identical prompt identically,
    so it is wrapped in a :class:`GradeMemo`; the generator and rewriter
    never are, because a regeneration re-sends its prompt for a new
    sample.
    """
    if config.endpoint == SCRIPTED_ENDPOINT:
        if mock_fixtures is None:
            raise ConfigError(
                f"backend {config.model_id!r} ({config.role}) is scripted but no "
                "mock-fixtures path is configured"
            )
        backend: LlmBackend = ScriptedBackend.from_file(mock_fixtures, model_id=config.model_id)
    else:
        backend = RemoteChatBackend(config)
    if config.role == "grader" and config.temperature == 0:
        return GradeMemo(backend)
    return backend


class VerdictLabel(str, Enum):
    TRUE = "true"
    PARTLY_TRUE = "partly_true"
    FALSE = "false"
    PARTLY_FALSE = "partly_false"
    MISLEADING = "misleading"
    UNVERIFIABLE = "unverifiable"

    @property
    def display(self) -> str:
        return _DISPLAY[self]


_DISPLAY = {
    VerdictLabel.TRUE: "True",
    VerdictLabel.PARTLY_TRUE: "Partly true",
    VerdictLabel.FALSE: "False",
    VerdictLabel.PARTLY_FALSE: "Partly false",
    VerdictLabel.MISLEADING: "Misleading",
    VerdictLabel.UNVERIFIABLE: "Unverifiable",
}

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
        sources = tuple(s.strip().rstrip(".").strip() for s in tail.split(";") if s.strip())

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


def _parse_claim_lines(text: str) -> list[str] | None:
    """Lines of a claim list; [] for an explicit NONE; None when unparseable."""
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


class FactCheckAgents:
    """The generator/grader/rewriter trio plus claim extraction."""

    def __init__(
        self,
        generator: LlmBackend,
        grader: LlmBackend,
        rewriter: LlmBackend,
        embedder,
        dedupe_threshold: float = CLAIM_DEDUPE_THRESHOLD,
    ):
        self.generator = generator
        self.grader = grader
        self.rewriter = rewriter
        self.embedder = embedder
        self.dedupe_threshold = float(dedupe_threshold)

    # -- extraction ----------------------------------------------------

    def extract_claims(
        self,
        article_id: str,
        chunks: Sequence[Chunk],
        warnings: list[str] | None = None,
    ) -> list[Claim]:
        """Per-chunk extraction followed by cross-chunk near-duplicate removal.

        A chunk whose listing stays unparseable after one stricter retry
        raises ExtractionError; when a ``warnings`` list is supplied the
        chunk is skipped with a note instead.  Duplicates (embedding
        cosine >= the threshold) keep the earliest chunk's copy.
        """
        found: list[tuple[str, ChunkKey]] = []
        for chunk in chunks:
            prompt = prompts.EXTRACT_CLAIMS.render(chunk=chunk.text)
            lines = _parse_claim_lines(self.generator.complete(prompt).text)
            if lines is None:
                retry = prompt + prompts.CLAIMS_RETRY_SUFFIX
                lines = _parse_claim_lines(self.generator.complete(retry).text)
            if lines is None:
                message = f"chunk {tuple(chunk.key)}: claim listing unparseable after retry"
                if warnings is None:
                    raise ExtractionError(message)
                warnings.append(message + "; chunk skipped")
                continue
            found.extend((line, chunk.key) for line in lines)

        if not found:
            return []
        vectors = self.embedder.embed([text for text, _ in found])
        kept: list[tuple[str, ChunkKey]] = []
        kept_vectors = []
        for (text, key), vec in zip(found, vectors):
            duplicate = any(
                cosine_similarity(vec, seen) >= self.dedupe_threshold for seen in kept_vectors
            )
            if not duplicate:
                kept.append((text, key))
                kept_vectors.append(vec)
        return [
            Claim(id=f"{article_id}:c{i + 1}", text=text, source_chunk=key)
            for i, (text, key) in enumerate(kept)
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
        return self.generator.complete(prompt)

    def baseline_answer(self, claim: Claim, article_body: str) -> RawAnswer:
        prompt = prompts.BASELINE_CHECK.render(question=claim.text, context=article_body)
        return self.generator.complete(prompt)

    # -- grading -------------------------------------------------------

    def _graded_score(self, prompt: str, what: str) -> bool:
        verdict = parse_score(self.grader.complete(prompt).text)
        if verdict is None:
            verdict = parse_score(self.grader.complete(prompt + prompts.SCORE_RETRY_SUFFIX).text)
        if verdict is None:
            raise GradingError(f"{what}: grader output unparseable after reformat retry")
        return verdict

    def grade_document(self, claim: Claim, document: str) -> bool:
        prompt = prompts.GRADE_DOCUMENT.render(document=document, question=claim.text)
        return self._graded_score(prompt, "document grade")

    def grade_answer(self, claim: Claim, answer: str) -> bool:
        prompt = prompts.GRADE_ANSWER.render(generation=answer, question=claim.text)
        return self._graded_score(prompt, "answer grade")

    # -- rewriting -----------------------------------------------------

    def rewrite_claim(self, claim: Claim, rewrite_number: int) -> Claim:
        """A retrieval-optimized restatement linked back to its original."""
        prompt = prompts.REWRITE_CLAIM.render(question=claim.text)
        text = self.rewriter.complete(prompt).text.strip()
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
