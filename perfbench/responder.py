"""Rule-driven stand-in for the generator, grader and rewriter models.

The same code answers in-process (check-local, index-build) and inside
the HTTP stub (check-remote).  The task is recognised by matching the
prompt against the templates in ``claimcheck.prompts`` as they are at
run time, so a reworded template needs no change here; the claim or
document is then looked up by its content in the synthetic truth.
Answers are pure functions of the prompt, so runs are reproducible.
"""

from __future__ import annotations

import re

from claimcheck import prompts
from claimcheck.agents import RawAnswer, VerdictLabel, prompt_fingerprint
from claimcheck.errors import BackendError

from synth import Synth

_SENTENCE_END = re.compile(r"(?<=\.)\s+")


def _template_regex(template: prompts.PromptTemplate) -> re.Pattern:
    markers = {"{" + ph + "}": ph for ph in template.placeholders}
    parts = re.split("(" + "|".join(map(re.escape, markers)) + ")", template.template)
    seen: set[str] = set()
    pattern = []
    for part in parts:
        name = markers.get(part)
        if name is None:
            pattern.append(re.escape(part))
        elif name in seen:
            pattern.append(f"(?P={name})")
        else:
            seen.add(name)
            pattern.append(f"(?P<{name}>.*?)")
    return re.compile("".join(pattern), re.DOTALL)


class UnknownPrompt(Exception):
    """The prompt matches no template, or names a claim the truth lacks."""


class Responder:
    """Computes the completion for any prompt the pipeline sends."""

    def __init__(self, synth: Synth):
        self.synth = synth
        self._templates = [(name, _template_regex(t)) for name, t in prompts.ALL_TEMPLATES.items()]
        self._suffixes = (prompts.SCORE_RETRY_SUFFIX, prompts.CLAIMS_RETRY_SUFFIX)
        self._originals = {c.texts[0] for c in synth.claims}

    def _match(self, prompt: str) -> tuple[str, dict]:
        for suffix in self._suffixes:
            if prompt.endswith(suffix):
                prompt = prompt[: -len(suffix)]
        for name, regex in self._templates:
            m = regex.fullmatch(prompt)
            if m:
                return name, m.groupdict()
        raise UnknownPrompt(f"prompt matches no template: {prompt[:80]!r}")

    def _claim(self, text: str):
        try:
            return self.synth.claim_by_text[text.strip()]
        except KeyError:
            raise UnknownPrompt(f"claim not in the synthetic truth: {text[:80]!r}") from None

    def respond(self, prompt: str) -> str:
        task, values = self._match(prompt)
        handler = getattr(self, "_" + task, None)
        if handler is None:
            raise UnknownPrompt(f"no rule for template {task!r}")
        return handler(**values)

    # -- one rule per template ----------------------------------------------

    def _extract_claims(self, chunk: str) -> str:
        found = [s for s in _SENTENCE_END.split(chunk.strip()) if s in self._originals]
        return "\n".join(found) if found else "NONE"

    def _grade_document(self, document: str, question: str) -> str:
        truth, stage = self._claim(question)
        record = self.synth.record_of_text(document)
        relevant = (
            record is not None
            and record.id == truth.record
            and (
                truth.kind == "supported"
                or truth.kind == "needs_regeneration"
                or (truth.kind == "needs_rewrite" and stage >= 1)
            )
        )
        return '{"score": "yes"}' if relevant else '{"score": "no"}'

    def _generate_answer(self, question: str, context: str) -> str:
        truth, stage = self._claim(question)
        if truth.record is None:
            return "Unverifiable. I don't know whether this holds."
        label = VerdictLabel(truth.label).display
        if truth.kind == "needs_regeneration" and stage == 0:
            return f"{label}. The findings bearing on this are hard to interpret."
        record = self.synth.record_by_id[truth.record]
        return (
            f"{label}. The {record.tag} study measured this directly and its result "
            f"settles the claim. Source: {record.title}, {record.authors[0]} et al., {record.date}"
        )

    def _grade_answer(self, generation: str, question: str) -> str:
        self._claim(question)
        return '{"score": "yes"}' if "Source:" in generation else '{"score": "no"}'

    def _rewrite_claim(self, question: str) -> str:
        truth, stage = self._claim(question)
        return truth.texts[min(stage + 1, len(truth.texts) - 1)]


class LocalBackend:
    """Zero-latency in-process backend for one agent role."""

    def __init__(self, responder: Responder, role: str, model_id: str):
        self.responder = responder
        self.role = role
        self.model_id = model_id

    def complete(self, prompt: str) -> RawAnswer:
        try:
            text = self.responder.respond(prompt)
        except UnknownPrompt as exc:
            raise BackendError(str(exc)) from exc
        return RawAnswer(
            text=text,
            prompt_fingerprint=prompt_fingerprint(prompt),
            model_id=self.model_id,
            prompt_tokens=len(prompt.split()),
            completion_tokens=len(text.split()),
        )
