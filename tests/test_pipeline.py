"""Per-claim verification flows, the refinement loop, and report rendering."""

from __future__ import annotations

import json
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from claimcheck import cli, pipeline as pipeline_module, service
from claimcheck.agents import (
    ChatMemo,
    Claim,
    FactCheckAgents,
    RemoteChatBackend,
    VerdictLabel,
    build_backend,
)
from claimcheck.config import EmbedderSpec, LlmBackendConfig, RefinementConfig, load_config, plain, typed
from claimcheck.corpus import ArticleText, ChunkKey, load_article
from claimcheck.embedding import DETERMINISTIC_ENDPOINT, DeterministicEmbedder, RemoteEmbedder
from claimcheck.errors import BackendError, ConfigError
from claimcheck.lotr import EvidenceBundle, MergingRetriever, RetrieverLeg
from claimcheck.pipeline import (
    TERMINAL_DONE,
    TERMINAL_ERROR,
    TERMINAL_EXHAUSTED,
    FactCheckPipeline,
    Report,
    Source,
    render_report,
)
from claimcheck.prompts import SCORE_RETRY_SUFFIX
from claimcheck.vecindex import Hit, VectorIndex
from conftest import (
    CountingSession,
    FakeResponse,
    QueueBackend,
    RecordingEmbedder,
    RuleBackend,
    make_run_config,
)

YES = '{"score": "yes"}'
NO = '{"score": "no"}'


def hit(parent: str, seq: int = 0, sim: float = 0.9, **meta) -> Hit:
    meta.setdefault("text", f"evidence text from {parent}")
    meta.setdefault("title", f"Study {parent.upper()}")
    meta.setdefault("authors", f"A. {parent.title()}")
    meta.setdefault("published_date", "2021-01-01")
    return Hit(chunk_key=ChunkKey(parent, seq), similarity=sim, metadata=meta)


class StubRetriever:
    """Returns one canned bundle per retrieve() call, in order."""

    legs = ()  # no embedders of its own to wait on

    def __init__(self, bundles):
        self.bundles = list(bundles)
        self.queries: list[str] = []

    def retrieve(self, text: str) -> EvidenceBundle:
        self.queries.append(text)
        hits = self.bundles.pop(0) if self.bundles else self.bundles_last
        self.bundles_last = hits
        return EvidenceBundle(hits=tuple(hits))


def make_pipeline(
    tmp_path,
    generator,
    grader,
    rewriter=None,
    bundles=((),),
    **config_overrides,
) -> tuple[FactCheckPipeline, StubRetriever]:
    config = make_run_config(tmp_path, **config_overrides)
    spec = EmbedderSpec(model_id="h", dimension=32, endpoint=DETERMINISTIC_ENDPOINT, seed=9)
    agents = FactCheckAgents(
        generator=generator,
        grader=grader,
        rewriter=rewriter or QueueBackend([]),
        embedder=DeterministicEmbedder(spec),
    )
    retriever = StubRetriever(bundles)
    return FactCheckPipeline(config, agents, retriever), retriever


def claim(text: str = "Zinc cures colds.", cid: str = "art:c1") -> Claim:
    return Claim(id=cid, text=text, source_chunk=ChunkKey("art", 0))


# -- lotr flow ----------------------------------------------------------------


def test_lotr_no_evidence_is_unverifiable(tmp_path):
    pipeline, _ = make_pipeline(tmp_path, QueueBackend([]), QueueBackend([]), bundles=[()])
    entry = pipeline.verify_claim_lotr(claim())
    assert entry.label is VerdictLabel.UNVERIFIABLE
    assert entry.explanation == "No evidence above the similarity threshold."
    assert entry.evidence_keys == ()
    assert entry.trace.retrieval_rounds == 1


def test_lotr_generates_over_formatted_context(tmp_path):
    gen = QueueBackend(["True. Confirmed by the trial. Source: Study A"])
    pipeline, retriever = make_pipeline(
        tmp_path, gen, QueueBackend([]), bundles=[[hit("a"), hit("b", seq=2)]]
    )
    entry = pipeline.verify_claim_lotr(claim())
    assert retriever.queries == ["Zinc cures colds."]
    prompt = gen.prompts[0]
    assert "[1] Title: Study A. Authors: A. A. (2021-01-01)\nevidence text from a" in prompt
    assert "[2] Title: Study B." in prompt
    assert entry.label is VerdictLabel.TRUE
    assert entry.evidence_keys == (ChunkKey("a", 0), ChunkKey("b", 2))
    assert entry.trace.terminal_state == TERMINAL_DONE


def test_lotr_citation_resolves_against_evidence(tmp_path):
    gen = QueueBackend(["True. Matches. Source: study b"])
    pipeline, _ = make_pipeline(
        tmp_path, gen, QueueBackend([]), bundles=[[hit("a"), hit("b")]]
    )
    entry = pipeline.verify_claim_lotr(claim())
    assert len(entry.sources) == 1
    assert entry.sources[0].title == "Study B"  # resolved to evidence metadata
    assert entry.sources[0].authors == "A. B"
    assert entry.trace.notes == []


def test_lotr_unmatched_citation_falls_back_to_top_hit(tmp_path):
    gen = QueueBackend(["False. Refuted. Source: Imaginary Journal, 1999"])
    pipeline, _ = make_pipeline(tmp_path, gen, QueueBackend([]), bundles=[[hit("a"), hit("b")]])
    entry = pipeline.verify_claim_lotr(claim())
    assert entry.sources[0].title == "Study A"  # top-ranked evidence inserted first
    assert entry.sources[1].title == "Imaginary Journal, 1999"
    assert any("citing top-ranked evidence" in n for n in entry.trace.notes)


def test_lotr_uncited_verdict_falls_back_to_top_hit(tmp_path):
    gen = QueueBackend(["True. It is supported."])
    pipeline, _ = make_pipeline(tmp_path, gen, QueueBackend([]), bundles=[[hit("a")]])
    entry = pipeline.verify_claim_lotr(claim())
    assert entry.label is VerdictLabel.TRUE
    assert entry.sources == (entry.sources[0],)
    assert entry.sources[0].title == "Study A"


def test_lotr_unverifiable_needs_no_citation(tmp_path):
    gen = QueueBackend(["Unverifiable. The evidence does not address it."])
    pipeline, _ = make_pipeline(tmp_path, gen, QueueBackend([]), bundles=[[hit("a")]])
    entry = pipeline.verify_claim_lotr(claim())
    assert entry.label is VerdictLabel.UNVERIFIABLE
    assert entry.sources == ()
    assert entry.trace.notes == []


# -- baseline flow ------------------------------------------------------------


def test_baseline_keeps_free_text_source(tmp_path):
    gen = QueueBackend(["True. The article's second paragraph. Source: the cohort table"])
    pipeline, _ = make_pipeline(tmp_path, gen, QueueBackend([]))
    entry = pipeline.verify_claim_baseline(claim(), ArticleText(id="art", body="body text"))
    assert entry.label is VerdictLabel.TRUE
    assert entry.sources == (entry.sources[0],)
    assert entry.sources[0].title == "the cohort table"
    assert entry.evidence_keys == ()


def test_baseline_uncited_verdict_downgrades(tmp_path):
    # a "Source:" that names nothing cites nothing
    for answer in ("True. Because I said so.", "True. It holds. Source: ."):
        gen = QueueBackend([answer])
        pipeline, _ = make_pipeline(tmp_path, gen, QueueBackend([]))
        entry = pipeline.verify_claim_baseline(claim(), ArticleText(id="art", body="body"))
        assert (entry.label, entry.sources) == (VerdictLabel.UNVERIFIABLE, ())
        assert any("downgraded" in n for n in entry.trace.notes)


def test_baseline_unverifiable_passes_through(tmp_path):
    gen = QueueBackend(["I don't know."])
    pipeline, _ = make_pipeline(tmp_path, gen, QueueBackend([]))
    entry = pipeline.verify_claim_baseline(claim(), ArticleText(id="art", body="body"))
    assert entry.label is VerdictLabel.UNVERIFIABLE
    assert entry.trace.notes == []


# -- srag flow ----------------------------------------------------------------


def srag_refinement(**kw) -> RefinementConfig:
    return RefinementConfig(**kw)


def test_srag_happy_path_single_round(tmp_path):
    gen = QueueBackend(["True. Supported. Source: Study A"])
    grader = QueueBackend([YES, YES])  # one doc grade, one answer grade
    pipeline, _ = make_pipeline(tmp_path, gen, grader, bundles=[[hit("a")]])
    entry = pipeline.verify_claim_srag(claim())
    assert entry.label is VerdictLabel.TRUE
    assert entry.trace.retrieval_rounds == 1
    assert entry.trace.doc_grades == [[True]]
    assert entry.trace.answer_grades == [True]
    assert entry.trace.rewrites_used == 0
    assert entry.trace.regenerations_used == 0
    assert entry.trace.terminal_state == TERMINAL_DONE


def grader_rejecting(*parents: str) -> RuleBackend:
    """Grades by document content, so concurrent grades cannot swap answers:
    no for the named parents' evidence, yes for every other document and
    for every answer."""

    def rule(prompt: str) -> str:
        return NO if any(f"evidence text from {p}\n" in prompt for p in parents) else YES

    return RuleBackend(rule)


def test_srag_filters_irrelevant_docs_from_context(tmp_path):
    gen = QueueBackend(["True. Fine. Source: Study A"])
    grader = grader_rejecting("b")  # doc a yes, doc b no, answer yes
    pipeline, _ = make_pipeline(tmp_path, gen, grader, bundles=[[hit("a"), hit("b")]])
    entry = pipeline.verify_claim_srag(claim())
    assert entry.trace.doc_grades == [[True, False]]
    assert "Study B" not in gen.prompts[0]  # irrelevant doc kept out of the context
    assert entry.evidence_keys == (ChunkKey("a", 0),)


def test_srag_rewrites_when_nothing_is_relevant(tmp_path):
    grader = QueueBackend([NO, NO, NO])  # one doc per round, three rounds
    rewriter = QueueBackend(["zinc supplementation common cold", "zinc lozenges cold duration"])
    pipeline, retriever = make_pipeline(
        tmp_path,
        QueueBackend([]),
        grader,
        rewriter=rewriter,
        bundles=[[hit("a")], [hit("b")], [hit("c")]],
    )
    entry = pipeline.verify_claim_srag(claim())
    assert entry.label is VerdictLabel.UNVERIFIABLE
    assert entry.explanation == (
        "No retrieved evidence was graded relevant within the refinement budget."
    )
    assert entry.trace.terminal_state == TERMINAL_EXHAUSTED
    assert entry.trace.retrieval_rounds == 3
    assert entry.trace.rewrites_used == 2
    assert entry.trace.doc_grades == [[False], [False], [False]]
    assert entry.trace.answer_grades == []
    # each rewrite drives the next retrieval
    assert retriever.queries == [
        "Zinc cures colds.",
        "zinc supplementation common cold",
        "zinc lozenges cold duration",
    ]
    assert entry.claim.id == "art:c1.r2"
    assert entry.claim.rewritten_from == "art:c1.r1"


def test_srag_regenerates_once_then_succeeds(tmp_path):
    gen = QueueBackend(["True. Weak answer.", "True. Better answer. Source: Study A"])
    grader = QueueBackend([YES, NO, YES])  # doc yes; answer no; regenerated answer yes
    pipeline, _ = make_pipeline(tmp_path, gen, grader, bundles=[[hit("a")]])
    entry = pipeline.verify_claim_srag(claim())
    assert entry.label is VerdictLabel.TRUE
    assert entry.explanation == "Better answer."
    assert entry.trace.regenerations_used == 1
    assert entry.trace.rewrites_used == 0
    assert entry.trace.answer_grades == [False, True]
    assert entry.trace.terminal_state == TERMINAL_DONE
    assert len(gen.prompts) == 2
    assert gen.prompts[0] == gen.prompts[1]  # regeneration reuses the same prompt


def test_srag_regeneration_over_a_remote_generator_at_temperature_zero_posts_once(tmp_path, monkeypatch):
    def checked(memo_entries: int) -> tuple[str, list[str], list[int]]:
        monkeypatch.setattr("claimcheck.agents.CHAT_MEMO_ENTRIES", memo_entries)
        session = CountingSession(
            lambda prompt: "Zinc cures colds."
            if prompt.startswith("You are a careful reader")
            else "True. Fine. Source: Study A"
        )
        generator = build_backend(LlmBackendConfig(model_id="gen", endpoint="http://gen.invalid/v1"))
        generator.inner.endpoint.session = session
        grader = QueueBackend([YES, NO, YES])  # doc yes; answer no; the same answer again, yes
        pipeline, _ = make_pipeline(tmp_path, generator, grader, bundles=[[hit("a")]])
        report = pipeline.check_article(ArticleText(id="art", body="Zinc cures colds."), "lotr_srag")
        regenerations = [e.trace.regenerations_used for e in report.entries]
        return render_report(report), session.posts, regenerations

    rendered, posts, regenerations = checked(4096)
    extraction, generation = posts
    assert regenerations == [1]
    # without the memo the regeneration posts the generation prompt again,
    # for the same answer at temperature 0, and the report is the same
    assert checked(0) == (rendered, [extraction, generation, generation], [1])


def test_srag_regenerates_then_rewrites(tmp_path):
    gen = QueueBackend(
        [
            "True. Attempt one.",
            "True. Attempt two.",
            "True. After rewrite. Source: Study B",
        ]
    )
    # round 1: doc yes, answer no, regen answer no; round 2: doc yes, answer yes
    grader = QueueBackend([YES, NO, NO, YES, YES])
    rewriter = QueueBackend(["zinc therapy cold recovery"])
    pipeline, retriever = make_pipeline(
        tmp_path, gen, grader, rewriter=rewriter, bundles=[[hit("a")], [hit("b")]]
    )
    entry = pipeline.verify_claim_srag(claim())
    assert entry.label is VerdictLabel.TRUE
    assert entry.trace.retrieval_rounds == 2
    assert entry.trace.regenerations_used == 1  # budget is per claim, not per round
    assert entry.trace.rewrites_used == 1
    assert entry.trace.answer_grades == [False, False, True]
    assert retriever.queries[-1] == "zinc therapy cold recovery"
    assert entry.claim.id == "art:c1.r1"


def test_srag_exhausts_and_reports_last_answer(tmp_path):
    gen = QueueBackend([f"True. Attempt {i}." for i in range(1, 5)])
    # answers: round 1 no+regen no, round 2 no, round 3 no -> exhausted
    grader = QueueBackend([YES, NO, NO, YES, NO, YES, NO])
    rewriter = QueueBackend(["first rewrite text", "second rewrite text"])
    pipeline, _ = make_pipeline(
        tmp_path, gen, grader, rewriter=rewriter, bundles=[[hit("a")], [hit("b")], [hit("c")]]
    )
    entry = pipeline.verify_claim_srag(claim())
    assert entry.trace.terminal_state == TERMINAL_EXHAUSTED
    assert entry.trace.rewrites_used == 2
    assert entry.trace.regenerations_used == 1
    assert entry.trace.answer_grades == [False, False, False, False]
    assert "refinement budget exhausted; reporting the last answer" in entry.trace.notes
    assert entry.label is VerdictLabel.TRUE  # last answer still reported
    assert entry.explanation == "Attempt 4."
    assert entry.evidence_keys == (ChunkKey("c", 0),)


def test_srag_zero_budgets(tmp_path):
    grader = QueueBackend([NO])
    pipeline, _ = make_pipeline(
        tmp_path,
        QueueBackend([]),
        grader,
        bundles=[[hit("a")]],
        refinement=srag_refinement(max_rewrites=0, max_regenerations=0),
    )
    entry = pipeline.verify_claim_srag(claim())
    assert entry.trace.terminal_state == TERMINAL_EXHAUSTED
    assert entry.trace.retrieval_rounds == 1
    assert entry.trace.rewrites_used == 0


def test_srag_min_relevant_fraction_forces_rewrite(tmp_path):
    gen = QueueBackend(["True. Good. Source: Study C"])
    # round 1: one of two docs relevant, below the 1.0 bar; round 2: both relevant
    grader = grader_rejecting("b")
    rewriter = QueueBackend(["sharper query"])
    pipeline, _ = make_pipeline(
        tmp_path,
        gen,
        grader,
        rewriter=rewriter,
        bundles=[[hit("a"), hit("b")], [hit("c"), hit("d")]],
        refinement=srag_refinement(min_relevant_fraction=1.0),
    )
    entry = pipeline.verify_claim_srag(claim())
    assert entry.trace.doc_grades == [[True, False], [True, True]]
    assert entry.trace.rewrites_used == 1
    assert entry.trace.terminal_state == TERMINAL_DONE


def test_srag_empty_bundle_counts_as_irrelevant(tmp_path):
    rewriter = QueueBackend(["retry one", "retry two"])
    pipeline, _ = make_pipeline(
        tmp_path, QueueBackend([]), QueueBackend([]), rewriter=rewriter, bundles=[[], [], []]
    )
    entry = pipeline.verify_claim_srag(claim())
    assert entry.trace.terminal_state == TERMINAL_EXHAUSTED
    assert entry.trace.doc_grades == [[], [], []]


def test_srag_grading_error_is_treated_as_no(tmp_path):
    # grader output stays unparseable for the doc (two tries), then the claim
    # is rewritten and the next round parses fine
    grader = QueueBackend(["??", "!!", YES, YES])
    rewriter = QueueBackend(["rewritten claim text"])
    gen = QueueBackend(["True. Solid. Source: Study B"])
    pipeline, _ = make_pipeline(
        tmp_path, gen, grader, rewriter=rewriter, bundles=[[hit("a")], [hit("b")]]
    )
    entry = pipeline.verify_claim_srag(claim())
    assert entry.trace.doc_grades == [[False], [True]]
    assert any("document grade treated as no" in n for n in entry.trace.notes)
    assert entry.label is VerdictLabel.TRUE


def doc_parent(prompt: str) -> str | None:
    """The parent id of the document a grading prompt is about; None for an answer grade."""
    match = re.search(r"evidence text from (\w+)\n", prompt)
    return match.group(1) if match else None


class ChatSession:
    """A fake transport session behind a remote chat backend: answers
    each chat-completions post with ``rule(prompt)``, which returns the
    completion text, a (text, usage) pair or an HTTP status to fail with,
    and counts the posts in flight.  Token usage, unless given, is counted
    as the in-process test backends count it: words of the prompt and of
    the completion."""

    def __init__(self, rule):
        self.rule = rule
        self.lock = threading.Lock()
        self.in_flight = 0
        self.posts = 0

    def post(self, url, json, headers, timeout):
        prompt = json["messages"][0]["content"]
        with self.lock:
            self.in_flight += 1
            self.posts += 1
        try:
            answer = self.rule(prompt)
        finally:
            with self.lock:
                self.in_flight -= 1
        if isinstance(answer, int):
            return FakeResponse(answer, {})
        if isinstance(answer, tuple):
            answer, usage = answer
        else:
            usage = {"prompt_tokens": len(prompt.split()), "completion_tokens": len(answer.split())}
        return FakeResponse(200, {"choices": [{"message": {"content": answer}}], "usage": usage})


def remote_grader(session: ChatSession) -> RemoteChatBackend:
    """A grader over HTTP, whose document grades overlap on its endpoint's pool."""
    config = LlmBackendConfig(model_id="grade", endpoint="http://grader.invalid/v1", role="grader")
    return RemoteChatBackend(config, session=session, sleep=lambda s: None)


def test_srag_grades_a_rounds_documents_concurrently(tmp_path):
    parents = "abcd"
    # every document grade waits until all four are in flight at once; a
    # sequential loop breaks the barrier
    barrier = threading.Barrier(len(parents), timeout=10)

    def rule(prompt: str) -> str:
        if doc_parent(prompt) is not None:
            barrier.wait()
        return YES

    session = ChatSession(rule)
    gen = QueueBackend(["True. Fine. Source: Study A"])
    pipeline, _ = make_pipeline(tmp_path, gen, remote_grader(session), bundles=[[hit(p) for p in parents]])
    entry = pipeline.verify_claim_srag(claim())
    assert entry.trace.doc_grades == [[True] * len(parents)]
    assert session.posts == len(parents) + 1  # one call per document, one answer grade


def test_srag_concurrent_grades_report_in_hit_order(tmp_path):
    # later documents answer first; doc b stays unparseable through its
    # retry, which makes it alone a "no" with a note
    answers = {"a": YES, "b": "??", "c": YES, "d": NO}
    done = {p: threading.Event() for p in answers}
    finished: list[str] = []

    def rule(prompt: str) -> str:
        parent = doc_parent(prompt)
        if parent is None:
            return YES
        later = chr(ord(parent) + 1)
        if later in done and not done[later].wait(timeout=10):
            raise AssertionError(f"doc {later} never finished grading")
        if parent != "b" or prompt.endswith(SCORE_RETRY_SUFFIX):
            finished.append(parent)
            done[parent].set()
        return answers[parent]

    gen = QueueBackend(["True. Fine. Source: Study C"])
    pipeline, _ = make_pipeline(
        tmp_path, gen, remote_grader(ChatSession(rule)), bundles=[[hit(p) for p in answers]]
    )
    entry = pipeline.verify_claim_srag(claim())
    assert finished == ["d", "c", "b", "a"]
    assert entry.trace.doc_grades == [[True, False, True, False]]
    assert entry.trace.notes == [
        "document grade treated as no: document grade: grader output unparseable after reformat retry"
    ]
    assert entry.evidence_keys == (ChunkKey("a", 0), ChunkKey("c", 0))
    assert "Study B" not in gen.prompts[0] and "Study D" not in gen.prompts[0]
    assert entry.label is VerdictLabel.TRUE


def srag_generator(claims: list[str]) -> RuleBackend:
    def rule(prompt: str) -> str:
        if prompt.startswith("You are a careful reader"):
            return "\n".join(claims)
        return "True. Fine. Source: Study A"

    return RuleBackend(rule)


def test_srag_transport_error_fails_claim_after_sibling_grades(tmp_path):
    failed = threading.Event()
    finished: list[str] = []

    def rule(prompt: str) -> str | int:
        parent = doc_parent(prompt)
        if parent == "a":
            failed.set()
            return 404  # not retried: fails the grade at once
        if not failed.wait(timeout=10):
            raise AssertionError("doc a was never graded alongside its siblings")
        time.sleep(0.05)  # still grading when the failure surfaces
        finished.append(parent)
        return YES

    session = ChatSession(rule)
    pipeline, _ = make_pipeline(
        tmp_path,
        srag_generator(["Zinc cures colds."]),
        remote_grader(session),
        bundles=[[hit("a"), hit("b"), hit("c")]],
    )
    report = pipeline.check_article(ARTICLE, "lotr_srag")
    [entry] = report.entries
    assert entry.trace.terminal_state == TERMINAL_ERROR
    assert entry.label is VerdictLabel.UNVERIFIABLE
    assert entry.explanation == "Verification failed: backend 'grade' (grader) returned HTTP 404"
    # the claim failed only once both sibling grades had finished: their
    # posts returned, and their completions were counted before the
    # article's usage was taken
    assert sorted(finished) == ["b", "c"]
    assert session.in_flight == 0
    assert report.token_usage["backend_calls"] == 1 + 2  # extraction, the two sibling grades


def no_thread(self):
    raise AssertionError(f"started thread {self.name!r}")


def test_srag_over_in_process_models_runs_in_the_callers_thread(tmp_path, monkeypatch):
    texts = [f"evidence text from {p}" for p in "abcd"]
    legs = []
    for model_id in ("leg-a", "leg-b"):
        spec = EmbedderSpec(model_id=model_id, dimension=32, endpoint=DETERMINISTIC_ENDPOINT)
        embedder = RecordingEmbedder(spec)
        index = VectorIndex(model_id=model_id, dimension=32)
        index.upsert(
            (ChunkKey(p, 0), vec, {"text": text})
            for p, text, vec in zip("abcd", texts, DeterministicEmbedder(spec).embed(texts))
        )
        legs.append(RetrieverLeg(retriever_id=model_id, embedder=embedder, index=index))
    graded: list[int] = []

    def rule(prompt: str) -> str:
        graded.append(threading.get_ident())
        return YES

    agents = FactCheckAgents(
        generator=QueueBackend(["True. Fine."]),
        grader=RuleBackend(rule),
        rewriter=QueueBackend([]),
        embedder=legs[0].embedder,
    )
    retriever = MergingRetriever(legs, k=4, min_similarity=-1.0, pool_size=4)
    pipeline = FactCheckPipeline(make_run_config(tmp_path), agents, retriever)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    entry = pipeline.verify_claim_srag(claim("evidence text from a"))
    assert entry.trace.doc_grades == [[True] * 4]
    caller = threading.get_ident()
    assert graded == [caller] * 5  # four document grades, one answer grade
    assert [leg.embedder.threads for leg in legs] == [[caller], [caller]]


# -- check_article ------------------------------------------------------------


ARTICLE = ArticleText(id="art", body="Zinc cures colds. Garlic prevents flu. Water helps.")


def scripted_generator(answer_by_claim: dict) -> RuleBackend:
    def rule(prompt: str) -> str:
        if prompt.startswith("You are a careful reader"):
            return "\n".join(answer_by_claim)
        for text, answer in answer_by_claim.items():
            if f"Claim: {text}" in prompt:
                return answer
        raise AssertionError(f"unexpected prompt: {prompt[:80]}")

    return RuleBackend(rule)


def test_check_article_baseline_end_to_end(tmp_path):
    answers = {
        "Zinc cures colds.": "False. Trials show no cure. Source: the zinc trial summary",
        "Garlic prevents flu.": "Unverifiable. The article cites no evidence.",
    }
    pipeline, _ = make_pipeline(tmp_path, scripted_generator(answers), QueueBackend([]))
    report = pipeline.check_article(ARTICLE, "baseline")
    assert report.article_id == "art"
    assert report.mode == "baseline"
    assert [e.claim.id for e in report.entries] == ["art:c1", "art:c2"]
    assert [e.label for e in report.entries] == [
        VerdictLabel.FALSE,
        VerdictLabel.UNVERIFIABLE,
    ]
    # 1 extraction call + 2 baseline answers
    assert report.token_usage["backend_calls"] == 3
    assert report.token_usage["prompt_tokens"] > 0
    assert report.token_usage["completion_tokens"] > 0
    assert report.warnings == []
    assert "corpus_path" not in report.config


def sequential_usage(*backends: RuleBackend) -> dict:
    """Token usage of replaying every recorded prompt one at a time."""
    usage = {"backend_calls": 0, "prompt_tokens": 0, "completion_tokens": 0}
    for backend in backends:
        replay = RuleBackend(backend.rule)
        for prompt in backend.prompts:
            answer = replay.complete(prompt)
            usage["backend_calls"] += 1
            usage["prompt_tokens"] += answer.prompt_tokens
            usage["completion_tokens"] += answer.completion_tokens
    return usage


def test_check_article_token_usage_matches_sequential_replay(tmp_path):
    claims = [
        "Zinc cures colds.",
        "Garlic prevents flu.",
        "Water helps digestion.",
        "Sleep improves memory.",
        "Sugar causes hyperactivity.",
        "Vitamin C shortens colds.",
    ]
    gen = srag_generator(claims)
    grader = grader_rejecting("b", "e")
    hits = [hit(p) for p in "abcdefgh"]
    session = ChatSession(lambda prompt: grader.complete(prompt).text)
    pipeline, _ = make_pipeline(tmp_path, gen, remote_grader(session), bundles=[hits], concurrency=6)
    # a remote grader puts the claims on six threads, which count their
    # generations and answer grades while the endpoint's pool counts the
    # document grades, switching often: a lost update in the shared
    # counters would show as a short count
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = pipeline.check_article(ARTICLE, "lotr_srag")
    finally:
        sys.setswitchinterval(interval)
    assert [e.claim.text for e in report.entries] == claims
    assert all(
        e.trace.doc_grades == [[True, False, True, True, False, True, True, True]]
        for e in report.entries
    )
    # 1 extraction; per claim 8 document grades, 1 generation, 1 answer grade
    assert report.token_usage["backend_calls"] == 1 + len(claims) * 10
    assert report.token_usage == sequential_usage(gen, grader)


def test_check_article_token_usage_is_per_article_on_a_reused_pipeline(tmp_path):
    second = ArticleText(id="art2", body="Garlic prevents flu.")

    def backends():
        return (
            srag_generator(["Garlic prevents flu.", "Water helps."]),
            grader_rejecting("b"),
        )

    reused, _ = make_pipeline(tmp_path, *backends(), bundles=[[hit("a"), hit("b")]])
    first_report = reused.check_article(ARTICLE, "lotr_srag")
    second_report = reused.check_article(second, "lotr_srag")
    fresh, _ = make_pipeline(tmp_path, *backends(), bundles=[[hit("a"), hit("b")]])
    fresh_report = fresh.check_article(second, "lotr_srag")
    assert second_report.token_usage == fresh_report.token_usage
    assert first_report.token_usage["backend_calls"] == second_report.token_usage["backend_calls"]
    assert render_report(second_report) == render_report(fresh_report)


def test_check_article_counts_each_articles_usage_while_articles_overlap(tmp_path):
    listed = ["Sleep improves memory.", "Sugar causes hyperactivity.", "Salt raises blood pressure."]
    second = ArticleText(id="art2", body=" ".join(listed))
    claims = {ARTICLE.id: ["Zinc cures colds.", "Garlic prevents flu."], second.id: listed}

    def build(barrier: threading.Barrier | None = None) -> FactCheckPipeline:
        def generate(prompt: str) -> str:
            if prompt.startswith("You are a careful reader"):
                if barrier is not None:
                    barrier.wait()  # both articles are in flight before either extraction returns
                return "\n".join(claims[ARTICLE.id if "Zinc cures colds." in prompt else second.id])
            return "True. Fine. Source: Study A"

        grader = grader_rejecting("b")
        pipeline, _ = make_pipeline(
            tmp_path,
            RuleBackend(generate),
            remote_grader(ChatSession(lambda prompt: grader.complete(prompt).text)),
            bundles=[[hit("a"), hit("b"), hit("c")]] * 5,
            concurrency=2,
        )
        return pipeline

    shared = build(threading.Barrier(2, timeout=10))
    with ThreadPoolExecutor(max_workers=2) as callers:
        reports = list(callers.map(lambda article: shared.check_article(article, "lotr_srag"), (ARTICLE, second)))
    for article, report in zip((ARTICLE, second), reports):
        alone = build().check_article(article, "lotr_srag")
        # 1 extraction; per claim 3 document grades, 1 generation, 1 answer grade
        assert report.token_usage["backend_calls"] == 1 + len(claims[article.id]) * 5
        assert report.token_usage == alone.token_usage
        assert render_report(report) == render_report(alone)


def test_pipeline_keeps_its_agents_and_counts_nothing_outside_a_check(tmp_path):
    agents = FactCheckAgents(
        generator=QueueBackend(["NONE"]),
        grader=grader_rejecting("b"),
        rewriter=QueueBackend([]),
        embedder=DeterministicEmbedder(EmbedderSpec(model_id="h", dimension=32, endpoint=DETERMINISTIC_ENDPOINT)),
    )
    pipeline = FactCheckPipeline(make_run_config(tmp_path), agents, StubRetriever([]))
    assert pipeline.agents is agents
    # a completion outside any check is counted nowhere, and raises nothing
    assert agents.grade_document(claim(), "evidence text from a\n") is True
    assert agents.grade_answer(claim(), "True. Fine.") is True
    report = pipeline.check_article(ArticleText(id="art", body="Nothing here."), "lotr_srag")
    assert report.token_usage["backend_calls"] == 1  # its extraction alone


def test_check_article_report_bytes_do_not_depend_on_a_shared_grade_memo(tmp_path):
    def rule(prompt: str) -> str:
        if "evidence text from b\n" in prompt and not prompt.endswith(SCORE_RETRY_SUFFIX):
            return "Relevant, I would say."  # parses only on the reformat retry
        return YES

    inner = RuleBackend(rule)
    grader = ChatMemo(inner)
    rendered, requests = [], []
    for _ in range(2):
        pipeline, _ = make_pipeline(
            tmp_path,
            srag_generator(["Zinc cures colds.", "Garlic prevents flu."]),
            grader,
            bundles=[[hit("a"), hit("b")]],
        )
        before = len(inner.prompts)
        report = pipeline.check_article(ARTICLE, "lotr_srag")
        requests.append(len(inner.prompts) - before)
        rendered.append(render_report(report))
        # 1 extraction; per claim 2 document grades, 1 reformat retry,
        # 1 generation, 1 answer grade, memo hits included
        assert report.token_usage["backend_calls"] == 1 + 2 * 5
    assert rendered[0] == rendered[1]
    # the second check finds every answer kept, the unparseable ones included
    assert requests == [8, 0]


def test_check_article_rejects_unknown_mode(tmp_path):
    pipeline, _ = make_pipeline(tmp_path, QueueBackend([]), QueueBackend([]))
    with pytest.raises(ConfigError, match="unknown mode"):
        pipeline.check_article(ARTICLE, "lotr-srag")  # CLI spelling, not the internal one


def test_check_article_no_claims(tmp_path):
    pipeline, _ = make_pipeline(tmp_path, QueueBackend(["NONE"]), QueueBackend([]))
    report = pipeline.check_article(ArticleText(id="art", body="Nothing here."), "baseline")
    assert report.entries == []
    assert report.token_usage["backend_calls"] == 1


def test_check_article_one_failing_claim_does_not_abort(tmp_path):
    def rule(prompt: str) -> str:
        if prompt.startswith("You are a careful reader"):
            return "Good claim stands.\nBad claim explodes."
        if "Claim: Good claim stands." in prompt:
            return "True. Fine. Source: whatever part"
        raise BackendError("backend rejected the request")

    pipeline, _ = make_pipeline(tmp_path, RuleBackend(rule), QueueBackend([]), concurrency=1)
    report = pipeline.check_article(ARTICLE, "baseline")
    assert [e.label for e in report.entries] == [
        VerdictLabel.TRUE,
        VerdictLabel.UNVERIFIABLE,
    ]
    failed = report.entries[1]
    assert failed.trace.terminal_state == TERMINAL_ERROR
    assert failed.explanation.startswith("Verification failed:")
    assert any("claim failed" in n for n in failed.trace.notes)


@pytest.mark.parametrize("usage", [{"prompt_tokens": None}, [1], {"prompt_tokens": "12a"}])
def test_check_article_malformed_grader_usage_fails_only_that_claim(tmp_path, usage):
    def rule(prompt: str):
        if doc_parent(prompt) is None and "Bad claim explodes." in prompt:
            return YES, usage  # the answer grade of the second claim
        return YES

    pipeline, _ = make_pipeline(
        tmp_path,
        srag_generator(["Good claim stands.", "Bad claim explodes."]),
        remote_grader(ChatSession(rule)),
        bundles=[[hit("a")], [hit("a")]],
        concurrency=1,
    )
    report = pipeline.check_article(ARTICLE, "lotr_srag")
    good, bad = report.entries
    assert good.trace.terminal_state == TERMINAL_DONE
    assert good.label is VerdictLabel.TRUE
    assert bad.trace.terminal_state == TERMINAL_ERROR
    assert bad.label is VerdictLabel.UNVERIFIABLE
    assert bad.explanation.startswith("Verification failed: malformed chat response:")


class NullEmbeddingSession:
    """A fake transport session serving the deterministic embedder's
    vectors over HTTP, except ``null`` for a text containing ``bad``."""

    def __init__(self, local: DeterministicEmbedder, bad: str):
        self.local = local
        self.bad = bad

    def post(self, url, json, headers, timeout):
        rows = [
            {"index": i, "embedding": None if self.bad in text else self.local.embed([text])[0].tolist()}
            for i, text in enumerate(json["input"])
        ]
        return FakeResponse(200, {"data": rows})


def remote_leg_retriever(bad: str) -> tuple[MergingRetriever, DeterministicEmbedder]:
    """A one-leg retriever whose embedder answers over HTTP with the local
    embedder's vectors (``null`` for texts containing ``bad``), and that
    local embedder."""
    spec = EmbedderSpec(model_id="leg-a", dimension=32, endpoint=DETERMINISTIC_ENDPOINT)
    local = DeterministicEmbedder(spec)
    texts = [f"evidence text from {p}" for p in "ab"]
    index = VectorIndex(model_id="leg-a", dimension=32)
    index.upsert((ChunkKey(p, 0), vec, {"text": text}) for p, text, vec in zip("ab", texts, local.embed(texts)))
    remote = RemoteEmbedder(
        replace(spec, endpoint="http://embeddings.invalid/v1"),
        session=NullEmbeddingSession(local, bad),
        sleep=lambda s: None,
    )
    retriever = MergingRetriever([RetrieverLeg("leg-a", remote, index)], k=2, min_similarity=-1.0, pool_size=2)
    return retriever, local


def test_check_article_malformed_leg_embedding_fails_only_that_claim(tmp_path):
    retriever, local = remote_leg_retriever("explodes")
    agents = FactCheckAgents(
        generator=srag_generator(["Good claim stands.", "Bad claim explodes."]),
        grader=RuleBackend(lambda prompt: YES),
        rewriter=QueueBackend([]),
        embedder=local,
    )
    pipeline = FactCheckPipeline(make_run_config(tmp_path), agents, retriever)
    report = pipeline.check_article(ARTICLE, "lotr_srag")
    good, bad = report.entries
    assert good.trace.terminal_state == TERMINAL_DONE
    assert good.label is VerdictLabel.TRUE
    assert bad.trace.terminal_state == TERMINAL_ERROR
    assert bad.label is VerdictLabel.UNVERIFIABLE
    assert bad.explanation == "Verification failed: model 'leg-a': non-numeric embedding values"


def test_check_article_survives_a_malformed_dedupe_embedding(tmp_path):
    answers = {
        "Zinc cures colds.": "False. Trials show no cure. Source: the zinc trial summary",
        "zinc  CURES colds.": "never asked: an exact repeat of the first claim",
        "Garlic prevents flu.": "Unverifiable. The article cites no evidence.",
    }
    spec = EmbedderSpec(model_id="dedupe", dimension=32, endpoint=DETERMINISTIC_ENDPOINT)
    null_embedder = RemoteEmbedder(
        replace(spec, endpoint="http://embeddings.invalid/v1"),
        session=NullEmbeddingSession(DeterministicEmbedder(spec), ""),  # every text answers null
        sleep=lambda s: None,
    )
    agents = FactCheckAgents(
        generator=scripted_generator(answers),
        grader=QueueBackend([]),
        rewriter=QueueBackend([]),
        embedder=null_embedder,
    )
    report = FactCheckPipeline(make_run_config(tmp_path), agents, None).check_article(ARTICLE, "baseline")
    assert [(e.claim.id, e.claim.text) for e in report.entries] == [
        ("art:c1", "Zinc cures colds."),
        ("art:c2", "Garlic prevents flu."),
    ]
    assert [e.label for e in report.entries] == [VerdictLabel.FALSE, VerdictLabel.UNVERIFIABLE]
    assert report.warnings == [
        "claim dedupe embedding failed: model 'dedupe': non-numeric embedding values; only exact repeats dropped"
    ]


# -- where an article's claims run ---------------------------------------------


def test_check_article_over_in_process_models_starts_no_thread(bundle, monkeypatch):
    assert cli.main(["--config", str(bundle / "config.yaml"), "build-index"]) == 0
    pipeline = service.build_pipeline(load_config(bundle / "config.yaml"), "lotr_srag")
    assert pipeline.config.concurrency > 1
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    report = pipeline.check_article(load_article(bundle / "immune-boosters.md"), "lotr_srag")
    # entries in claim order, a rewritten claim under its original's id
    ids = [re.sub(r"\.r\d+$", "", e.claim.id) for e in report.entries]
    assert len(ids) > 1
    assert ids == [f"{report.article_id}:c{i}" for i in range(1, len(ids) + 1)]
    assert render_report(report).encode("utf-8") == (bundle / "golden" / "report_lotr_srag.json").read_bytes()


def test_check_article_overlaps_claims_on_a_remote_grader(tmp_path):
    # each claim's answer grade waits until the other's is in flight too;
    # claims verified one after another break the barrier
    barrier = threading.Barrier(2, timeout=10)

    def rule(prompt: str) -> str:
        if doc_parent(prompt) is None:
            barrier.wait()
        return YES

    pipeline, _ = make_pipeline(
        tmp_path,
        srag_generator(["Zinc cures colds.", "Garlic prevents flu."]),
        remote_grader(ChatSession(rule)),
        bundles=[[hit("a")], [hit("a")]],
        concurrency=2,
    )
    report = pipeline.check_article(ARTICLE, "lotr_srag")
    assert [e.claim.id for e in report.entries] == ["art:c1", "art:c2"]
    assert [e.trace.answer_grades for e in report.entries] == [[True], [True]]


def test_check_article_one_claim_on_remote_models_builds_no_pool(tmp_path, monkeypatch):
    def no_pool(max_workers):
        raise AssertionError(f"built a claim pool of {max_workers}")

    monkeypatch.setattr(pipeline_module, "ThreadPoolExecutor", no_pool)
    pipeline, _ = make_pipeline(
        tmp_path,
        srag_generator(["Zinc cures colds."]),
        remote_grader(ChatSession(lambda prompt: YES)),
        bundles=[[hit("a")]],
        concurrency=4,
    )
    [entry] = pipeline.check_article(ARTICLE, "lotr_srag").entries
    assert entry.trace.terminal_state == TERMINAL_DONE


def test_check_article_one_remote_leg_uses_the_claim_pool(tmp_path, monkeypatch):
    pools: list[int] = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(pipeline_module, "ThreadPoolExecutor", RecordingPool)
    retriever, local = remote_leg_retriever("never in any text")
    agents = FactCheckAgents(
        generator=srag_generator(["Zinc cures colds.", "Garlic prevents flu.", "Water helps."]),
        grader=RuleBackend(lambda prompt: YES),
        rewriter=QueueBackend([]),
        embedder=local,
    )
    pipeline = FactCheckPipeline(make_run_config(tmp_path, concurrency=2), agents, retriever)
    report = pipeline.check_article(ARTICLE, "lotr_srag")
    assert pools == [2]
    assert [e.claim.id for e in report.entries] == ["art:c1", "art:c2", "art:c3"]
    assert all(e.trace.terminal_state == TERMINAL_DONE for e in report.entries)


def test_check_article_extraction_warnings_surface(tmp_path):
    gen = QueueBackend(["- ", "* "])  # unparseable twice -> chunk skipped
    pipeline, _ = make_pipeline(tmp_path, gen, QueueBackend([]))
    report = pipeline.check_article(ArticleText(id="art", body="short body"), "baseline")
    assert report.entries == []
    assert len(report.warnings) == 1
    assert "chunk skipped" in report.warnings[0]


# -- rendering ----------------------------------------------------------------


def sample_report(tmp_path) -> Report:
    gen = QueueBackend(["True. Has | pipe and\nnewline. Source: Study A"])
    grader = QueueBackend([YES, YES])
    pipeline, _ = make_pipeline(tmp_path, gen, grader, bundles=[[hit("a")]])
    entry = pipeline.verify_claim_srag(claim(text="Claim with | pipe."))
    return Report(
        article_id="art",
        mode="lotr_srag",
        config=pipeline.config.public_dict(),
        entries=[entry],
        token_usage={"backend_calls": 3, "prompt_tokens": 10, "completion_tokens": 5},
        warnings=["one warning"],
    )


def test_report_json_shape(tmp_path):
    data = plain(sample_report(tmp_path))
    assert list(data) == ["article_id", "mode", "config", "token_usage", "warnings", "entries"]
    entry = data["entries"][0]
    assert list(entry) == ["claim", "label", "explanation", "sources", "evidence_keys", "trace"]
    assert entry["claim"]["source_chunk"] == ["art", 0]
    assert entry["label"] == "true"
    assert entry["evidence_keys"] == [["a", 0]]
    assert entry["trace"]["terminal_state"] == TERMINAL_DONE
    assert entry["trace"]["doc_grades"] == [[True]]


def test_report_reads_back_from_its_json(tmp_path):
    # a report reads back as itself, blank free text included: a baseline
    # answer with a blank explanation, given a source whose title is blank
    gen = QueueBackend(["True. Source: ."])
    pipeline, _ = make_pipeline(tmp_path, gen, QueueBackend([]))
    entry = pipeline.verify_claim_baseline(claim(), ARTICLE)
    assert (entry.explanation, entry.sources) == ("", ())
    report = sample_report(tmp_path)
    report.entries.append(replace(entry, sources=(Source(title=""),)))
    assert typed(json.loads(render_report(report)), Report, "") == report


def test_render_json_is_canonical(tmp_path):
    report = sample_report(tmp_path)
    text = render_report(report, fmt="json")
    assert text.endswith("\n")
    assert json.loads(text) == plain(report)
    # timing is intentionally absent from the canonical form
    assert "timing" not in text


def test_render_markdown_table(tmp_path):
    text = render_report(sample_report(tmp_path), fmt="markdown")
    assert "| Extracted claims | Response of fact-checking |" in text
    assert "| --- | --- |" in text
    line = next(l for l in text.splitlines() if l.startswith("| 1."))
    assert "Claim with \\| pipe." in line  # pipes escaped, newlines flattened
    assert "Has \\| pipe and newline." in line
    assert "Source: Study A, A. A, 2021-01-01" in line
    assert "## Warnings" in text
    assert "- one warning" in text


def test_markdown_cell_is_the_scored_response_text(tmp_path):
    # the response a reader sees is the text evaluate scores, escaped for
    # the table: the explanation's surrounding whitespace is stripped
    report = sample_report(tmp_path)
    report = replace(report, entries=[replace(report.entries[0], explanation="  Padded\nexplanation.\n ")])
    text = render_report(report, fmt="markdown")
    line = next(l for l in text.splitlines() if l.startswith("| 1."))
    cell = line.split(" | 1. ", 1)[1].removesuffix(" |")
    scored = pipeline_module.entry_response_text(report.entries[0])
    assert cell == pipeline_module._md_escape(scored)
    assert cell == "True. Padded explanation. Source: Study A, A. A, 2021-01-01"


def test_render_unknown_format(tmp_path):
    with pytest.raises(ConfigError, match="unknown report format"):
        render_report(sample_report(tmp_path), fmt="html")
