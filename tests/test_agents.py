"""Backends, response parsing, and the agent operations built on them."""

from __future__ import annotations

import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from claimcheck import prompts
from claimcheck.agents import (
    ChatMemo,
    Claim,
    FactCheckAgents,
    RawAnswer,
    RemoteChatBackend,
    VerdictLabel,
    build_backend,
    count_usage,
    parse_score,
    parse_verdict,
    prompt_fingerprint,
)
from claimcheck.config import EmbedderSpec, LlmBackendConfig, typed
from claimcheck.corpus import ArticleText, Chunk, ChunkKey
from claimcheck.embedding import (
    DETERMINISTIC_ENDPOINT,
    DeterministicEmbedder,
    EmbeddingMemo,
    build_embedder,
)
from claimcheck.errors import (
    BackendError,
    ClaimcheckError,
    ConfigError,
    GradingError,
    ProtocolError,
    RewriteError,
    TransportError,
    ValidationError,
)
from claimcheck.pipeline import FactCheckPipeline
from conftest import (
    CountingSession,
    EmbeddingSession,
    FakeResponse,
    QueueBackend,
    RuleBackend,
    chat_payload,
    fill_the_disk,
    make_run_config,
)

KEY = ChunkKey("a1", 0)


def claim(text: str = "Vitamin C prevents colds.", cid: str = "a1:c1") -> Claim:
    return Claim(id=cid, text=text, source_chunk=KEY)


def agents_with(generator=None, grader=None, rewriter=None) -> FactCheckAgents:
    spec = EmbedderSpec(model_id="h", dimension=32, endpoint=DETERMINISTIC_ENDPOINT, seed=7)
    dead = QueueBackend([])
    return FactCheckAgents(
        generator=generator or dead,
        grader=grader or dead,
        rewriter=rewriter or dead,
        embedder=DeterministicEmbedder(spec),
    )


# -- parse_verdict ------------------------------------------------------------


@pytest.mark.parametrize(
    "text,label",
    [
        ("True. The study confirms it.", VerdictLabel.TRUE),
        ("true, per the trial data", VerdictLabel.TRUE),
        ("Partly true. Only in adults.", VerdictLabel.PARTLY_TRUE),
        ("Partially true: depends on dose.", VerdictLabel.PARTLY_TRUE),
        ("False. The data shows otherwise.", VerdictLabel.FALSE),
        ("Partly false. The mechanism differs.", VerdictLabel.PARTLY_FALSE),
        ("Misleading. The figure is out of context.", VerdictLabel.MISLEADING),
        ("Unverifiable. No evidence either way.", VerdictLabel.UNVERIFIABLE),
    ],
)
def test_parse_verdict_labels(text, label):
    parsed = parse_verdict(text)
    assert parsed.label is label
    assert not parsed.parse_warning


def test_parse_verdict_longest_match_wins():
    assert parse_verdict("Partly true.").label is VerdictLabel.PARTLY_TRUE
    assert parse_verdict("Partly false.").label is VerdictLabel.PARTLY_FALSE


def test_parse_verdict_tolerates_leading_punctuation():
    parsed = parse_verdict('"True." The cohort agreed.')
    assert parsed.label is VerdictLabel.TRUE
    assert parsed.explanation == "The cohort agreed."


def test_parse_verdict_strips_sources():
    parsed = parse_verdict("Partly true. Helps somewhat. Source: J. Tan et al., 2021.")
    assert parsed.label is VerdictLabel.PARTLY_TRUE
    assert parsed.explanation == "Helps somewhat."
    assert parsed.sources == ("J. Tan et al., 2021",)


def test_parse_verdict_splits_multiple_sources():
    parsed = parse_verdict("False. Refuted twice. Sources: A. One, 2020; B. Two, 2021")
    assert parsed.sources == ("A. One, 2020", "B. Two, 2021")


def test_parse_verdict_drops_blank_sources():
    # a "Source:" that names nothing once its full stop is stripped cites nothing
    assert parse_verdict("True. It holds. Source: .").sources == ()
    assert parse_verdict("True. It holds. Sources: A. One; . ;").sources == ("A. One",)


def test_parse_verdict_dont_know_maps_to_unverifiable():
    parsed = parse_verdict("I don't know.")
    assert parsed.label is VerdictLabel.UNVERIFIABLE
    assert not parsed.parse_warning
    parsed = parse_verdict("I don’t know the answer to that.")
    assert parsed.label is VerdictLabel.UNVERIFIABLE
    assert not parsed.parse_warning


def test_parse_verdict_label_must_end_at_word_boundary():
    parsed = parse_verdict("Trueish claims aside, who knows.")
    assert parsed.label is VerdictLabel.UNVERIFIABLE
    assert parsed.parse_warning


def test_parse_verdict_unrecognized_sets_warning():
    parsed = parse_verdict("The moon is made of cheese.")
    assert parsed.label is VerdictLabel.UNVERIFIABLE
    assert parsed.parse_warning
    assert parsed.explanation == "The moon is made of cheese."


@pytest.mark.parametrize(
    "label,shown",
    [
        (VerdictLabel.TRUE, "True"),
        (VerdictLabel.PARTLY_TRUE, "Partly true"),
        (VerdictLabel.FALSE, "False"),
        (VerdictLabel.PARTLY_FALSE, "Partly false"),
        (VerdictLabel.MISLEADING, "Misleading"),
        (VerdictLabel.UNVERIFIABLE, "Unverifiable"),
    ],
)
def test_parse_verdict_display_names(label, shown):
    assert label.display == shown


# -- parse_score --------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ('{"score": "yes"}', True),
        ('{"score": "no"}', False),
        ('{"score": "YES"}', True),
        ('The grade is {"score": "no"} as requested.', False),
        ("{“score”: “yes”}", True),  # curly quotes defeat json.loads
        ("score: no", False),
        ("I cannot decide.", None),
        ("", None),
        ('{"grade": "yes"}', None),
    ],
)
def test_parse_score(text, expected):
    assert parse_score(text) is expected


# -- scripted replay: a ChatMemo with nothing behind it -----------------------


def mock_line(prompt: str, response: str, prompt_tokens: int = 1, completion_tokens: int = 3) -> dict:
    return {
        "fingerprint": prompt_fingerprint(prompt),
        "prompt_tokens": prompt_tokens,
        "completion_tokens": completion_tokens,
        "response": response,
    }


def replay(tmp_path, lines: list, model_id: str = "scripted") -> ChatMemo:
    path = tmp_path / "mock.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    return ChatMemo.from_file(path, model_id=model_id)


def test_scripted_complete_replays_by_fingerprint(tmp_path):
    memo = replay(tmp_path, [mock_line("hello", "world and more", 4, 9)], model_id="m")
    answer = memo.complete("hello")
    assert answer == RawAnswer("world and more", prompt_fingerprint("hello"), "m", 4, 9)
    assert memo.complete("hello") is answer
    assert memo.inner is None and memo.endpoint is None


def test_scripted_unknown_fingerprint(tmp_path):
    memo = replay(tmp_path, [mock_line("known", "yes")])
    for _ in range(2):
        with pytest.raises(BackendError, match="no response for fingerprint") as raised:
            memo.complete("never\nregistered")
        assert "(prompt starts: 'never\\\\nregistered')" in str(raised.value)
    # a miss keeps nothing: the file's answer is all there is
    assert memo.answers() == [memo.complete("known")]


def test_scripted_replay_calls_nothing_past_the_file(tmp_path, monkeypatch):
    """Replay answers from the file alone and evicts none of it, however
    many answers it holds beyond the memo's usual size."""
    monkeypatch.setattr("claimcheck.agents.CHAT_MEMO_ENTRIES", 2)
    asked = [f"prompt {i}" for i in range(5)]
    memo = replay(tmp_path, [mock_line(p, f"answer {i}") for i, p in enumerate(asked)])
    for _ in range(2):
        assert [memo.complete(p).text for p in asked] == [f"answer {i}" for i in range(5)]
    assert len(memo.answers()) == 5


def test_scripted_empty_completion(tmp_path):
    # a blank response is refused where the file is read, not when replayed
    with pytest.raises(ConfigError, match="bad fixture line 1: response must be a non-empty string, got '   '"):
        replay(tmp_path, [mock_line("p", "   ")])


def test_scripted_save_round_trip(tmp_path):
    recorded = ChatMemo(RuleBackend(lambda prompt: prompt.upper() + " and more"))
    for prompt in ("say p1", "p2"):
        recorded.complete(prompt)
    path = tmp_path / "mock.jsonl"
    recorded.save(path)
    assert [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()] == sorted(
        [mock_line("say p1", "SAY P1 and more", 2, 4), mock_line("p2", "P2 and more", 1, 3)],
        key=lambda line: line["fingerprint"],
    )
    # text and counts come back as they were kept
    assert ChatMemo.from_file(path, model_id="rule").answers() == recorded.answers()


def test_a_save_that_fails_partway_leaves_the_old_file(tmp_path, monkeypatch):
    memo = ChatMemo(RuleBackend(lambda prompt: prompt.upper()))
    memo.complete("p1")
    path = tmp_path / "mock.jsonl"
    memo.save(path)
    before = path.read_bytes()
    memo.complete("p2")
    fill_the_disk(monkeypatch)
    with pytest.raises(ClaimcheckError) as raised:
        memo.save(path)
    monkeypatch.undo()
    assert str(raised.value) == f"{path}: No space left on device"
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_scripted_from_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        ChatMemo.from_file(tmp_path / "absent.jsonl")
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"fingerprint": "x", "response": "r"}\n', encoding="utf-8")
    with pytest.raises(ConfigError, match="bad fixture line 1: missing required key 'prompt_tokens'"):
        ChatMemo.from_file(bad)


@pytest.mark.parametrize(
    "line,message",
    [
        (5, "must be a mapping, got 5"),
        ({**mock_line("p", "r"), "extra": 1}, "unknown keys ['extra']"),
        ({**mock_line("p", "r"), "prompt_tokens": -1}, "prompt_tokens must be >= 0, got -1"),
        ({**mock_line("p", "r"), "completion_tokens": 2.5}, "completion_tokens must be an integer, got 2.5"),
        ({**mock_line("p", "r"), "prompt_tokens": True}, "prompt_tokens must be an integer, got True"),
        ({**mock_line("p", "r"), "response": ""}, "response must be a non-empty string, got ''"),
    ],
    ids=["not-an-object", "unknown-key", "negative-count", "real-count", "boolean-count", "empty-response"],
)
def test_a_bad_fixture_line_names_its_key(tmp_path, line, message):
    with pytest.raises(ConfigError) as raised:
        replay(tmp_path, [mock_line("ok", "fine"), line])
    assert str(raised.value) == f"{tmp_path / 'mock.jsonl'}: bad fixture line 2: {message}"


# -- RemoteChatBackend --------------------------------------------------------


def chat_config(url: str, **kw) -> LlmBackendConfig:
    return LlmBackendConfig(model_id="chat-model", endpoint=url, **kw)


def test_remote_chat_happy_path(http_stub):
    http_stub.responses.append((200, chat_payload("True. It holds.")))
    backend = RemoteChatBackend(chat_config(http_stub.url), base_delay=0.001)
    answer = backend.complete("check this")
    assert answer.text == "True. It holds."
    assert answer.prompt_tokens == 7 and answer.completion_tokens == 3
    _, _, body = http_stub.requests[0]
    assert body["model"] == "chat-model"
    assert body["messages"] == [{"role": "user", "content": "check this"}]
    assert body["temperature"] == 0.0
    assert body["max_tokens"] == 512


def test_remote_chat_retries_http_errors(http_stub):
    http_stub.responses.append((503, {}))
    http_stub.responses.append((200, chat_payload("ok then")))
    delays = []
    backend = RemoteChatBackend(
        chat_config(http_stub.url), base_delay=0.5, sleep=delays.append
    )
    assert backend.complete("retry me").text == "ok then"
    assert delays == [0.5]
    assert len(http_stub.requests) == 2


def test_remote_chat_gives_up_after_max_attempts(http_stub):
    delays = []
    backend = RemoteChatBackend(
        chat_config(http_stub.url), base_delay=0.25, sleep=delays.append
    )
    with pytest.raises(TransportError, match="after 5 attempts"):
        backend.complete("always failing")  # stub answers 500 when queue is dry
    assert len(http_stub.requests) == 5
    assert delays == [0.25, 0.5, 1.0, 2.0]


def test_remote_chat_malformed_response_is_not_retried(http_stub):
    http_stub.responses.append((200, {"choices": []}))
    backend = RemoteChatBackend(chat_config(http_stub.url), base_delay=0.001)
    with pytest.raises(ProtocolError, match="malformed chat response"):
        backend.complete("p")
    assert len(http_stub.requests) == 1


@pytest.mark.parametrize(
    "usage",
    [
        {"prompt_tokens": None},
        [1],
        {"prompt_tokens": "12a"},
        {"completion_tokens": 1e999},
        {"prompt_tokens": -5},
        {"prompt_tokens": True},
        {"completion_tokens": 2.9},
        {"prompt_tokens": "12"},
        False,
    ],
    ids=[
        "null-tokens",
        "usage-list",
        "text-tokens",
        "infinite-tokens",
        "negative-tokens",
        "boolean-tokens",
        "fractional-tokens",
        "quoted-tokens",
        "usage-false",
    ],
)
def test_remote_chat_malformed_usage_is_a_protocol_error(http_stub, usage):
    http_stub.responses.append((200, {**chat_payload("yes"), "usage": usage}))
    backend = RemoteChatBackend(chat_config(http_stub.url), base_delay=0.001)
    with pytest.raises(ProtocolError, match="malformed chat response"):
        backend.complete("p")
    assert len(http_stub.requests) == 1


def test_remote_chat_empty_completion(http_stub):
    http_stub.responses.append((200, chat_payload("  ")))
    backend = RemoteChatBackend(chat_config(http_stub.url), base_delay=0.001)
    with pytest.raises(BackendError, match="empty completion"):
        backend.complete("p")


def test_remote_chat_api_key(http_stub, monkeypatch):
    monkeypatch.delenv("CHAT_KEY", raising=False)
    backend = RemoteChatBackend(chat_config(http_stub.url, api_key_env="CHAT_KEY"))
    with pytest.raises(ConfigError, match="CHAT_KEY"):
        backend.complete("p")
    monkeypatch.setenv("CHAT_KEY", "s3cret")
    http_stub.responses.append((200, chat_payload("fine")))
    assert backend.complete("p").text == "fine"
    _, headers, _ = http_stub.requests[0]
    assert headers.get("Authorization") == "Bearer s3cret"


def test_remote_chat_requires_http_endpoint():
    with pytest.raises(ConfigError, match="http"):
        RemoteChatBackend(chat_config("scripted"))


class ChatOverlapSession:
    """A session whose posts only return once ``parties`` of them are in
    flight together, and then a moment later, so that a post the cap
    should have held back has time to show; records the peak number in
    flight."""

    def __init__(self, parties: int):
        self.barrier = threading.Barrier(parties, timeout=10)
        self.lock = threading.Lock()
        self.in_flight = 0
        self.peak = 0

    def post(self, url, json, headers, timeout):
        with self.lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        self.barrier.wait()
        time.sleep(0.05)
        with self.lock:
            self.in_flight -= 1
        return FakeResponse(200, chat_payload(json["messages"][0]["content"].upper()))


@pytest.mark.parametrize("cap", [None, 2])
def test_remote_chat_in_flight_cap(cap):
    limit = 4 if cap is None else cap  # the default cap is 4
    session = ChatOverlapSession(parties=limit)
    kwargs = {} if cap is None else {"max_in_flight": cap}
    backend = RemoteChatBackend(chat_config("http://chat.invalid/v1"), session=session, **kwargs)
    answers: dict[int, str] = {}

    def call(i: int) -> None:
        answers[i] = backend.complete(f"prompt {i}").text

    threads = [threading.Thread(target=call, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=20)
    assert not any(t.is_alive() for t in threads)
    assert session.peak == limit
    assert answers == {i: f"PROMPT {i}" for i in range(8)}


def test_build_backend_dispatch(tmp_path, http_stub):
    scripted_cfg = LlmBackendConfig(model_id="m", endpoint="scripted")
    with pytest.raises(ConfigError, match="no\\s+mock-fixtures path"):
        build_backend(scripted_cfg)
    path = tmp_path / "mock.jsonl"
    path.write_text(json.dumps(mock_line("p", "r")) + "\n", encoding="utf-8")
    scripted = build_backend(scripted_cfg, mock_fixtures=path)
    assert isinstance(scripted, ChatMemo) and scripted.inner is None
    assert scripted.complete("p").model_id == "m"
    remote = build_backend(chat_config(http_stub.url))
    assert isinstance(remote, ChatMemo) and isinstance(remote.inner, RemoteChatBackend)
    assert isinstance(build_backend(chat_config(http_stub.url, temperature=0.7)), RemoteChatBackend)


# -- ChatMemo -----------------------------------------------------------------

YES = '{"score": "yes"}'
NO = '{"score": "no"}'


def memoized_grader(answer) -> tuple[ChatMemo, CountingSession]:
    session = CountingSession(answer)
    backend = RemoteChatBackend(
        chat_config("http://grader.invalid/v1", role="grader"),
        session=session,
        base_delay=0.001,
        sleep=lambda s: None,
    )
    return ChatMemo(backend), session


def test_grade_memo_posts_a_repeated_grade_once():
    memo, session = memoized_grader(lambda prompt: YES if prompt.endswith("a") else NO)
    first = memo.complete("grade a")
    again = memo.complete("grade a")
    assert again == first
    assert again.text == YES and again.prompt_tokens == 7 and again.completion_tokens == 3
    assert memo.complete("grade b").text == NO
    assert session.posts == ["grade a", "grade b"]


@pytest.mark.parametrize(
    "first,error",
    [("Relevant, I would say.", None), ("   ", BackendError), (None, TransportError)],
    ids=["unparseable", "empty", "transport-error"],
)
def test_grade_memo_asks_again_after_a_grade_it_could_not_use(first, error):
    reply = {"text": first}
    memo, session = memoized_grader(lambda prompt: reply["text"])
    if error is None:
        assert memo.complete("grade a").text == first
    else:
        with pytest.raises(error):
            memo.complete("grade a")
    posted = len(session.posts)
    reply["text"] = YES
    # an answer that does not parse as a score is kept like any other;
    # only a call that raised is asked again
    kept = first if error is None else YES
    assert memo.complete("grade a").text == kept
    assert memo.complete("grade a").text == kept
    assert len(session.posts) == posted + (error is not None)


def test_grade_memo_keys_the_reformat_retry_apart():
    memo, session = memoized_grader(
        lambda prompt: YES if prompt.endswith(prompts.SCORE_RETRY_SUFFIX) else "Relevant, I would say."
    )
    agents = agents_with(grader=memo)
    assert agents.grade_document(claim(), "doc") is True
    assert agents.grade_document(claim(), "doc") is True
    plain, retry = session.posts[0], session.posts[1]
    assert retry == plain + prompts.SCORE_RETRY_SUFFIX
    # both answers are kept apart, the unparseable first one included: the
    # second grade posts nothing and still reads the retry's score
    assert session.posts == [plain, retry]


def test_grade_memo_evicts_the_least_recently_used(monkeypatch):
    monkeypatch.setattr("claimcheck.agents.CHAT_MEMO_ENTRIES", 2)
    memo, session = memoized_grader(lambda prompt: YES)
    for prompt in ("a", "b", "a", "c", "a", "b"):
        memo.complete(prompt)
    # "a" was used again before "c" arrived, so "b" was the one evicted
    assert session.posts == ["a", "b", "c", "b"]


@pytest.mark.parametrize("endpoint", ["scripted", "http://chat.invalid/v1"])
def test_build_backend_memoizes_graders_at_temperature_zero_only(tmp_path, endpoint):
    """Every remote role at temperature 0 comes with its own memo, and every
    scripted role is one with nothing behind it; a higher remote
    temperature never comes with one."""
    fixtures = tmp_path / "mock.jsonl"
    fixtures.write_text("", encoding="utf-8")

    def built(role: str, temperature: float = 0.0):
        config = LlmBackendConfig(model_id="m", endpoint=endpoint, role=role, temperature=temperature)
        return build_backend(config, mock_fixtures=fixtures)

    roles = ("generator", "grader", "rewriter")
    memos = [built(role) for role in roles]
    inner = type(None) if endpoint == "scripted" else RemoteChatBackend
    assert all(isinstance(m, ChatMemo) and isinstance(m.inner, inner) for m in memos)
    assert len({id(m._answers) for m in memos}) == 3
    for role in roles:
        assert isinstance(built(role, temperature=0.7), ChatMemo) == (endpoint == "scripted")


def test_grade_memo_stays_consistent_under_threads(monkeypatch):
    monkeypatch.setattr("claimcheck.agents.CHAT_MEMO_ENTRIES", 3)
    pool = [f"grade {i}" for i in range(6)]

    def grade(prompt: str) -> str:
        return YES if int(prompt.split()[1]) % 2 else NO

    memo, session = memoized_grader(grade)
    wrong: list[str] = []

    def call(offset: int) -> None:
        for n in range(300):
            prompt = pool[(offset + n * (offset + 1)) % len(pool)]
            answer = memo.complete(prompt)
            if answer.text != grade(prompt) or answer.prompt_fingerprint != prompt_fingerprint(prompt):
                wrong.append(prompt)

    # more threads than cores, switching often, with evictions: a race on
    # the map would show as a crossed answer, an exception or a long map
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool_of_callers:
            futures = [pool_of_callers.submit(call, i) for i in range(8)]
            for future in futures:
                future.result(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert len(memo._answers) <= 3
    assert set(session.posts) == set(pool)
    assert len(session.posts) < 8 * 300


# -- usage counting -----------------------------------------------------------


def test_count_usage_totals_the_completions_of_its_own_block():
    def grade(prompt: str) -> str:
        if "doc b" in prompt:
            raise BackendError("grader down")
        return YES

    memo = ChatMemo(RuleBackend(grade))
    agents = agents_with(grader=memo)
    with count_usage() as usage:
        assert agents.grade_document(claim(), "doc a") is True
        with pytest.raises(BackendError):
            agents.grade_document(claim(), "doc b")  # a call that raises adds nothing
        assert agents.grade_document(claim(), "doc a") is True  # a memo hit counts
    answer = memo.complete(prompts.GRADE_DOCUMENT.render(document="doc a", question=claim().text))
    assert usage == {
        "backend_calls": 2,
        "prompt_tokens": 2 * answer.prompt_tokens,
        "completion_tokens": 2 * answer.completion_tokens,
    }
    with count_usage() as later:
        agents.grade_answer(claim(), "True.")
    agents.grade_answer(claim(), "True.")  # outside every block: counted nowhere
    assert later["backend_calls"] == 1
    assert usage["backend_calls"] == 2


# -- claim extraction ---------------------------------------------------------


def chunk(seq: int, text: str) -> Chunk:
    return Chunk(parent_id="a1", seq=seq, token_span=(0, len(text.split())), text=text)


def test_extract_claims_ids_and_sources():
    gen = QueueBackend(
        [
            "Vitamin C prevents colds.\nZinc shortens colds.",
            "Masks reduce transmission.",
        ]
    )
    agents = agents_with(generator=gen)
    claims = agents.extract_claims("a1", [chunk(0, "first chunk"), chunk(1, "second chunk")], warnings=[])
    assert [c.id for c in claims] == ["a1:c1", "a1:c2", "a1:c3"]
    assert [c.text for c in claims] == [
        "Vitamin C prevents colds.",
        "Zinc shortens colds.",
        "Masks reduce transmission.",
    ]
    assert claims[0].source_chunk == ChunkKey("a1", 0)
    assert claims[2].source_chunk == ChunkKey("a1", 1)


def test_extract_claims_strips_enumeration_markers():
    gen = QueueBackend(["1. First claim here.\n- Second claim here.\n• Third claim here."])
    claims = agents_with(generator=gen).extract_claims("a1", [chunk(0, "text")], warnings=[])
    assert [c.text for c in claims] == [
        "First claim here.",
        "Second claim here.",
        "Third claim here.",
    ]


def test_extract_claims_none_yields_empty():
    gen = QueueBackend(["NONE"])
    assert agents_with(generator=gen).extract_claims("a1", [chunk(0, "no claims")], warnings=[]) == []


def test_extract_claims_dedupes_across_chunks_keeping_earliest():
    gen = QueueBackend(
        [
            "Garlic cures infections quickly.",
            "Garlic cures infections quickly.\nSleep improves immunity a lot.",
        ]
    )
    claims = agents_with(generator=gen).extract_claims(
        "a1", [chunk(0, "one"), chunk(1, "two")], warnings=[]
    )
    assert [c.text for c in claims] == [
        "Garlic cures infections quickly.",
        "Sleep improves immunity a lot.",
    ]
    assert claims[0].source_chunk == ChunkKey("a1", 0)


def test_extract_claims_retries_with_stricter_prompt():
    gen = QueueBackend(["- \n* ", "Recovered claim text."])
    agents = agents_with(generator=gen)
    claims = agents.extract_claims("a1", [chunk(0, "text")], warnings=[])
    assert [c.text for c in claims] == ["Recovered claim text."]
    assert len(gen.prompts) == 2
    assert gen.prompts[1] == gen.prompts[0] + prompts.CLAIMS_RETRY_SUFFIX


def test_extract_claims_unparseable_skips_chunk_with_warning_sink():
    gen = QueueBackend(["- ", "* ", "Surviving claim text."])
    warnings: list[str] = []
    claims = agents_with(generator=gen).extract_claims(
        "a1", [chunk(0, "bad"), chunk(1, "good")], warnings=warnings
    )
    assert [c.text for c in claims] == ["Surviving claim text."]
    assert len(warnings) == 1 and "chunk skipped" in warnings[0]


def three_chunk_generator(failure: Exception | None) -> RuleBackend:
    """Lists one claim per chunk, raising ``failure`` for the second chunk."""

    def rule(prompt: str) -> str:
        for word in ("first", "second", "third"):
            if f"{word} chunk" in prompt:
                if word == "second" and failure is not None:
                    raise failure
                return f"The {word} claim holds."
        raise AssertionError(f"unexpected prompt: {prompt[:80]}")

    return RuleBackend(rule)


THREE_CHUNKS = [chunk(0, "first chunk"), chunk(1, "second chunk"), chunk(2, "third chunk")]


@pytest.mark.parametrize(
    "failure",
    [
        TransportError("backend 'gen' call failed after 5 attempts: HTTP 503"),
        ProtocolError("malformed chat response: 'choices'"),
        BackendError("backend 'gen' returned an empty completion"),
    ],
)
def test_extract_claims_failed_call_skips_only_that_chunk(failure):
    warnings: list[str] = []
    claims = agents_with(generator=three_chunk_generator(failure)).extract_claims(
        "a1", THREE_CHUNKS, warnings=warnings
    )
    assert [(c.id, c.text, c.source_chunk) for c in claims] == [
        ("a1:c1", "The first claim holds.", ChunkKey("a1", 0)),
        ("a1:c2", "The third claim holds.", ChunkKey("a1", 2)),
    ]
    assert warnings == [f"chunk ('a1', 1): claim extraction failed: {failure}; chunk skipped"]


def test_extract_claims_config_error_propagates_with_warning_sink():
    agents = agents_with(generator=three_chunk_generator(ConfigError("API key variable is not set")))
    with pytest.raises(ConfigError, match="API key"):
        agents.extract_claims("a1", THREE_CHUNKS, warnings=[])


def test_extract_claims_raises_when_every_chunk_call_failed():
    calls = iter([TransportError("first failure"), TransportError("second failure")])

    def rule(prompt: str) -> str:
        raise next(calls)

    with pytest.raises(TransportError, match="first failure"):
        agents_with(generator=RuleBackend(rule)).extract_claims(
            "a1", [chunk(0, "one"), chunk(1, "two")], warnings=[]
        )


def test_extract_claims_lists_a_remote_generators_chunks_together(http_stub):
    """Three chunk listings that each wait ``delay`` take well under twice
    that, and a failing middle chunk still warns, and keeps its claims
    out, in chunk order."""
    delay = 0.3
    http_stub.delay = delay

    def answer(body):
        prompt = body["messages"][0]["content"]
        word = next(w for w in ("first", "second", "third") if f"{w} chunk" in prompt)
        return (400, {}) if word == "second" else (200, chat_payload(f"The {word} claim holds."))

    http_stub.default = answer
    generator = RemoteChatBackend(chat_config(http_stub.url), base_delay=0.001)
    warnings: list[str] = []
    start = time.perf_counter()
    claims = agents_with(generator=generator).extract_claims("a1", THREE_CHUNKS, warnings=warnings)
    assert time.perf_counter() - start < 2 * delay
    assert [(c.id, c.text, c.source_chunk) for c in claims] == [
        ("a1:c1", "The first claim holds.", ChunkKey("a1", 0)),
        ("a1:c2", "The third claim holds.", ChunkKey("a1", 2)),
    ]
    assert warnings == [
        "chunk ('a1', 1): claim extraction failed: backend 'chat-model' (generator) returned HTTP 400; chunk skipped"
    ]
    assert len(http_stub.requests) == 3


class OrderedFailures:
    """A fake transport session failing every chunk's listing with its own
    status: the second chunk's at once, the first chunk's only after it."""

    def __init__(self):
        self.second_failed = threading.Event()

    def post(self, url, json, headers, timeout):
        prompt = json["messages"][0]["content"]
        if "second chunk" in prompt:
            self.second_failed.set()
            return FakeResponse(403, {})
        if not self.second_failed.wait(timeout=10):
            raise AssertionError("the chunks' listings were not asked for together")
        return FakeResponse(404, {})


def test_extract_claims_raises_the_first_chunks_error_when_every_remote_listing_fails():
    generator = RemoteChatBackend(chat_config("http://chat.invalid/v1"), session=OrderedFailures())
    chunks = [chunk(0, "first chunk"), chunk(1, "second chunk")]
    with pytest.raises(TransportError, match="HTTP 404"):
        agents_with(generator=generator).extract_claims("a1", chunks, warnings=[])


def test_extract_claims_skips_a_chunk_whose_answer_utf8_cannot_encode(http_stub):
    """A chat answer holding a lone surrogate, which JSON escapes in ASCII, is
    a malformed answer: that chunk is skipped after one request, and the
    other chunks' claims are deduped and kept."""

    def answer(body):
        prompt = body["messages"][0]["content"]
        word = next(w for w in ("first", "second", "third") if f"{w} chunk" in prompt)
        text = "Zinc shortens colds \ud83d by days." if word == "second" else f"The {word} claim holds."
        return 200, chat_payload(text)

    http_stub.default = answer
    generator = RemoteChatBackend(chat_config(http_stub.url), base_delay=0.001)
    warnings: list[str] = []
    claims = agents_with(generator=generator).extract_claims("a1", THREE_CHUNKS, warnings=warnings)
    assert [(c.id, c.text) for c in claims] == [
        ("a1:c1", "The first claim holds."),
        ("a1:c2", "The third claim holds."),
    ]
    assert len(warnings) == 1
    assert warnings[0].startswith("chunk ('a1', 1): claim extraction failed: malformed chat response: 'utf-8' codec")
    assert len(http_stub.requests) == 3  # no retry


class FailingEmbedder:
    def __init__(self, error: Exception):
        self.error = error

    def embed(self, texts):
        raise self.error


def test_extract_claims_failed_dedupe_embedding_drops_exact_repeats():
    gen = QueueBackend(
        [
            "Garlic cures infections.\nSleep improves immunity.",
            "garlic  CURES infections.\nGarlic cures most infections.",
        ]
    )
    agents = agents_with(generator=gen)
    agents.embedder = FailingEmbedder(ProtocolError("model 'h': non-numeric embedding values"))
    warnings: list[str] = []
    claims = agents.extract_claims("a1", [chunk(0, "one"), chunk(1, "two")], warnings=warnings)
    assert [(c.id, c.text) for c in claims] == [
        ("a1:c1", "Garlic cures infections."),
        ("a1:c2", "Sleep improves immunity."),
        ("a1:c3", "Garlic cures most infections."),
    ]
    assert warnings == [
        "claim dedupe embedding failed: model 'h': non-numeric embedding values; only exact repeats dropped"
    ]


def test_agents_keep_one_dedupe_memo_across_pipelines(tmp_path):
    spec = EmbedderSpec(model_id="h", dimension=32, endpoint="http://embeddings.invalid/v1", seed=7)
    session = EmbeddingSession(spec)
    embedder = build_embedder(spec)
    embedder.endpoint.session = session

    def rule(prompt: str) -> str:
        if prompt.startswith("You are a careful reader"):
            return "Zinc cures colds.\nGarlic prevents flu."
        return "Unverifiable. The article cites no evidence."

    agents = FactCheckAgents(
        generator=RuleBackend(rule), grader=QueueBackend([]), rewriter=QueueBackend([]), embedder=embedder
    )
    assert isinstance(agents.embedder, EmbeddingMemo) and agents.embedder is embedder
    # every pipeline rebuilds the agents around its usage counter, and keeps the memo
    pipelines = [FactCheckPipeline(make_run_config(tmp_path), agents, None) for _ in range(2)]
    assert all(pipeline.agents.embedder is agents.embedder for pipeline in pipelines)
    article = ArticleText(id="art", body="Zinc cures colds. Garlic prevents flu.")
    reports = [pipeline.check_article(article, "baseline") for pipeline in pipelines]
    claims = ["Zinc cures colds.", "Garlic prevents flu."]
    assert [[e.claim.text for e in report.entries] for report in reports] == [claims, claims]
    assert session.inputs == [claims]


def test_claim_requires_text():
    with pytest.raises(ValidationError, match="empty text"):
        Claim(id="a1:c1", text="   ", source_chunk=KEY)


# -- generation and grading ---------------------------------------------------


def test_format_context():
    docs = [
        ({"title": "T1", "authors": "A. One", "published_date": "2020-01-02"}, "Body one."),
        ({"title": "T2", "authors": "B. Two; C. Three", "published_date": "2021-03-04"}, "Body two."),
    ]
    assert FactCheckAgents.format_context(docs) == (
        "[1] Title: T1. Authors: A. One. (2020-01-02)\nBody one.\n\n"
        "[2] Title: T2. Authors: B. Two; C. Three. (2021-03-04)\nBody two."
    )


def test_generate_answer_uses_rag_prompt():
    gen = QueueBackend(["True. Confirmed."])
    agents = agents_with(generator=gen)
    answer = agents.generate_answer(claim(), "some context")
    assert answer.text == "True. Confirmed."
    assert gen.prompts[0] == prompts.GENERATE_ANSWER.render(
        question="Vitamin C prevents colds.", context="some context"
    )


def test_baseline_answer_uses_article_prompt():
    gen = QueueBackend(["False. Not in the article."])
    agents = agents_with(generator=gen)
    agents.baseline_answer(claim(), "the article body")
    assert gen.prompts[0] == prompts.BASELINE_CHECK.render(
        question="Vitamin C prevents colds.", context="the article body"
    )


def test_grade_document_and_answer():
    grader = QueueBackend(['{"score": "yes"}', '{"score": "no"}'])
    agents = agents_with(grader=grader)
    assert agents.grade_document(claim(), "relevant doc") is True
    assert agents.grade_answer(claim(), "an answer") is False
    assert gen_prompt_contains(grader.prompts[0], "Here is the retrieved document: relevant doc")
    assert gen_prompt_contains(grader.prompts[1], "Here is the answer: an answer")


def gen_prompt_contains(prompt: str, needle: str) -> bool:
    return needle in prompt


def test_grading_retry_then_error():
    grader = QueueBackend(["hmm", '{"score": "yes"}'])
    agents = agents_with(grader=grader)
    assert agents.grade_document(claim(), "doc") is True
    assert grader.prompts[1] == grader.prompts[0] + prompts.SCORE_RETRY_SUFFIX

    grader = QueueBackend(["hmm", "still nothing"])
    with pytest.raises(GradingError, match="unparseable after reformat retry"):
        agents_with(grader=grader).grade_document(claim(), "doc")


# -- rewriting ----------------------------------------------------------------


def test_rewrite_claim_id_chain():
    rewriter = QueueBackend(["  colds   and vitamin C \n", "vitamin C common cold trials"])
    agents = agents_with(rewriter=rewriter)
    original = claim(cid="a1:c3")
    first = agents.rewrite_claim(original, 1)
    assert first.id == "a1:c3.r1"
    assert first.text == "colds and vitamin C"  # whitespace collapsed
    assert first.rewritten_from == "a1:c3"
    assert first.source_chunk == original.source_chunk
    second = agents.rewrite_claim(first, 2)
    assert second.id == "a1:c3.r2"  # .r1 is replaced, not stacked
    assert second.rewritten_from == "a1:c3.r1"
    assert rewriter.prompts[0] == prompts.REWRITE_CLAIM.render(question=original.text)


def test_rewrite_claim_empty_result():
    rewriter = RuleBackend(lambda prompt: "   ")
    with pytest.raises(RewriteError, match="empty rewrite"):
        agents_with(rewriter=rewriter).rewrite_claim(claim(), 1)


def test_backend_config_validation():
    # a blank model_id or endpoint is refused where a config is read
    with pytest.raises(ConfigError, match="model_id"):
        typed({"model_id": "", "endpoint": "scripted"}, LlmBackendConfig, "backend")
    with pytest.raises(ConfigError, match="backend.endpoint must be a non-empty string"):
        typed({"model_id": "m", "endpoint": ""}, LlmBackendConfig, "backend")
    with pytest.raises(ConfigError, match="temperature"):
        LlmBackendConfig(model_id="m", endpoint="scripted", temperature=-0.1)
