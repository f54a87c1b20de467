"""Chunking and corpus ingestion."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimcheck.corpus import (
    ArticleText,
    CorpusRecord,
    chunk_corpus,
    chunk_text,
    ingest_corpus,
    load_article,
    record_metadata,
)
from claimcheck.errors import ConfigError, ValidationError


def words(n: int) -> str:
    return " ".join(f"w{i}" for i in range(n))


TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def single_tokens(text: str) -> list[str]:
    return [c.text for c in chunk_text("a", text, chunk_size=1, overlap=0)]


# -- token boundaries ---------------------------------------------------------


def test_tokenize_splits_punctuation():
    assert single_tokens("a,b c.") == ["a", ",", "b", "c", "."]


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.sampled_from(list("ab_9é,.—!  \t\n ")), max_size=60))
def test_tokenize_matches_token_regex(text):
    assert single_tokens(text) == TOKEN_RE.findall(text)


def test_tokenize_long_trailing_whitespace():
    text = "end." + " \n" * 50_000
    assert single_tokens(text) == ["end", "."]
    assert [c.text for c in chunk_text("a", text, 4, 1)] == ["end."]


# -- chunk_text ---------------------------------------------------------------


def test_default_spans_for_4500_tokens():
    chunks = chunk_text("a", words(4500))
    assert [c.token_span for c in chunks] == [(0, 2000), (1800, 3800), (3600, 4500)]
    assert [c.seq for c in chunks] == [0, 1, 2]


def test_exact_fit_yields_single_chunk():
    chunks = chunk_text("a", words(2000))
    assert [c.token_span for c in chunks] == [(0, 2000)]


def test_short_text_single_chunk():
    chunks = chunk_text("a", "just three tokens", chunk_size=10, overlap=2)
    assert len(chunks) == 1
    assert chunks[0].token_span == (0, 3)
    assert chunks[0].text == "just three tokens"


def test_empty_text_no_chunks():
    assert chunk_text("a", "") == []
    assert chunk_text("a", "   \n\t ") == []


@pytest.mark.parametrize("size,overlap", [(0, 0), (5, 5), (5, 6), (5, -1), (-2, 0)])
def test_invalid_chunk_params(size, overlap):
    with pytest.raises(ConfigError):
        chunk_text("a", "some text", chunk_size=size, overlap=overlap)


def test_chunk_text_is_exact_substring():
    text = "One two, three. Four five — six? seven"
    for chunk in chunk_text("a", text, chunk_size=4, overlap=1):
        assert chunk.text in text


def test_chunk_metadata_copied_not_shared():
    meta = {"title": "t"}
    chunks = chunk_text("a", words(10), chunk_size=6, overlap=2, metadata=meta)
    chunks[0].metadata["title"] = "mutated"
    assert chunks[1].metadata["title"] == "t"


@settings(max_examples=60, deadline=None)
@given(
    n_tokens=st.integers(min_value=0, max_value=400),
    chunk_size=st.integers(min_value=1, max_value=50),
    data=st.data(),
)
def test_chunk_invariants(n_tokens, chunk_size, data):
    overlap = data.draw(st.integers(min_value=0, max_value=chunk_size - 1))
    text = words(n_tokens)
    tokens = list(TOKEN_RE.finditer(text))
    chunks = chunk_text("doc", text, chunk_size=chunk_size, overlap=overlap)

    if n_tokens == 0:
        assert chunks == []
        return
    # full coverage with the documented stride, no empty windows
    assert chunks[0].token_span[0] == 0
    assert chunks[-1].token_span[1] == n_tokens
    for prev, nxt in zip(chunks, chunks[1:]):
        assert nxt.token_span[0] == prev.token_span[1] - overlap
    for chunk in chunks:
        start, end = chunk.token_span
        assert end > start
        assert end - start <= chunk_size
        assert chunk.text == text[tokens[start].start() : tokens[end - 1].end()]
    assert [c.seq for c in chunks] == list(range(len(chunks)))
    # every chunk but the last is full-width
    assert all(c.token_span[1] - c.token_span[0] == chunk_size for c in chunks[:-1])


# -- records and articles -----------------------------------------------------


def test_corpus_record_validation():
    with pytest.raises(ValidationError):
        CorpusRecord(id="", title="t", abstract="a")
    with pytest.raises(ValidationError):
        CorpusRecord(id="x", title="  ", abstract="")


def test_article_validation():
    with pytest.raises(ValidationError):
        ArticleText(id="a", body="   ")
    with pytest.raises(ValidationError):
        ArticleText(id="", body="text")


def test_load_article_defaults_id_to_stem(tmp_path):
    path = tmp_path / "my-article.md"
    path.write_text("Some body text.", encoding="utf-8")
    article = load_article(path)
    assert article.id == "my-article"
    assert article.body == "Some body text."


def test_load_article_missing_file(tmp_path):
    with pytest.raises(ValidationError):
        load_article(tmp_path / "nope.md")


def test_record_metadata_flattens_lists():
    rec = CorpusRecord(
        id="r1",
        title="T",
        abstract="A",
        authors=("X. Yu", "Z. Chen"),
        keywords=("covid", "zinc"),
    )
    meta = record_metadata(rec)
    assert meta == {
        "title": "T",
        "authors": "X. Yu; Z. Chen",
        "published_date": "",
        "keywords": "covid; zinc",
    }


def test_chunk_corpus_falls_back_to_title():
    rec = CorpusRecord(id="r1", title="Only a title here", abstract="   ")
    chunks = chunk_corpus([rec], chunk_size=10, overlap=2)
    assert len(chunks) == 1
    assert chunks[0].text == "Only a title here"
    assert chunks[0].metadata["title"] == "Only a title here"


# -- ingestion ----------------------------------------------------------------


def write_jsonl(path, rows):
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(row if isinstance(row, str) else json.dumps(row))
            fh.write("\n")


def test_ingest_jsonl_accepts_and_rejects(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(
        path,
        [
            {"id": "a", "title": "T1", "abstract": "A1"},
            "{not json",
            {"title": "no id", "abstract": "A"},
            {"id": "b", "title": "", "abstract": "  "},
            {"id": "a", "title": "dup", "abstract": "dup"},
            {"id": "c", "title": "T3", "abstract": "A3", "published_date": "not-a-date"},
            '["row is a list"]',
            {"id": "d", "title": "T4", "abstract": "A4", "published_date": "2021-03-09",
             "authors": ["P. Okafor"], "keywords": ["zinc"]},
        ],
    )
    records, rejects = ingest_corpus(path)
    assert [r.id for r in records] == ["a", "d"]
    assert records[1].published_date.isoformat() == "2021-03-09"
    assert records[1].authors == ("P. Okafor",)
    reasons = [r.reason for r in rejects]
    assert reasons == [
        "invalid json",
        "missing id",
        "empty content",
        "duplicate id",
        "invalid date 'not-a-date'",
        "row is not an object",
    ]
    assert rejects[0].location == "line 2"


def test_ingest_jsonl_rejects_a_line_that_is_not_utf8(tmp_path):
    # a malformed row never aborts the load
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(
        b'{"id": "a", "title": "T1", "abstract": "A1"}\n'
        b'{"id": "b", "title": "caf\xe9", "abstract": "A2"}\n'
        b'{"id": "c", "title": "T3", "abstract": "A3"}\n'
    )
    records, rejects = ingest_corpus(path)
    assert [r.id for r in records] == ["a", "c"]
    assert [(r.location, r.reason) for r in rejects] == [("line 2", "invalid utf-8")]


def test_ingest_jsonl_rejects_a_lone_surrogate_escape(tmp_path):
    # JSON's escape stands for text with no UTF-8 form; a surrogate pair is one character
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(
        b'{"id": "a", "title": "T1", "abstract": "A1 \\ud83d\\ude00"}\n'
        b'{"id": "b", "title": "T2", "abstract": "A2 \\ud800"}\n'
        b'{"id": "c", "title": "T3", "abstract": "A3", "authors": ["\\udfff"]}\n'
    )
    records, rejects = ingest_corpus(path)
    assert [(r.id, r.abstract) for r in records] == [("a", "A1 \U0001f600")]
    reason = "lone surrogate escape: no UTF-8 form"
    assert [(r.location, r.reason) for r in rejects] == [("line 2", reason), ("line 3", reason)]


def test_ingest_csv_that_is_not_utf8_is_a_validation_error(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_bytes(b"id,title,abstract,authors,published_date,keywords\nk1,caf\xe9,Abstract,,,\n")
    with pytest.raises(ValidationError, match=f"cannot read corpus {re.escape(str(path))}: 'utf-8' codec"):
        ingest_corpus(path)


def test_ingest_jsonl_rejects_string_authors(tmp_path):
    # JSONL rows must use arrays; the ; convention is CSV-only
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [{"id": "a", "title": "T", "abstract": "A", "authors": "X; Y"}])
    records, rejects = ingest_corpus(path)
    assert not records
    assert "expected an array" in rejects[0].reason


def test_ingest_csv(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_text(
        "id,title,abstract,authors,published_date,keywords\n"
        'k1,Title One,Abstract one,"A. Wu; B. Ide",2020-01-02,"flu; zinc"\n'
        "k1,Dup,Dup,,,\n"
        ",No id,Text,,,\n",
        encoding="utf-8",
    )
    records, rejects = ingest_corpus(path)
    assert len(records) == 1
    assert records[0].authors == ("A. Wu", "B. Ide")
    assert records[0].keywords == ("flu", "zinc")
    assert [r.reason for r in rejects] == ["duplicate id", "missing id"]


def test_ingest_csv_missing_columns(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_text("id,title\na,b\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="missing columns"):
        ingest_corpus(path)


def test_ingest_missing_file(tmp_path):
    with pytest.raises(ValidationError):
        ingest_corpus(tmp_path / "absent.jsonl")


def test_ingest_fixture_corpus_is_clean(fixtures_dir):
    records, rejects = ingest_corpus(fixtures_dir / "corpus.jsonl")
    assert len(records) == 12
    assert not rejects
