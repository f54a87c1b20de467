"""End-to-end CLI behavior on a throwaway copy of the fixture bundle."""

from __future__ import annotations

import copy
import csv
import io
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from claimcheck import agents, cli, corpus, embedding, errors, evaluation, pipeline, prompts, service
from claimcheck.agents import prompt_fingerprint
from claimcheck.config import load_config
from claimcheck.embedding import DeterministicEmbedder
from claimcheck.pipeline import render_report
from conftest import RuleBackend, chat_payload, fill_the_disk, split_sections, write_sealed


def run(*argv: str) -> int:
    return cli.main(list(argv))


def build_index(bundle: Path) -> None:
    assert run("--config", str(bundle / "config.yaml"), "build-index") == 0


DROP = object()  # the key is left out


# -- ingest -------------------------------------------------------------------


def test_ingest_clean_corpus(bundle, capsys):
    assert run("--config", str(bundle / "config.yaml"), "ingest") == 0
    out = capsys.readouterr().out
    assert "accepted: 12" in out
    assert "rejected: 0" in out


def test_ingest_reports_rejected_rows(bundle, capsys):
    corpus = bundle / "corpus.jsonl"
    corpus.write_text(corpus.read_text(encoding="utf-8") + "{broken\n", encoding="utf-8")
    assert run("--config", str(bundle / "config.yaml"), "ingest") == 0
    out = capsys.readouterr().out
    assert "accepted: 12" in out
    assert "rejected: 1" in out
    assert "line 13" in out


def test_ingest_strict_rejects(bundle, capsys):
    corpus = bundle / "corpus.jsonl"
    corpus.write_text(corpus.read_text(encoding="utf-8") + "{broken\n", encoding="utf-8")
    assert run("--config", str(bundle / "config.yaml"), "--strict", "ingest") == 2
    assert "strict mode: rejected rows are fatal" in capsys.readouterr().err


# -- build-index --------------------------------------------------------------


def test_build_index_writes_one_index_per_embedder(bundle, capsys):
    build_index(bundle)
    out = capsys.readouterr().out
    index_dir = bundle / "index"
    # one metadata section for the directory, none inside a leg
    assert sorted(p.name for p in index_dir.iterdir()) == ["hash-256.idx", "hash-384.idx", "metadata.jsonl"]
    metadata = (index_dir / "metadata.jsonl").read_bytes()
    assert metadata.count(b"\n") == 12
    for dimension in (256, 384):
        header, _, matrix = split_sections(index_dir / f"hash-{dimension}.idx")
        assert header["metadata_bytes"] == len(metadata)
        assert len(matrix) == header["count"] * dimension * 4
        assert metadata not in (index_dir / f"hash-{dimension}.idx").read_bytes()
    assert "hash-256:" in out and "hash-384:" in out
    assert "indexed" in out


def test_build_index_is_deterministic(bundle):
    build_index(bundle)
    first = {p.name: p.read_bytes() for p in (bundle / "index").iterdir()}
    build_index(bundle)
    assert {p.name: p.read_bytes() for p in (bundle / "index").iterdir()} == first


def test_build_index_strict_on_rejects(bundle, capsys):
    corpus = bundle / "corpus.jsonl"
    corpus.write_text(corpus.read_text(encoding="utf-8") + "{broken\n", encoding="utf-8")
    assert run("--config", str(bundle / "config.yaml"), "--strict", "build-index") == 2
    assert "rejected 1 corpus rows" in capsys.readouterr().err


def test_a_corpus_row_with_a_lone_surrogate_escape_is_rejected(bundle, capsys):
    config = str(bundle / "config.yaml")
    path = bundle / "corpus.jsonl"
    first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
    row = {**json.loads(first), "abstract": "Zinc \ud800 shortens colds."}
    path.write_text(json.dumps(row) + "\n" + "".join(rest), encoding="utf-8")  # ASCII: the escape
    assert run("--config", config, "ingest") == 0
    out = capsys.readouterr().out
    assert "accepted: 11" in out and "rejected: 1" in out
    assert "line 1: lone surrogate escape: no UTF-8 form" in out
    assert run("--config", config, "--strict", "build-index") == 2
    assert not (bundle / "index").exists()
    assert run("--config", config, "build-index") == 0
    assert "indexed 11 chunks from 11 records" in capsys.readouterr().out


@pytest.mark.parametrize(
    "edits,message",
    [
        ({"hash-256": "hash/384", "hash-384": "hash_384"}, "would share the index file"),
        ({"seed: 7": "sede: 7"}, "unknown keys ['sede']"),
        ({"concurrency: 4": "concurrncy: 8"}, "unknown keys ['concurrncy']"),
        (
            {"endpoint: scripted": "endpoint: scripted\n    temperature: .nan"},
            "backends.generator.temperature must be a finite number, got nan",
        ),
        (
            {"model_id: scripted-rewriter": "model_id: scripted-rewriter\n    role: grader"},
            "backends.rewriter.role must be 'rewriter', got 'grader'",
        ),
    ],
    ids=["shared-index-file", "unknown-embedder-key", "unknown-root-key", "nan-temperature", "changed-role"],
)
def test_build_index_refuses_a_broken_config_before_writing(bundle, capsys, edits, message):
    config = bundle / "config.yaml"
    text = config.read_text(encoding="utf-8")
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    config.write_text(text, encoding="utf-8")
    assert run("--config", str(config), "build-index") == 2
    assert message in capsys.readouterr().err
    assert not (bundle / "index").exists()


def test_build_index_non_finite_embedding_is_operational(bundle, http_stub, capsys):
    config = bundle / "config.yaml"
    text = config.read_text(encoding="utf-8")
    config.write_text(
        text.replace("endpoint: deterministic-test\n    seed: 7", f"endpoint: {http_stub.url}\n    seed: 7"),
        encoding="utf-8",
    )
    # json decodes NaN, so the client receives a float that is not finite
    vector = "[NaN" + ", 0.5" * 255 + "]"

    def answer(body):
        rows = [f'{{"index": {i}, "embedding": {vector}}}' for i in range(len(body["input"]))]
        return 200, '{"data": [' + ", ".join(rows) + "]}"

    http_stub.default = answer
    assert run("--config", str(config), "build-index") == 1
    err = capsys.readouterr().err
    assert "non-finite embedding" in err
    assert "Traceback" not in err
    assert not (bundle / "index" / "hash-256.idx").exists()


# -- check --------------------------------------------------------------------


def test_check_requires_an_index(bundle, capsys):
    code = run(
        "--config", str(bundle / "config.yaml"),
        "check", "--article", str(bundle / "immune-boosters.md"), "--mode", "lotr-srag",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "run build-index" in err


def test_check_baseline_needs_no_index(bundle, capsys):
    # only the retrieval modes load indexes
    out_path = bundle / "report_baseline.json"
    code = run(
        "--config", str(bundle / "config.yaml"),
        "check", "--article", str(bundle / "immune-boosters.md"), "--mode", "baseline",
        "--out", str(out_path),
    )
    capsys.readouterr()
    assert code == 0
    assert not (bundle / "index").exists()
    assert out_path.read_bytes() == (bundle / "golden" / "report_baseline.json").read_bytes()


def test_check_refuses_an_index_of_another_dimension(bundle, capsys):
    build_index(bundle)
    config = bundle / "config.yaml"
    text = config.read_text(encoding="utf-8")
    config.write_text(text.replace("dimension: 256", "dimension: 128"), encoding="utf-8")
    capsys.readouterr()
    code = run(
        "--config", str(config),
        "check", "--article", str(bundle / "immune-boosters.md"), "--mode", "lotr",
    )
    assert code == 2
    assert "hash-256.idx has dimension 256, config says 128" in capsys.readouterr().err


def test_check_refuses_an_index_of_another_model(bundle, capsys):
    build_index(bundle)
    config = bundle / "config.yaml"
    config.write_text(config.read_text(encoding="utf-8").replace("hash-384", "other-384"), encoding="utf-8")
    (bundle / "index" / "hash-384.idx").rename(bundle / "index" / "other-384.idx")
    capsys.readouterr()
    code = run(
        "--config", str(config),
        "check", "--article", str(bundle / "immune-boosters.md"), "--mode", "lotr",
    )
    assert code == 2
    assert "other-384.idx holds model 'hash-384', config says 'other-384'" in capsys.readouterr().err


def test_check_refuses_a_version_1_index(bundle, capsys):
    build_index(bundle)
    header = {"count": 1, "dimension": 256, "format": "claimcheck-index", "model_id": "hash-256", "version": 1}
    entry = {"metadata": {}, "parent_id": "a", "seq": 0, "vector": [1.0] + [0.0] * 255}
    (bundle / "index" / "hash-256.idx").write_text(
        json.dumps(header) + "\n" + json.dumps(entry) + "\n", encoding="utf-8"
    )
    capsys.readouterr()
    code = run(
        "--config", str(bundle / "config.yaml"),
        "check", "--article", str(bundle / "immune-boosters.md"), "--mode", "lotr-srag",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "re-run `claimcheck build-index`" in err
    assert "Traceback" not in err


def test_check_writes_report_and_sidecar(bundle, capsys):
    build_index(bundle)
    out_path = bundle / "out" / "report.json"
    code = run(
        "--config", str(bundle / "config.yaml"),
        "check",
        "--article", str(bundle / "immune-boosters.md"),
        "--mode", "lotr-srag",
        "--out", str(out_path),
    )
    assert code == 0
    assert f"report written to {out_path}" in capsys.readouterr().out
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["mode"] == "lotr_srag"
    assert report["article_id"] == "immune-boosters"
    meta = json.loads((out_path.parent / "report.json.meta.json").read_text(encoding="utf-8"))
    assert set(meta) == {"article_id", "mode", "elapsed_seconds", "generated_at"}
    assert meta["mode"] == "lotr_srag"
    # the CLI times the check itself; the report holds no timing
    assert isinstance(meta["elapsed_seconds"], float) and meta["elapsed_seconds"] >= 0


@pytest.mark.parametrize("mode", ["baseline", "lotr", "lotr-srag"])
def test_check_matches_golden_report(bundle, capsys, mode):
    build_index(bundle)
    out_path = bundle / f"report_{mode}.json"
    code = run(
        "--config", str(bundle / "config.yaml"),
        "check",
        "--article", str(bundle / "immune-boosters.md"),
        "--mode", mode,
        "--out", str(out_path),
    )
    capsys.readouterr()
    assert code == 0
    golden = bundle / "golden" / f"report_{mode.replace('-', '_')}.json"
    assert out_path.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("mode", ["baseline", "lotr", "lotr_srag"])
def test_golden_reports_read_back_as_the_reports_check_makes(bundle, mode):
    """A golden report read the way evaluate reads it is the Report that check
    makes, and renders again to its golden bytes."""
    build_index(bundle)
    config = load_config(bundle / "config.yaml")
    article = corpus.load_article(bundle / "immune-boosters.md")
    made = service.build_pipeline(config, mode).check_article(article, mode)
    golden = bundle / "golden" / f"report_{mode}.json"
    [read] = cli._load_reports([str(golden)])
    assert read == made
    assert render_report(read) == golden.read_text(encoding="utf-8")
    if mode == "lotr_srag":
        markdown = (bundle / "golden" / "report_lotr_srag.md").read_text(encoding="utf-8")
        assert render_report(read, fmt="markdown") == markdown


def test_check_markdown_to_stdout(bundle, capsys):
    build_index(bundle)
    capsys.readouterr()
    code = run(
        "--config", str(bundle / "config.yaml"),
        "check",
        "--article", str(bundle / "immune-boosters.md"),
        "--mode", "lotr-srag",
        "--format", "markdown",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out == (bundle / "golden" / "report_lotr_srag.md").read_text(encoding="utf-8")
    assert out.startswith("# Fact-check report: immune-boosters")
    assert "| Extracted claims | Response of fact-checking |" in out


def test_check_missing_article(bundle, capsys):
    build_index(bundle)
    code = run(
        "--config", str(bundle / "config.yaml"),
        "check", "--article", str(bundle / "no-such-file.md"),
    )
    assert code == 2
    assert "article file not found" in capsys.readouterr().err


def test_check_unknown_fingerprint_is_operational(bundle, capsys):
    build_index(bundle)
    (bundle / "mock_responses.jsonl").write_text(
        json.dumps({"fingerprint": "0" * 64, "prompt_tokens": 1, "completion_tokens": 2, "response": "never used"}) + "\n",
        encoding="utf-8",
    )
    code = run(
        "--config", str(bundle / "config.yaml"),
        "check", "--article", str(bundle / "immune-boosters.md"), "--mode", "lotr-srag",
    )
    assert code == 1
    assert "no response for fingerprint" in capsys.readouterr().err


def test_check_writes_a_partial_report_and_exits_1_when_a_chunk_was_skipped(bundle, capsys):
    build_index(bundle)
    config = load_config(bundle / "config.yaml")
    article = corpus.load_article(bundle / "immune-boosters.md")
    chunks = corpus.chunk_text(
        article.id, article.body, config.chunking.article_chunk_size, config.chunking.article_overlap
    )
    assert [tuple(c.key) for c in chunks] == [("immune-boosters", 0), ("immune-boosters", 1)]
    # drop the scripted answer to the second chunk's claim-listing prompt
    missing = prompt_fingerprint(prompts.EXTRACT_CLAIMS.render(chunk=chunks[1].text))
    responses = bundle / "mock_responses.jsonl"
    lines = responses.read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [line for line in lines if json.loads(line)["fingerprint"] != missing]
    assert len(kept) == len(lines) - 1
    responses.write_text("".join(kept), encoding="utf-8")

    out_path = bundle / "out" / "report.json"
    code = run(
        "--config", str(bundle / "config.yaml"),
        "check",
        "--article", str(bundle / "immune-boosters.md"),
        "--mode", "lotr-srag",
        "--out", str(out_path),
    )
    assert code == 1
    captured = capsys.readouterr()
    assert f"report written to {out_path}" in captured.out
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["entries"]  # the first chunk's claims were still checked
    assert len(report["warnings"]) == 1
    warning = report["warnings"][0]
    assert warning.startswith("chunk ('immune-boosters', 1): claim extraction failed:")
    assert f"warning: {warning}" in captured.err


def embed_over_http_stub(bundle: Path, http_stub) -> tuple[Path, dict[str, DeterministicEmbedder]]:
    """Point the bundle's embedders at the stub, which serves each model's
    deterministic vectors, so retrieval, the scripted answers and the scores
    are those of the offline run.  Returns the config and the local models."""
    config = bundle / "config.yaml"
    text = config.read_text(encoding="utf-8")
    config.write_text(
        text.replace("endpoint: deterministic-test", f"endpoint: {http_stub.url}"), encoding="utf-8"
    )
    local = {spec.model_id: DeterministicEmbedder(spec) for spec in load_config(config).embedders}

    def answer(body):
        vectors = local[body["model"]].embed(body["input"])
        return 200, {"data": [{"index": i, "embedding": v.tolist()} for i, v in enumerate(vectors)]}

    http_stub.default = answer
    return config, local


def test_check_over_remote_embedders_posts_each_claim_text_once_per_model(
    bundle, http_stub, monkeypatch, capsys
):
    config, local = embed_over_http_stub(bundle, http_stub)
    memos: list = []
    make_memo = embedding.EmbeddingMemo.__init__

    def spy(memo, inner):
        memos.append(memo)
        make_memo(memo, inner)

    monkeypatch.setattr(embedding.EmbeddingMemo, "__init__", spy)
    build_index(bundle)
    memos.clear()  # build-index made its own; count those of the check
    http_stub.requests.clear()
    out_path = bundle / "report.json"
    code = run(
        "--config", str(config),
        "check", "--article", str(bundle / "immune-boosters.md"), "--mode", "lotr-srag",
        "--out", str(out_path),
    )
    capsys.readouterr()
    assert code == 0
    report = json.loads(out_path.read_text(encoding="utf-8"))
    golden = json.loads((bundle / "golden" / "report_lotr_srag.json").read_text(encoding="utf-8"))
    for spec in report["config"]["embedders"]:
        assert spec.pop("endpoint") == http_stub.url
    for spec in golden["config"]["embedders"]:
        spec.pop("endpoint")
    assert report == golden

    posted: dict[str, list[list[str]]] = {model: [] for model in local}
    for _, _, body in http_stub.requests:
        posted[body["model"]].append(body["input"])
    for model, inputs in posted.items():
        texts = sum(inputs, [])
        assert len(texts) == len(set(texts)), f"{model} was posted a text twice"
    # extraction's dedupe post comes first; leg 0's first-round queries
    # reuse its vectors, so no later post to that model repeats one of its texts
    [dedupe, *later] = posted["hash-256"]
    first_round = {e["claim"]["text"] for e in report["entries"] if e["claim"]["rewritten_from"] is None}
    assert first_round <= set(dedupe)
    assert set(dedupe).isdisjoint(sum(later, []))
    # leg 1 embeds every listed claim in its first post, beside the dedupe post
    assert posted["hash-384"][0] == dedupe
    assert len(memos) == 2  # one per model: claim dedupe shares the first leg's


def test_check_refuses_an_index_entry_with_a_lone_surrogate_escape(bundle, capsys):
    build_index(bundle)
    metadata = (bundle / "index" / "metadata.jsonl").read_bytes()
    bad = metadata.replace(b'"title": "', b'"title": "\\ud800', 1)
    # both legs resealed to the one metadata file of their directory
    for dimension in (256, 384):
        leg = bundle / "index" / f"hash-{dimension}.idx"
        header, _, matrix = split_sections(leg)
        write_sealed(leg, header, bad, matrix)
    out = bundle / "report.json"
    code = run(
        "--config", str(bundle / "config.yaml"),
        "check", "--article", str(bundle / "immune-boosters.md"), "--mode", "lotr", "--out", str(out),
    )
    assert code == 1
    assert f"error: {bundle / 'index' / 'metadata.jsonl'}: bad entry 0: " in capsys.readouterr().err
    assert not out.exists()


def rewrite_version_3(index_dir: Path) -> None:
    leg = index_dir / "hash-256.idx"
    header, newline, rest = leg.read_bytes().partition(b"\n")
    leg.write_bytes(header.replace(b'"version": 4}', b'"version": 3}') + newline + rest)


def flip_a_metadata_byte(index_dir: Path) -> None:
    path = index_dir / "metadata.jsonl"
    data = path.read_bytes()
    path.write_bytes(data[:100] + bytes([data[100] ^ 1]) + data[101:])


def leave_a_stale_leg(index_dir: Path) -> None:
    """A later build over another corpus that failed after its first leg:
    the second leg still names the earlier corpus's metadata."""
    stale = (index_dir / "hash-384.idx").read_bytes()
    corpus = index_dir.parent / "corpus.jsonl"
    corpus.write_text("".join(corpus.read_text(encoding="utf-8").splitlines(keepends=True)[1:]), encoding="utf-8")
    build_index(index_dir.parent)
    (index_dir / "hash-384.idx").write_bytes(stale)


@pytest.mark.parametrize(
    "damage,message",
    [
        (rewrite_version_3, r"hash-256.idx: format version 3 is not supported"),
        (lambda index_dir: (index_dir / "metadata.jsonl").unlink(), "metadata file of hash-256.idx not found"),
        (flip_a_metadata_byte, "checksum does not match hash-256.idx"),
        (leave_a_stale_leg, r"metadata.jsonl: holds \d+ bytes, hash-384.idx expects \d+ "),
    ],
    ids=["version-3", "metadata-missing", "metadata-damaged", "metadata-stale"],
)
def test_check_refuses_an_index_its_metadata_file_does_not_match(bundle, capsys, damage, message):
    build_index(bundle)
    damage(bundle / "index")
    capsys.readouterr()
    out = bundle / "report.json"
    code = run(
        "--config", str(bundle / "config.yaml"),
        "check", "--article", str(bundle / "immune-boosters.md"), "--mode", "lotr-srag", "--out", str(out),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.search(message, err)
    assert "re-run `claimcheck build-index`" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,out",
    [
        (["check", "--article", "immune-boosters.md", "--mode", "lotr", "--out", "out/result"], "out/result"),
        (["evaluate", "--scores", "pairwise_scores.json", "--out", "out/result"], "out/result"),
        (["build-index"], "index/metadata.jsonl"),
    ],
    ids=["check", "evaluate", "build-index"],
)
def test_a_write_that_fails_partway_leaves_no_output(bundle, monkeypatch, capsys, argv, out):
    """A full disk while writing a report, a comparison or an index's first
    file exits 1 naming the file, and leaves nothing in the output directory."""
    if argv[0] != "build-index":
        build_index(bundle)
    monkeypatch.chdir(bundle)
    capsys.readouterr()
    fill_the_disk(monkeypatch)
    assert run("--config", "config.yaml", *argv) == 1
    err = capsys.readouterr().err
    # the index path is resolved against the config's directory
    assert err.startswith("error: ") and err.endswith(f"{out}: No space left on device\n")
    assert list((bundle / out).parent.iterdir()) == []


def test_check_corrupt_mock_fixtures(bundle, capsys):
    build_index(bundle)
    (bundle / "mock_responses.jsonl").write_text("{broken\n", encoding="utf-8")
    code = run(
        "--config", str(bundle / "config.yaml"),
        "check", "--article", str(bundle / "immune-boosters.md"), "--mode", "lotr-srag",
    )
    assert code == 2
    assert "bad fixture line 1" in capsys.readouterr().err


def test_check_refuses_a_mock_response_that_is_not_a_string(bundle, capsys):
    build_index(bundle)
    path = bundle / "mock_responses.jsonl"
    first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(json.dumps({**json.loads(first), "response": 5}) + "\n" + "".join(rest), encoding="utf-8")
    out = bundle / "report.json"
    code = run(
        "--config", str(bundle / "config.yaml"),
        "check", "--article", str(bundle / "immune-boosters.md"), "--mode", "lotr-srag", "--out", str(out),
    )
    assert code == 2
    assert f"{path}: bad fixture line 1: response must be a non-empty string, got 5" in capsys.readouterr().err
    assert not out.exists()


def test_check_refuses_a_mock_fingerprint_that_is_not_a_string(bundle, capsys):
    build_index(bundle)
    path = bundle / "mock_responses.jsonl"
    first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(json.dumps({**json.loads(first), "fingerprint": 5}) + "\n" + "".join(rest), encoding="utf-8")
    out = bundle / "report.json"
    code = run(
        "--config", str(bundle / "config.yaml"),
        "check", "--article", str(bundle / "immune-boosters.md"), "--mode", "lotr-srag", "--out", str(out),
    )
    assert code == 2
    assert f"{path}: bad fixture line 1: fingerprint must be a non-empty string, got 5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("prompt_tokens", DROP, "missing required key 'prompt_tokens'"),
        ("completion_tokens", -1, "completion_tokens must be >= 0, got -1"),
        ("prompt_tokens", "12", "prompt_tokens must be an integer, got '12'"),
        ("response", " ", "response must be a non-empty string, got ' '"),
    ],
    ids=["no-prompt-tokens", "negative-completion-tokens", "string-prompt-tokens", "blank-response"],
)
def test_check_refuses_a_mock_line_with_bad_counts_or_a_blank_response(bundle, capsys, key, value, message):
    """A replayed answer carries its token counts and a response that is not
    blank: a line without them is refused before anything is checked."""
    build_index(bundle)
    path = bundle / "mock_responses.jsonl"
    first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
    line = {k: v for k, v in {**json.loads(first), key: value}.items() if v is not DROP}
    path.write_text(json.dumps(line) + "\n" + "".join(rest), encoding="utf-8")
    out = bundle / "report.json"
    code = run(
        "--config", str(bundle / "config.yaml"),
        "check", "--article", str(bundle / "immune-boosters.md"), "--mode", "lotr-srag", "--out", str(out),
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {path}: bad fixture line 1: {message}\n"
    assert not out.exists()


# -- evaluate -----------------------------------------------------------------


def test_evaluate_from_scores_matches_golden(bundle, capsys):
    code = run(
        "--config", str(bundle / "config.yaml"),
        "evaluate", "--scores", str(bundle / "pairwise_scores.json"),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out == (bundle / "golden" / "comparison_scores.md").read_text(encoding="utf-8")


def test_evaluate_from_scores_json_format(bundle, capsys):
    code = run(
        "--config", str(bundle / "config.yaml"),
        "evaluate", "--scores", str(bundle / "pairwise_scores.json"), "--format", "json",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out == (bundle / "golden" / "comparison_scores.json").read_text(encoding="utf-8")
    assert json.loads(out)["comparisons"]


def test_evaluate_reports_against_ground_truth(bundle, capsys):
    code = run(
        "--config", str(bundle / "config.yaml"),
        "evaluate",
        "--reports",
        str(bundle / "golden" / "report_baseline.json"),
        str(bundle / "golden" / "report_lotr.json"),
        str(bundle / "golden" / "report_lotr_srag.json"),
        "--ground-truth", str(bundle / "ground_truth.jsonl"),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out == (bundle / "golden" / "comparison_reports.md").read_text(encoding="utf-8")


def test_evaluate_accepts_globs(bundle, capsys):
    code = run(
        "--config", str(bundle / "config.yaml"),
        "evaluate",
        "--reports", str(bundle / "golden" / "report_*.json"),
        "--ground-truth", str(bundle / "ground_truth.jsonl"),
        "--out", str(bundle / "cmp.md"),
    )
    assert code == 0
    capsys.readouterr()
    assert (bundle / "cmp.md").read_text(encoding="utf-8") == (
        bundle / "golden" / "comparison_reports.md"
    ).read_text(encoding="utf-8")


def test_evaluate_glob_skips_meta_sidecars(bundle, capsys):
    # a report directory also holds the .meta.json sidecars check wrote;
    # report_*.json must not sweep them in as duplicate reports
    reports = bundle / "reports"
    reports.mkdir()
    for mode in ("baseline", "lotr", "lotr_srag"):
        src = bundle / "golden" / f"report_{mode}.json"
        (reports / src.name).write_bytes(src.read_bytes())
        (reports / f"report_{mode}.json.meta.json").write_text(
            json.dumps({"article_id": "immune-boosters", "mode": mode.replace("_", "-"),
                        "elapsed_seconds": 1.0, "generated_at": "x"}),
            encoding="utf-8",
        )
    code = run(
        "--config", str(bundle / "config.yaml"),
        "evaluate",
        "--reports", str(reports / "report_*.json"),
        "--ground-truth", str(bundle / "ground_truth.jsonl"),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out == (bundle / "golden" / "comparison_reports.md").read_text(encoding="utf-8")


def test_evaluate_glob_matches_report_directories(bundle, capsys, monkeypatch):
    # one directory per run: the wildcard sits in a directory component,
    # and the pattern is relative to the working directory
    for mode in ("baseline", "lotr", "lotr_srag"):
        run_dir = bundle / "runs" / mode
        run_dir.mkdir(parents=True)
        src = bundle / "golden" / f"report_{mode}.json"
        (run_dir / src.name).write_bytes(src.read_bytes())
        (run_dir / f"{src.name}.meta.json").write_text("{}", encoding="utf-8")
    monkeypatch.chdir(bundle)
    code = run(
        "--config", "config.yaml",
        "evaluate",
        "--reports", "runs/*/report_*.json",
        "--ground-truth", "ground_truth.jsonl",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out == (bundle / "golden" / "comparison_reports.md").read_text(encoding="utf-8")


def test_evaluate_over_a_remote_embedder_posts_each_text_once(bundle, http_stub, monkeypatch, capsys):
    config, _ = embed_over_http_stub(bundle, http_stub)
    reports = [str(bundle / "golden" / f"report_{mode}.json") for mode in ("baseline", "lotr", "lotr_srag")]
    argv = ["--config", str(config), "evaluate", "--ground-truth", str(bundle / "ground_truth.jsonl")]
    argv += ["--reports", *reports]
    ground_truth = evaluation.load_ground_truth(bundle / "ground_truth.jsonl")
    texts = [g.claim for g in ground_truth] + [g.reference_response for g in ground_truth]

    def posts_of_each_text() -> list[int]:
        inputs = sum((body["input"] for _, _, body in http_stub.requests), [])
        http_stub.requests.clear()
        return [inputs.count(text) for text in texts]

    # a memo with no room passes every call through: the run without it
    monkeypatch.setattr(embedding, "EMBEDDING_MEMO_ENTRIES", 0)
    assert run(*argv) == 0
    unmemoized = capsys.readouterr().out
    assert min(posts_of_each_text()) > 1  # each again for every system that matched it
    monkeypatch.setattr(embedding, "EMBEDDING_MEMO_ENTRIES", 1024)
    assert run(*argv) == 0
    assert capsys.readouterr().out == unmemoized
    assert unmemoized == (bundle / "golden" / "comparison_reports.md").read_text(encoding="utf-8")
    assert posts_of_each_text() == [1] * len(texts)


def test_evaluate_over_a_remote_grader_lists_each_text_once(bundle, http_stub, monkeypatch, capsys):
    config = bundle / "config.yaml"
    text = config.read_text(encoding="utf-8")
    text = text.replace("statement_source: sentences", "statement_source: backend")
    remote = text.replace(
        "model_id: scripted-grader\n    endpoint: scripted",
        f"model_id: scripted-grader\n    endpoint: {http_stub.url}",
    )
    assert remote != text
    config.write_text(remote, encoding="utf-8")
    listing_head, listing_tail = prompts.EXTRACT_STATEMENTS.template.split("{text}")

    def answer(body):
        # the listed text's sentences, one per line, as the offline run splits them
        listed = body["messages"][0]["content"].removeprefix(listing_head).removesuffix(listing_tail)
        lines = evaluation.split_sentences(listed) or ["NONE"]
        return 200, {"choices": [{"message": {"content": "\n".join(lines)}}]}

    http_stub.default = answer
    reports = [str(bundle / "golden" / f"report_{mode}.json") for mode in ("baseline", "lotr", "lotr_srag")]
    argv = ["--config", str(config), "evaluate", "--ground-truth", str(bundle / "ground_truth.jsonl")]
    argv += ["--reports", *reports]
    ground_truth = evaluation.load_ground_truth(bundle / "ground_truth.jsonl")
    references = [prompts.EXTRACT_STATEMENTS.render(text=g.reference_response) for g in ground_truth]

    def posts_of_each_prompt() -> dict[str, int]:
        posted = [body["messages"][0]["content"] for _, _, body in http_stub.requests]
        http_stub.requests.clear()
        return {prompt: posted.count(prompt) for prompt in posted}

    # a memo with no room passes every call through: the run without it
    monkeypatch.setattr(agents, "CHAT_MEMO_ENTRIES", 0)
    assert run(*argv) == 0
    unmemoized = capsys.readouterr().out
    posts = posts_of_each_prompt()
    assert all(prompt.startswith(listing_head) for prompt in posts)
    assert min(posts[prompt] for prompt in references) > 1  # listed again for every system
    monkeypatch.setattr(agents, "CHAT_MEMO_ENTRIES", 4096)
    assert run(*argv) == 0
    assert capsys.readouterr().out == unmemoized
    assert unmemoized == (bundle / "golden" / "comparison_reports.md").read_text(encoding="utf-8")
    memoized = posts_of_each_prompt()
    assert memoized.keys() == posts.keys()
    assert set(memoized.values()) == {1}


@pytest.mark.parametrize(
    "unusable, warning",
    [
        ({"choices": [{"message": {"content": ""}}]}, "returned an empty completion"),
        ({"choices": []}, "malformed chat response"),
    ],
    ids=["blank", "malformed"],
)
def test_evaluate_over_a_remote_grader_survives_one_unusable_answer(
    bundle, http_stub, capsys, unusable, warning
):
    config = bundle / "config.yaml"
    text = config.read_text(encoding="utf-8")
    text = text.replace("statement_source: sentences", "statement_source: backend")
    remote = text.replace(
        "model_id: scripted-grader\n    endpoint: scripted",
        f"model_id: scripted-grader\n    endpoint: {http_stub.url}",
    )
    assert remote != text
    config.write_text(remote, encoding="utf-8")
    answers = []

    def answer(body):
        answers.append(body)
        if len(answers) == 3:
            return 200, unusable
        return 200, {"choices": [{"message": {"content": "A statement."}}]}

    http_stub.default = answer
    out = bundle / "comparison.md"
    code = run(
        "--config", str(config),
        "evaluate",
        "--reports", *(str(bundle / "golden" / f"report_{m}.json") for m in ("baseline", "lotr", "lotr_srag")),
        "--ground-truth", str(bundle / "ground_truth.jsonl"),
        "--out", str(out),
    )
    err = capsys.readouterr().err
    assert "error" not in err
    # the one unusable listing counts as no statements; the run goes on,
    # writes the comparison and exits 1 because its scores are partial
    assert code == 1
    assert out.read_text(encoding="utf-8").startswith("|")
    assert len(answers) > 3
    failed = [line for line in err.splitlines() if "statement extraction failed" in line]
    assert len(failed) == 1 and warning in failed[0]
    assert failed[0].startswith("warning: ")


def test_evaluate_with_a_grader_that_fails_every_answer_is_not_a_clean_run(bundle, capsys):
    # the mock fixtures hold no statement listings: every scripted answer misses
    config = bundle / "config.yaml"
    text = config.read_text(encoding="utf-8")
    config.write_text(text.replace("statement_source: sentences", "statement_source: backend"), encoding="utf-8")
    out = bundle / "comparison.json"
    code = run(
        "--config", str(config),
        "evaluate",
        "--reports", *(str(bundle / "golden" / f"report_{m}.json") for m in ("baseline", "lotr", "lotr_srag")),
        "--ground-truth", str(bundle / "ground_truth.jsonl"),
        "--format", "json",
        "--out", str(out),
    )
    err = capsys.readouterr().err
    assert code == 1
    misses = [line for line in err.splitlines() if "scripted backend has no response" in line]
    assert misses and all(line.startswith("warning: ") for line in misses)
    assert "statement extraction failed" in misses[0]
    # every system reads as vacuous agreement, which the exit code disowns
    assert out.exists()


def test_evaluate_builds_one_grader_backend(bundle, capsys, monkeypatch):
    config = bundle / "config.yaml"
    text = config.read_text(encoding="utf-8")
    text = text.replace("statement_source: sentences", "statement_source: backend")
    config.write_text(text.replace("judge: lexical", "judge: backend"), encoding="utf-8")
    built = []

    def fake_build_backend(cfg, mock_fixtures=None):
        built.append(cfg.role)
        return RuleBackend(
            lambda p: "A statement." if p.startswith("List every atomic") else '{"score": "yes"}'
        )

    monkeypatch.setattr(cli, "build_backend", fake_build_backend)
    code = run(
        "--config", str(config),
        "evaluate",
        "--reports", str(bundle / "golden" / "report_lotr_srag.json"),
        "--ground-truth", str(bundle / "ground_truth.jsonl"),
    )
    capsys.readouterr()
    assert code == 0
    # statement listing and judging share one grader: one memo, one endpoint
    assert built == ["grader"]


def test_evaluate_requires_inputs(bundle, capsys):
    assert run("--config", str(bundle / "config.yaml"), "evaluate") == 2
    assert "evaluate needs --reports and --ground-truth" in capsys.readouterr().err


def test_evaluate_bad_glob(bundle, capsys):
    code = run(
        "--config", str(bundle / "config.yaml"),
        "evaluate",
        "--reports", str(bundle / "nothing_*.json"),
        "--ground-truth", str(bundle / "ground_truth.jsonl"),
    )
    assert code == 2
    assert "no report files match" in capsys.readouterr().err


def test_evaluate_bad_scores_file(bundle, capsys):
    bad = bundle / "scores.json"
    bad.write_text("{}", encoding="utf-8")
    code = run("--config", str(bundle / "config.yaml"), "evaluate", "--scores", str(bad))
    assert code == 2
    assert "cannot read scores file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value,message",
    [
        ((), [1, 2], "the top level must be a mapping, got [1, 2]"),
        (("entries",), "none", "entries must be a list, got 'none'"),
        (("entries", 0), 1, "entries[0] must be a mapping, got 1"),
        (("entries", 0, "claim"), "text", "entries[0].claim must be a mapping, got 'text'"),
        (("entries", 0, "sources", 0), "a", "entries[0].sources[0] must be a mapping, got 'a'"),
        (("entries", 0, "sources", 0, "title"), 5, "entries[0].sources[0].title must be a string, got 5"),
        (("entries",), DROP, "the top level: missing required key 'entries'"),
        (("entries", 0, "label"), 5, "entries[0].label must be one of ['true', 'partly_true', 'false', "
                                     "'partly_false', 'misleading', 'unverifiable'], got 5"),
        (("entries", 0, "label"), "bogus", "entries[0].label must be one of ['true', "),
        (("mode",), 5, "mode must be a non-empty string, got 5"),
        (("mode",), " ", "mode must be a non-empty string, got ' '"),
        (("entries", 1, "explanation"), None, "entries[1].explanation must be a string, got None"),
        (("entries", 2, "trace"), DROP, "entries[2]: missing required key 'trace'"),
        (("entries", 0, "explanation"), "Vitamin D \ud800 helps.",
         "entries[0].explanation must be text UTF-8 can encode: 'utf-8' codec can't encode character '\\ud800'"),
    ],
    ids=["report-not-an-object", "entries-not-a-list", "entry-not-an-object", "claim-not-an-object",
         "source-not-an-object", "source-title-not-a-string", "no-entries", "label-5", "label-bogus",
         "mode-5", "mode-blank", "explanation-null", "no-trace", "explanation-surrogate"],
)
def test_evaluate_report_of_the_wrong_shape(bundle, capsys, key, value, message):
    """Each key of a report is read through its dataclass field: a report
    whose value at ``key`` does not fit exits 2, naming the key's path."""
    report = json.loads((bundle / "golden" / "report_lotr_srag.json").read_text(encoding="utf-8"))
    parent = report
    for step in key[:-1]:
        parent = parent[step]
    if not key:
        report = value
    elif value is DROP:
        del parent[key[-1]]
    else:
        parent[key[-1]] = value
    bad = bundle / "bad.json"
    bad.write_text(json.dumps(report), encoding="utf-8")  # ASCII: a surrogate is written as its escape
    code = run(
        "--config", str(bundle / "config.yaml"),
        "evaluate",
        "--reports", str(bad),
        "--ground-truth", str(bundle / "ground_truth.jsonl"),
    )
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: report {bad}: {message}")


@pytest.mark.parametrize(
    "payload",
    [
        [1],
        {"systems": [1]},
        {"systems": {"lotr": [0.5]}},
        {"systems": {"lotr": {"consistency": 0.5}}},
        {"systems": {"lotr": {"consistency": ["high"]}}},
        {"systems": {"lotr": {"consistency": [True]}}},
    ],
    ids=["root-not-an-object", "systems-not-a-mapping", "system-not-a-mapping",
         "scores-not-a-list", "score-not-a-number", "score-a-boolean"],
)
def test_evaluate_scores_of_the_wrong_shape(bundle, capsys, payload):
    bad = bundle / "scores.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    code = run("--config", str(bundle / "config.yaml"), "evaluate", "--scores", str(bad))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(bad) in err


@pytest.mark.parametrize(
    "name,command",
    [
        ("config.yaml", ["ingest"]),
        ("immune-boosters.md", ["check", "--article", "immune-boosters.md", "--mode", "baseline"]),
        ("mock_responses.jsonl", ["check", "--article", "immune-boosters.md", "--mode", "baseline"]),
        ("ground_truth.jsonl", ["evaluate", "--reports", "golden/report_lotr.json", "--ground-truth", "ground_truth.jsonl"]),
        ("golden/report_lotr.json", ["evaluate", "--reports", "golden/report_lotr.json", "--ground-truth", "ground_truth.jsonl"]),
        ("pairwise_scores.json", ["evaluate", "--scores", "pairwise_scores.json"]),
    ],
    ids=["config", "article", "mock-fixtures", "ground-truth", "report", "scores"],
)
def test_a_file_that_is_not_utf8_is_refused(bundle, capsys, monkeypatch, name, command):
    monkeypatch.chdir(bundle)
    path = bundle / name
    path.write_bytes(b"\xff" + path.read_bytes())
    assert run("--config", "config.yaml", *command) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert "'utf-8' codec can't decode byte 0xff in position 0" in err


@pytest.mark.parametrize(
    "name,old,new,command,message",
    [
        ("config.yaml", "model_id: scripted-grader", 'model_id: "scripted-grader \\ud800"', ["ingest"],
         "config.yaml: backends.grader.model_id must be text UTF-8 can encode: "),
        ("ground_truth.jsonl", '"claim": "', '"claim": "\\ud800',
         ["evaluate", "--reports", "golden/report_lotr.json", "--ground-truth", "ground_truth.jsonl"],
         "ground_truth.jsonl: bad ground-truth line 1: claim must be text UTF-8 can encode: "
         "'utf-8' codec can't encode character '\\ud800'"),
        ("mock_responses.jsonl", '"response": "', '"response": "\\ud800',
         ["check", "--article", "immune-boosters.md", "--mode", "baseline"],
         "mock_responses.jsonl: bad fixture line 1: response must be text UTF-8 can encode: "
         "'utf-8' codec can't encode character '\\ud800'"),
    ],
    ids=["config", "ground-truth", "mock-fixtures"],
)
def test_a_lone_surrogate_is_refused(bundle, capsys, monkeypatch, name, old, new, command, message):
    """JSON and YAML write a lone surrogate such as "\\ud800" as an ASCII
    escape, but the string it reads back as has no UTF-8 form: the file is
    refused with exit 2, naming the key's path or the line."""
    monkeypatch.chdir(bundle)
    path = bundle / name
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    assert run("--config", "config.yaml", *command) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


# -- top level ----------------------------------------------------------------


def test_missing_config_file(bundle, capsys):
    assert run("--config", str(bundle / "absent.yaml"), "ingest") == 2
    assert "config file not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key",
    [
        ("concurrency",),
        ("embedders", 0, "dimension"),
        ("embedders", 1, "seed"),
        ("backends", "grader", "temperature"),
        ("backends", "generator", "max_output_tokens"),
    ],
    ids=lambda key: ".".join(map(str, key)),
)
def test_non_numeric_config_value_is_a_config_error(bundle, capsys, key):
    path = bundle / "config.yaml"
    data = yaml.safe_load(path.read_text(encoding="utf-8"))
    parent = data
    for step in key[:-1]:
        parent = parent[step]
    parent[key[-1]] = "many"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert run("--config", str(path), "ingest") == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


# -- mutated inputs -----------------------------------------------------------

MUTATIONS = (None, 5, True, "", [], {}, "None")
MUTATIONS_PER_INPUT = 40


def value_paths(value, path: tuple = ()):
    """The path and value of every value nested in ``value``."""
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield path + (key,), child
        yield from value_paths(child, path + (key,))


def mutate(data, rng: random.Random, string: str | None = None):
    """A copy of ``data`` with one nested value replaced by a draw from
    ``MUTATIONS``, or one string value by ``string``, and a note of which."""
    data = copy.deepcopy(data)
    path = rng.choice([p for p, v in value_paths(data) if string is None or isinstance(v, str)])
    value = copy.deepcopy(rng.choice(MUTATIONS)) if string is None else string
    parent = data
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return data, f"{'.'.join(map(str, path))} = {value!r}"


def jsonl_rows(text: str) -> list:
    return [json.loads(line) for line in text.splitlines()]


def jsonl_text(rows: list) -> str:
    return "".join(json.dumps(row) + "\n" for row in rows)


def csv_text(rows: list) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    for row in rows:
        writer.writerow(row if isinstance(row, list) else [row])
    return out.getvalue()


def test_mutated_inputs_end_with_an_exit_code(bundle, tmp_path):
    """One value of each file the CLI reads replaced at a time, then one
    string value by a lone surrogate, then each file with a byte that is
    not UTF-8: ``main`` returns 0, 1 or 2 and raises nothing.  A corpus is
    both ingested and indexed."""
    build_index(bundle)
    rng, surrogate_rng = random.Random(16), random.Random(27)
    config_path, mock_path = bundle / "config.yaml", bundle / "mock_responses.jsonl"
    mutated_config, mutated_report = bundle / "mutated.yaml", tmp_path / "mutated_report.json"
    corpus_config, csv_config, csv_path = bundle / "corpus.yaml", bundle / "csv.yaml", bundle / "corpus.csv"
    corpus_path, truth_path, scores_path = (
        bundle / "corpus.jsonl", bundle / "ground_truth.jsonl", bundle / "pairwise_scores.json"
    )
    # a mutated corpus is indexed beside the index that check reads; the
    # same corpus as CSV has ;-separated lists
    corpus_config.write_text(
        config_path.read_text(encoding="utf-8").replace("index_dir: index", "index_dir: mutated-index"),
        encoding="utf-8",
    )
    csv_config.write_text(corpus_config.read_text(encoding="utf-8").replace("corpus.jsonl", "corpus.csv"), encoding="utf-8")
    columns = ["id", "title", "abstract", "authors", "published_date", "keywords"]
    cells = [[row.get(c) for c in columns] for row in jsonl_rows(corpus_path.read_text(encoding="utf-8"))]
    csv_path.write_text(
        csv_text([columns, *[["; ".join(v) if isinstance(v, list) else v for v in row] for row in cells]]),
        encoding="utf-8",
    )
    article = bundle / "immune-boosters.md"
    check = ["check", "--article", str(article), "--mode", "lotr-srag", "--out", str(tmp_path / "report.json")]
    evaluate = ["evaluate", "--ground-truth", str(truth_path), "--reports"]
    inputs = [
        # what, the file written, the file it starts from, its parse and dump (None: plain text), each argv
        ("config", mutated_config, config_path, yaml.safe_load, yaml.safe_dump, [["--config", str(mutated_config), *check]]),
        ("mock fixtures", mock_path, mock_path, jsonl_rows, jsonl_text, [["--config", str(config_path), *check]]),
        ("report", mutated_report, bundle / "golden" / "report_lotr_srag.json", json.loads, json.dumps,
         [["--config", str(config_path), *evaluate, str(mutated_report)]]),
        ("corpus", corpus_path, corpus_path, jsonl_rows, jsonl_text,
         [["--config", str(corpus_config), command] for command in ("ingest", "build-index")]),
        ("csv corpus", csv_path, csv_path, lambda t: list(csv.reader(io.StringIO(t))), csv_text,
         [["--config", str(csv_config), command] for command in ("ingest", "build-index")]),
        ("ground truth", truth_path, truth_path, jsonl_rows, jsonl_text,
         [["--config", str(config_path), *evaluate, str(bundle / "golden" / "report_lotr_srag.json")]]),
        ("scores", scores_path, scores_path, json.loads, json.dumps,
         [["--config", str(config_path), "evaluate", "--scores", str(scores_path)]]),
        ("article", article, article, None, None, [["--config", str(config_path), *check]]),
    ]

    def runs(what: str, argvs: list[list[str]]) -> list[str | None]:
        failures = []
        for argv in argvs:
            try:
                code = run(*argv)
            except Exception as exc:  # the finding this test exists for
                failures.append(f"{what}: {argv[2]} raised {exc!r}")
            else:
                failures.append(None if code in (0, 1, 2) else f"{what}: {argv[2]} exit {code!r}")
        return failures

    failures = []
    for what, path, source, parse, dump, argvs in inputs:
        pristine = source.read_bytes()
        if parse is not None:
            data = parse(pristine.decode("utf-8"))
            for _ in range(MUTATIONS_PER_INPUT):
                mutated, where = mutate(data, rng)
                path.write_text(dump(mutated), encoding="utf-8")
                failures += runs(f"{what} {where}", argvs)
            # JSON and YAML write the surrogate as an ASCII escape; CSV, as the
            # bytes UTF-8 would give it if it had a form
            mutated, where = mutate(data, surrogate_rng, "\ud800")
            path.write_bytes(dump(mutated).encode("utf-8", "surrogatepass"))
            failures += runs(f"{what} {where}", argvs)
        path.write_bytes(pristine[: len(pristine) // 2] + b"\xff" + pristine[len(pristine) // 2 :])
        failures += runs(f"{what} not UTF-8", argvs)
        path.write_bytes(pristine)
    assert [f for f in failures if f] == []


# -- mutated model answers ----------------------------------------------------

# every prompt kind, told apart by the fixed text its template starts with
PROMPT_KINDS = (
    prompts.EXTRACT_CLAIMS, prompts.GRADE_DOCUMENT, prompts.GRADE_ANSWER, prompts.GENERATE_ANSWER,
    prompts.REWRITE_CLAIM, prompts.BASELINE_CHECK, prompts.EXTRACT_STATEMENTS, prompts.NLI_JUDGE,
)
SCORED_KINDS = ("grade_document", "grade_answer", "nli_judge")
# str.splitlines also breaks lines at \x0b, \x0c, \x85 and \u2028
CONTROL_CHARACTERS = "\x00\x07\x08\x0b\x0c\r\x1b\x7f\x85\u2028"
ANSWER_MUTATIONS = {
    "blank": lambda text, rng: rng.choice(["", " \n\t "]),
    "none": lambda text, rng: rng.choice(["NONE", "none.", "- NONE"]),
    "very long": lambda text, rng: " ".join([text] * (40_000 // len(text) + 1)),
    "mistyped score": lambda text, rng: rng.choice([
        '{"score": 5}', '{"score": null}', '{"score": ["yes"]}', '{"score": {"yes": true}}',
        '{"score": true}', '["score", "yes"]', '{"score": "maybe"}',
    ]),
    "bare source": lambda text, rng: re.split(r"\bSources?:", text)[0] + rng.choice([" Source:", "\nSource:  "]),
    "control characters": lambda text, rng: "".join(
        ch + (rng.choice(CONTROL_CHARACTERS) if rng.random() < 0.2 else "") for ch in text
    ),
    # the stub sends it as a JSON escape, which has no UTF-8 form once decoded
    "surrogate escape": lambda text, rng: (
        text[: len(text) // 2] + rng.choice(["\ud800", "\udfff", "\ud83d"]) + text[len(text) // 2 :]
    ),
}
ANSWER_FUZZ_SEEDS = 12


def test_mutated_model_answers_end_in_a_terminal_state(bundle, http_stub, tmp_path):
    """Seeded model-answer fuzz: over HTTP, each prompt gets the fixture's
    answer (or a plausible one), or half the time a mutation of it drawn
    from the seed, the command and the prompt's fingerprint.  Every check
    and evaluate returns 0, 1 or 2 and every report entry ends in a
    terminal state.  The draws are fixed, so whether every prompt kind
    meets every mutation is fixed too; if a change to the prompts leaves
    a pair unmet, more seeds meet it."""
    build_index(bundle)
    kept = agents.ChatMemo.from_file(bundle / "mock_responses.jsonl")
    config_path = bundle / "config.yaml"
    config_path.write_text(
        config_path.read_text(encoding="utf-8")
        .replace("endpoint: scripted", f"endpoint: {http_stub.url}")
        .replace("statement_source: sentences", "statement_source: backend")
        .replace("judge: lexical", "judge: backend"),
        encoding="utf-8",
    )
    met: set[tuple[str, str]] = set()
    draw = ""  # the seed and the command now running

    def answer(body: dict) -> tuple[int, dict]:
        prompt = body["messages"][0]["content"]
        (kind,) = (t.name for t in PROMPT_KINDS if prompt.startswith(t.template.split("{")[0]))
        rng = random.Random(f"{draw}/{prompt_fingerprint(prompt)}")
        try:
            text = kept.complete(prompt).text
        except errors.BackendError:
            text = '{"score": "yes"}' if kind in SCORED_KINDS else "Partly true. It is mixed. Source: A Trial, 2020"
        if rng.random() < 0.5:
            mutation = rng.choice(list(ANSWER_MUTATIONS))
            met.add((kind, mutation))
            text = ANSWER_MUTATIONS[mutation](text, rng)
        return 200, chat_payload(text)

    http_stub.default = answer
    terminal = {pipeline.TERMINAL_DONE, pipeline.TERMINAL_EXHAUSTED, pipeline.TERMINAL_ERROR}
    failures = []
    for seed in range(ANSWER_FUZZ_SEEDS):
        reports = []
        for mode in ("baseline", "lotr", "lotr-srag"):
            draw = f"{seed}/{mode}"
            out = tmp_path / f"{seed}-{mode}.json"
            code = run("--config", str(config_path), "check", "--article", str(bundle / "immune-boosters.md"),
                       "--mode", mode, "--out", str(out))
            if code not in (0, 1, 2):
                failures.append(f"seed {seed} check {mode}: exit {code!r}")
            if out.exists():
                reports.append(str(out))
                entries = json.loads(out.read_text(encoding="utf-8"))["entries"]
                failures += [
                    f"seed {seed} {mode} {e['claim']['id']}: {e['trace']['terminal_state']!r}"
                    for e in entries if e["trace"]["terminal_state"] not in terminal
                ]
        if reports:
            draw = f"{seed}/evaluate"
            code = run("--config", str(config_path), "evaluate", "--reports", *reports,
                       "--ground-truth", str(bundle / "ground_truth.jsonl"))
            if code not in (0, 1, 2):
                failures.append(f"seed {seed} evaluate: exit {code!r}")
    assert failures == []
    assert met == {(t.name, m) for t in PROMPT_KINDS for m in ANSWER_MUTATIONS}


def test_module_entry_point(bundle):
    result = subprocess.run(
        [sys.executable, "-m", "claimcheck.cli", "--config", str(bundle / "config.yaml"), "ingest"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert "accepted: 12" in result.stdout


def test_console_script_help():
    result = subprocess.run(
        [sys.executable, "-m", "claimcheck.cli", "--help"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    for command in ("ingest", "build-index", "check", "evaluate"):
        assert command in result.stdout


def test_import_loads_only_runtime_dependencies():
    # scipy is only a test oracle and the kernels are numpy: neither package may load
    probe = (
        "import sys, claimcheck, claimcheck.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numba')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
