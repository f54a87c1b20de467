"""Set-up from a config: index names, shared embedders, injected backends."""

from __future__ import annotations

import json

from claimcheck import cli, service
from claimcheck.agents import prompt_fingerprint
from claimcheck.config import load_config
from conftest import QueueBackend, make_run_config


def test_index_path_replaces_runs_of_other_characters(tmp_path):
    config = make_run_config(tmp_path)
    path = service.index_path(config, "NeuML/pubmedbert-base-embeddings")
    assert path == tmp_path / "indexes" / "NeuML_pubmedbert-base-embeddings.idx"
    assert service.index_path(config, "a :/b").name == "a_b.idx"


def test_pipeline_shares_one_embedder_per_model(bundle, capsys):
    assert cli.main(["--config", str(bundle / "config.yaml"), "build-index"]) == 0
    pipeline = service.build_pipeline(load_config(bundle / "config.yaml"), "lotr_srag")
    legs = pipeline.retriever.legs
    # claim dedupe and leg 0 embed with one object; leg 1 has its own
    assert pipeline.agents.embedder is legs[0].embedder
    assert legs[1].embedder is not legs[0].embedder
    assert [leg.retriever_id for leg in legs] == ["hash-256", "hash-384"]


def test_loaded_legs_share_one_parse_of_their_directory_metadata(bundle, capsys):
    assert cli.main(["--config", str(bundle / "config.yaml"), "build-index"]) == 0
    a, b = service.load_indexes(load_config(bundle / "config.yaml"))
    assert (a.model_id, b.model_id) == ("hash-256", "hash-384")
    assert a._snapshot[0] is b._snapshot[0]
    assert a._snapshot[2] is b._snapshot[2]
    assert len(a) == len(b) == 12


def test_backends_passed_by_role_replace_the_configured_ones(tmp_path):
    config = make_run_config(tmp_path, mock_fixtures=str(tmp_path / "mock.jsonl"))
    line = {"fingerprint": prompt_fingerprint("p"), "prompt_tokens": 1, "completion_tokens": 1, "response": "r"}
    (tmp_path / "mock.jsonl").write_text(json.dumps(line) + "\n", encoding="utf-8")
    grader = QueueBackend([])
    embedders = service.build_embedders(config)
    agents = service.build_agents(config, embedders, grader=grader)
    assert agents.grader is grader
    assert agents.generator.complete("p").model_id == "gen"
    assert agents.embedder is embedders[0]
