"""Config parsing, validation, and the report-embedded snapshot."""

from __future__ import annotations

import re
from pathlib import Path

import pytest
import yaml

from claimcheck.config import (
    ChunkingConfig,
    EvaluationConfig,
    RefinementConfig,
    RetrievalConfig,
    RunConfig,
    config_from_dict,
    load_config,
)
from claimcheck.errors import ConfigError
from conftest import make_run_config


def minimal_dict(**overrides) -> dict:
    data = {
        "corpus_path": "corpus.jsonl",
        "index_dir": "indexes",
        "embedders": [
            {"model_id": "e-a", "dimension": 64, "endpoint": "deterministic", "seed": 1},
            {"model_id": "e-b", "dimension": 96, "endpoint": "deterministic", "seed": 2},
        ],
        "backends": {
            "generator": {"model_id": "g", "endpoint": "scripted"},
            "grader": {"model_id": "j", "endpoint": "scripted"},
            "rewriter": {"model_id": "r", "endpoint": "scripted"},
        },
    }
    data.update(overrides)
    return data


def test_fixture_config_loads(fixtures_dir: Path):
    config = load_config(fixtures_dir / "config.yaml")
    assert config.retrieval.k == 5
    assert config.retrieval.reorder == "ends"
    assert len(config.embedders) == 2
    # relative paths resolve against the config file's own directory
    assert Path(config.corpus_path).is_absolute()
    assert Path(config.corpus_path).parent == fixtures_dir.resolve()
    assert config.mock_fixtures is not None
    assert Path(config.mock_fixtures).exists()


def test_readme_production_example_loads(fixtures_dir: Path, tmp_path):
    readme = (fixtures_dir.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```yaml\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    config = config_from_dict(yaml.safe_load(blocks[0]), base_dir=tmp_path)
    assert config.evaluation.statement_source == "backend"
    assert config.evaluation.judge == "backend"
    assert config.grader.endpoint.startswith("https://")


def test_relative_paths_resolve_against_base_dir(tmp_path):
    config = config_from_dict(minimal_dict(), base_dir=tmp_path)
    assert config.corpus_path == str((tmp_path / "corpus.jsonl").resolve())
    assert config.index_dir == str((tmp_path / "indexes").resolve())


def test_absolute_paths_pass_through(tmp_path):
    data = minimal_dict(corpus_path="/data/c.jsonl", index_dir="/data/idx")
    config = config_from_dict(data, base_dir=tmp_path)
    assert config.corpus_path == "/data/c.jsonl"


def test_lambda_key_maps_to_python_name():
    data = minimal_dict(retrieval={"lambda": 0.25, "k": 3, "pool_size": 8})
    config = config_from_dict(data)
    assert config.retrieval.lambda_ == 0.25
    assert config.to_dict()["retrieval"]["lambda"] == 0.25


def test_snapshot_round_trips():
    original = config_from_dict(
        minimal_dict(
            retrieval={"lambda": 0.7, "k": 4, "pool_size": 9, "min_similarity": 0.5},
            refinement={"max_rewrites": 1, "min_relevant_fraction": 0.5},
            concurrency=2,
        )
    )
    assert config_from_dict(original.to_dict()) == original


def test_public_dict_drops_filesystem_paths(tmp_path):
    config = make_run_config(tmp_path, mock_fixtures=str(tmp_path / "mock.jsonl"))
    public = config.public_dict()
    for key in ("corpus_path", "index_dir", "mock_fixtures"):
        assert key not in public
    assert public["retrieval"]["k"] == 5
    assert public["refinement"]["min_relevant_fraction"] == 0.0


def test_missing_required_keys():
    for key in ("corpus_path", "index_dir", "embedders", "backends"):
        data = minimal_dict()
        del data[key]
        with pytest.raises(ConfigError, match=key):
            config_from_dict(data)


def test_backends_must_cover_all_roles():
    data = minimal_dict()
    del data["backends"]["rewriter"]
    with pytest.raises(ConfigError, match="rewriter"):
        config_from_dict(data)


def test_backend_unknown_keys_rejected():
    data = minimal_dict()
    data["backends"]["grader"]["api_key"] = "never inline secrets"
    with pytest.raises(ConfigError, match="unknown keys \\['api_key'\\]"):
        config_from_dict(data)


def test_exactly_two_embedders():
    data = minimal_dict()
    data["embedders"] = data["embedders"][:1]
    with pytest.raises(ConfigError, match="exactly two"):
        config_from_dict(data)
    data = minimal_dict()
    data["embedders"][1]["model_id"] = "e-a"
    with pytest.raises(ConfigError, match="distinct model ids"):
        config_from_dict(data)


@pytest.mark.parametrize(
    "section,values,message",
    [
        ("retrieval", {"lambda": 1.5}, "lambda"),
        ("retrieval", {"k": 0}, "0 < k"),
        ("retrieval", {"k": 10, "pool_size": 5}, "pool_size"),
        ("retrieval", {"reorder": "shuffle"}, "reorder"),
        ("chunking", {"article_chunk_size": 100, "article_overlap": 100}, "overlap"),
        ("chunking", {"kb_chunk_size": 0}, "overlap"),
        ("refinement", {"max_rewrites": -1}, "non-negative"),
        ("refinement", {"min_relevant_fraction": 1.5}, "min_relevant_fraction"),
        ("evaluation", {"match_threshold": 2.0}, "match_threshold"),
        ("evaluation", {"judge": "vibes"}, "judge"),
        ("evaluation", {"judge": "vibes"}, "got 'vibes'"),
        ("evaluation", {"statement_source": "oracle"}, "got 'oracle'"),
    ],
)
def test_section_validation(section, values, message):
    with pytest.raises(ConfigError, match=message):
        config_from_dict(minimal_dict(**{section: values}))


def within(data: dict, path: tuple):
    """The part of a config dict at ``path``; a missing section is made empty."""
    for step in path:
        data = data[step] if isinstance(data, list) else data.setdefault(step, {})
    return data


@pytest.mark.parametrize(
    "path,value,message",
    [
        (("retrieval", "min_similarity"), "high", "retrieval.min_similarity must be a number, got 'high'"),
        (("retrieval", "min_similarity"), True, "retrieval.min_similarity must be a number"),
        (("retrieval", "min_similarity"), 1.5, r"min_similarity must be within \[-1, 1\], got 1.5"),
        (("retrieval", "min_similarity"), -1.01, r"within \[-1, 1\]"),
        (("retrieval", "lambda"), None, "retrieval.lambda must be a number, got None"),
        (("chunking", "article_chunk_size"), 600.5, "chunking.article_chunk_size must be an integer"),
        (("retrieval", "k"), True, "retrieval.k must be an integer, got True"),
        (("retrieval", "pool_size"), 20.7, "retrieval.pool_size must be an integer"),
        (("refinement", "max_rewrites"), 1.5, "refinement.max_rewrites must be an integer"),
        (("refinement", "min_relevant_fraction"), "half", "refinement.min_relevant_fraction must be a number"),
        (("evaluation", "match_threshold"), "0.7", "evaluation.match_threshold must be a number"),
        (("concurrency",), True, "concurrency must be an integer, got True"),
        (("concurrency",), 4.0, "concurrency must be an integer"),
        (("embedders", 0, "dimension"), 64.0, r"embedders\[0\].dimension must be an integer"),
        (("embedders", 1, "seed"), False, r"embedders\[1\].seed must be an integer"),
        (("backends", "grader", "temperature"), True, "backends.grader.temperature must be a number"),
        (("backends", "generator", "max_output_tokens"), 51.2, "max_output_tokens must be an integer"),
        (("backends", "grader", "model_id"), None, "backends.grader.model_id must be a non-empty string, got None"),
        (("backends", "rewriter", "endpoint"), [], "backends.rewriter.endpoint must be a non-empty string"),
        (("backends", "generator", "api_key_env"), 5, "backends.generator.api_key_env must be a non-empty string"),
        (("embedders", 0, "model_id"), 5, r"embedders\[0\].model_id must be a non-empty string, got 5"),
        (("embedders", 1, "endpoint"), " ", r"embedders\[1\].endpoint must be a non-empty string"),
        (("embedders", 1, "api_key_env"), "", r"embedders\[1\].api_key_env must be a non-empty string"),
        (("corpus_path",), None, "corpus_path must be a non-empty string, got None"),
        (("index_dir",), True, "index_dir must be a non-empty string, got True"),
        (("mock_fixtures",), {}, "mock_fixtures must be a non-empty string"),
        (("retrieval",), [], r"retrieval must be a mapping, got \[\]"),
        (("chunking",), "", "chunking must be a mapping, got ''"),
        (("refinement",), False, "refinement must be a mapping, got False"),
        (("evaluation",), 0, "evaluation must be a mapping, got 0"),
        (("backends", "generator", "role"), "grader", "backends.generator.role must be 'generator', got 'grader'"),
        (("backends", "grader", "temperature"), float("nan"), "backends.grader.temperature must be a finite number, got nan"),
        (("backends", "rewriter", "temperature"), float("inf"), "backends.rewriter.temperature must be a finite number, got inf"),
        pytest.param(
            ("backends", "generator", "temperature"), 10**400, "backends.generator.temperature must be a finite number",
            id="backends.generator.temperature-10**400",
        ),
        (("backends", "grader", "max_output_tokens"), 0, "max_output_tokens must be >= 1, got 0"),
        (("backends", "grader", "max_output_tokens"), -5, "max_output_tokens must be >= 1, got -5"),
        # a value of the right kind but out of range names its key's path
        (("retrieval", "lambda"), 1.5, r"retrieval\.lambda must be within \[0, 1\], got 1.5"),
        (("retrieval", "min_similarity"), -1.5, r"retrieval\.min_similarity must be within \[-1, 1\], got -1.5"),
        (("refinement", "min_relevant_fraction"), 1.5, r"refinement\.min_relevant_fraction must be within \[0, 1\], got 1.5"),
        (("evaluation", "match_threshold"), -0.1, r"evaluation\.match_threshold must be within \[0, 1\], got -0.1"),
        (("backends", "grader", "temperature"), -0.5, r"backends\.grader\.temperature must be >= 0, got -0.5"),
        (("retrieval", "reorder"), "shuffle", r"^retrieval\.reorder must be 'ends' or 'none', got 'shuffle'$"),
        (("retrieval", "k"), 0, r"^retrieval\.k needs 0 < k <= pool_size, got k=0 pool_size=20$"),
        (("retrieval", "pool_size"), 3, r"^retrieval\.pool_size needs 0 < k <= pool_size, got k=5 pool_size=3$"),
        (("refinement", "max_rewrites"), -1, r"^refinement\.max_rewrites must be non-negative, got -1$"),
        (("refinement", "max_regenerations"), -2, r"^refinement\.max_regenerations must be non-negative, got -2$"),
        (
            ("chunking", "article_overlap"), 2000,
            r"^chunking\.article_overlap needs 0 <= overlap < article_chunk_size, "
            r"got article_chunk_size=2000 article_overlap=2000$",
        ),
        (
            ("chunking", "kb_overlap"), -1,
            r"^chunking\.kb_overlap needs 0 <= overlap < kb_chunk_size, got kb_chunk_size=400 kb_overlap=-1$",
        ),
        (
            ("chunking", "kb_chunk_size"), 0,
            r"^chunking\.kb_chunk_size needs 0 <= overlap < kb_chunk_size, got kb_chunk_size=0 kb_overlap=50$",
        ),
        (
            ("evaluation", "statement_source"), "oracle",
            r"^evaluation\.statement_source must be 'backend' or 'sentences', got 'oracle'$",
        ),
        (("evaluation", "judge"), "vibes", r"^evaluation\.judge must be 'backend' or 'lexical', got 'vibes'$"),
        (("concurrency",), 0, r"^concurrency must be >= 1, got 0$"),
        (("embedders", 0, "dimension"), 0, r"^embedders\[0\]\.dimension must be positive, got 0$"),
    ],
    ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None,
)
def test_numbers_of_the_wrong_kind_are_config_errors(path, value, message):
    data = minimal_dict()
    within(data, path[:-1])[path[-1]] = value
    with pytest.raises(ConfigError, match=message):
        config_from_dict(data)


def test_numbers_at_their_bounds_load():
    data = minimal_dict(
        retrieval={"min_similarity": -1, "lambda": 1, "k": 1, "pool_size": 1},
        backends={role: {"model_id": role, "endpoint": "scripted", "temperature": 1, "max_output_tokens": 1}
                  for role in ("generator", "grader", "rewriter")},
    )
    config = config_from_dict(data)
    assert (config.retrieval.min_similarity, config.retrieval.lambda_) == (-1, 1)
    assert config.grader.temperature == 1.0
    assert config.grader.max_output_tokens == 1
    data["retrieval"]["min_similarity"] = 1.0
    assert config_from_dict(data).retrieval.min_similarity == 1.0


@pytest.mark.parametrize(
    "where,key,message",
    [
        ((), "concurrncy", "config root: unknown keys ['concurrncy']"),
        (("embedders", 0), "sede", "embedders[0]: unknown keys ['sede']"),
        (("backends",), "judge", "unknown keys ['judge']"),
        (("chunking",), "kb_chunks", "chunking: unknown keys ['kb_chunks']"),
        (("evaluation",), "judge_model", "evaluation: unknown keys ['judge_model']"),
    ],
    ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None,
)
def test_unknown_keys_are_config_errors(where, key, message):
    data = minimal_dict()
    within(data, where)[key] = {"model_id": "x", "endpoint": "scripted"} if where == ("backends",) else 7
    with pytest.raises(ConfigError, match=re.escape(message)):
        config_from_dict(data)


def test_two_embedders_may_not_share_an_index_file():
    data = minimal_dict()
    data["embedders"][0]["model_id"] = "hash/384"
    data["embedders"][1]["model_id"] = "hash_384"
    with pytest.raises(ConfigError, match="'hash/384' and 'hash_384' would share the index file"):
        config_from_dict(data)


def test_load_config_names_the_file_in_every_error(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(minimal_dict(concurrncy=8)), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: config root: unknown keys"):
        load_config(path)


def test_concurrency_validation():
    with pytest.raises(ConfigError, match="concurrency"):
        config_from_dict(minimal_dict(concurrency=0))


def test_unknown_section_key_is_a_config_error(tmp_path):
    path = tmp_path / "run.yaml"
    data = minimal_dict(retrieval={"neighbours": 7})
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    # dataclass TypeError is translated instead of leaking
    with pytest.raises(ConfigError, match="neighbours"):
        load_config(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.yaml")


def test_load_config_invalid_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("corpus_path: [unclosed", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_config(path)


def test_load_config_empty_file(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ConfigError, match="empty"):
        load_config(path)


def test_defaults():
    assert ChunkingConfig() == ChunkingConfig(2000, 200, 400, 50)
    assert RetrievalConfig().min_similarity == 0.8
    assert RefinementConfig() == RefinementConfig(2, 1, 0.0)
    assert EvaluationConfig().match_threshold == 0.75
    config = config_from_dict(minimal_dict())
    assert config.concurrency == 4
    assert config.mock_fixtures is None


def test_run_config_type(tmp_path):
    assert isinstance(make_run_config(tmp_path), RunConfig)
