"""Evaluation metrics, paired significance tests, and system comparison."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
import scipy.stats

from claimcheck.agents import Claim, VerdictLabel
from claimcheck.config import EmbedderSpec
from claimcheck.corpus import ChunkKey
from claimcheck.embedding import DETERMINISTIC_ENDPOINT, DeterministicEmbedder
from claimcheck.errors import (
    BackendError,
    DegenerateSampleError,
    ExtractionError,
    GradingError,
    ProtocolError,
    TransportError,
    ValidationError,
)
from claimcheck.evaluation import (
    ComparisonRow,
    ConsistencyScore,
    _greedy_match,
    _normal_two_sided_p,
    _rankdata,
    _t_two_sided_p,
    compare_systems,
    consistency,
    entry_response_text,
    evaluate_run,
    extract_statements,
    lexical_judge,
    load_ground_truth,
    nli_judge,
    paired_t_test,
    render_comparison,
    semantic_similarity,
    significance_stars,
    split_sentences,
    wilcoxon_signed_rank,
)
from claimcheck.pipeline import FactCheckEntry, Report, Source, SragTrace
from conftest import QueueBackend

YES = '{"score": "yes"}'
NO = '{"score": "no"}'


def hash_embed(texts):
    spec = EmbedderSpec(model_id="h", dimension=64, endpoint=DETERMINISTIC_ENDPOINT, seed=4)
    return DeterministicEmbedder(spec).embed(texts)


# -- semantic similarity ------------------------------------------------------


def test_semantic_similarity_identical_texts():
    assert semantic_similarity("zinc helps", "zinc helps", hash_embed) == pytest.approx(1.0, abs=1e-6)


def test_semantic_similarity_empty_conventions():
    assert semantic_similarity("", "", hash_embed) == 1.0
    assert semantic_similarity("  ", "\n", hash_embed) == 1.0
    assert semantic_similarity("text", "", hash_embed) == 0.0
    assert semantic_similarity("", "text", hash_embed) == 0.0


def test_semantic_similarity_clamps_negative_cosine():
    def opposing(texts):
        return [np.array([1.0, 0.0]), np.array([-1.0, 0.0])]

    assert semantic_similarity("a", "b", opposing) == 0.0


def test_semantic_similarity_in_unit_interval():
    pairs = [("zinc and colds", "colds and zinc"), ("apples", "thermodynamics lecture")]
    for answer, reference in pairs:
        value = semantic_similarity(answer, reference, hash_embed)
        assert 0.0 <= value <= 1.0


# -- statements and judges ----------------------------------------------------


def test_split_sentences():
    assert split_sentences("One. Two! Three? Four") == ["One.", "Two!", "Three?", "Four"]
    assert split_sentences("Line one\nline two.") == ["Line one", "line two."]
    assert split_sentences("") == []


def test_extract_statements_parses_lines():
    backend = QueueBackend(["- Zinc helps.\n- Rest helps."])
    assert extract_statements("text", backend) == ["Zinc helps.", "Rest helps."]


def test_extract_statements_none_and_empty():
    backend = QueueBackend(["NONE"])
    assert extract_statements("text", backend) == []
    untouched = QueueBackend([])
    assert extract_statements("   ", untouched) == []  # no backend call for empty text
    assert untouched.prompts == []


def test_extract_statements_retry_then_error():
    backend = QueueBackend(["- ", "Recovered statement."])
    assert extract_statements("text", backend) == ["Recovered statement."]
    backend = QueueBackend(["- ", "* "])
    with pytest.raises(ExtractionError, match="unparseable after retry"):
        extract_statements("text", backend)


def test_nli_judge():
    assert nli_judge("premise", "hypothesis", QueueBackend([YES])) is True
    assert nli_judge("premise", "hypothesis", QueueBackend([NO])) is False
    assert nli_judge("p", "h", QueueBackend(["??", YES])) is True
    with pytest.raises(GradingError):
        nli_judge("p", "h", QueueBackend(["??", "!!"]))


def test_lexical_judge():
    assert lexical_judge("Zinc, it seems, HELPS with colds.", "zinc it seems helps") is True
    assert lexical_judge("zinc helps", "garlic helps") is False
    assert lexical_judge("anything", "") is False
    assert lexical_judge("", "claim") is False


# -- consistency --------------------------------------------------------------


def test_consistency_f1_arithmetic():
    assert ConsistencyScore(tp=2, fp=0, fn=2).f1 == pytest.approx(2 / 3, abs=1e-9)
    assert ConsistencyScore(tp=0, fp=0, fn=0).f1 == 1.0
    assert ConsistencyScore(tp=0, fp=3, fn=0).f1 == 0.0
    assert ConsistencyScore(tp=3, fp=0, fn=0).f1 == 1.0


def test_consistency_identical_texts():
    text = "Zinc shortens colds. Vitamin D may help."
    score = consistency(text, text, split_sentences, lexical_judge)
    assert score.f1 == pytest.approx(1.0, abs=1e-6)


def test_consistency_counts_both_directions():
    answer = "Zinc shortens colds. The moon is cheese."
    reference = "Zinc shortens colds. Vitamin D may help. Sleep matters."
    score = consistency(answer, reference, split_sentences, lexical_judge)
    assert (score.tp, score.fp, score.fn) == (1, 1, 2)
    assert score.f1 == pytest.approx(2 * 1 / (2 * 1 + 1 + 2), abs=1e-9)


def test_consistency_vacuous_agreement():
    assert consistency("", "", split_sentences, lexical_judge).f1 == 1.0


def test_consistency_judge_failure_counts_as_unsupported():
    def flaky_judge(premise, hypothesis):
        raise GradingError("judge down")

    score = consistency("One claim.", "One claim.", split_sentences, flaky_judge)
    assert (score.tp, score.fp, score.fn) == (0, 1, 1)


def test_consistency_extraction_failure_treated_as_empty():
    def broken_statements(text):
        raise ExtractionError("no list")

    score = consistency("something", "something", broken_statements, lexical_judge)
    assert score.f1 == 1.0  # both sides collapse to no statements


@pytest.mark.parametrize("error", [BackendError, ProtocolError])
def test_consistency_counts_an_unusable_grader_answer_as_a_failure(error):
    # a blank or malformed answer reads as no statements, or as unsupported
    def statements(text):
        if text.startswith("B"):
            raise error("blank")
        return split_sentences(text)

    def judge(premise, hypothesis):
        raise error("blank")

    assert consistency("A claim.", "B claim.", statements, lexical_judge) == ConsistencyScore(0, 1, 0)
    assert consistency("One claim.", "One claim.", split_sentences, judge) == ConsistencyScore(0, 1, 1)


def test_consistency_notes_each_unusable_answer_in_failures():
    def statements(text):
        raise BackendError("blank")

    def judge(premise, hypothesis):
        raise ProtocolError("malformed")

    failures: list[str] = []
    assert consistency("A claim.", "B claim.", statements, lexical_judge, failures) == ConsistencyScore(0, 0, 0)
    assert consistency("One claim.", "One claim.", split_sentences, judge, failures) == ConsistencyScore(0, 1, 1)
    assert failures == [
        "statement extraction failed, treated as empty: blank",
        "statement extraction failed, treated as empty: blank",
        "judge failed, treated as unsupported: malformed",
        "judge failed, treated as unsupported: malformed",
    ]


def test_consistency_transport_error_ends_the_run():
    def unreachable(*args):
        raise TransportError("grader unreachable after retries")

    with pytest.raises(TransportError):
        consistency("One claim.", "One claim.", unreachable, lexical_judge)
    with pytest.raises(TransportError):
        consistency("One claim.", "One claim.", split_sentences, unreachable)


# -- paired t-test ------------------------------------------------------------


def test_paired_t_known_case():
    result = paired_t_test([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    assert result.statistic == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)
    assert round(result.statistic, 4) == 3.4641
    assert result.pvalue == pytest.approx(0.0742, abs=5e-5)
    assert result.n == 3
    assert result.method == "paired-t df=2"


def test_paired_t_matches_scipy():
    rng = np.random.default_rng(11)
    for n in (2, 5, 30):
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        ours = paired_t_test(a, b)
        ref = scipy.stats.ttest_rel(a, b)
        assert ours.statistic == pytest.approx(ref.statistic, abs=1e-10)
        assert ours.pvalue == pytest.approx(ref.pvalue, abs=1e-10)


def test_t_p_value_matches_closed_forms():
    # exact for df = 1 and 2; scipy itself drifts ~1e-9 relative at these extremes
    for exponent in range(-8, 7):
        t = 10.0**exponent
        s = math.sqrt(2.0 + t * t)
        closed_forms = {1: (2.0 / math.pi) * math.atan(1.0 / t), 2: 2.0 / (s * (s + t))}
        for df, expected in closed_forms.items():
            for signed in (t, -t):
                got = _t_two_sided_p(signed, df)
                assert got == pytest.approx(expected, rel=1e-12, abs=0.0), (signed, df)


def test_t_p_value_limits():
    assert _t_two_sided_p(0.0, 3) == 1.0
    assert _t_two_sided_p(1e200, 3) == 0.0  # t * t overflows to inf


def test_normal_p_value_at_the_five_percent_point():
    for z in (1.959963984540054, -1.959963984540054):
        assert _normal_two_sided_p(z) == pytest.approx(0.05, rel=0.0, abs=1e-15)
    assert _normal_two_sided_p(0.0) == 1.0


def test_paired_t_sign_convention():
    # statistic is positive when the first sample is larger
    assert paired_t_test([2.0, 3.0, 5.0], [1.0, 1.0, 1.0]).statistic > 0
    assert paired_t_test([1.0, 1.0, 1.0], [2.0, 3.0, 5.0]).statistic < 0


def test_paired_t_degenerate():
    with pytest.raises(DegenerateSampleError, match="at least 2"):
        paired_t_test([1.0], [0.0])
    with pytest.raises(DegenerateSampleError, match="zero variance"):
        paired_t_test([1.0, 2.0, 3.0], [0.0, 1.0, 2.0])


def test_paired_validation():
    with pytest.raises(ValidationError, match="equal-length"):
        paired_t_test([1.0, 2.0], [1.0])
    with pytest.raises(ValidationError, match="finite"):
        paired_t_test([1.0, float("nan")], [0.0, 0.0])
    with pytest.raises(ValidationError, match="finite"):
        wilcoxon_signed_rank([1.0, float("inf")], [0.0, 0.0])


# -- wilcoxon -----------------------------------------------------------------


def brute_force_wilcoxon_p(diffs: np.ndarray) -> tuple[float, float]:
    """Exact two-sided p by enumerating every sign assignment."""
    d = diffs[diffs != 0.0]
    ranks = _rankdata(np.abs(d))
    w_obs = float(min(ranks[d > 0].sum(), ranks[d < 0].sum()))
    # P(W+ <= w_obs) over all sign assignments; W+ is symmetric about its mean
    low = sum(
        1
        for signs in itertools.product((0.0, 1.0), repeat=d.size)
        if np.dot(ranks, signs) <= w_obs + 1e-12
    )
    return w_obs, min(1.0, 2.0 * low / 2.0**d.size)


def test_wilcoxon_known_case():
    result = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5)
    assert result.statistic == 0.0
    assert result.pvalue == 0.0625  # 2 * 1/32, exactly representable
    assert result.n == 5
    assert result.method == "exact"


def test_wilcoxon_drops_zero_differences():
    result = wilcoxon_signed_rank([1.0, 2.0, 5.0], [1.0, 0.0, 1.0])
    assert result.n == 2
    with pytest.raises(DegenerateSampleError, match="all paired differences are zero"):
        wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])


def test_wilcoxon_exact_matches_scipy_when_tie_free():
    rng = np.random.default_rng(5)
    for n in (4, 7, 12):
        d = rng.normal(size=n)
        d = d[d != 0.0]
        ours = wilcoxon_signed_rank(d, np.zeros_like(d))
        ref = scipy.stats.wilcoxon(d, alternative="two-sided", method="exact")
        assert ours.statistic == pytest.approx(ref.statistic, abs=1e-12)
        assert ours.pvalue == pytest.approx(ref.pvalue, abs=1e-12)


def test_wilcoxon_exact_with_ties_matches_brute_force():
    # midranks: scipy's exact mode refuses ties, so check against enumeration
    diffs = np.array([0.5, -0.5, 1.0, 1.0, 2.0, -1.0])
    ours = wilcoxon_signed_rank(diffs, np.zeros_like(diffs))
    w_ref, p_ref = brute_force_wilcoxon_p(diffs)
    assert ours.method == "exact"
    assert ours.statistic == pytest.approx(w_ref, abs=1e-12)
    assert ours.pvalue == pytest.approx(p_ref, abs=1e-12)


def test_wilcoxon_normal_approximation_beyond_limit():
    rng = np.random.default_rng(9)
    d = rng.normal(loc=0.3, size=40)
    d = d[d != 0.0]
    ours = wilcoxon_signed_rank(d, np.zeros_like(d))
    assert ours.method == "normal-approx"
    ref = scipy.stats.wilcoxon(d, alternative="two-sided", method="approx", correction=False)
    assert ours.pvalue == pytest.approx(ref.pvalue, abs=1e-10)


def test_rankdata_midranks():
    ranks = _rankdata(np.array([10.0, 20.0, 20.0, 30.0]))
    assert list(ranks) == [1.0, 2.5, 2.5, 4.0]
    ranks = _rankdata(np.array([3.0, 1.0, 2.0]))
    assert list(ranks) == [3.0, 1.0, 2.0]
    ranks = _rankdata(np.array([5.0, 5.0, 5.0]))
    assert list(ranks) == [2.0, 2.0, 2.0]


# -- stars and comparison table -----------------------------------------------


def test_significance_stars_boundaries():
    assert significance_stars(0.0009) == "***"
    assert significance_stars(0.001) == "**"
    assert significance_stars(0.009) == "**"
    assert significance_stars(0.01) == "*"
    assert significance_stars(0.049) == "*"
    assert significance_stars(0.05) == "n.s."
    assert significance_stars(0.9) == "n.s."
    assert significance_stars(None) == "n.s."


def scores_for(n: int, base: float, lift: float, spread: float = 0.05):
    rng = np.random.default_rng(17)
    noise = rng.normal(scale=spread, size=n)
    a = np.clip(base + noise, 0, 1)
    b = np.clip(a + lift + rng.normal(scale=spread / 2, size=n), 0, 1)
    return list(a), list(b)


def test_compare_systems_ordering_and_delta():
    a_sem, b_sem = scores_for(12, 0.7, 0.08)
    per_article = {
        "lotr_srag": {"semantic_similarity": b_sem, "consistency": b_sem},
        "baseline": {"semantic_similarity": a_sem, "consistency": a_sem},
        "lotr": {"semantic_similarity": a_sem, "consistency": b_sem},
    }
    rows = compare_systems(per_article)
    assert [(r.system_a, r.system_b) for r in rows[::2]] == [
        ("baseline", "lotr"),
        ("lotr", "lotr_srag"),
        ("baseline", "lotr_srag"),
    ]
    assert [r.metric for r in rows[:2]] == ["semantic_similarity", "consistency"]
    srag_row = next(r for r in rows if r.system_b == "lotr_srag" and r.system_a == "baseline")
    assert srag_row.delta == pytest.approx(srag_row.mean_b - srag_row.mean_a, abs=1e-12)
    assert srag_row.delta > 0
    assert srag_row.n == 12
    assert srag_row.stars == significance_stars(srag_row.p_t)


def test_compare_systems_includes_unknown_systems_after_known():
    a, b = scores_for(6, 0.6, 0.05)
    per_article = {
        "baseline": {"semantic_similarity": a, "consistency": a},
        "mystery": {"semantic_similarity": b, "consistency": b},
    }
    rows = compare_systems(per_article)
    assert {(r.system_a, r.system_b) for r in rows} == {("baseline", "mystery")}


def test_compare_systems_degenerate_sample_blanks_tests():
    per_article = {
        "baseline": {"semantic_similarity": [0.5, 0.5], "consistency": [0.5, 0.5]},
        "lotr": {"semantic_similarity": [0.5, 0.5], "consistency": [0.6, 0.6]},
    }
    rows = compare_systems(per_article)
    sem = next(r for r in rows if r.metric == "semantic_similarity")
    assert sem.t_statistic is None and sem.p_t is None
    assert sem.w_statistic is None and sem.p_w is None
    assert sem.stars == "n.s."
    cons = next(r for r in rows if r.metric == "consistency")
    assert cons.delta == pytest.approx(0.1)
    assert cons.t_statistic is None  # zero-variance differences
    assert cons.w_statistic == 0.0  # but signed ranks still defined


def test_compare_systems_length_mismatch():
    per_article = {
        "baseline": {"semantic_similarity": [0.5], "consistency": [0.5]},
        "lotr": {"semantic_similarity": [0.5, 0.6], "consistency": [0.5, 0.6]},
    }
    with pytest.raises(ValidationError, match="differ in length"):
        compare_systems(per_article)


def test_compare_systems_single_system():
    assert compare_systems({"baseline": {"semantic_similarity": [0.5], "consistency": [1.0]}}) == []


def sample_rows() -> list[ComparisonRow]:
    return [
        ComparisonRow(
            system_a="baseline",
            system_b="lotr",
            metric="semantic_similarity",
            mean_a=0.904,
            mean_b=0.918,
            delta=0.014,
            t_statistic=2.6,
            p_t=0.0123,
            w_statistic=310.0,
            p_w=0.02,
            n=50,
            stars="*",
        ),
        ComparisonRow(
            system_a="baseline",
            system_b="lotr",
            metric="consistency",
            mean_a=0.287,
            mean_b=0.521,
            delta=0.2339,
            t_statistic=None,
            p_t=None,
            w_statistic=None,
            p_w=None,
            n=50,
            stars="n.s.",
        ),
    ]


def test_render_comparison_markdown():
    text = render_comparison(sample_rows(), fmt="markdown")
    lines = text.splitlines()
    assert lines[0].startswith("| Comparison | Metric | Model A Score | Model B Score |")
    assert (
        "| Baseline vs. SAFE (LOTR-RAG) | Semantic Similarity "
        "| 0.904 | 0.918 | +0.014 | 0.0123 | 0.0200 | * |"
    ) in lines
    assert "| Baseline vs. SAFE (LOTR-RAG) | Consistency | 0.287 | 0.521 | +0.234 | - | - | n.s. |" in lines
    assert lines[-1] == "Significance: *** p < .001, ** p < .01, * p < .05 (paired t-test)."


def test_render_comparison_json_round_trips():
    import json

    payload = json.loads(render_comparison(sample_rows(), fmt="json"))
    assert payload["comparisons"][0]["delta"] == 0.014
    assert payload["comparisons"][1]["p_t"] is None
    assert payload["comparisons"][0]["significance"] == "*"


def test_render_comparison_unknown_format():
    with pytest.raises(ValidationError, match="unknown comparison format"):
        render_comparison([], fmt="csv")


# -- ground truth and run evaluation ------------------------------------------


def write_ground_truth(path, rows):
    import json

    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def gt_row(article_id="a1", claim="Zinc shortens colds.", label="partly true", ref="Partly true. It does."):
    return {
        "article_id": article_id,
        "claim": claim,
        "label": label,
        "reference_response": ref,
    }


def test_load_ground_truth_keeps_labels_as_given(tmp_path):
    path = tmp_path / "gt.jsonl"
    write_ground_truth(
        path,
        [
            gt_row(label="Partly True"),
            gt_row(article_id="a2", label="PARTLY-FALSE"),
            gt_row(article_id="a3", label="half true"),
        ],
    )
    entries = load_ground_truth(path)
    assert [e.label for e in entries] == ["Partly True", "PARTLY-FALSE", "half true"]


def test_load_ground_truth_errors(tmp_path):
    with pytest.raises(ValidationError, match="not found"):
        load_ground_truth(tmp_path / "absent.jsonl")
    path = tmp_path / "gt.jsonl"
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="bad ground-truth line 1"):
        load_ground_truth(path)
    write_ground_truth(path, [{"article_id": "a1", "claim": "c", "label": "true"}])
    with pytest.raises(ValidationError, match="line 1"):
        load_ground_truth(path)
    write_ground_truth(path, [gt_row(claim="  ")])
    with pytest.raises(ValidationError, match="line 1: claim must be a non-empty string, got '  '"):
        load_ground_truth(path)
    # a null or a number is refused, not read as the text 'None' or '5'
    write_ground_truth(path, [gt_row(), gt_row(ref=None)])
    with pytest.raises(ValidationError, match="line 2: reference_response must be a non-empty string, got None"):
        load_ground_truth(path)
    write_ground_truth(path, [gt_row(claim=5)])
    with pytest.raises(ValidationError, match="line 1: claim must be a non-empty string, got 5"):
        load_ground_truth(path)
    write_ground_truth(path, [gt_row()])
    path.write_bytes(path.read_bytes() + b'{"claim": "\xff"}\n')
    with pytest.raises(ValidationError, match="bad ground-truth line 2: 'utf-8' codec can't decode byte 0xff"):
        load_ground_truth(path)
    path.write_text("\n\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="no entries"):
        load_ground_truth(path)


def test_entry_response_text():
    entry = make_entry(
        "Zinc helps.",
        "partly_true",
        "It helps a bit.",
        sources=(Source("T1", "A. One", "2020-01-01"), Source("T2")),
    )
    assert entry_response_text(entry) == (
        "Partly true. It helps a bit. Source: T1, A. One, 2020-01-01; T2"
    )
    assert entry_response_text(make_entry("Zinc helps.", "true", "")) == "True."


def test_greedy_match_is_one_to_one():
    vectors = {
        "g0": np.array([1.0, 0.0]),
        "g1": np.array([0.9, 0.1]),
        "p0": np.array([1.0, 0.05]),
        "p1": np.array([0.0, 1.0]),
    }

    def embed(texts):
        return [vectors[t] for t in texts]

    matched = _greedy_match(["g0", "g1"], ["p0", "p1"], embed, threshold=0.75)
    assert matched == {0: 0, 1: 1} or matched == {0: 0}
    # p0 is the best match for both; only the closer ground-truth claim gets it
    assert matched[0] == 0


def make_report(mode, article_id, entries):
    return Report(article_id=article_id, mode=mode, config={}, token_usage={}, warnings=[], entries=entries)


def make_entry(claim_text, label, explanation, sources=()):
    return FactCheckEntry(
        claim=Claim(id="a:c1", text=claim_text, source_chunk=ChunkKey("a", 0)),
        label=VerdictLabel(label),
        explanation=explanation,
        sources=sources,
        evidence_keys=(),
        trace=SragTrace(),
    )


GT_ROWS = [
    gt_row(article_id="a1", claim="Zinc shortens colds.", ref="Partly true. Zinc shortens colds modestly."),
    gt_row(article_id="a2", claim="Garlic prevents flu.", label="false", ref="False. Garlic does not prevent flu."),
]


def matching_entry(article: str):
    if article == "a1":
        return make_entry("Zinc shortens colds.", "partly_true", "Zinc shortens colds modestly.")
    return make_entry("Garlic prevents flu.", "false", "Garlic does not prevent flu.")


def test_evaluate_run_scores_and_warnings(tmp_path):
    gt_path = tmp_path / "gt.jsonl"
    write_ground_truth(gt_path, GT_ROWS)
    ground_truth = load_ground_truth(gt_path)
    reports = [
        make_report("lotr", "a1", [matching_entry("a1")]),
        make_report("lotr", "a2", [matching_entry("a2")]),
        make_report("baseline", "a1", [matching_entry("a1")]),
        make_report("baseline", "a2", [make_entry("Weather patterns over the Atlantic.", "true", "Unrelated.")]),
    ]
    result = evaluate_run(reports, ground_truth, hash_embed, split_sentences, lexical_judge)
    assert result.article_ids == ["a1", "a2"]
    # responses reproduce the references exactly, so matched scores are 1.0
    assert result.per_article["lotr"]["semantic_similarity"] == pytest.approx([1.0, 1.0], abs=1e-6)
    assert result.per_article["lotr"]["consistency"] == pytest.approx([1.0, 1.0], abs=1e-6)
    assert result.per_article["baseline"]["semantic_similarity"] == pytest.approx([1.0, 0.0], abs=1e-6)
    assert result.means["baseline"]["consistency"] == pytest.approx(0.5, abs=1e-6)
    assert result.means["lotr"]["semantic_similarity"] == pytest.approx(1.0, abs=1e-6)
    assert len(result.warnings) == 1
    assert "baseline/a2" in result.warnings[0] and "unmatched" in result.warnings[0]
    assert result.comparisons
    assert {(r.system_a, r.system_b) for r in result.comparisons} == {("baseline", "lotr")}


def test_evaluate_run_counts_unusable_grader_answers(tmp_path):
    gt_path = tmp_path / "gt.jsonl"
    write_ground_truth(gt_path, GT_ROWS)
    reports = [
        make_report(mode, article, [matching_entry(article)])
        for mode in ("baseline", "lotr")
        for article in ("a1", "a2")
    ]

    def statements(text):
        raise BackendError("scripted backend has no response")

    result = evaluate_run(reports, load_ground_truth(gt_path), hash_embed, statements, lexical_judge)
    # every listing failed: each pair reads as vacuous agreement, and says so
    assert result.per_article["lotr"]["consistency"] == [1.0, 1.0]
    assert result.grader_failures == 8
    assert len(result.warnings) == 8
    assert result.warnings[0] == (
        "baseline/a1: ground-truth claim 1: statement extraction failed, "
        "treated as empty: scripted backend has no response"
    )


def test_evaluate_run_validates_article_coverage(tmp_path):
    gt_path = tmp_path / "gt.jsonl"
    write_ground_truth(gt_path, GT_ROWS)
    ground_truth = load_ground_truth(gt_path)
    with pytest.raises(ValidationError, match="missing articles: a2"):
        evaluate_run(
            [make_report("lotr", "a1", [])],
            ground_truth,
            hash_embed,
            split_sentences,
            lexical_judge,
        )
    with pytest.raises(ValidationError, match="without ground truth: a9"):
        evaluate_run(
            [
                make_report("lotr", "a1", []),
                make_report("lotr", "a2", []),
                make_report("lotr", "a9", []),
            ],
            ground_truth,
            hash_embed,
            split_sentences,
            lexical_judge,
        )


def test_evaluate_run_rejects_duplicates_and_empties(tmp_path):
    gt_path = tmp_path / "gt.jsonl"
    write_ground_truth(gt_path, GT_ROWS)
    ground_truth = load_ground_truth(gt_path)
    with pytest.raises(ValidationError, match="duplicate report"):
        evaluate_run(
            [make_report("lotr", "a1", []), make_report("lotr", "a1", [])],
            ground_truth,
            hash_embed,
            split_sentences,
            lexical_judge,
        )
    with pytest.raises(ValidationError, match="no reports"):
        evaluate_run([], ground_truth, hash_embed, split_sentences, lexical_judge)
    with pytest.raises(ValidationError, match="ground truth is empty"):
        evaluate_run([], [], hash_embed, split_sentences, lexical_judge)
