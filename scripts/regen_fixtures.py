#!/usr/bin/env python3
"""Regenerate the offline fixture bundle.

Runs the real pipeline against rule-driven backends that compute a
response for every prompt they see, each behind a ``ChatMemo`` that
keeps the answers.  The kept answers become ``mock_responses.jsonl``;
the resulting reports, comparison tables, and rendered prompts become
the golden files under ``fixtures/golden/``.

Run from the repository root:

    python3 scripts/regen_fixtures.py
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from claimcheck import corpus, evaluation, prompts, service  # noqa: E402
from claimcheck.agents import ChatMemo, RawAnswer, prompt_fingerprint  # noqa: E402
from claimcheck.config import MODES, ROLES, load_config  # noqa: E402
from claimcheck.embedding import cosine_similarity  # noqa: E402
from claimcheck.pipeline import FactCheckPipeline, render_report  # noqa: E402

FIXTURES = ROOT / "fixtures"
GOLDEN = FIXTURES / "golden"

C1 = "Taking 10,000 IU of vitamin D every day prevents COVID-19 infection."
C2 = "Vitamin D deficiency is common in adults during winter months."
C3 = "Zinc lozenges shorten the duration of common cold symptoms."
C4 = "Drinking hot lemon water kills coronavirus particles in the throat."
C5 = "Because garlic extract blocks viral replication in laboratory cultures, eating garlic daily protects against respiratory infections."
C6 = "Elderberry syrup is as effective as prescription antivirals for treating influenza."
C7 = "Medieval monks brewed elderberry tonics to ward off the plague."
C8 = "High-dose vitamin C infusions have been studied in hospitalized patients with sepsis."
CLAIMS = [C1, C2, C3, C4, C5, C6, C7, C8]

C5_R1 = "Garlic extract blocks viral replication in laboratory cultures, and eating garlic daily protects against respiratory infections."
C7_R1 = "Historical records show that medieval monks brewed elderberry tonics to ward off the plague."
C7_R2 = "Medieval monastic communities used elderberry preparations as a protective tonic against plague."
REWRITES = {C5: C5_R1, C7: C7_R1, C7_R1: C7_R2}

# which knowledge-base record settles each claim; empty set means none does
RELEVANCE = {
    C1: {"kb01"},
    C2: {"kb02"},
    C3: {"kb03"},
    C4: {"kb04"},
    C5: {"kb05"},
    C5_R1: {"kb05"},
    C6: {"kb06"},
    C7: set(),
    C7_R1: set(),
    C7_R2: set(),
    C8: {"kb07"},
}

KB05_TITLE = "Allicin Concentrations Required for Antiviral Activity In Vitro Versus Dietary Exposure"

VAGUE_GARLIC = (
    "Misleading. The laboratory findings on garlic are hard to interpret "
    "and their everyday dietary implications are unclear."
)

GROUNDED_GARLIC = (
    "Misleading. Garlic compounds do block viral replication in cell cultures, but only "
    "near 90 micromolar, about 180-fold higher than the sub-micromolar levels reached "
    "after eating raw garlic, and no trial shows fewer respiratory infections from daily "
    "garlic, so the laboratory result does not support the dietary claim. "
    "Source: Allicin Concentrations Required for Antiviral Activity In Vitro Versus "
    "Dietary Exposure, S. Brandt et al., 2021-06-30"
)

ANSWERS = {
    C1: (
        "False. A randomized placebo-controlled trial gave 2414 adults 10,000 IU of "
        "vitamin D daily for six months and found no reduction in laboratory-confirmed "
        "COVID-19 infection compared with placebo, so daily vitamin D does not prevent "
        "COVID-19. Source: Daily High-Dose Vitamin D Supplementation and Incidence of "
        "Acute Respiratory Infection: A Randomized Placebo-Controlled Trial, "
        "R. Maisonet et al., 2021-02-09"
    ),
    C2: (
        "True. Population measurements across seasons found 25-hydroxyvitamin D below "
        "50 nmol per liter in 41 percent of adults during winter versus 18 percent in "
        "summer, so winter vitamin D deficiency is indeed common in adults. "
        "Source: Seasonal Prevalence of Vitamin D Deficiency in Community-Dwelling "
        "Adults, P. Ellingsen and M. Duarte, 2019-11-22"
    ),
    C3: (
        "Partly true. Pooled randomized trials show zinc lozenges shorten colds by "
        "about 1.1 days on average, but the benefit is uneven, concentrated in "
        "high-dose zinc acetate formulations, so the claim holds only with caveats "
        "about dose and product. Source: Zinc Lozenges and the Duration of Common Cold "
        "Symptoms: A Meta-Analysis of Randomized Trials, H. Okonkwo et al., 2020-01-14"
    ),
    C4: (
        "False. Coronaviruses in beverages stayed infectious after 10 minutes at "
        "temperatures up to 55 degrees Celsius, hotter than anyone can drink, and a "
        "swallowed sip passes the throat in under two seconds, so hot lemon water "
        "cannot kill coronavirus particles in the throat. Source: Thermal Stability of "
        "Human Coronaviruses in Simulated Beverage Conditions, T. Vasquez and L. Chen, "
        "2020-08-03"
    ),
    C5_R1: GROUNDED_GARLIC,
    C6: (
        "Partly false. In a randomized comparison elderberry extract shortened "
        "influenza symptoms by 0.8 days versus placebo while oseltamivir shortened "
        "them by 2.1 days, so elderberry has some effect but is clearly not as "
        "effective as prescription antivirals. Source: Elderberry Extract Versus "
        "Oseltamivir for Uncomplicated Influenza: A Randomized Comparison, "
        "K. Yarrow et al., 2018-12-05"
    ),
    C7: (
        "Unverifiable. The retrieved studies concern modern elderberry trials and say "
        "nothing about medieval monastic practice, so this historical claim cannot be "
        "checked against the corpus. I don't know whether the story is true."
    ),
    C8: (
        "True. A randomized pilot study gave 6 grams of intravenous vitamin C daily to "
        "68 adults with sepsis in intensive care, which is precisely the kind of study "
        "the claim describes. Source: Intravenous High-Dose Ascorbic Acid in Adults "
        "with Sepsis: A Randomized Pilot Study, F. Almeida and G. Svensson, 2022-04-19"
    ),
}

BASELINE_ANSWERS = {
    C1: (
        "False. The article itself admits nobody has run a trial for this claim, and "
        "established dosing guidance does not treat megadose vitamin D as prevention."
    ),
    C2: (
        "True. The article concedes this point in passing and it matches common "
        "clinical experience. Source: the article's own account of winter blood tests"
    ),
    C3: (
        "Partly true. There is real evidence behind zinc lozenges though the article "
        "skips every caveat. Source: the label fine print discussion in the article"
    ),
    C4: (
        "False. A sip of hot liquid cannot disinfect the airway, as the article's own "
        "kettle anecdote accidentally illustrates. Source: the kettle demonstration "
        "described in the article"
    ),
    C5: (
        "Misleading. The article moves from a petri dish to a dinner plate without any "
        "human evidence. Source: the article's description of the garlic study"
    ),
    C6: (
        "Partly false. The pamphlet quote overstates elderberry; syrup and prescription "
        "antivirals are not interchangeable. Source: the market stall pamphlet quoted "
        "in the article"
    ),
    C7: "I don't know.",
    C8: (
        "True. The article is right that such infusions have been studied, whatever "
        "the pamphlet concludes from it. Source: the trial registry reference in the "
        "article"
    ),
}


class RuleBackend:
    """Computes each response by rule, with word counts for its tokens."""

    def __init__(self, rule, model_id: str):
        self.rule = rule
        self.model_id = model_id

    def complete(self, prompt: str) -> RawAnswer:
        text = self.rule(prompt)
        return RawAnswer(text, prompt_fingerprint(prompt), self.model_id, len(prompt.split()), len(text.split()))


def _between(text: str, start: str, end: str) -> str:
    i = text.index(start) + len(start)
    j = text.index(end, i)
    return text[i:j]


def make_rules(records_by_id: dict):
    def kb_of_document(document: str) -> str | None:
        if not document.strip():
            return None
        for rid, rec in records_by_id.items():
            if document in rec.abstract or document in rec.title:
                return rid
        return None

    def generator_rule(prompt: str) -> str:
        if "Excerpt:\n" in prompt:
            excerpt = _between(prompt, "Excerpt:\n", "\n\nClaims:")
            listed = [c for c in CLAIMS if c in excerpt]
            return "\n".join(listed) if listed else "NONE"
        if "\nArticle: " in prompt:
            claim = _between(prompt, "\n\nClaim: ", "\nArticle: ")
            return BASELINE_ANSWERS[claim]
        claim = _between(prompt, "\n\nClaim: ", "\nContext: ")
        context = _between(prompt, "\nContext: ", "\nAnswer:")
        titles = set(re.findall(r"Title: (.*?)\. Authors:", context))
        if claim == C5:
            if titles == {KB05_TITLE}:
                return VAGUE_GARLIC
            return GROUNDED_GARLIC
        return ANSWERS[claim]

    def grader_rule(prompt: str) -> str:
        if "Here is the retrieved document: " in prompt:
            document = _between(
                prompt, "Here is the retrieved document: ", "\nHere is the user question: "
            )
            question = prompt.split("\nHere is the user question: ", 1)[1]
            rid = kb_of_document(document)
            relevant = rid is not None and rid in RELEVANCE[question]
            return '{"score": "yes"}' if relevant else '{"score": "no"}'
        answer = _between(prompt, "Here is the answer: ", "\nHere is the question: ")
        useful = "hard to interpret" not in answer
        return '{"score": "yes"}' if useful else '{"score": "no"}'

    def rewriter_rule(prompt: str) -> str:
        claim = _between(prompt, "\n\nClaim: ", "\nRewritten claim:")
        return REWRITES[claim]

    return generator_rule, grader_rule, rewriter_rule


def check_retrieval_coverage(config, retriever):
    r = config.retrieval
    print("retrieval coverage (min_similarity =", r.min_similarity, ")")
    for query, wanted in RELEVANCE.items():
        bundle = retriever.retrieve(query)
        got = {h.chunk_key.parent_id for h in bundle.hits}
        sims = {h.chunk_key.parent_id: round(h.similarity, 3) for h in bundle.hits}
        print(f"  {query[:52]!r:56} -> {sorted(got)} {sims}")
        missing = wanted - got
        assert not missing, f"intended evidence {missing} not retrieved for: {query}"
        assert bundle.hits, f"empty bundle for: {query}"
        if query == C5:
            titles = {str(h.metadata.get('title')) for h in bundle.hits}
            assert titles != {KB05_TITLE}, "full bundle for the garlic claim must be mixed"


def check_claim_separation(config, embedder):
    """Dedupe must drop only the duplicated overlap claim, and the rewritten
    garlic claim must still align with its ground-truth original."""
    vecs = embedder.embed(CLAIMS + [C5_R1, C7_R2])
    for i in range(len(CLAIMS)):
        for j in range(i + 1, len(CLAIMS)):
            sim = cosine_similarity(vecs[i], vecs[j])
            assert sim < 0.9, f"claims {i + 1} and {j + 1} too close: {sim:.3f}"
    sim_c5 = cosine_similarity(vecs[4], vecs[len(CLAIMS)])
    sim_c7 = cosine_similarity(vecs[6], vecs[len(CLAIMS) + 1])
    print(f"cos(C5, rewrite) = {sim_c5:.3f}  cos(C7, final rewrite) = {sim_c7:.3f}")
    assert sim_c5 >= config.evaluation.match_threshold, "garlic rewrite drifted too far"
    assert sim_c7 < config.evaluation.match_threshold, "plague rewrite should stay unmatched"


def make_pairwise_scores() -> dict:
    """Synthetic per-article score vectors with controlled means and paired
    t statistics (n = 50)."""
    n = 50
    idx = np.arange(n, dtype=np.float64)

    def standardized(pattern: np.ndarray) -> np.ndarray:
        z = pattern - pattern.mean()
        return z / z.std(ddof=1)

    def orthogonalized(pattern: np.ndarray, base: np.ndarray) -> np.ndarray:
        z = standardized(pattern)
        z = z - (z @ base) / (base @ base) * base
        return z / z.std(ddof=1)

    # semantic similarity: deltas +0.014 (*), -0.002 (n.s.), +0.012 (*)
    zs_base = standardized(np.sin(idx * 0.9 + 3.3))
    zs1 = standardized(np.cos(idx * 0.7 + 1.1))
    zs2 = orthogonalized(np.sin(idx * 1.3 + 3.3), zs1)
    sem_bl = 0.904 + 0.010 * zs_base
    sem_lotr = sem_bl + (0.014 + 0.03807 * zs1)
    sem_srag = sem_lotr + (-0.002 + 0.01411 * zs2)

    # consistency: deltas +0.233 (***), -0.061 (***), +0.172 (***)
    zc_base = standardized(np.cos(idx * 1.9 + 0.3))
    zc1 = standardized(np.sin(idx * 2.3 + 1.7))
    zc2 = orthogonalized(np.cos(idx * 0.8 + 0.3), zc1)
    con_bl = 0.2872 + 0.050 * zc_base
    con_lotr = con_bl + (0.2334 + 0.20632 * zc1)
    con_srag = con_lotr + (-0.0610 + 0.09585 * zc2)

    for name, vec in (
        ("sem_bl", sem_bl), ("sem_lotr", sem_lotr), ("sem_srag", sem_srag),
        ("con_bl", con_bl), ("con_lotr", con_lotr), ("con_srag", con_srag),
    ):
        assert vec.min() >= 0.0 and vec.max() <= 1.0, (name, vec.min(), vec.max())

    payload = {
        "article_ids": [f"a{i + 1:03d}" for i in range(n)],
        "systems": {
            "baseline": {
                "semantic_similarity": sem_bl.tolist(),
                "consistency": con_bl.tolist(),
            },
            "lotr": {
                "semantic_similarity": sem_lotr.tolist(),
                "consistency": con_lotr.tolist(),
            },
            "lotr_srag": {
                "semantic_similarity": sem_srag.tolist(),
                "consistency": con_srag.tolist(),
            },
        },
    }

    rows = evaluation.compare_systems(payload["systems"])
    deltas = [f"{r.delta:+.3f}" for r in rows]
    stars = [r.stars for r in rows]
    print("score-fixture deltas:", deltas)
    print("score-fixture stars: ", stars)
    print("score-fixture p(t):  ", [round(r.p_t, 5) for r in rows])
    assert deltas == ["+0.014", "+0.233", "-0.002", "-0.061", "+0.012", "+0.172"], deltas
    assert stars == ["*", "***", "n.s.", "***", "*", "***"], stars
    return payload


def write_golden_prompts():
    out = GOLDEN / "prompts"
    out.mkdir(parents=True, exist_ok=True)
    context = (
        "[1] Title: Hydration and Headache Frequency in Adults. "
        "Authors: Q. Reyes; V. Stone. (2020-05-11)\n"
        "Increased water intake reduced headache days modestly in a small trial."
    )
    rendered = {
        "generate_answer": prompts.GENERATE_ANSWER.render(
            question="Drinking more water cures chronic headaches.", context=context
        ),
        "grade_document": prompts.GRADE_DOCUMENT.render(
            document="Increased water intake reduced headache days modestly in a small trial.",
            question="Drinking more water cures chronic headaches.",
        ),
        "grade_answer": prompts.GRADE_ANSWER.render(
            generation="Partly true. Water intake helped modestly in one small trial.",
            question="Drinking more water cures chronic headaches.",
        ),
        "rewrite_claim": prompts.REWRITE_CLAIM.render(
            question="water cures headaches???"
        ),
    }
    for name, text in rendered.items():
        (out / f"{name}.txt").write_text(text, encoding="utf-8")
    print(f"wrote {len(rendered)} golden prompts")


def record(config, embedders, retriever, article, rules) -> tuple[dict, ChatMemo]:
    """The report of each mode, checked through one fresh memo per role over
    its rule, and one memo holding every answer those memos kept."""
    memos = {role: ChatMemo(RuleBackend(rule, f"scripted-{role}")) for role, rule in zip(ROLES, rules)}
    pipeline = FactCheckPipeline(config, service.build_agents(config, embedders, **memos), retriever)
    reports = {mode: pipeline.check_article(article, mode) for mode in MODES}
    answers = [answer for memo in memos.values() for answer in memo.answers()]
    kept = ChatMemo(None, answers)
    if len(kept.answers()) != len(answers):
        raise AssertionError("two roles were asked one prompt")
    return reports, kept


def main() -> None:
    config = load_config(FIXTURES / "config.yaml")
    records, rejected = corpus.ingest_corpus(config.corpus_path)
    assert not rejected, [r.reason for r in rejected]
    embedders = service.build_embedders(config)

    check_claim_separation(config, embedders[0])
    chunks = corpus.chunk_corpus(records, config.chunking.kb_chunk_size, config.chunking.kb_overlap)
    print(f"kb chunks: {len(chunks)} ({sorted({c.parent_id for c in chunks})})")
    indexes = list(service.build_indexes(config, chunks, embedders))
    retriever = service.build_retriever(config, embedders, indexes)
    check_retrieval_coverage(config, retriever)

    article = corpus.load_article(FIXTURES / "immune-boosters.md")
    rules = make_rules({r.id: r for r in records})
    reports, kept = record(config, embedders, retriever, article, rules)
    # a memo asks its rule once per prompt, so record again through fresh
    # memos: a rule that answers one prompt two ways, or a mode that is
    # not deterministic, fails here
    again, kept_again = record(config, embedders, retriever, article, rules)
    if kept.answers() != kept_again.answers():
        raise AssertionError("a rule answered one prompt two ways")
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for mode, report in reports.items():
        assert render_report(report) == render_report(again[mode]), f"{mode} not deterministic"
        path = GOLDEN / f"report_{mode}.json"
        path.write_text(render_report(report, fmt="json"), encoding="utf-8")
        labels = [e.label.value for e in report.entries]
        print(f"{mode}: {len(report.entries)} entries {labels}")
    (GOLDEN / "report_lotr_srag.md").write_text(
        render_report(reports["lotr_srag"], fmt="markdown"), encoding="utf-8"
    )

    srag_labels = [e.label.value for e in reports["lotr_srag"].entries]
    assert srag_labels == [
        "false", "true", "partly_true", "false", "misleading",
        "partly_false", "unverifiable", "true",
    ], srag_labels
    garlic = reports["lotr_srag"].entries[4]
    assert garlic.trace.regenerations_used == 1 and garlic.trace.rewrites_used == 1
    plague = reports["lotr_srag"].entries[6]
    assert plague.trace.terminal_state == "refinement_exhausted"
    assert plague.trace.retrieval_rounds == 3 and plague.trace.rewrites_used == 2
    base_first = reports["baseline"].entries[0]
    assert base_first.label.value == "unverifiable", "uncited baseline verdict must downgrade"

    mock_path = FIXTURES / "mock_responses.jsonl"
    kept.save(mock_path)
    print(f"recorded {len(kept.answers())} scripted responses -> {mock_path}")

    # evaluation golden over the three reports (one article, offline judges)
    gt = evaluation.load_ground_truth(FIXTURES / "ground_truth.jsonl")
    result = evaluation.evaluate_run(
        list(reports.values()),
        gt,
        embed=embedders[0].embed,
        statements_fn=evaluation.split_sentences,
        judge_fn=evaluation.lexical_judge,
        match_threshold=config.evaluation.match_threshold,
    )
    print("eval means:", json.dumps(result.means, indent=None, sort_keys=True))
    for w in result.warnings:
        print("  eval warning:", w)
    (GOLDEN / "comparison_reports.md").write_text(
        evaluation.render_comparison(result.comparisons, fmt="markdown"), encoding="utf-8"
    )

    payload = make_pairwise_scores()
    (FIXTURES / "pairwise_scores.json").write_text(
        json.dumps(payload, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
    )
    rows = evaluation.compare_systems(payload["systems"])
    (GOLDEN / "comparison_scores.md").write_text(
        evaluation.render_comparison(rows, fmt="markdown"), encoding="utf-8"
    )
    (GOLDEN / "comparison_scores.json").write_text(
        evaluation.render_comparison(rows, fmt="json"), encoding="utf-8"
    )

    write_golden_prompts()
    print("fixture bundle regenerated")


if __name__ == "__main__":
    main()
