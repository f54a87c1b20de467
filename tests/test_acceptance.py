"""Whole-system acceptance checks.

Each test pits a component against an independent reference: brute-force
oracles for the numeric kernels and statistics, an explicitly coded
state machine for the refinement loop, bulk randomized invariants for
chunking and evidence handling, and byte-level golden comparisons for
the end-to-end CLI run and the prompt templates.
"""

from __future__ import annotations

import itertools
import json
import re
import shutil
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from claimcheck import cli, prompts
from claimcheck.agents import Claim, FactCheckAgents, RawAnswer, VerdictLabel
from claimcheck.config import EmbedderSpec, RefinementConfig
from claimcheck.corpus import ChunkKey, chunk_text
from claimcheck.embedding import DETERMINISTIC_ENDPOINT, DeterministicEmbedder
from claimcheck.evaluation import (
    ConsistencyScore,
    compare_systems,
    consistency,
    lexical_judge,
    paired_t_test,
    render_comparison,
    semantic_similarity,
    significance_stars,
    split_sentences,
    wilcoxon_signed_rank,
)
from claimcheck.kernels import mmr_greedy, topk_scan
from claimcheck.lotr import EvidenceBundle, dedupe, long_context_reorder
from claimcheck.pipeline import (
    TERMINAL_DONE,
    TERMINAL_EXHAUSTED,
    FactCheckPipeline,
)
from claimcheck.vecindex import Hit
from conftest import QueueBackend, make_run_config

RNG_SEED = 20260814


# -- 1. chunker: fixed spans plus bulk randomized invariants -------------------


def test_chunker_fixed_window_spans():
    text = " ".join(f"t{i}" for i in range(4500))
    spans = [c.token_span for c in chunk_text("a", text, 2000, 200)]
    assert spans == [(0, 2000), (1800, 3800), (3600, 4500)]


def test_chunker_randomized_invariants():
    started = time.monotonic()
    rng = np.random.default_rng(RNG_SEED)
    words = np.array([f"w{i}" for i in range(40)])
    for trial in range(500):
        n_tokens = int(rng.integers(0, 10001))
        text = " ".join(words[rng.integers(0, words.size, size=n_tokens)])
        size = int(rng.integers(50, 2501))
        overlap = int(rng.integers(0, size))
        chunks = chunk_text("doc", text, size, overlap)
        tokens = list(re.finditer(r"\w+|[^\w\s]", text))
        total = len(tokens)
        if total == 0:
            assert chunks == []
            continue
        assert chunks, f"trial {trial}: no chunks for {total} tokens"
        assert [c.seq for c in chunks] == list(range(len(chunks)))
        assert chunks[0].token_span[0] == 0
        assert chunks[-1].token_span[1] == total
        for prev, nxt in zip(chunks, chunks[1:]):
            assert nxt.token_span[0] == prev.token_span[1] - overlap
        for c in chunks[:-1]:
            assert c.token_span[1] - c.token_span[0] == size
        last_start, last_end = chunks[-1].token_span
        assert 0 < last_end - last_start <= size
        if total <= size:
            assert len(chunks) == 1
        # text windows are literal slices of the source
        for c in (chunks[0], chunks[-1], chunks[len(chunks) // 2]):
            start, end = c.token_span
            assert c.text == text[tokens[start].start() : tokens[end - 1].end()]
    assert time.monotonic() - started < 10.0


# -- 2. MMR selection against a brute-force oracle -----------------------------


def mmr_oracle(cand_sims: np.ndarray, pairwise: np.ndarray, lam: float, k: int) -> list[int]:
    """Step-by-step greedy reference: recompute every score, first max wins."""
    selected: list[int] = []
    remaining = list(range(cand_sims.size))
    for _ in range(min(k, cand_sims.size)):
        best_i = None
        best_score = None
        for i in remaining:
            redundancy = max((pairwise[j, i] for j in selected), default=0.0)
            score = lam * cand_sims[i] - (1.0 - lam) * redundancy
            if best_score is None or score > best_score:
                best_i, best_score = i, score
        selected.append(best_i)
        remaining.remove(best_i)
    return selected


def topk_oracle(sims: np.ndarray, k: int, min_sim: float) -> list[int]:
    eligible = [i for i in range(sims.size) if sims[i] >= min_sim]
    eligible.sort(key=lambda i: (-sims[i], i))
    return eligible[:k]


def test_mmr_matches_brute_force_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(RNG_SEED + 1)
    lambdas = (0.0, 0.25, 0.5, 0.75, 1.0)
    for trial in range(200):
        n = int(rng.integers(1, 11))
        cand_sims = np.round(rng.uniform(-0.2, 1.0, size=n), 2)  # coarse grid plants ties
        base = np.round(rng.uniform(0.0, 1.0, size=(n, n)), 2)
        pairwise = (base + base.T) / 2.0
        np.fill_diagonal(pairwise, 1.0)
        if n >= 2 and trial % 2 == 0:
            # exact duplicate candidate: ties in relevance and redundancy
            dup = int(rng.integers(1, n))
            cand_sims[dup] = cand_sims[0]
            pairwise[dup, :] = pairwise[0, :]
            pairwise[:, dup] = pairwise[:, 0]
            pairwise[dup, dup] = 1.0
            pairwise[0, dup] = pairwise[dup, 0] = 1.0
        k = int(rng.integers(1, n + 1))
        for lam in lambdas:
            expected = mmr_oracle(cand_sims, pairwise, lam, k)
            got = list(mmr_greedy(cand_sims, pairwise, lam, k))
            assert got == expected, (
                f"trial {trial} lam={lam} k={k}: {got} != {expected}\n"
                f"sims={cand_sims}\npairwise=\n{pairwise}"
            )
        # pure relevance must degrade to plain top-k ordering
        relevance_order = list(mmr_greedy(cand_sims, pairwise, 1.0, k))
        assert relevance_order == topk_oracle(cand_sims, k, -np.inf)
    assert time.monotonic() - started < 30.0


def test_topk_scan_matches_oracle():
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(100):
        n, d = int(rng.integers(0, 40)), 8
        matrix = rng.normal(size=(n, d))
        if n >= 3:
            matrix[1] = matrix[0]  # planted exact tie
        query = rng.normal(size=d)
        k = int(rng.integers(1, 12))
        min_sim = float(rng.uniform(-2.0, 2.0))
        sims = matrix @ query if n else np.empty(0)
        expected = topk_oracle(sims, k, min_sim)
        idx, vals = topk_scan(matrix, query, k, min_sim)
        assert list(idx) == expected
        # reduction order may differ from BLAS by one ulp
        assert np.allclose(vals, sims[expected], rtol=0.0, atol=1e-9)


# -- 3. evidence list handling in bulk -----------------------------------------


def evidence_hit(parent: str, seq: int, sim: float) -> Hit:
    return Hit(chunk_key=ChunkKey(parent, seq), similarity=sim, metadata={})


def test_dedupe_and_reorder_bulk_properties():
    started = time.monotonic()
    rng = np.random.default_rng(RNG_SEED + 3)
    fixed = [evidence_hit(f"d{i}", 0, 0.5) for i in range(1, 6)]
    assert [h.chunk_key.parent_id for h in long_context_reorder(fixed)] == [
        "d1",
        "d3",
        "d5",
        "d4",
        "d2",
    ]
    for _ in range(1000):
        n = int(rng.integers(0, 13))
        hits = [
            evidence_hit(f"p{int(rng.integers(0, 6))}", int(rng.integers(0, 3)), float(np.round(rng.uniform(), 3)))
            for _ in range(n)
        ]
        once = dedupe(hits)
        assert dedupe(once) == once  # idempotent
        keys = [h.chunk_key for h in once]
        assert len(keys) == len(set(keys))
        assert set(keys) == {h.chunk_key for h in hits}
        for kept in once:
            assert kept is next(h for h in hits if h.chunk_key == kept.chunk_key)  # first occurrence
        reordered = long_context_reorder(once)
        assert sorted(h.chunk_key for h in reordered) == sorted(keys)  # permutation
        if len(once) >= 2:
            assert reordered[0] == once[0]
            assert reordered[-1] == once[1]
    assert time.monotonic() - started < 5.0


# -- 4. refinement loop versus an explicit state machine -----------------------


@dataclass
class RefinementExpectation:
    rounds: int = 0
    rewrites: int = 0
    regens: int = 0
    doc_grades: list[list[bool]] = field(default_factory=list)
    answer_grades: list[bool] = field(default_factory=list)
    generations: int = 0
    terminal: str = TERMINAL_DONE
    answered: bool = True
    consumed: int = 0
    last_kept: list[int] = field(default_factory=list)


def simulate_refinement(bits: tuple[int, ...], docs: int, rewrites: int, regens: int):
    """Reference simulator for the grade/rewrite/regenerate loop.

    One claim; every round retrieves ``docs`` documents and grades each;
    a round with no relevant document spends a rewrite or exhausts; a
    generated answer graded not-useful spends a regeneration first, then
    a rewrite; budgets are per claim.
    """
    exp = RefinementExpectation()
    i = 0

    def take() -> bool:
        nonlocal i
        bit = bool(bits[i])
        i += 1
        return bit

    while True:
        exp.rounds += 1
        grades = [take() for _ in range(docs)]
        exp.doc_grades.append(grades)
        if not any(grades):
            if exp.rewrites < rewrites:
                exp.rewrites += 1
                continue
            exp.terminal = TERMINAL_EXHAUSTED
            exp.answered = False
            break
        exp.last_kept = [idx for idx, ok in enumerate(grades) if ok]
        answered = False
        while True:
            exp.generations += 1
            useful = take()
            exp.answer_grades.append(useful)
            if useful:
                answered = True
                break
            if exp.regens < regens:
                exp.regens += 1
                continue
            break
        if answered:
            exp.terminal = TERMINAL_DONE
            break
        if exp.rewrites < rewrites:
            exp.rewrites += 1
            continue
        exp.terminal = TERMINAL_EXHAUSTED
        exp.answered = True
        break
    exp.consumed = i
    return exp


class BitGrader:
    """Serves yes/no score objects from a bit string, in consumption order.

    The document grades of one round arrive concurrently and in any order,
    so document i of a round takes the round's i-th bit, as the simulator
    consumes them.
    """

    def __init__(self, bits, docs: int):
        self.bits = list(bits)
        self.docs = docs
        self.served = 0
        self._round_start = 0
        self._round_left = 0
        self._lock = threading.Lock()

    def complete(self, prompt: str) -> RawAnswer:
        doc = re.search(r"evidence body (\d+)\n", prompt)
        with self._lock:
            if doc is None:  # an answer grade: the round's document grades are all in
                at = self.served
            else:
                if self._round_left == 0:
                    self._round_start, self._round_left = self.served, self.docs
                self._round_left -= 1
                at = self._round_start + int(doc.group(1))
            bit = self.bits[at]
            self.served += 1
        text = '{"score": "yes"}' if bit else '{"score": "no"}'
        return RawAnswer(text=text, prompt_fingerprint="-", model_id="bits")


class RepeatRetriever:
    legs = ()  # no embedders of its own to wait on

    def __init__(self, hits):
        self.hits = tuple(hits)
        self.calls = 0

    def retrieve(self, text: str, queries=None) -> EvidenceBundle:
        self.calls += 1
        return EvidenceBundle(hits=self.hits)


def refinement_hits(docs: int) -> list[Hit]:
    return [
        Hit(
            chunk_key=ChunkKey(f"d{i}", 0),
            similarity=0.9 - 0.01 * i,
            metadata={
                "text": f"evidence body {i}",
                "title": f"Study D{i}",
                "authors": f"A. Author{i}",
                "published_date": "2021-01-01",
            },
        )
        for i in range(docs)
    ]


def run_refinement(bits, docs: int, max_rewrites: int, max_regenerations: int):
    config = make_run_config(
        Path("/nonexistent"),
        refinement=RefinementConfig(max_rewrites=max_rewrites, max_regenerations=max_regenerations),
    )
    generator = QueueBackend(["True. Supported. Source: Study D0"] * 8)
    grader = BitGrader(bits, docs)
    rewriter = QueueBackend([f"rewrite number {n}" for n in (1, 2)])
    spec = EmbedderSpec(model_id="h", dimension=16, endpoint=DETERMINISTIC_ENDPOINT, seed=3)
    agents = FactCheckAgents(generator, grader, rewriter, DeterministicEmbedder(spec))
    retriever = RepeatRetriever(refinement_hits(docs))
    pipeline = FactCheckPipeline(config, agents, retriever)
    claim = Claim(id="a:c1", text="the original claim", source_chunk=ChunkKey("a", 0))
    entry = pipeline.verify_claim_srag(claim)
    return entry, generator, grader, rewriter, retriever


def test_refinement_loop_matches_state_machine():
    started = time.monotonic()
    cases: dict[tuple, RefinementExpectation] = {}
    for max_rewrites, max_regens, docs in itertools.product((0, 1, 2), (0, 1), (1, 2)):
        max_bits = (max_rewrites + 1) * (docs + 1) + max_regens
        for bits in itertools.product((0, 1), repeat=max_bits):
            exp = simulate_refinement(bits, docs, max_rewrites, max_regens)
            key = (max_rewrites, max_regens, docs, bits[: exp.consumed])
            cases.setdefault(key, exp)

    for (max_rewrites, max_regens, docs, bits), exp in cases.items():
        entry, generator, grader, rewriter, retriever = run_refinement(
            bits, docs, max_rewrites, max_regens
        )
        trace = entry.trace
        label = f"R={max_rewrites} G={max_regens} D={docs} bits={bits}"
        assert trace.retrieval_rounds == exp.rounds == retriever.calls, label
        assert trace.rewrites_used == exp.rewrites == len(rewriter.prompts), label
        assert trace.regenerations_used == exp.regens, label
        assert trace.doc_grades == exp.doc_grades, label
        assert trace.answer_grades == exp.answer_grades, label
        assert trace.terminal_state == exp.terminal, label
        assert len(generator.prompts) == exp.generations, label
        assert grader.served == exp.consumed, label
        expected_id = "a:c1" if exp.rewrites == 0 else f"a:c1.r{exp.rewrites}"
        assert entry.claim.id == expected_id, label
        if exp.answered:
            assert entry.label is VerdictLabel.TRUE, label
            assert entry.sources[0].title == f"Study D{min(exp.last_kept)}", label
            assert entry.evidence_keys == tuple(
                ChunkKey(f"d{i}", 0) for i in exp.last_kept
            ), label
        else:
            assert entry.label is VerdictLabel.UNVERIFIABLE, label
            assert entry.sources == (), label
            assert entry.evidence_keys == (), label
            assert (
                entry.explanation
                == "No retrieved evidence was graded relevant within the refinement budget."
            ), label
        if exp.terminal == TERMINAL_EXHAUSTED and exp.answered:
            assert "refinement budget exhausted; reporting the last answer" in trace.notes, label
    assert len(cases) > 100  # the enumeration is not degenerate
    assert time.monotonic() - started < 5.0


def test_always_relevant_reduces_to_single_pass():
    # one retrieved document, every grade yes: the loop must collapse to
    # retrieve -> grade -> generate -> grade with exactly two grading calls
    entry, generator, grader, rewriter, retriever = run_refinement((1, 1), docs=1, max_rewrites=2, max_regenerations=1)
    assert grader.served == 2
    assert retriever.calls == 1
    assert len(generator.prompts) == 1
    assert rewriter.prompts == []
    assert entry.trace.terminal_state == TERMINAL_DONE

    # and the generation prompt is byte-identical to the plain
    # retrieve-then-generate flow over the same evidence
    config = make_run_config(Path("/nonexistent"))
    plain_gen = QueueBackend(["True. Supported. Source: Study D0"])
    spec = EmbedderSpec(model_id="h", dimension=16, endpoint=DETERMINISTIC_ENDPOINT, seed=3)
    agents = FactCheckAgents(plain_gen, QueueBackend([]), QueueBackend([]), DeterministicEmbedder(spec))
    pipeline = FactCheckPipeline(config, agents, RepeatRetriever(refinement_hits(1)))
    plain_entry = pipeline.verify_claim_lotr(
        Claim(id="a:c1", text="the original claim", source_chunk=ChunkKey("a", 0))
    )
    assert plain_gen.prompts == generator.prompts
    assert plain_entry.label is entry.label
    assert plain_entry.sources == entry.sources
    assert plain_entry.evidence_keys == entry.evidence_keys


def test_always_relevant_grading_calls_scale_with_pool():
    for docs in (2, 3):
        bits = (1,) * (docs + 1)
        _, _, grader, _, _ = run_refinement(bits, docs=docs, max_rewrites=2, max_regenerations=1)
        assert grader.served == docs + 1


# -- 5. significance tests against reference oracles ---------------------------


def brute_force_wilcoxon(diffs: np.ndarray) -> tuple[float, float]:
    d = diffs[diffs != 0.0]
    magnitudes = np.abs(d)
    order = np.argsort(magnitudes, kind="stable")
    ranks = np.empty(d.size)
    i = 0
    while i < d.size:
        j = i
        while j + 1 < d.size and magnitudes[order[j + 1]] == magnitudes[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    w_obs = float(min(ranks[d > 0].sum(), ranks[d < 0].sum()))
    low = sum(
        1
        for signs in itertools.product((0.0, 1.0), repeat=d.size)
        if float(np.dot(ranks, signs)) <= w_obs + 1e-12
    )
    return w_obs, min(1.0, 2.0 * low / 2.0**d.size)


def test_fixed_statistics_cases():
    t_res = paired_t_test([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    assert round(t_res.statistic, 4) == 3.4641
    assert t_res.pvalue == pytest.approx(0.0742, abs=5e-5)
    w_res = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5)
    assert w_res.statistic == 0.0
    assert w_res.pvalue == 0.0625


def test_statistics_match_reference_oracles():
    rng = np.random.default_rng(RNG_SEED + 5)
    checked = 0

    for _ in range(40):  # paired t against scipy
        n = int(rng.integers(2, 61))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        ours = paired_t_test(a, b)
        ref = scipy.stats.ttest_rel(a, b)
        assert abs(ours.statistic - float(ref.statistic)) < 1e-9
        assert abs(ours.pvalue - float(ref.pvalue)) < 1e-6
        checked += 1

    for _ in range(25):  # tie-free exact wilcoxon against scipy
        n = int(rng.integers(2, 26))
        d = rng.normal(size=n)
        ours = wilcoxon_signed_rank(d, np.zeros(n))
        ref = scipy.stats.wilcoxon(d, alternative="two-sided", method="exact")
        assert abs(ours.statistic - float(ref.statistic)) < 1e-9
        assert abs(ours.pvalue - float(ref.pvalue)) < 1e-6
        checked += 1

    for _ in range(20):  # tied and zero-laden small samples against enumeration
        n = int(rng.integers(4, 13))
        d = rng.choice([-3.0, -2.0, -1.0, 0.0, 0.5, 0.5, 1.0, 2.0, 3.0], size=n)
        if not np.any(d):
            d[0] = 1.0
        ours = wilcoxon_signed_rank(d, np.zeros(n))
        w_ref, p_ref = brute_force_wilcoxon(d)
        assert ours.method == "exact"
        assert abs(ours.statistic - w_ref) < 1e-12
        assert abs(ours.pvalue - p_ref) < 1e-6
        checked += 1

    for _ in range(15):  # large samples with ties against the scipy normal approximation
        n = int(rng.integers(26, 61))
        d = np.round(rng.normal(loc=0.2, scale=1.0, size=n), 1)
        d[d == 0.0] = 0.3
        ours = wilcoxon_signed_rank(d, np.zeros(n))
        assert ours.method == "normal-approx"
        ref = scipy.stats.wilcoxon(d, alternative="two-sided", method="approx", correction=False)
        assert abs(ours.statistic - float(ref.statistic)) < 1e-9
        assert abs(ours.pvalue - float(ref.pvalue)) < 1e-6
        checked += 1

    assert checked == 100


# -- 6. metric conventions ------------------------------------------------------


def test_consistency_and_similarity_conventions():
    assert ConsistencyScore(tp=2, fp=0, fn=2).f1 == pytest.approx(0.6667, abs=5e-5)

    text = "Zinc shortens colds. Vitamin D is common in winter. Sleep helps recovery."
    assert consistency(text, text, split_sentences, lexical_judge).f1 == pytest.approx(
        1.0, abs=1e-6
    )

    def embed(texts):
        spec = EmbedderSpec(model_id="h", dimension=48, endpoint=DETERMINISTIC_ENDPOINT, seed=6)
        return DeterministicEmbedder(spec).embed(texts)

    assert semantic_similarity(text, text, embed) == pytest.approx(1.0, abs=1e-6)

    def opposing(texts):
        return [np.array([1.0, 0.0]), np.array([-0.6, 0.8])]

    assert semantic_similarity("a", "b", opposing) == 0.0  # negative cosine clamps to zero
    rng = np.random.default_rng(RNG_SEED + 6)
    words = ["zinc", "cold", "sleep", "virus", "trial", "dose"]
    for _ in range(50):
        a = " ".join(rng.choice(words, size=5))
        b = " ".join(rng.choice(words, size=5))
        assert 0.0 <= semantic_similarity(a, b, embed) <= 1.0


# -- 7. comparison table over the committed score vectors ----------------------


def table_rows(markdown: str) -> list[list[str]]:
    rows = []
    for line in markdown.splitlines():
        if line.startswith("|") and "---" not in line and "Comparison" not in line:
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_comparison_table_reproduces_expected_deltas(fixtures_dir):
    payload = json.loads((fixtures_dir / "pairwise_scores.json").read_text(encoding="utf-8"))
    per_article = {
        system: {metric: [float(x) for x in xs] for metric, xs in metrics.items()}
        for system, metrics in payload["systems"].items()
    }
    comparison_rows = compare_systems(per_article)
    rows = table_rows(render_comparison(comparison_rows, fmt="markdown"))
    assert len(rows) == 6

    assert [r[4] for r in rows] == ["+0.014", "+0.233", "-0.002", "-0.061", "+0.012", "+0.172"]
    assert rows[0][2] == "0.904" and rows[0][3] == "0.918"  # semantic similarity means
    assert rows[1][2] == "0.287" and rows[1][3] == "0.521"  # consistency means

    # stars must agree with an independently computed paired t-test
    pair_order = [("baseline", "lotr"), ("lotr", "lotr_srag"), ("baseline", "lotr_srag")]
    for row_index, row in enumerate(rows):
        sys_a, sys_b = pair_order[row_index // 2]
        metric = "semantic_similarity" if row_index % 2 == 0 else "consistency"
        ref_p = float(
            scipy.stats.ttest_rel(per_article[sys_b][metric], per_article[sys_a][metric]).pvalue
        )
        assert row[7] == significance_stars(ref_p), row


# -- 8. end-to-end reproducibility, offline -------------------------------------


def test_cli_check_run_is_reproducible_offline(bundle, capsys, monkeypatch):
    started = time.monotonic()

    def deny(*args, **kwargs):
        raise AssertionError("network access attempted during an offline run")

    monkeypatch.setattr(socket.socket, "connect", deny)
    monkeypatch.setattr(socket, "create_connection", deny)

    config = str(bundle / "config.yaml")
    assert cli.main(["--config", config, "build-index"]) == 0
    outputs = []
    for run in range(3):
        out = bundle / f"run{run}.json"
        code = cli.main(
            [
                "--config", config,
                "check",
                "--article", str(bundle / "immune-boosters.md"),
                "--mode", "lotr-srag",
                "--out", str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1] == outputs[2]
    golden = (bundle / "golden" / "report_lotr_srag.json").read_bytes()
    assert outputs[0] == golden
    assert time.monotonic() - started < 30.0


# -- 9. prompt templates are frozen byte for byte --------------------------------


def test_prompt_templates_match_goldens(fixtures_dir):
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
        "rewrite_claim": prompts.REWRITE_CLAIM.render(question="water cures headaches???"),
    }
    for name, text in rendered.items():
        golden = (fixtures_dir / "golden" / "prompts" / f"{name}.txt").read_text(encoding="utf-8")
        assert text == golden, f"template {name} drifted from its golden rendering"
