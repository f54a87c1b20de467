"""Evaluation harness: per-claim metrics, paired significance tests, and
system-versus-system comparison tables.

Two metrics are computed per ground-truth claim: semantic similarity
(embedding cosine clamped to [0, 1]) between the produced response and
the reference response, and statement-level consistency, the F1 over
entailed statements in both directions.  Per-article means feed paired
significance tests; significance stars come from the t-test p-value.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import prompts
from .agents import LlmBackend, list_with_retry, score_with_retry
from .config import FreeText, plain, read_json_lines
from .embedding import cosine_similarity
from .pipeline import Report, entry_response_text
from .errors import (
    BackendError,
    DegenerateSampleError,
    ExtractionError,
    GradingError,
    ProtocolError,
    ValidationError,
)

logger = logging.getLogger(__name__)

METRICS = ("semantic_similarity", "consistency")
METRIC_DISPLAY = {
    "semantic_similarity": "Semantic Similarity",
    "consistency": "Consistency",
}
SYSTEM_DISPLAY = {
    "baseline": "Baseline",
    "lotr": "SAFE (LOTR-RAG)",
    "lotr_srag": "SAFE (LOTR-RAG + SRAG)",
}
# comparison blocks mirror the reporting convention: baseline vs lotr,
# lotr vs lotr_srag, baseline vs lotr_srag
PREFERRED_PAIRS = (("baseline", "lotr"), ("lotr", "lotr_srag"), ("baseline", "lotr_srag"))

WILCOXON_EXACT_LIMIT = 25
DEFAULT_MATCH_THRESHOLD = 0.75


# -- per-pair metrics --------------------------------------------------------


def semantic_similarity(answer: str, reference: str, embed: Callable[[list[str]], np.ndarray]) -> float:
    """Embedding cosine between answer and reference, clamped to [0, 1]."""
    a_empty = not answer.strip()
    r_empty = not reference.strip()
    if a_empty and r_empty:
        return 1.0
    if a_empty or r_empty:
        return 0.0
    va, vr = embed([answer, reference])
    return max(0.0, min(1.0, cosine_similarity(va, vr)))


_SENTENCE_RE = re.compile(r"[^.!?\n]+[.!?]*")


def split_sentences(text: str) -> list[str]:
    """Cheap deterministic sentence splitter for offline evaluation."""
    return [s.strip() for s in _SENTENCE_RE.findall(text) if s.strip()]


def extract_statements(text: str, backend: LlmBackend) -> list[str]:
    """Atomic factual statements listed by the backend; empty text costs no call."""
    if not text.strip():
        return []
    lines = list_with_retry(backend, prompts.EXTRACT_STATEMENTS.render(text=text))
    if lines is None:
        raise ExtractionError("statement listing unparseable after retry")
    return lines


def nli_judge(premise: str, hypothesis: str, backend: LlmBackend) -> bool:
    """Does the premise support the hypothesis?  Same score parsing as grading."""
    prompt = prompts.NLI_JUDGE.render(premise=premise, hypothesis=hypothesis)
    return score_with_retry(backend, prompt, "judge")


def _normalize_lexical(text: str) -> str:
    return " ".join(re.sub(r"[^\w\s]", " ", text.lower()).split())


def lexical_judge(premise: str, hypothesis: str) -> bool:
    """Offline entailment proxy: normalized substring containment."""
    premise_n = _normalize_lexical(premise)
    hypothesis_n = _normalize_lexical(hypothesis)
    return bool(hypothesis_n) and hypothesis_n in premise_n


@dataclass(frozen=True)
class ConsistencyScore:
    tp: int
    fp: int
    fn: int

    @property
    def f1(self) -> float:
        if self.tp == 0 and self.fp == 0 and self.fn == 0:
            return 1.0  # nothing claimed on either side: vacuous agreement
        denom = 2 * self.tp + self.fp + self.fn
        return (2 * self.tp / denom) if denom else 0.0


def consistency(
    answer: str,
    reference: str,
    statements_fn: Callable[[str], list[str]],
    judge_fn: Callable[[str, str], bool],
    failures: list[str] | None = None,
) -> ConsistencyScore:
    """Bidirectional statement entailment F1.

    TP: answer statements the reference supports; FP: answer statements
    it does not; FN: reference statements the answer does not support.
    An unusable answer (blank, malformed or unparseable) counts as no
    statements or as unsupported rather than aborting the run, with a
    note appended to ``failures`` (logged when none is given); a
    ``TransportError`` still aborts.
    """

    def failed(note: str) -> None:
        if failures is None:
            logger.warning("%s", note)
        else:
            failures.append(note)

    def statements(text: str) -> list[str]:
        if not text.strip():
            return []
        try:
            return statements_fn(text)
        except (ExtractionError, BackendError, ProtocolError) as exc:
            failed(f"statement extraction failed, treated as empty: {exc}")
            return []

    def supported(premise: str, hypothesis: str) -> bool:
        try:
            return judge_fn(premise, hypothesis)
        except (GradingError, BackendError, ProtocolError) as exc:
            failed(f"judge failed, treated as unsupported: {exc}")
            return False

    answer_statements = statements(answer)
    reference_statements = statements(reference)
    tp = sum(1 for s in answer_statements if supported(reference, s))
    fp = len(answer_statements) - tp
    fn = sum(1 for s in reference_statements if not supported(answer, s))
    return ConsistencyScore(tp=tp, fp=fp, fn=fn)


# -- paired significance tests ----------------------------------------------


@dataclass(frozen=True)
class TestResult:
    statistic: float
    pvalue: float
    n: int
    method: str


def _paired_arrays(a: Sequence[float], b: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.ndim != 1 or vb.ndim != 1 or va.shape != vb.shape:
        raise ValidationError(f"paired samples must be equal-length 1-D, got {va.shape} and {vb.shape}")
    if not (np.all(np.isfinite(va)) and np.all(np.isfinite(vb))):
        raise ValidationError("paired samples must be finite")
    return va, vb


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b), with ``y`` = 1 - x given exactly.

    Taking the complement from the caller rather than forming ``1 - x``
    keeps full relative precision when x is within rounding of 1.
    """
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log(y)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, y) / b


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for I_x(a, b), evaluated by the modified Lentz method."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h


def _t_two_sided_p(t: float, df: int) -> float:
    """Two-sided p-value of Student's t: I_x(df/2, 1/2) with x = df/(df + t^2)."""
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    if math.isinf(t2):
        return 0.0
    return _betainc(df / 2.0, 0.5, df / (df + t2), t2 / (df + t2))


def _normal_two_sided_p(z: float) -> float:
    """Two-sided p-value of a standard normal statistic."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> TestResult:
    """Two-sided paired t-test on a - b."""
    va, vb = _paired_arrays(a, b)
    n = va.size
    if n < 2:
        raise DegenerateSampleError(f"paired t-test needs at least 2 pairs, got {n}")
    d = va - vb
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise DegenerateSampleError("paired differences have zero variance")
    t = float(d.mean()) / (sd / math.sqrt(n))
    p = _t_two_sided_p(t, n - 1)
    return TestResult(statistic=t, pvalue=p, n=n, method=f"paired-t df={n - 1}")


def _rankdata(values: np.ndarray) -> np.ndarray:
    """Midranks of ``values`` (average rank across ties)."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _wilcoxon_exact_p(w: float, ranks: np.ndarray) -> float:
    """Two-sided exact p, conditioning on the observed (mid)ranks.

    Enumerates the 2^n sign assignments by dynamic programming over the
    doubled ranks (midranks are multiples of one half, so doubling makes
    them integers).
    """
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: total + 1 - r]
        counts = counts + shifted
    probabilities = counts / counts.sum()
    observed = int(round(2.0 * w))
    return min(1.0, 2.0 * float(probabilities[: observed + 1].sum()))


def wilcoxon_signed_rank(a: Sequence[float], b: Sequence[float]) -> TestResult:
    """Two-sided Wilcoxon signed-rank test on a - b.

    Zero differences are dropped, ties get midranks, and the statistic is
    ``min(W+, W-)``.  Up to 25 effective pairs the p-value is exact
    (enumeration conditioned on the observed ranks); above that a normal
    approximation with tie correction is used.
    """
    va, vb = _paired_arrays(a, b)
    d = va - vb
    d = d[d != 0.0]
    n = int(d.size)
    if n == 0:
        raise DegenerateSampleError("all paired differences are zero")
    ranks = _rankdata(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)
    if n <= WILCOXON_EXACT_LIMIT:
        p = _wilcoxon_exact_p(w, ranks)
        method = "exact"
    else:
        mean = n * (n + 1) / 4.0
        _, tie_counts = np.unique(ranks, return_counts=True)
        variance = n * (n + 1) * (2 * n + 1) / 24.0 - float(((tie_counts**3 - tie_counts).sum())) / 48.0
        if variance <= 0:
            raise DegenerateSampleError("zero variance in signed ranks")
        z = (w - mean) / math.sqrt(variance)
        p = _normal_two_sided_p(z)
        method = "normal-approx"
    return TestResult(statistic=w, pvalue=min(1.0, p), n=n, method=method)


def significance_stars(p: float | None) -> str:
    if p is None:
        return "n.s."
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return "n.s."


# -- system comparison -------------------------------------------------------


@dataclass(frozen=True)
class ComparisonRow:
    system_a: str
    system_b: str
    metric: str
    mean_a: float
    mean_b: float
    delta: float
    t_statistic: float | None
    p_t: float | None
    w_statistic: float | None
    p_w: float | None
    n: int
    stars: str


def _system_order(systems: Sequence[str]) -> list[str]:
    known = [s for s in ("baseline", "lotr", "lotr_srag") if s in systems]
    unknown = sorted(s for s in systems if s not in known)
    return known + unknown


def compare_systems(per_article: dict[str, dict[str, list[float]]]) -> list[ComparisonRow]:
    """All pairwise comparisons over per-article score vectors.

    ``per_article`` maps system -> metric -> scores, one score per
    article in a shared order.  Delta is mean(B) - mean(A); stars follow
    the t-test p-value.  Degenerate samples yield blank test columns.
    """
    systems = _system_order(list(per_article))
    if len(systems) < 2:
        return []
    lengths = {
        (s, m): len(v) for s, scores in per_article.items() for m, v in scores.items()
    }
    if len(set(lengths.values())) > 1:
        raise ValidationError(f"score vectors differ in length: {lengths}")
    pairs = [p for p in PREFERRED_PAIRS if p[0] in systems and p[1] in systems]
    for combo in itertools.combinations(systems, 2):
        if combo not in pairs:
            pairs.append(combo)
    rows: list[ComparisonRow] = []
    for sys_a, sys_b in pairs:
        for metric in METRICS:
            if metric not in per_article[sys_a] or metric not in per_article[sys_b]:
                continue
            scores_a = per_article[sys_a][metric]
            scores_b = per_article[sys_b][metric]
            mean_a = float(np.mean(scores_a))
            mean_b = float(np.mean(scores_b))
            try:
                t_res = paired_t_test(scores_b, scores_a)
                t_stat, p_t = t_res.statistic, t_res.pvalue
            except DegenerateSampleError:
                t_stat, p_t = None, None
            try:
                w_res = wilcoxon_signed_rank(scores_b, scores_a)
                w_stat, p_w = w_res.statistic, w_res.pvalue
            except DegenerateSampleError:
                w_stat, p_w = None, None
            rows.append(
                ComparisonRow(
                    system_a=sys_a,
                    system_b=sys_b,
                    metric=metric,
                    mean_a=mean_a,
                    mean_b=mean_b,
                    delta=mean_b - mean_a,
                    t_statistic=t_stat,
                    p_t=p_t,
                    w_statistic=w_stat,
                    p_w=p_w,
                    n=len(scores_a),
                    stars=significance_stars(p_t),
                )
            )
    return rows


def _fmt_p(p: float | None) -> str:
    return f"{p:.4f}" if p is not None else "-"


def render_comparison(rows: Sequence[ComparisonRow], fmt: str = "markdown") -> str:
    """Comparison table as markdown or JSON."""
    if fmt == "json":
        # each row's fields in order, floats to 6 places, with stars named significance
        payload = [
            {"significance" if key == "stars" else key: round(v, 6) if isinstance(v, float) else v
             for key, v in plain(r).items()}
            for r in rows
        ]
        return json.dumps({"comparisons": payload}, ensure_ascii=False, indent=2) + "\n"
    if fmt != "markdown":
        raise ValidationError(f"unknown comparison format {fmt!r}")
    lines = [
        "| Comparison | Metric | Model A Score | Model B Score | Δ (B − A) | p (t-test) | p (Wilcoxon) | Significance |",
        "| --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for r in rows:
        name_a = SYSTEM_DISPLAY.get(r.system_a, r.system_a)
        name_b = SYSTEM_DISPLAY.get(r.system_b, r.system_b)
        lines.append(
            f"| {name_a} vs. {name_b} | {METRIC_DISPLAY.get(r.metric, r.metric)} "
            f"| {r.mean_a:.3f} | {r.mean_b:.3f} | {r.delta:+.3f} "
            f"| {_fmt_p(r.p_t)} | {_fmt_p(r.p_w)} | {r.stars} |"
        )
    lines.append("")
    lines.append("Significance: *** p < .001, ** p < .01, * p < .05 (paired t-test).")
    return "\n".join(lines) + "\n"


# -- run-level evaluation ----------------------------------------------------


@dataclass(frozen=True)
class GroundTruthEntry:
    article_id: str
    claim: str
    label: FreeText
    reference_response: str


def load_ground_truth(path: str | Path) -> list[GroundTruthEntry]:
    """Line-delimited JSON, one :class:`GroundTruthEntry` per line."""
    entries = read_json_lines(path, GroundTruthEntry, "ground-truth", ValidationError)
    if not entries:
        raise ValidationError(f"{path}: ground truth file holds no entries")
    return entries


def _greedy_match(
    gt_texts: list[str],
    predicted_texts: list[str],
    embed: Callable[[list[str]], np.ndarray],
    threshold: float,
) -> dict[int, int]:
    """Greedy best-first matching of ground-truth claims to predictions."""
    if not gt_texts or not predicted_texts:
        return {}
    vectors = embed(gt_texts + predicted_texts)
    gt_vecs = vectors[: len(gt_texts)]
    pred_vecs = vectors[len(gt_texts) :]
    pairs = [
        (cosine_similarity(gv, pv), gi, pi)
        for gi, gv in enumerate(gt_vecs)
        for pi, pv in enumerate(pred_vecs)
    ]
    pairs.sort(key=lambda t: (-t[0], t[1], t[2]))
    matched: dict[int, int] = {}
    used_predictions: set[int] = set()
    for sim, gi, pi in pairs:
        if sim < threshold:
            break
        if gi in matched or pi in used_predictions:
            continue
        matched[gi] = pi
        used_predictions.add(pi)
    return matched


@dataclass
class EvalRunResult:
    article_ids: list[str]
    per_article: dict[str, dict[str, list[float]]]
    means: dict[str, dict[str, float]]
    comparisons: list[ComparisonRow]
    warnings: list[str] = field(default_factory=list)
    # grader answers counted as no statements or unsupported, each also a warning
    grader_failures: int = 0


def evaluate_run(
    reports: Sequence[Report],
    ground_truth: Sequence[GroundTruthEntry],
    embed: Callable[[list[str]], np.ndarray],
    statements_fn: Callable[[str], list[str]],
    judge_fn: Callable[[str, str], bool],
    match_threshold: float = DEFAULT_MATCH_THRESHOLD,
) -> EvalRunResult:
    """Score reports against ground truth and compare the systems.

    Every system (report mode) must cover exactly the ground truth's
    article ids.  Unmatched ground-truth claims contribute 0 to both
    metrics for their article.  Each unusable grader answer becomes a
    warning and is counted in ``grader_failures``: the scores beside it
    are partial.
    """
    if not ground_truth:
        raise ValidationError("ground truth is empty")
    gt_by_article: dict[str, list[GroundTruthEntry]] = {}
    for entry in ground_truth:
        gt_by_article.setdefault(entry.article_id, []).append(entry)
    article_ids = sorted(gt_by_article)

    by_system: dict[str, dict[str, Report]] = {}
    for report in reports:
        articles = by_system.setdefault(report.mode, {})
        if report.article_id in articles:
            raise ValidationError(f"duplicate report for system {report.mode!r}, article {report.article_id!r}")
        articles[report.article_id] = report
    if not by_system:
        raise ValidationError("no reports supplied")

    problems = []
    for mode, articles in sorted(by_system.items()):
        missing = sorted(set(article_ids) - set(articles))
        extra = sorted(set(articles) - set(article_ids))
        if missing:
            problems.append(f"system {mode!r} is missing articles: {', '.join(missing)}")
        if extra:
            problems.append(f"system {mode!r} has reports without ground truth: {', '.join(extra)}")
    if problems:
        raise ValidationError("; ".join(problems))

    warnings: list[str] = []
    grader_failures = 0
    per_article: dict[str, dict[str, list[float]]] = {
        mode: {metric: [] for metric in METRICS} for mode in by_system
    }
    for mode in per_article:
        for article_id in article_ids:
            gt_entries = gt_by_article[article_id]
            predictions = by_system[mode][article_id].entries
            matched = _greedy_match(
                [g.claim for g in gt_entries],
                [p.claim.text for p in predictions],
                embed,
                match_threshold,
            )
            sims: list[float] = []
            cons: list[float] = []
            for gi, gt_entry in enumerate(gt_entries):
                if gi not in matched:
                    warnings.append(
                        f"{mode}/{article_id}: ground-truth claim {gi + 1} unmatched, scored 0"
                    )
                    sims.append(0.0)
                    cons.append(0.0)
                    continue
                response = entry_response_text(predictions[matched[gi]])
                sims.append(semantic_similarity(response, gt_entry.reference_response, embed))
                failures: list[str] = []
                cons.append(
                    consistency(
                        response, gt_entry.reference_response, statements_fn, judge_fn, failures
                    ).f1
                )
                grader_failures += len(failures)
                warnings.extend(f"{mode}/{article_id}: ground-truth claim {gi + 1}: {f}" for f in failures)
            per_article[mode]["semantic_similarity"].append(float(np.mean(sims)))
            per_article[mode]["consistency"].append(float(np.mean(cons)))

    means = {
        mode: {metric: float(np.mean(v)) if v else 0.0 for metric, v in scores.items()}
        for mode, scores in per_article.items()
    }
    comparisons = compare_systems(per_article) if len(per_article) >= 2 else []
    return EvalRunResult(
        article_ids=article_ids,
        per_article=per_article,
        means=means,
        comparisons=comparisons,
        warnings=warnings,
        grader_failures=grader_failures,
    )
