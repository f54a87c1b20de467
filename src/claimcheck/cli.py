"""Command-line interface.

Four subcommands cover the workflow: ``ingest`` validates a corpus,
``build-index`` embeds and persists one vector index per configured
embedder, ``check`` fact-checks an article, and ``evaluate`` scores
report files against ground truth (or compares precomputed scores).

Exit codes: 0 on success, 1 for operational failures (transport,
backends, corrupt indexes), 2 for configuration and validation errors,
including strict-mode rejections.  ``check`` writes its report even when
part of the article could not be read (a skipped chunk, or claim dedupe
reduced to exact repeats); it then prints each warning to stderr and
exits 1.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import glob
import json
import logging
import sys
import time
from pathlib import Path

from . import corpus, evaluation, service
from .agents import build_backend
from .config import RunConfig, load_config, typed, write_whole
from .embedding import build_embedder
from .errors import ClaimcheckError, ConfigError, ValidationError
from .pipeline import Report, render_report

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_OPERATIONAL = 1
EXIT_INVALID = 2


def _print_rejections(rejected, stream=sys.stderr) -> None:
    for row in rejected:
        print(f"  - {row.location}: {row.reason}", file=stream)


# -- subcommands --------------------------------------------------------------


def _cmd_ingest(args, config: RunConfig) -> int:
    records, rejected = corpus.ingest_corpus(config.corpus_path)
    print(f"accepted: {len(records)}")
    print(f"rejected: {len(rejected)}")
    _print_rejections(rejected, stream=sys.stdout)
    if args.strict and rejected:
        print("strict mode: rejected rows are fatal", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


def _cmd_build_index(args, config: RunConfig) -> int:
    records, rejected = corpus.ingest_corpus(config.corpus_path)
    if rejected:
        print(f"rejected {len(rejected)} corpus rows:", file=sys.stderr)
        _print_rejections(rejected)
        if args.strict:
            return EXIT_INVALID
    if not records:
        raise ValidationError(f"corpus {config.corpus_path} yielded no usable records")
    chunks = corpus.chunk_corpus(
        records, chunk_size=config.chunking.kb_chunk_size, overlap=config.chunking.kb_overlap
    )
    for index in service.build_indexes(config, chunks, service.build_embedders(config)):
        path = service.index_path(config, index.model_id)
        index.persist(path)
        print(f"{index.model_id}: {len(index)} vectors (dim {index.dimension}) -> {path}")
        del index  # one leg in memory at a time: free it before the next is embedded
    print(f"indexed {len(chunks)} chunks from {len(records)} records")
    return EXIT_OK


def _cmd_check(args, config: RunConfig) -> int:
    mode = args.mode.replace("-", "_")
    article = corpus.load_article(args.article)
    pipeline = service.build_pipeline(config, mode)
    start = time.perf_counter()
    report = pipeline.check_article(article, mode)
    elapsed = time.perf_counter() - start
    rendered = render_report(report, fmt=args.format)
    if args.out:
        out = Path(args.out)
        write_whole(out, [rendered.encode("utf-8")])
        # wall time and timestamp live beside the report, not in it, so
        # repeated runs produce byte-identical reports
        meta = {
            "article_id": report.article_id,
            "mode": report.mode,
            "elapsed_seconds": round(elapsed, 3),
            "generated_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        }
        write_whole(f"{out}.meta.json", [json.dumps(meta, ensure_ascii=False, indent=2).encode("utf-8") + b"\n"])
        print(f"report written to {out}")
    else:
        sys.stdout.write(rendered)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return EXIT_OPERATIONAL if report.warnings else EXIT_OK


def _load_reports(patterns: list[str]) -> list[Report]:
    """Each report file ``patterns`` name, read into a ``Report`` key by key."""
    paths: list[Path] = []
    for pattern in patterns:
        p = Path(pattern)
        if p.exists():
            paths.append(p)
            continue
        # globs like report_*.json would otherwise pick up our own sidecars
        matches = [Path(m) for m in sorted(glob.glob(pattern)) if not m.endswith(".meta.json")]
        if not matches:
            raise ValidationError(f"no report files match {pattern!r}")
        paths.extend(matches)
    reports = []
    for path in paths:
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ValidationError(f"cannot read report {path}: {exc}") from exc
        try:
            reports.append(typed(data, Report, ""))
        except (ConfigError, ValidationError) as exc:
            raise ValidationError(f"report {path}: {exc}") from exc
    return reports


def _evaluate_from_scores(args) -> int:
    try:
        payload = json.loads(Path(args.scores).read_text(encoding="utf-8"))
        systems = payload["systems"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"cannot read scores file {args.scores}: {exc}") from exc
    try:
        per_article = typed(systems, dict[str, dict[str, list[float]]], "systems")
    except ConfigError as exc:
        raise ValidationError(f"scores file {args.scores}: {exc}") from exc
    rows = evaluation.compare_systems(per_article)
    return _emit(evaluation.render_comparison(rows, fmt=args.format), args.out)


def _cmd_evaluate(args, config: RunConfig) -> int:
    if args.scores:
        return _evaluate_from_scores(args)
    if not args.reports or not args.ground_truth:
        raise ConfigError("evaluate needs --reports and --ground-truth (or --scores)")
    reports = _load_reports(args.reports)
    ground_truth = evaluation.load_ground_truth(args.ground_truth)
    embedder = build_embedder(config.embedders[0])
    eval_cfg = config.evaluation

    statements_fn, judge_fn = evaluation.split_sentences, evaluation.lexical_judge
    if "backend" in (eval_cfg.statement_source, eval_cfg.judge):
        # one grader lists statements and judges them: one memo, one endpoint
        grader = build_backend(config.grader, mock_fixtures=config.mock_fixtures)
        if eval_cfg.statement_source == "backend":
            statements_fn = lambda text: evaluation.extract_statements(text, grader)  # noqa: E731
        if eval_cfg.judge == "backend":
            judge_fn = lambda p, h: evaluation.nli_judge(p, h, grader)  # noqa: E731

    result = evaluation.evaluate_run(
        reports,
        ground_truth,
        embed=embedder.embed,
        statements_fn=statements_fn,
        judge_fn=judge_fn,
        match_threshold=eval_cfg.match_threshold,
    )
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    _emit(evaluation.render_comparison(result.comparisons, fmt=args.format), args.out)
    # like a partial report from check: written, but not a clean run
    return EXIT_OPERATIONAL if result.grader_failures else EXIT_OK


def _emit(text: str, out: str | None) -> int:
    if out:
        path = Path(out)
        write_whole(path, [text.encode("utf-8")])
        print(f"written to {path}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# -- parser / entry point ------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="claimcheck",
        description="Retrieval-augmented fact checking for long-form articles.",
    )
    parser.add_argument("--config", required=True, help="path to the YAML run config")
    parser.add_argument("--verbose", action="store_true", help="debug logging and tracebacks")
    parser.add_argument(
        "--strict", action="store_true", help="treat rejected corpus rows as fatal"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("ingest", help="validate the corpus and report rejected rows")
    sub.add_parser("build-index", help="embed the corpus and persist vector indexes")

    check = sub.add_parser("check", help="fact-check one article")
    check.add_argument("--article", required=True, help="path to the article text")
    check.add_argument(
        "--mode",
        choices=("baseline", "lotr", "lotr-srag"),
        default="lotr-srag",
        help="verification flow (default: lotr-srag)",
    )
    check.add_argument("--out", help="write the report here instead of stdout")
    check.add_argument("--format", choices=("json", "markdown"), default="json")

    ev = sub.add_parser("evaluate", help="score reports against ground truth")
    ev.add_argument("--reports", nargs="+", help="report JSON files (globs allowed)")
    ev.add_argument("--ground-truth", help="ground truth JSONL file")
    ev.add_argument("--scores", help="precomputed per-article scores JSON; skips judging")
    ev.add_argument("--out", help="write the comparison here instead of stdout")
    ev.add_argument("--format", choices=("markdown", "json"), default="markdown")

    return parser


_COMMANDS = {
    "ingest": _cmd_ingest,
    "build-index": _cmd_build_index,
    "check": _cmd_check,
    "evaluate": _cmd_evaluate,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    start = time.perf_counter()
    try:
        config = load_config(args.config)
        code = _COMMANDS[args.command](args, config)
    except (ConfigError, ValidationError) as exc:
        _report_failure(exc, args.verbose)
        return EXIT_INVALID
    except ClaimcheckError as exc:
        _report_failure(exc, args.verbose)
        return EXIT_OPERATIONAL
    logger.debug("%s finished in %.3fs", args.command, time.perf_counter() - start)
    return code


def _report_failure(exc: Exception, verbose: bool) -> None:
    if verbose:
        logger.exception("command failed")
    print(f"error: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
