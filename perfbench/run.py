"""claimcheck benchmark: seeded synthetic workloads through the public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload check-local --seed 1 --seconds 20 --trace 0

Workloads (README.md beside this file says why each exists):

    check-local   ~10^4-chunk KB, in-process zero-latency model backends
    check-remote  ~10^3-chunk KB, models and embedders behind a local HTTP stub
    index-build   cold build-index runs interleaved with serving the index

Every run builds the KB index from generated files with the code under
test, then checks articles one at a time (a single closed-loop client,
one FactCheckPipeline per article, as ``claimcheck check`` does).  The
checking time is cut into rounds, each started by a fresh set-up of the
checking service (and, on index-build, a cold build before it).  Every
report is checked against the synthetic truth; any failed check makes
the run exit 1.  ``--trace 1`` instead checks a fixed set of articles
both untraced and traced, and reports per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
BLOCK_ARTICLES = 10  # claims_per_s is a median over blocks of this many articles
REPORT_DIGESTS = 20  # reports per run compared byte for byte with earlier runs
MODE = "lotr_srag"

# name -> unit; the order is the print order
END_TO_END = {
    "claims_per_s": "claims/s",
    "article_latency_p50_ms": "ms",
    "article_latency_p90_ms": "ms",
    "backend_calls_per_claim": "calls",
    "prompt_tokens_per_claim": "tokens",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "index_mb": "MB",
}

PER_LAYER = {
    "config.load_config.s": "s",
    "corpus.ingest_corpus.s": "s",
    "corpus.chunk_text.s": "s",
    "corpus.chunks": "count",
    "embedding.embed.calls": "count",
    "embedding.embed.texts": "count",
    "embedding.embed.s": "s",
    "embedding.hash_cache.hit_ratio": "ratio",
    "embedding.requests": "count",
    "embedding.wait_s": "s",
    "vecindex.mmr_select.calls": "count",
    "vecindex.mmr_select.s": "s",
    "vecindex.upsert.s": "s",
    "vecindex.persist.s": "s",
    "vecindex.load.s": "s",
    "kernels.topk_scan.calls": "count",
    "kernels.topk_scan.s": "s",
    "kernels.topk_scan.rows": "count",
    "kernels.topk_scan.bytes": "B",
    "kernels.mmr_greedy.s": "s",
    "lotr.retrieve.calls": "count",
    "lotr.retrieve.s": "s",
    "lotr.hits_per_retrieve": "hits",
    "lotr.dedupe.kept_ratio": "ratio",
    "prompts.render.calls": "count",
    "prompts.render.s": "s",
    "agents.extract_claims.s": "s",
    "agents.claims_extracted": "count",
    "agents.claims_kept_ratio": "ratio",
    "agents.grade_document.calls": "count",
    "agents.doc_relevant_ratio": "ratio",
    "agents.grade_answer.calls": "count",
    "agents.answer_useful_ratio": "ratio",
    "agents.generate_answer.calls": "count",
    "agents.rewrite_claim.calls": "count",
    "agents.reformat_retries": "count",
    "agents.generator.wait_s": "s",
    "agents.grader.wait_s": "s",
    "agents.rewriter.wait_s": "s",
    "agents.transport_retries": "count",
    "pipeline.verify_claim.p50_ms": "ms",
    "pipeline.verify_claim.p90_ms": "ms",
    "pipeline.claim_wait_ms": "ms",
    "pipeline.retrieval_rounds_per_claim": "rounds",
    "pipeline.regenerations_per_claim": "count",
    "pipeline.exhausted_frac": "ratio",
    "trace.overhead_ms": "ms",
    "trace.overhead_frac": "ratio",
}

# what each claim kind must end as: (rewrites, regenerations, rounds, terminal state)
EXPECTED_TRACE = {
    "supported": (0, 0, 1, "done"),
    "needs_regeneration": (1, 1, 2, "done"),
    "needs_rewrite": (1, 0, 2, "done"),
    "unverifiable": (2, 0, 3, "refinement_exhausted"),
}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import claimcheck from this checkout's src/, and nothing else."""
    if not (SRC / "claimcheck" / "__init__.py").is_file():
        _fail(f"no claimcheck sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import claimcheck

    if Path(claimcheck.__file__).resolve().parent != (SRC / "claimcheck").resolve():
        _fail(f"imported claimcheck from {claimcheck.__file__}, not from {SRC}")


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def _openblas_threads() -> int | None:
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    from claimcheck import kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "kernels_active_path": kernels.ACTIVE_PATH,
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


# -- the program's three entry points, through its public API ----------------


def _index_path(config, spec) -> Path:
    return Path(config.index_dir) / f"{spec.model_id}.idx"


@dataclass
class Build:
    chunks: int
    seconds: float
    digest: str
    bytes_on_disk: int


def count_kb_chunks(config_path: Path) -> int:
    """The number of KB chunks a build must index, counted before any timing."""
    from claimcheck import config as config_mod
    from claimcheck import corpus

    config = config_mod.load_config(config_path)
    records, rejected = corpus.ingest_corpus(config.corpus_path)
    if rejected or not records:
        raise RuntimeError(f"corpus rejected {len(rejected)} rows, accepted {len(records)}")
    return len(corpus.chunk_corpus(records, config.chunking.kb_chunk_size, config.chunking.kb_overlap))


def build_index(config_path: Path, chunks: int) -> Build:
    """``claimcheck build-index``: ingest, chunk, embed with both embedders, upsert, persist."""
    from claimcheck import cli

    index_dir = config_path.parent / "index"
    shutil.rmtree(index_dir, ignore_errors=True)
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["--config", str(config_path), "build-index"])
    seconds = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"build-index exited with {code}: {out.getvalue().strip()}")
    digest = hashlib.sha256()
    size = 0
    for path in sorted(p for p in index_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(path.name.encode("utf-8") + b"\0" + data)
        size += len(data)
    return Build(chunks, seconds, digest.hexdigest(), size)


@dataclass
class Service:
    config: object
    retriever: object
    agents: object
    index_counts: tuple[int, ...]


def set_up(config_path: Path, responder) -> tuple[Service, float, float]:
    """Config load, both index loads, embedder and backend construction."""
    from claimcheck import config as config_mod
    from claimcheck.agents import FactCheckAgents, build_backend
    from claimcheck.embedding import build_embedder
    from claimcheck.lotr import MergingRetriever, RetrieverLeg
    from claimcheck.vecindex import VectorIndex

    from responder import LocalBackend

    start = time.perf_counter()
    config = config_mod.load_config(config_path)
    load_start = time.perf_counter()
    indexes = [VectorIndex.load(_index_path(config, spec)) for spec in config.embedders]
    load_s = time.perf_counter() - load_start
    legs = [
        RetrieverLeg(retriever_id=spec.model_id, embedder=build_embedder(spec), index=index)
        for spec, index in zip(config.embedders, indexes)
    ]
    r = config.retrieval
    retriever = MergingRetriever(
        legs, k=r.k, lambda_=r.lambda_, min_similarity=r.min_similarity, pool_size=r.pool_size, reorder=r.reorder
    )

    def backend(cfg):
        if cfg.endpoint.startswith(("http://", "https://")):
            return build_backend(cfg)
        return LocalBackend(responder, cfg.role, cfg.model_id)

    agents = FactCheckAgents(
        generator=backend(config.generator),
        grader=backend(config.grader),
        rewriter=backend(config.rewriter),
        embedder=build_embedder(config.embedders[0]),
    )
    seconds = time.perf_counter() - start
    counts = tuple(len(i) for i in indexes)
    return Service(config, retriever, agents, counts), seconds, load_s


@dataclass
class Checked:
    """One article's outcome, reduced to what the metrics and checks need."""

    plan_index: int
    seconds: float
    attempted: int  # distinct claims in the article
    failed: int  # claims in terminal state error, or lost with the article
    verified: int
    backend_calls: int
    prompt_tokens: int
    digest: str | None  # of the rendered report; None when the article failed


def check_report(synth, plan_index: int, report) -> tuple[list[str], int]:
    """Problems found in one report, and its claims that failed (error state or lost)."""
    plan = synth.articles[plan_index]
    problems: list[str] = []
    failed = sum(1 for e in report.entries if e.trace.terminal_state == "error")
    if report.article_id != plan.id or report.mode != MODE:
        problems.append(f"{plan.id}: report is for {report.article_id!r} in mode {report.mode!r}")
    if len(report.entries) != len(plan.claims):
        problems.append(f"{plan.id}: {len(report.entries)} entries for {len(plan.claims)} distinct claims")
        failed += max(0, len(plan.claims) - len(report.entries))
    for i, (entry, claim_index) in enumerate(zip(report.entries, plan.claims), start=1):
        truth = synth.claims[claim_index]
        rewrites, regenerations, rounds, terminal = EXPECTED_TRACE[truth.kind]
        want_id = f"{plan.id}:c{i}" + (f".r{rewrites}" if rewrites else "")
        got = (
            entry.claim.id,
            entry.claim.text,
            entry.label.value,
            entry.trace.rewrites_used,
            entry.trace.regenerations_used,
            entry.trace.retrieval_rounds,
            entry.trace.terminal_state,
        )
        want = (want_id, truth.texts[rewrites], truth.label, rewrites, regenerations, rounds, terminal)
        if got != want:
            problems.append(f"{plan.id}: claim {i} ({truth.kind}) ended as {got}, expected {want}")
            continue
        parents = {k.parent_id for k in entry.evidence_keys}
        titles = [s.title for s in entry.sources]
        if truth.record is None:
            cited_ok = not parents and not titles
        else:
            cited_ok = parents == {truth.record} and titles == [synth.record_by_id[truth.record].title]
        if not cited_ok:
            problems.append(
                f"{plan.id}: claim {i} ({truth.kind}) cites {titles} with evidence from {sorted(parents)}, "
                f"expected record {truth.record}"
            )
    return problems, failed


class Checker:
    """Submits articles and checks each report against the synthetic truth.

    A report is checked as soon as it is made and then dropped, so the
    benchmark holds no growing heap of objects for the program's garbage
    collections to scan as a run goes on.
    """

    def __init__(self, synth, article_paths: list[Path], mask: str | None):
        self.synth = synth
        self.article_paths = article_paths
        self.mask = mask  # the stub's address, which reports echo; it changes every run
        self.problems: list[str] = []

    def check(self, service: Service, plan_index: int) -> Checked:
        """One closed-loop request: submit an article, wait for its rendered report."""
        from claimcheck import corpus
        from claimcheck.pipeline import FactCheckPipeline, render_report

        plan = self.synth.articles[plan_index]
        start = time.perf_counter()
        try:
            article = corpus.load_article(self.article_paths[plan_index])
            pipeline = FactCheckPipeline(service.config, service.agents, service.retriever)
            report = pipeline.check_article(article, MODE)
            text = render_report(report)
        except Exception:  # an article-level failure is counted, never fatal
            seconds = time.perf_counter() - start
            self.problems.append(f"{plan.id}: article failed: {traceback.format_exc().strip().splitlines()[-1]}")
            n = len(plan.claims)
            return Checked(plan_index, seconds, n, n, 0, 0, 0, None)
        seconds = time.perf_counter() - start
        problems, failed = check_report(self.synth, plan_index, report)
        self.problems.extend(problems)
        if self.mask:
            text = text.replace(self.mask, "http://stub")
        return Checked(
            plan_index,
            seconds,
            attempted=len(plan.claims),
            failed=failed,
            verified=sum(1 for e in report.entries if e.trace.terminal_state != "error"),
            backend_calls=report.token_usage["backend_calls"],
            prompt_tokens=report.token_usage["prompt_tokens"],
            digest=_digest(text),
        )


# -- the run ---------------------------------------------------------------------------


class StubProcess:
    """The HTTP stand-in for hosted models, in its own process."""

    def __init__(self, workload: str, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("stub.py")), "--workload", workload, "--seed", str(seed)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"stub failed to start: {line!r}")
        self.endpoint = f"http://127.0.0.1:{int(line.split()[1])}"

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def _clear_hash_cache() -> None:
    """Start a build as cold as a fresh ``claimcheck build-index`` process."""
    from claimcheck import embedding

    clear = getattr(getattr(embedding, "_hash_direction", None), "cache_clear", None)
    if clear is not None:
        clear()


def _hash_cache_counts() -> tuple[int, int]:
    from claimcheck import embedding

    info = getattr(getattr(embedding, "_hash_direction", None), "cache_info", None)
    if info is None:
        return 0, 0
    i = info()
    return i.hits, i.misses


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _code_version() -> str:
    """A digest of the program's and the benchmark's sources: digests are only
    compared between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).resolve().parent.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode("utf-8") + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_repeatable(workload: str, seed: int, digests: dict[str, str]) -> list[str]:
    """Compare output digests with earlier runs of this workload and seed.

    The first run of a seed records them; every later run of the same
    code, traced or not, must reproduce them byte for byte.
    """
    path = OUT / "digests" / f"{_code_version()}-{workload}-seed{seed}.json"
    stored = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    problems = [
        f"{name}: bytes differ from an earlier run of seed {seed}"
        for name, digest in sorted(digests.items())
        if stored.get(name, digest) != digest
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps({**digests, **stored}, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return problems


def _claims_per_s(timed: list[Checked]) -> float:
    """Median over consecutive blocks of articles of verified claims / wall time.

    The loop is closed and back to back, so a block's wall time is the
    sum of its article latencies; the median ignores a block that a burst
    of load from outside the benchmark happened to slow.
    """
    blocks = [timed[i : i + BLOCK_ARTICLES] for i in range(0, len(timed) - BLOCK_ARTICLES + 1, BLOCK_ARTICLES)]
    rates = [
        sum(c.verified for c in block) / sum(c.seconds for c in block)
        for block in (blocks or [timed])
    ]
    return statistics.median(rates)


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    from responder import LocalBackend, Responder
    from synth import PROFILES, Synth

    profile = PROFILES[workload]
    t = time.perf_counter()
    synth = Synth(profile, seed)
    responder = Responder(synth)
    generate_s = time.perf_counter() - t
    stub = StubProcess(workload, seed) if profile.remote else None
    problems: list[str] = []
    try:
        config_path = synth.write_inputs(workdir, stub.endpoint if stub else None)
        article_paths = [workdir / "articles" / f"{a.id}.md" for a in synth.articles]
        checker = Checker(synth, article_paths, stub.endpoint if stub else None)
        chunks = count_kb_chunks(config_path)
        # the generated truth is the benchmark's, not the program's: keep its
        # objects out of the collections the program's allocations trigger
        gc.collect()
        gc.freeze()

        tracer = None
        if trace:
            import tracer as tracing
            from claimcheck.agents import RemoteChatBackend

            tracer = tracing.Tracer()
            backend_classes = (LocalBackend, RemoteChatBackend)
            tracing.install(tracer, backend_classes)
        cache_before = _hash_cache_counts()

        builds: list[Build] = []
        setups: list[tuple[float, float]] = []

        def build() -> None:
            if profile.build_rounds:
                _clear_hash_cache()  # as cold as a fresh build-index process
            builds.append(build_index(config_path, chunks))

        def fresh_service() -> Service:
            gc.collect()
            new, setup_s, load_s = set_up(config_path, responder)
            setups.append((setup_s, load_s))
            if new.index_counts != (chunks,) * len(new.index_counts):
                problems.append(f"loaded indexes hold {new.index_counts} entries, {chunks} chunks were indexed")
            return new

        build()
        service = fresh_service()
        if trace:
            tracer.restore()
        warmup = 3 if profile.remote else 10
        results: list[Checked] = [checker.check(service, i) for i in range(warmup)]
        first = warmup
        if trace:
            # each article untraced and traced, alternating which goes first;
            # the paired differences are the tracing overhead
            count = min(profile.trace_articles, len(article_paths) - first)
            timed = []
            paired: list[tuple[float, float]] = []
            start = time.perf_counter()
            for n, i in enumerate(range(first, first + count)):
                tracer.article = synth.articles[i].id
                seconds_by_mode = {}
                for traced in (False, True) if n % 2 == 0 else (True, False):
                    if traced:
                        tracing.install(tracer, backend_classes)
                    checked = checker.check(service, i)
                    if traced:
                        tracer.restore()
                    else:
                        timed.append(checked)
                    results.append(checked)
                    seconds_by_mode[traced] = checked.seconds
                paired.append((seconds_by_mode[False], seconds_by_mode[True]))
                if time.perf_counter() - start > 2 * seconds:
                    break
        else:
            # The checking time is cut into rounds, and each new round starts
            # with a fresh set-up (after a cold build on index-build), so the
            # repeats that the medians are taken over are spread across the
            # run: a burst of load from outside the benchmark then spoils
            # one of them rather than all.
            rounds = profile.build_rounds or SETUP_REPEATS - 1
            check_budget = seconds * profile.check_share
            checking_s = 0.0
            i = first
            for r in range(rounds):
                if r:
                    if profile.build_rounds:
                        build()
                    service = None
                    service = fresh_service()
                while i < len(article_paths) and checking_s < check_budget * (r + 1) / rounds:
                    results.append(checker.check(service, i))
                    checking_s += results[-1].seconds
                    i += 1
            if not profile.build_rounds:
                service = None
                service = fresh_service()
            timed = results[warmup:]
            if i == len(article_paths):
                print(f"perfbench: warning: all {i} generated articles used before time ran out", file=sys.stderr)
        if len({b.digest for b in builds}) != 1:
            problems.append(f"index files differ between {len(builds)} builds of the same corpus")

        # same seed, same bytes: the first timed article again, on a fresh pipeline
        again = checker.check(service, first)
        if again.digest is None or again.digest != timed[0].digest:
            problems.append(f"{synth.articles[first].id}: report bytes differ when checked again")
        cache_after = _hash_cache_counts()
    finally:
        gc.unfreeze()
        if stub is not None:
            stub.close()

    results.append(again)
    problems.extend(checker.problems)
    digests = {"index": builds[0].digest}
    for c in results[:REPORT_DIGESTS]:
        if c.digest is not None:
            digests[f"report {synth.articles[c.plan_index].id}"] = c.digest
    problems.extend(check_repeatable(workload, seed, digests))

    claims = sum(c.attempted for c in timed)
    verified = sum(c.verified for c in timed)
    latencies_ms = [c.seconds * 1e3 for c in timed]
    e2e = {
        "claims_per_s": _claims_per_s(timed),
        "article_latency_p50_ms": _percentile(latencies_ms, 50),
        "article_latency_p90_ms": _percentile(latencies_ms, 90),
        "backend_calls_per_claim": sum(c.backend_calls for c in timed) / claims,
        "prompt_tokens_per_claim": sum(c.prompt_tokens for c in timed) / claims,
        "setup_s": statistics.median(s for s, _ in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "index_mb": builds[0].bytes_on_disk / 1e6,
    }
    info = {
        "articles_timed": len(timed),
        "articles_beyond_p90": sum(1 for x in latencies_ms if x > e2e["article_latency_p90_ms"]),
        "claims_timed": claims,
        "check_s": sum(c.seconds for c in timed),
        "error_frac": (claims - verified) / claims,
        "error_base_claims": claims,
        # printed, not bounded: too noisy on a shared machine (see README)
        "chunks_indexed_per_s": statistics.median(b.chunks / b.seconds for b in builds),
        "index_load_s_median": statistics.median(l for _, l in setups),
        "build_s": [b.seconds for b in builds],
        "setup_s": [s for s, _ in setups],
        "index_load_s": [l for _, l in setups],
        "chunks": chunks,
        "index_digest": builds[0].digest,
        "inputs_generate_s": generate_s,
        "hash_cache_hits": cache_after[0] - cache_before[0],
        "hash_cache_misses": cache_after[1] - cache_before[1],
    }
    layers = None
    if trace:
        layers = tracing.layer_metrics(tracer.spans)
        hits, misses = info["hash_cache_hits"], info["hash_cache_misses"]
        layers["embedding.hash_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        layers["trace.overhead_ms"] = statistics.median(t - u for u, t in paired) * 1e3
        layers["trace.overhead_frac"] = sum(t for _, t in paired) / sum(u for u, _ in paired) - 1.0
        info["spans"] = len(tracer.spans)
    return {
        "correct": not problems,
        "attempted": sum(c.attempted for c in results),
        "failed": sum(c.failed for c in results),
        "problems": problems,
        "end_to_end": e2e,
        "per_layer": layers,
        "info": info,
        "inputs": synth.describe(),
    }


def _print_human(args, env: dict, result: dict) -> None:
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print("inputs: " + json.dumps(result["inputs"], sort_keys=True))
    print("end-to-end:")
    for name, unit in END_TO_END.items():
        print(f"  {name:<28} {result['end_to_end'][name]:>14.4f} {unit}")
    info = result["info"]
    print(
        f"  {'error_frac':<28} {info['error_frac']:>14.4f} ratio "
        f"(base: {info['error_base_claims']} claims in {info['articles_timed']} articles)"
    )
    print(f"  {'chunks_indexed_per_s':<28} {info['chunks_indexed_per_s']:>14.4f} chunks/s (median of {len(info['build_s'])} builds)")
    print(f"  {'index_load_s':<28} {info['index_load_s_median']:>14.4f} s (median of {len(info['index_load_s'])} set-ups)")
    print(
        f"  latency samples: {info['articles_timed']} articles, {info['articles_beyond_p90']} beyond p90; "
        f"{len(info['build_s'])} build(s) of {info['chunks']} chunks"
    )
    if result["per_layer"] is not None:
        print("per-layer (traced pass):")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<38} {result['per_layer'][name]:>16.6f} {unit}")
    print("info: " + json.dumps(info, sort_keys=True))
    for problem in result["problems"][:20]:
        print(f"CHECK FAILED: {problem}")
    if len(result["problems"]) > 20:
        print(f"CHECK FAILED: ... and {len(result['problems']) - 20} more")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("check-local", "check-remote", "index-build"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    _import_program()
    # the stub is on loopback; never route it through a proxy
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    env = environment()
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"args": vars(args), "environment": env, **result}
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    _print_human(args, env, result)
    chosen, units = (result["per_layer"], PER_LAYER) if args.trace else (result["end_to_end"], END_TO_END)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": chosen[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
