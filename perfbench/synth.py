"""Seeded synthetic inputs and their ground truth.

Everything here is a pure function of (workload profile, seed): the
knowledge base, every claim with the outcome it is built to produce, the
article stream, and the run config.  The program under test only ever
sees the files written by :meth:`Synth.write_inputs`; the responder and
the output checks regenerate the same truth from the seed.

Each corpus record carries one tag word of its own, repeated often
enough that every KB chunk of the record contains it, so a document can
be traced back to its record from its text alone.  Abstracts open with a
lead sentence of the tag and less frequent words; a claim about a record
is that sentence, or it less one word, which makes the record by far its
nearest neighbour in both hash-embedding spaces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

KINDS = ("supported", "needs_regeneration", "needs_rewrite", "unverifiable")
GROUNDED_LABELS = ("true", "false", "partly_true", "partly_false", "misleading")
REWRITE_PREFIXES = ("It is reported that", "Several sources state that")

# the most frequent vocabulary ranks, which claim-bearing sentences avoid
_STOPWORDS = 40
LEAD_WORDS = (7, 10)  # topical words after the tag in a lead sentence
# every run of this many consecutive articles, and of fresh claims, holds
# the profile's mix exactly, so seeds differ in content but not in load
STRATUM = 20
_GOLDEN = (5**0.5 - 1) / 2
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Profile:
    """The input properties one workload fixes."""

    name: str
    records: int
    abstract_words: tuple[int, int]
    kb_chunk: tuple[int, int]  # (size, overlap) in tokens
    article_chunk: tuple[int, int]
    claims_per_article: tuple[int, int]
    long_article_share: float
    long_claims_per_article: tuple[int, int]
    filler_words: tuple[int, int]  # per normal article; long ones get 4x
    kind_mix: tuple[float, float, float, float]  # weights in KINDS order
    claim_pool: int  # 0: every claim is new; N: N claims drawn by popularity
    pool_zipf: float
    articles: int  # pre-generated article files
    remote: bool
    check_share: float  # share of --seconds spent checking articles
    build_rounds: int  # cold builds, each followed by a round of checking; 0 = build the KB once
    trace_articles: int  # articles a traced run checks, each untraced and traced
    vocab: int = 3000
    vocab_zipf: float = 1.07
    dims: tuple[int, int] = (256, 384)
    min_similarity: float = 0.15
    concurrency: int = 2
    # stub service times per request, milliseconds
    service_ms: dict = field(default_factory=dict)


PROFILES = {
    "check-local": Profile(
        name="check-local",
        records=10_000,
        abstract_words=(6, 14),
        kb_chunk=(400, 50),
        article_chunk=(240, 60),
        claims_per_article=(3, 6),
        long_article_share=0.25,
        long_claims_per_article=(8, 12),
        filler_words=(80, 160),
        kind_mix=(0.55, 0.15, 0.15, 0.15),
        claim_pool=0,
        pool_zipf=0.0,
        articles=2500,
        remote=False,
        check_share=1.0,
        build_rounds=0,
        trace_articles=120,
    ),
    "check-remote": Profile(
        name="check-remote",
        records=500,
        abstract_words=(30, 80),
        kb_chunk=(40, 16),
        article_chunk=(240, 60),
        claims_per_article=(2, 3),
        long_article_share=0.1,
        long_claims_per_article=(4, 6),
        filler_words=(80, 160),
        kind_mix=(0.7, 0.1, 0.1, 0.1),
        claim_pool=300,
        pool_zipf=1.0,
        articles=800,
        remote=True,
        check_share=1.0,
        build_rounds=0,
        trace_articles=40,
        # low enough that every retriever leg fills its k: the number of
        # documents graded per claim then does not depend on which claims
        # happen to be the most popular ones
        min_similarity=0.05,
        service_ms={"generator": 8.0, "grader": 4.0, "rewriter": 6.0, "embeddings": 3.0},
    ),
    "index-build": Profile(
        name="index-build",
        records=1500,
        abstract_words=(8, 30),
        kb_chunk=(40, 16),
        article_chunk=(240, 60),
        claims_per_article=(3, 6),
        long_article_share=0.25,
        long_claims_per_article=(8, 12),
        filler_words=(80, 160),
        kind_mix=(0.55, 0.15, 0.15, 0.15),
        claim_pool=0,
        pool_zipf=0.0,
        articles=1500,
        remote=False,
        check_share=0.5,
        build_rounds=4,
        trace_articles=60,
    ),
}


@dataclass(frozen=True)
class Record:
    id: str
    tag: str
    title: str
    authors: tuple[str, ...]
    date: str
    lead: tuple[str, ...]  # the abstract's first sentence: the tag, then topical words
    abstract: str


@dataclass(frozen=True)
class ClaimTruth:
    """One claim and the outcome its kind should produce.

    ``texts`` holds the original wording and the two rewrites the
    responder hands out, in order.
    """

    kind: str
    record: str | None
    label: str
    texts: tuple[str, ...]


@dataclass(frozen=True)
class ArticlePlan:
    id: str
    claims: tuple[int, ...]  # indexes into Synth.claims, in article order
    text: str


def _zipf_weights(n: int, s: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    return w / w.sum()


class _WordMaker:
    """Unique pronounceable lowercase words, drawn from one seeded stream."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.used: set[str] = set()

    def make(self, syllables: int, prefix: str = "") -> str:
        while True:
            cs = self.rng.integers(0, len(_CONSONANTS), syllables)
            vs = self.rng.integers(0, len(_VOWELS), syllables)
            word = prefix + "".join(_CONSONANTS[c] + _VOWELS[v] for c, v in zip(cs, vs))
            if word not in self.used:
                self.used.add(word)
                return word


def _spread(counts: dict) -> list:
    """One stratum: each key ``counts[key]`` times, evenly interleaved."""
    slots = [((j + 0.5) / n, key) for key, n in counts.items() for j in range(n)]
    return [key for _, key in sorted(slots, key=lambda slot: slot[0])]


def _kind_counts(mix) -> dict:
    """The profile's kind mix as whole counts per stratum (largest remainder)."""
    share = np.asarray(mix, dtype=np.float64) / sum(mix) * STRATUM
    counts = np.floor(share).astype(int)
    for i in np.argsort(-(share - counts), kind="stable")[: STRATUM - counts.sum()]:
        counts[i] += 1
    return {kind: int(n) for kind, n in zip(KINDS, counts) if n}


def _stratified(rng: np.random.Generator, stratum: list, n: int, shuffle: bool) -> list:
    out: list = []
    while len(out) < n:
        block = list(stratum)
        if shuffle:
            rng.shuffle(block)
        out.extend(block)
    return out[:n]


def _sentence(words) -> str:
    return " ".join([words[0].capitalize(), *words[1:]]) + "."


def _sentences(words: list[str], rng: np.random.Generator) -> str:
    """Join words into capitalized sentences of 6 to 10 words."""
    out: list[str] = []
    i = 0
    while i < len(words):
        n = int(rng.integers(6, 11))
        part = words[i : i + n]
        out.append(part[0].capitalize() + (" " + " ".join(part[1:]) if len(part) > 1 else "") + ".")
        i += n
    return " ".join(out)


class Synth:
    """All generated inputs and truth for one (profile, seed)."""

    def __init__(self, profile: Profile, seed: int):
        self.profile = profile
        self.seed = int(seed)
        # one vocabulary for every seed: the hash directions of its most
        # frequent words set the background similarity of any two texts,
        # which would otherwise shift retrieval hit counts from seed to seed
        vocab_rng = np.random.default_rng(0x70CAB)
        vocab_words = _WordMaker(vocab_rng)
        self.vocab = [vocab_words.make(int(vocab_rng.integers(2, 4))) for _ in range(profile.vocab)]
        rng = np.random.default_rng([self.seed, 0x5EED])
        words = _WordMaker(rng)
        words.used.update(self.vocab)
        self._vocab_cdf = np.cumsum(_zipf_weights(profile.vocab, profile.vocab_zipf))
        surnames = [words.make(3).capitalize() for _ in range(200)]
        self.records = [self._record(i, rng, words, surnames) for i in range(profile.records)]
        self.record_by_id = {r.id: r for r in self.records}
        self.record_by_tag = {r.tag: r for r in self.records}

        self.claims: list[ClaimTruth] = []
        self._texts: set[str] = set()
        plan_rng = np.random.default_rng([self.seed, 0xA271])
        kinds = _spread(_kind_counts(profile.kind_mix))
        if profile.claim_pool:
            # kinds follow popularity rank in a fixed pattern, so the most
            # recurring claims carry the same kinds whatever the seed
            for kind in _stratified(plan_rng, kinds, profile.claim_pool, shuffle=False):
                self._new_claim(plan_rng, words, kind, set())
            self._pool_cdf = np.cumsum(_zipf_weights(profile.claim_pool, profile.pool_zipf))
            self._pool_u = float(plan_rng.random())
        else:
            most = profile.articles * max(profile.long_claims_per_article)
            self._kinds = iter(_stratified(plan_rng, kinds, most, shuffle=True))
        n_long = round(profile.long_article_share * STRATUM)
        sizes = [("long", int(round(x))) for x in np.linspace(*profile.long_claims_per_article, n_long)] + [
            ("short", int(round(x))) for x in np.linspace(*profile.claims_per_article, STRATUM - n_long)
        ]
        self.articles = [
            self._article(i, plan_rng, words, size)
            for i, size in enumerate(_stratified(plan_rng, sizes, profile.articles, shuffle=True))
        ]
        self.claim_by_text: dict[str, tuple[ClaimTruth, int]] = {
            text: (truth, stage) for truth in self.claims for stage, text in enumerate(truth.texts)
        }

    # -- knowledge base ----------------------------------------------------

    def _common(self, rng: np.random.Generator, n: int) -> list[str]:
        picks = np.searchsorted(self._vocab_cdf, rng.random(n) * self._vocab_cdf[-1], side="right")
        return [self.vocab[min(int(i), len(self.vocab) - 1)] for i in picks]

    def _topical(self, rng: np.random.Generator, n: int) -> list[str]:
        """``n`` distinct words from outside the most frequent ranks."""
        picks = rng.choice(len(self.vocab) - _STOPWORDS, size=n, replace=False)
        return [self.vocab[_STOPWORDS + int(j)] for j in picks]

    def _record(self, i: int, rng, words: _WordMaker, surnames: list[str]) -> Record:
        p = self.profile
        tag = words.make(3, prefix="q")
        lead = (tag,) + tuple(self._topical(rng, int(rng.integers(*LEAD_WORDS))))
        n = int(rng.integers(p.abstract_words[0], p.abstract_words[1] + 1))
        body = self._common(rng, n)
        # every KB chunk must hold the tag: a final chunk is at least
        # overlap + 1 tokens long, and sentence periods add about one
        # token in eight
        stride = max(4, int((p.kb_chunk[1] - 2) * 0.8))
        for pos in range(0, len(body) + 1, stride):
            body.insert(pos, tag)
        n_auth = int(rng.integers(1, 4))
        authors = tuple(
            f"{'ABCDEFGHJKLMNPRSTVW'[int(rng.integers(0, 19))]}. {surnames[int(rng.integers(0, len(surnames)))]}"
            for _ in range(n_auth)
        )
        t = self._common(rng, 3)
        title = f"{t[0].capitalize()} {t[1]} and {tag} outcomes in {t[2]} cohorts"
        date = f"{int(rng.integers(2015, 2024))}-{int(rng.integers(1, 13)):02d}-{int(rng.integers(1, 29)):02d}"
        return Record(
            id=f"kb{i:05d}",
            tag=tag,
            title=title,
            authors=authors,
            date=date,
            lead=lead,
            abstract=_sentence(lead) + " " + _sentences(body, rng),
        )

    def record_of_text(self, text: str) -> Record | None:
        """The record whose tag appears in ``text``, if any."""
        for word in text.lower().replace(".", " ").split():
            rec = self.record_by_tag.get(word)
            if rec is not None:
                return rec
        return None

    # -- claims and articles -------------------------------------------------

    def _new_claim(self, rng, words: _WordMaker, kind: str, exclude: set[str]) -> int:
        """A claim is a record's lead sentence, or the lead less one inner word.

        Keeping the lead's exact whitespace tokens, sentence-final word
        included, makes the record its nearest chunk in both embedding
        spaces by a wide margin.
        """
        while True:
            if kind == "unverifiable":
                record = None
                body = [words.make(3, prefix="x")] + self._topical(rng, int(rng.integers(*LEAD_WORDS)))
                label = "unverifiable"
            else:
                record = self.records[int(rng.integers(0, len(self.records)))]
                if record.id in exclude:
                    continue
                drop = int(rng.integers(0, len(record.lead) - 1))  # 0 keeps the whole lead; never the final word
                body = [w for j, w in enumerate(record.lead) if j != drop or drop == 0]
                label = GROUNDED_LABELS[int(rng.integers(0, len(GROUNDED_LABELS)))]
            original = _sentence(body)
            texts = (original,) + tuple(
                f"{prefix} {original[0].lower()}{original[1:]}" for prefix in REWRITE_PREFIXES
            )
            if any(t in self._texts for t in texts):
                continue
            self._texts.update(texts)
            self.claims.append(ClaimTruth(kind, record.id if record else None, label, texts))
            return len(self.claims) - 1

    def _next_pooled(self) -> int:
        """The next popularity draw from the claim pool.

        Draws follow a golden-ratio sequence rather than independent
        uniforms, so every prefix of the article stream, which is what a
        run consumes, matches the Zipf weights closely.
        """
        self._pool_u = (self._pool_u + _GOLDEN) % 1.0
        return min(int(np.searchsorted(self._pool_cdf, self._pool_u * self._pool_cdf[-1], side="right")), len(self._pool_cdf) - 1)

    def _article(self, i: int, rng, words: _WordMaker, size: tuple[str, int]) -> ArticlePlan:
        p = self.profile
        long = size[0] == "long"
        n_claims = size[1]
        picked: list[int] = []
        records: set[str] = set()
        while len(picked) < n_claims:
            if p.claim_pool:
                idx = self._next_pooled()
                if idx in picked or self.claims[idx].record in records:
                    continue
            else:
                idx = self._new_claim(rng, words, next(self._kinds), records)
            picked.append(idx)
            if self.claims[idx].record:
                records.add(self.claims[idx].record)
        n_filler = int(rng.integers(p.filler_words[0], p.filler_words[1] + 1)) * (4 if long else 1)
        filler = _sentences(self._common(rng, n_filler), rng).split(". ")
        filler = [s if s.endswith(".") else s + "." for s in filler]
        slots = sorted(int(x) for x in rng.integers(0, len(filler) + 1, size=n_claims))
        sentences: list[str] = []
        k = 0
        for pos in range(len(filler) + 1):
            while k < n_claims and slots[k] == pos:
                sentences.append(self.claims[picked[k]].texts[0])
                k += 1
            if pos < len(filler):
                sentences.append(filler[pos])
        # three sentences to a paragraph
        paragraphs = [" ".join(sentences[j : j + 3]) for j in range(0, len(sentences), 3)]
        return ArticlePlan(id=f"a{i:05d}", claims=tuple(picked), text="\n\n".join(paragraphs) + "\n")

    # -- files handed to the program ---------------------------------------

    def config_dict(self, endpoint: str | None) -> dict:
        """The run config; ``endpoint`` is the stub's base URL for remote workloads."""
        p = self.profile
        if p.remote:
            embed_ep = f"{endpoint}/v1/embeddings"
            chat_ep = f"{endpoint}/v1/chat/completions"
        else:
            embed_ep = "deterministic-test"
            chat_ep = "in-process"
        return {
            "corpus_path": "corpus.jsonl",
            "index_dir": "index",
            "embedders": [
                {"model_id": f"hash-{d}", "dimension": d, "endpoint": embed_ep, "seed": s}
                for d, s in zip(p.dims, (7, 13))
            ],
            "backends": {
                role: {"model_id": f"bench-{role}", "endpoint": chat_ep}
                for role in ("generator", "grader", "rewriter")
            },
            "chunking": {
                "article_chunk_size": p.article_chunk[0],
                "article_overlap": p.article_chunk[1],
                "kb_chunk_size": p.kb_chunk[0],
                "kb_overlap": p.kb_chunk[1],
            },
            "retrieval": {
                "k": 5,
                "lambda": 0.5,
                "min_similarity": p.min_similarity,
                "pool_size": 20,
                "reorder": "ends",
            },
            "refinement": {"max_rewrites": 2, "max_regenerations": 1},
            "evaluation": {"statement_source": "sentences", "judge": "lexical"},
            "concurrency": p.concurrency,
        }

    def write_inputs(self, workdir: Path, endpoint: str | None) -> Path:
        """Write corpus, articles and config under ``workdir``; returns the config path."""
        import yaml

        workdir.mkdir(parents=True, exist_ok=True)
        with (workdir / "corpus.jsonl").open("w", encoding="utf-8") as fh:
            for r in self.records:
                row = {
                    "id": r.id,
                    "title": r.title,
                    "abstract": r.abstract,
                    "authors": list(r.authors),
                    "published_date": r.date,
                    "keywords": list(r.lead[1:3]),
                }
                fh.write(json.dumps(row, ensure_ascii=False) + "\n")
        articles = workdir / "articles"
        articles.mkdir(exist_ok=True)
        for a in self.articles:
            (articles / f"{a.id}.md").write_text(a.text, encoding="utf-8")
        path = workdir / "config.yaml"
        path.write_text(yaml.safe_dump(self.config_dict(endpoint), sort_keys=False), encoding="utf-8")
        return path

    def describe(self) -> dict:
        """The generated properties recorded beside every result."""
        p = self.profile
        kinds = {k: 0 for k in KINDS}
        occurrences = 0
        seen: set[int] = set()
        recurring = 0
        per_article = []
        for a in self.articles:
            per_article.append(len(a.claims))
            for c in a.claims:
                kinds[self.claims[c].kind] += 1
                occurrences += 1
                recurring += c in seen
                seen.add(c)
        abstract_tokens = [len(r.abstract.split()) for r in self.records]
        return {
            "kb_records": len(self.records),
            "abstract_words_mean": round(float(np.mean(abstract_tokens)), 2),
            "kb_chunk": list(p.kb_chunk),
            "vocab": p.vocab,
            "vocab_zipf": p.vocab_zipf,
            "articles": len(self.articles),
            "claims_per_article_mean": round(float(np.mean(per_article)), 3),
            "long_article_share": p.long_article_share,
            "article_chunk": list(p.article_chunk),
            "claim_kind_share": {k: round(v / occurrences, 4) for k, v in kinds.items()},
            "recurring_claim_share": round(recurring / occurrences, 4),
            "distinct_claims": len(seen),
            "dims": list(p.dims),
            "concurrency": p.concurrency,
            "remote": p.remote,
            "service_ms": dict(p.service_ms),
        }
