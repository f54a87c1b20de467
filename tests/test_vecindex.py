"""Exact-search index: queries, tie rules, and the persistence format."""

from __future__ import annotations

import gc
import hashlib
import json
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimcheck import vecindex
from claimcheck.corpus import ChunkKey
from claimcheck.embedding import unit_normalize
from claimcheck.errors import ConfigError, IndexFormatError, ValidationError
from claimcheck.vecindex import NO_THRESHOLD, VectorIndex


def basis_index(dimension=4, model_id="m") -> VectorIndex:
    index = VectorIndex(model_id=model_id, dimension=dimension)
    items = [
        (ChunkKey("doc", i), np.eye(dimension)[i], {"title": f"t{i}", "text": f"body {i}"})
        for i in range(dimension)
    ]
    index.upsert(items)
    return index


def nearest(index: VectorIndex, query, k: int = 5, min_similarity: float = NO_THRESHOLD):
    """The k most similar entries: MMR on relevance alone over a pool of k."""
    return index.mmr_select(query, k=k, pool_size=k, lambda_=1.0, min_similarity=min_similarity)


def test_len_and_empty_search():
    index = VectorIndex("m", 3)
    assert len(index) == 0
    assert index.mmr_select([1.0, 0.0, 0.0]) == []


def test_dimension_validation():
    with pytest.raises(ConfigError):
        VectorIndex("m", 0)
    index = VectorIndex("m", 3)
    with pytest.raises(ValidationError):
        nearest(index, [1.0, 0.0])


def test_top_k_orders_by_similarity_then_key():
    index = VectorIndex("m", 2)
    index.upsert(
        [
            (ChunkKey("b", 0), [1.0, 0.0], {}),
            (ChunkKey("a", 1), [1.0, 0.0], {}),  # exact tie with b:0
            (ChunkKey("a", 0), [0.6, 0.8], {}),
        ]
    )
    hits = nearest(index, [1.0, 0.0], k=3)
    assert [tuple(h.chunk_key) for h in hits] == [("a", 1), ("b", 0), ("a", 0)]
    assert hits[0].similarity == pytest.approx(1.0)
    assert hits[2].similarity == pytest.approx(0.6)


def test_top_k_threshold_and_k():
    index = basis_index()
    query = [0.9, 0.3, 0.0, 0.0]
    assert len(nearest(index, query, k=2)) == 2
    hits = nearest(index, query, k=10, min_similarity=0.5)
    assert [h.chunk_key.seq for h in hits] == [0]


def test_vectors_stored_normalized():
    index = VectorIndex("m", 2)
    index.upsert([(ChunkKey("a", 0), [10.0, 0.0], {})])
    assert nearest(index, [1.0, 0.0])[0].similarity == pytest.approx(1.0)


def test_upsert_replaces_existing_key():
    index = VectorIndex("m", 2)
    index.upsert([(ChunkKey("a", 0), [1.0, 0.0], {"v": "old"})])
    index.upsert([(ChunkKey("a", 0), [0.0, 1.0], {"v": "new"})])
    assert len(index) == 1
    hit = nearest(index, [0.0, 1.0])[0]
    assert hit.similarity == pytest.approx(1.0)
    assert hit.metadata == {"v": "new"}


def test_upsert_merges_a_batch_into_key_order():
    rng = np.random.default_rng(11)
    first = [(ChunkKey("b", i), rng.normal(size=3), {"v": "1"}) for i in range(4)]
    second = [
        (ChunkKey("c", 0), rng.normal(size=3), {"v": "2"}),
        (ChunkKey("b", 2), rng.normal(size=3), {"v": "2"}),
        (ChunkKey("a", 0), rng.normal(size=3), {"v": "2"}),
    ]
    index = VectorIndex("m", 3)
    index.upsert(first)
    old_keys, old_matrix, old_metas = index._snapshot
    frozen = old_matrix.copy()
    index.upsert(second)
    expected = VectorIndex("m", 3)
    expected.upsert(sorted({k: (k, v, m) for k, v, m in first + second}.values()))
    assert index._snapshot[0] == expected._snapshot[0]
    assert np.array_equal(index._snapshot[1], expected._snapshot[1])
    assert index._snapshot[2] == expected._snapshot[2]
    # a reader still holding the old snapshot sees it unchanged
    assert old_keys == tuple(k for k, _, _ in first)
    assert np.array_equal(old_matrix, frozen)
    assert [m["v"] for m in old_metas] == ["1"] * 4


def test_stored_rows_equal_unit_normalize_bit_for_bit():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(50, 16))
    already_unit = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    for vectors in (raw, already_unit):
        index = VectorIndex("m", 16)
        index.upsert((ChunkKey("doc", i), v, {}) for i, v in enumerate(vectors))
        expected = np.array([unit_normalize(v) for v in vectors])
        assert index._snapshot[1].tobytes() == expected.tobytes()


def test_second_upsert_leaves_earlier_rows_bytes_untouched():
    rng = np.random.default_rng(6)
    index = VectorIndex("m", 8)
    index.upsert((ChunkKey("b", i), rng.normal(size=8), {}) for i in range(50))
    keys, matrix, _ = index._snapshot
    before = {key: row.tobytes() for key, row in zip(keys, matrix)}
    # renormalizing a stored row would move the bytes of at least one
    assert any(unit_normalize(row).tobytes() != row.tobytes() for row in matrix)
    index.upsert([(ChunkKey(p, 0), rng.normal(size=8), {}) for p in "ac"])
    keys, matrix, _ = index._snapshot
    after = {key: row.tobytes() for key, row in zip(keys, matrix)}
    assert len(after) == 52
    assert all(after[key] == row for key, row in before.items())


def test_upsert_validates_whole_batch_before_writing():
    index = VectorIndex("m", 2)
    with pytest.raises(ValidationError):
        index.upsert([(ChunkKey("a", 0), [1.0, 0.0], {}), (ChunkKey("a", 1), [1.0], {})])
    assert len(index) == 0  # nothing from the bad batch landed


def test_metadata_is_copied_per_hit():
    index = basis_index()
    hit = nearest(index, [1.0, 0.0, 0.0, 0.0], k=1)[0]
    hit.metadata["title"] = "mutated"
    assert nearest(index, [1.0, 0.0, 0.0, 0.0], k=1)[0].metadata["title"] == "t0"


# -- MMR ----------------------------------------------------------------------


def test_mmr_prefers_novel_evidence():
    # relevances ~(0.91, 0.86, 0.50) with a and b nearly duplicate
    # (a.b = 0.95) while c is novel (a.c = 0.1); at lambda 0.5 the second
    # pick trades b's higher relevance for c's novelty
    a = [1.0, 0.0, 0.0]
    b = [0.95, 0.3122, 0.0]
    c = [0.1, 0.05, 0.9937]
    query = [0.9, -0.016, 0.4136]
    index = VectorIndex("m", 3)
    index.upsert([(ChunkKey("a", 0), a, {}), (ChunkKey("b", 0), b, {}), (ChunkKey("c", 0), c, {})])
    hits = index.mmr_select(query, k=2, pool_size=3, lambda_=0.5)
    assert [h.chunk_key.parent_id for h in hits] == ["a", "c"]
    relevance_only = index.mmr_select(query, k=2, pool_size=3, lambda_=1.0)
    assert [h.chunk_key.parent_id for h in relevance_only] == ["a", "b"]


def test_mmr_lambda_one_equals_top_k():
    rng = np.random.default_rng(5)
    vectors = rng.normal(size=(30, 8))
    keys = [ChunkKey("d", i) for i in range(30)]
    index = VectorIndex("m", 8)
    index.upsert([(key, v, {"i": str(key.seq)}) for key, v in zip(keys, vectors)])
    units = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    for _ in range(10):
        query = rng.normal(size=8)
        sims = units @ (query / np.linalg.norm(query))
        # brute force: similarity descending, then key ascending
        expected = sorted(range(30), key=lambda i: (-sims[i], keys[i]))[:6]
        hits = index.mmr_select(query, k=6, pool_size=30, lambda_=1.0)
        assert [h.chunk_key for h in hits] == [keys[i] for i in expected]
        np.testing.assert_allclose([h.similarity for h in hits], sims[expected])


def test_mmr_pool_limits_candidates():
    index = basis_index()
    query = [0.8, 0.5, 0.3, 0.1]
    hits = index.mmr_select(query, k=2, pool_size=2, lambda_=0.0)
    picked = {h.chunk_key.seq for h in hits}
    assert picked <= {0, 1}  # seq 2,3 never entered the pool


def test_mmr_respects_min_similarity():
    index = basis_index()
    hits = index.mmr_select([1.0, 0.0, 0.0, 0.0], k=4, pool_size=4, min_similarity=0.5)
    assert [h.chunk_key.seq for h in hits] == [0]


def test_mmr_parameter_validation():
    index = basis_index()
    with pytest.raises(ConfigError):
        index.mmr_select([1.0, 0, 0, 0], lambda_=1.5)
    with pytest.raises(ConfigError):
        index.mmr_select([1.0, 0, 0, 0], k=5, pool_size=3)


# -- persistence --------------------------------------------------------------


def populated_index() -> VectorIndex:
    rng = np.random.default_rng(9)
    index = VectorIndex("model/with-slash", 5)
    index.upsert(
        [
            (ChunkKey(f"kb{i % 3}", i), rng.normal(size=5), {"title": f"T{i}", "n": str(i)})
            for i in range(12)
        ]
    )
    return index


def test_persist_load_round_trip(tmp_path):
    index = populated_index()
    path = tmp_path / "test.idx"
    index.persist(path)
    loaded = VectorIndex.load(path)

    assert loaded.model_id == index.model_id
    assert loaded.dimension == index.dimension
    assert len(loaded) == len(index)
    query = np.arange(5, dtype=np.float64)
    original = nearest(index, query, k=12)
    reloaded = nearest(loaded, query, k=12)
    assert [h.chunk_key for h in original] == [h.chunk_key for h in reloaded]
    np.testing.assert_array_equal(
        [h.similarity for h in original], [h.similarity for h in reloaded]
    )
    assert [h.metadata for h in original] == [h.metadata for h in reloaded]
    assert np.array_equal(loaded._snapshot[1], index._snapshot[1])


def test_persist_is_deterministic_and_reload_stable(tmp_path):
    index = populated_index()
    first = tmp_path / "a.idx"
    second = tmp_path / "b.idx"
    index.persist(first)
    index.persist(second)
    assert first.read_bytes() == second.read_bytes()
    # persist(load(persist(x))) is byte-stable: the matrix bytes are written
    # and read exactly, with no renormalizing on load
    third = tmp_path / "c.idx"
    VectorIndex.load(first).persist(third)
    assert third.read_bytes() == first.read_bytes()


def test_persist_leaves_no_tmp_file(tmp_path):
    path = tmp_path / "test.idx"
    populated_index().persist(path)
    assert [p.name for p in tmp_path.iterdir()] == ["test.idx"]


def split_sections(data: bytes) -> tuple[dict, bytes, bytes]:
    """(header, metadata section, matrix section) of a version 2 file."""
    header_line, rest = data.split(b"\n", 1)
    header = json.loads(header_line)
    return header, rest[: header["metadata_bytes"]], rest[header["metadata_bytes"] :]


def write_sealed(path, header: dict, metadata: bytes, matrix: bytes) -> None:
    """Write a version 2 file with a valid digest, computed as the format documents."""
    header = {k: v for k, v in header.items() if k != "sha256"}
    header["metadata_bytes"] = len(metadata)
    line = (json.dumps(header, ensure_ascii=False, sort_keys=True) + "\n").encode("utf-8")
    header["sha256"] = hashlib.sha256(line + metadata + matrix).hexdigest()
    line = (json.dumps(header, ensure_ascii=False, sort_keys=True) + "\n").encode("utf-8")
    path.write_bytes(line + metadata + matrix)


def test_header_contents(tmp_path):
    path = tmp_path / "test.idx"
    index = populated_index()
    index.persist(path)
    header, metadata, matrix = split_sections(path.read_bytes())
    digest = header.pop("sha256")
    assert header == {
        "format": "claimcheck-index",
        "version": 2,
        "model_id": "model/with-slash",
        "dimension": 5,
        "count": 12,
        "metadata_bytes": len(metadata),
    }
    assert len(digest) == 64
    entries = [json.loads(line) for line in metadata.splitlines()]
    assert [(e["parent_id"], e["seq"]) for e in entries] == [tuple(k) for k in index._snapshot[0]]
    assert entries[0]["metadata"] == {"n": "0", "title": "T0"}
    assert np.array_equal(np.frombuffer(matrix, "<f8").reshape(12, 5), index._snapshot[1])
    # resealing the same sections reproduces the file: the digest is as documented
    write_sealed(tmp_path / "resealed.idx", {**header, "sha256": digest}, metadata, matrix)
    assert (tmp_path / "resealed.idx").read_bytes() == path.read_bytes()


def test_load_rejects_damaged_files(tmp_path):
    path = tmp_path / "test.idx"

    with pytest.raises(IndexFormatError, match="not found"):
        VectorIndex.load(path)

    path.write_bytes(b"")
    with pytest.raises(IndexFormatError, match="missing header"):
        VectorIndex.load(path)

    path.write_bytes(b"{broken\n")
    with pytest.raises(IndexFormatError, match="not valid JSON"):
        VectorIndex.load(path)

    path.write_bytes(b'{"format": "something-else", "version": 2}\n')
    with pytest.raises(IndexFormatError, match="not a claimcheck-index"):
        VectorIndex.load(path)

    populated_index().persist(path)
    pristine = path.read_bytes()
    header, metadata, matrix = split_sections(pristine)

    path.write_bytes(pristine.replace(b'"version": 2', b'"version": 99', 1))
    with pytest.raises(IndexFormatError, match="version 99"):
        VectorIndex.load(path)

    path.write_bytes(pristine[:-8])  # the last row loses its last component
    with pytest.raises(IndexFormatError, match="truncated"):
        VectorIndex.load(path)

    path.write_bytes(pristine[:-1] + bytes([pristine[-1] ^ 1]))
    with pytest.raises(IndexFormatError, match="checksum"):
        VectorIndex.load(path)

    write_sealed(path, header, metadata.replace(b"{", b"{bad json", 1), matrix)
    with pytest.raises(IndexFormatError, match="bad entry 0"):
        VectorIndex.load(path)

    write_sealed(path, header, metadata.replace(b'"seq": 0', b'"seq": "0"', 1), matrix)
    with pytest.raises(IndexFormatError, match="bad entry 0"):
        VectorIndex.load(path)

    lines = metadata.splitlines(keepends=True)
    write_sealed(path, header, b"".join([lines[1], lines[0], *lines[2:]]), matrix)
    with pytest.raises(IndexFormatError, match="chunk-key order"):
        VectorIndex.load(path)

    write_sealed(path, {**header, "dimension": 4}, metadata, matrix)
    with pytest.raises(IndexFormatError, match="dimension 4"):
        VectorIndex.load(path)

    write_sealed(path, {**header, "dimension": 0, "count": 0}, b"", b"")
    with pytest.raises(IndexFormatError, match="damaged header"):
        VectorIndex.load(path)

    renamed = {("cound" if k == "count" else k): v for k, v in header.items()}
    write_sealed(path, renamed, metadata, matrix)
    with pytest.raises(IndexFormatError, match="damaged header"):
        VectorIndex.load(path)

    for bad_value in (0.0, np.nan, np.inf):
        rows = np.frombuffer(matrix, "<f8").reshape(12, 5).copy()
        rows[3] = bad_value if bad_value else 0.0
        write_sealed(path, header, metadata, rows.tobytes())
        with pytest.raises(IndexFormatError, match="entry 3 holds a zero or non-finite"):
            VectorIndex.load(path)


def test_load_rejects_equivalent_but_altered_header(tmp_path):
    # each edit keeps the header's JSON values, so only the canonical-form
    # check can catch it: the digest covers the values, not the spelling
    path = tmp_path / "test.idx"
    populated_index().persist(path)
    pristine = path.read_bytes()
    for old, new in ((b'"count": 12,', b'"count":\t12,'), (b'"model_id": "m', b'"model_id": "\\u006d')):
        path.write_bytes(pristine.replace(old, new, 1))
        with pytest.raises(IndexFormatError, match="damaged header"):
            VectorIndex.load(path)


def test_load_refuses_version_1_files(tmp_path):
    path = tmp_path / "test.idx"
    header = {"count": 1, "dimension": 2, "format": "claimcheck-index", "model_id": "m", "version": 1}
    entry = {"metadata": {}, "parent_id": "a", "seq": 0, "vector": [1.0, 0.0]}
    path.write_text(json.dumps(header) + "\n" + json.dumps(entry) + "\n", encoding="utf-8")
    with pytest.raises(IndexFormatError, match="version 1 is not supported.*claimcheck build-index"):
        VectorIndex.load(path)


@pytest.fixture(scope="module")
def pristine_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("damage") / "test.idx"
    populated_index().persist(path)
    return path, path.read_bytes()


def test_every_truncation_raises_index_format_error(pristine_file):
    path, pristine = pristine_file
    try:
        for end in range(len(pristine)):
            path.write_bytes(pristine[:end])
            with pytest.raises(IndexFormatError):
                VectorIndex.load(path)
    finally:
        path.write_bytes(pristine)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_damage_raises_index_format_error(pristine_file, data):
    path, pristine = pristine_file
    header_end = pristine.index(b"\n") + 1
    metadata_end = header_end + split_sections(pristine)[0]["metadata_bytes"]
    section = data.draw(
        st.sampled_from([(0, header_end), (header_end, metadata_end), (metadata_end, len(pristine))])
    )
    offset = data.draw(st.integers(*section).filter(lambda i: i < len(pristine)))
    if data.draw(st.booleans()):
        damaged = pristine[:offset]
    else:
        flipped = pristine[offset] ^ data.draw(st.integers(1, 255))
        damaged = pristine[:offset] + bytes([flipped]) + pristine[offset + 1 :]
    path.write_bytes(damaged)
    try:
        with pytest.raises(IndexFormatError):
            VectorIndex.load(path)
    finally:
        path.write_bytes(pristine)


def test_load_peak_allocation_stays_near_one_matrix(tmp_path):
    # the loaded snapshot is the only store: the matrix is read straight
    # into its final array, with no staging copy beside it
    n, d = 1000, 256
    rng = np.random.default_rng(3)
    index = VectorIndex("m", d)
    index.upsert((ChunkKey("doc", i), rng.normal(size=d), {}) for i in range(n))
    path = tmp_path / "big.idx"
    index.persist(path)
    del index
    tracemalloc.start()
    try:
        loaded = VectorIndex.load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded) == n
    assert peak < 1.5 * n * d * 8


def test_upsert_peak_allocation_stays_near_one_matrix():
    # each new row is normalized straight into the new snapshot matrix,
    # with no normalized copy per row and no stacking copy beside it
    n, d = 2000, 256
    vectors = np.random.default_rng(4).normal(size=(n, d))
    index = VectorIndex("m", d)
    tracemalloc.start()
    try:
        index.upsert((ChunkKey("doc", i), v, {}) for i, v in enumerate(vectors))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(index) == n
    assert peak < 1.5 * n * d * 8


# -- one parse per metadata section -------------------------------------------


def sharing_files(tmp_path):
    """Two files whose metadata sections are byte-identical and whose
    matrices differ: the two legs of one corpus.  Returns both paths, the
    first file's sections and the registry key of their metadata."""
    first = tmp_path / "first.idx"
    populated_index().persist(first)
    header, metadata, matrix = split_sections(first.read_bytes())
    second = tmp_path / "second.idx"
    rows = -np.frombuffer(matrix, "<f8")
    write_sealed(second, {**header, "model_id": "other"}, metadata, rows.tobytes())
    return first, second, (header, metadata, matrix), hashlib.sha256(metadata).digest()


def test_identical_metadata_sections_share_one_parse(tmp_path):
    first, second, _, _ = sharing_files(tmp_path)
    a, b = VectorIndex.load(first), VectorIndex.load(second)
    assert a._snapshot[0] is b._snapshot[0]
    assert a._snapshot[2] is b._snapshot[2]
    assert not np.array_equal(a._snapshot[1], b._snapshot[1])
    assert (a.model_id, b.model_id) == ("model/with-slash", "other")


def test_sections_one_byte_apart_share_nothing(tmp_path):
    first, second, (header, metadata, matrix), _ = sharing_files(tmp_path)
    write_sealed(second, header, metadata.replace(b'"T0"', b'"T9"', 1), matrix)
    a, b = VectorIndex.load(first), VectorIndex.load(second)
    assert a._snapshot[0] is not b._snapshot[0]
    assert a._snapshot[2] is not b._snapshot[2]
    assert not any(x is y for x, y in zip(a._snapshot[0], b._snapshot[0]))
    assert not any(x is y for x, y in zip(a._snapshot[2], b._snapshot[2]))
    assert (a._snapshot[2][0]["title"], b._snapshot[2][0]["title"]) == ("T0", "T9")


def test_shared_parse_is_dropped_with_its_last_index(tmp_path):
    first, second, _, key = sharing_files(tmp_path)
    gc.collect()
    registered = len(vecindex._PARSED)
    a, b = VectorIndex.load(first), VectorIndex.load(second)
    assert key in vecindex._PARSED
    assert len(vecindex._PARSED) == registered + 1
    del a
    gc.collect()
    assert key in vecindex._PARSED  # b still holds it
    del b
    gc.collect()
    assert key not in vecindex._PARSED
    assert len(vecindex._PARSED) == registered


def test_damaged_file_never_reuses_a_live_parse(tmp_path):
    first, second, (header, metadata, matrix), key = sharing_files(tmp_path)
    live = VectorIndex.load(first)
    assert key in vecindex._PARSED
    pristine = second.read_bytes()
    second.write_bytes(pristine[:-1] + bytes([pristine[-1] ^ 1]))
    with pytest.raises(IndexFormatError, match="checksum"):
        VectorIndex.load(second)
    rows = np.frombuffer(matrix, "<f8").reshape(12, 5).copy()
    rows[7] = 0.0
    write_sealed(second, header, metadata, rows.tobytes())
    with pytest.raises(IndexFormatError, match="entry 7 holds a zero or non-finite"):
        VectorIndex.load(second)
    # the same matrix bytes read as 6 rows of 10: only the line count differs
    write_sealed(second, {**header, "count": 6, "dimension": 10}, metadata, matrix)
    with pytest.raises(IndexFormatError, match="metadata holds 12 lines for 6 entries"):
        VectorIndex.load(second)
    assert len(live) == 12


def test_upsert_into_one_sharing_index_leaves_the_other_unchanged(tmp_path):
    first, second, _, _ = sharing_files(tmp_path)
    a, b = VectorIndex.load(first), VectorIndex.load(second)
    query = np.arange(5, dtype=np.float64)
    before = nearest(b, query, k=12)
    metas = [dict(m) for m in b._snapshot[2]]
    a.upsert(
        [
            (ChunkKey("kb0", 0), np.ones(5), {"title": "replaced"}),
            (ChunkKey("kb9", 0), np.ones(5), {"title": "new"}),
        ]
    )
    assert len(a) == 13 and a._snapshot[2][0] == {"title": "replaced"}
    assert nearest(b, query, k=12) == before
    assert [dict(m) for m in b._snapshot[2]] == metas
    assert len(b) == 12


def test_loads_racing_on_one_section_each_get_the_whole_parse(tmp_path):
    first, second, _, key = sharing_files(tmp_path)
    reference = VectorIndex.load(first)._snapshot
    keys, metas = list(reference[0]), [dict(m) for m in reference[2]]
    del reference
    wrong: list[int] = []

    def load(offset: int) -> None:
        for n in range(40):
            index = VectorIndex.load(second if (offset + n) % 2 else first)
            if list(index._snapshot[0]) != keys or list(index._snapshot[2]) != metas:
                wrong.append(offset)

    # more threads than cores, switching often, each index dropped as the
    # next loads: a race on the registry would show as an exception or as
    # a crossed or partial parse
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as loaders:
            futures = [loaders.submit(load, i) for i in range(8)]
            for future in futures:
                future.result(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    gc.collect()
    assert key not in vecindex._PARSED


# -- the one-pass metadata parse ----------------------------------------------


def test_bad_entries_are_named_by_their_line(tmp_path):
    path = tmp_path / "test.idx"
    populated_index().persist(path)
    header, metadata, matrix = split_sections(path.read_bytes())
    lines = metadata.splitlines(keepends=True)

    def sealed_with(n: int, line: bytes) -> None:
        write_sealed(path, header, b"".join([*lines[:n], line, *lines[n + 1 :]]), matrix)

    sealed_with(5, lines[5].replace(b'"metadata": {', b'"metadata": {"a": 5, '))
    with pytest.raises(IndexFormatError, match="bad entry 5: "):
        VectorIndex.load(path)
    sealed_with(3, lines[3].replace(b'"title": "', b'"title": "\xff', 1))
    with pytest.raises(IndexFormatError, match="bad entry 3: 'utf-8' codec can't decode byte 0xff"):
        VectorIndex.load(path)
    sealed_with(6, lines[6].replace(b"{", b"{oops", 1))
    with pytest.raises(IndexFormatError, match="bad entry 6: Expecting property name"):
        VectorIndex.load(path)


def test_each_metadata_line_is_exactly_one_json_value(tmp_path):
    path = tmp_path / "test.idx"
    populated_index().persist(path)
    header, metadata, matrix = split_sections(path.read_bytes())
    lines = metadata.splitlines(keepends=True)
    for n, line in ((2, b" " + lines[2]), (4, lines[4][:-1] + b" \n")):
        write_sealed(path, header, b"".join([*lines[:n], line, *lines[n + 1 :]]), matrix)
        with pytest.raises(IndexFormatError, match=f"bad entry {n}: "):
            VectorIndex.load(path)
    # entry 4 split over two lines and the last entry dropped: still 12 lines
    split = lines[4].replace(b', "parent_id"', b',\n"parent_id"')
    assert split.count(b"\n") == 2
    write_sealed(path, header, b"".join([*lines[:4], split, *lines[5:-1]]), matrix)
    with pytest.raises(IndexFormatError, match="bad entry 4: "):
        VectorIndex.load(path)
