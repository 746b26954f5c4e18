"""The cache envelope: artifacts round-trip through it, every damaged or
old-format file is a miss that the next set-up rebuilds, and a load maps
read-only arrays without keeping anything open once they are dropped."""

import dataclasses
import functools
import json
import os
import pickle
import sqlite3
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixture_dbs import build_finance_db, build_finance_descriptions

from querycrew import caching, pipeline, value_index
from querycrew.caching import (
    CATALOG_MAGIC, CONTEXT_STORE_MAGIC, VALUE_INDEX_MAGIC, config_hash, description_digest,
    file_sha256, load_envelope, save_envelope,
)
from querycrew.catalog import ColumnInfo, SchemaCatalog, TableInfo, introspect_database
from querycrew.context_store import (
    ContextStore, HashingEmbedder, StoreItem, build_context_store, retrieve_context,
)
from querycrew.pipeline import PipelineConfig, ensure_artifacts
from querycrew.value_index import (
    IndexConfig, ValueIndex, _indexed_columns, build_value_index, lsh_query, retrieve_entities,
)

CONFIG = PipelineConfig(team="CG_only", n_candidates=1, n_unit_tests=0)


def _catalog_decoder(_catalog: SchemaCatalog):
    """What `ensure_artifacts` loads a catalog with."""
    return lambda document, _arrays: SchemaCatalog.from_json_dict(document)


def _index_decoder(catalog: SchemaCatalog):
    """What `ensure_artifacts` loads a value index of `catalog` with."""
    return functools.partial(ValueIndex.from_parts, _indexed_columns(catalog), IndexConfig())


def _store_decoder(catalog: SchemaCatalog):
    """What `ensure_artifacts` loads a context store of `catalog` with."""
    return lambda _document, arrays: ContextStore.from_parts(catalog, arrays)


KINDS = {
    "catalog": (CATALOG_MAGIC, _catalog_decoder),
    "value_index": (VALUE_INDEX_MAGIC, _index_decoder),
    "context_store": (CONTEXT_STORE_MAGIC, _store_decoder),
}


def _small_db(root: Path) -> Path:
    """A database with a few text values and one description file."""
    db = root / "small.sqlite"
    conn = sqlite3.connect(db)
    conn.execute("CREATE TABLE district (id INTEGER PRIMARY KEY, A2 TEXT, A3 TEXT)")
    conn.executemany("INSERT INTO district VALUES (?, ?, ?)",
                     [(1, "Praha", "north"), (2, "Brno", "south"), (3, "Kladno", None)])
    conn.commit()
    conn.close()
    (root / "database_description").mkdir()
    (root / "database_description" / "district.csv").write_text(
        "original_column_name,column_name,column_description,data_format,value_description\n"
        "A2,district name,name of the district,text,\n", encoding="utf-8",
    )
    return db


def _keys(db: Path) -> dict[str, dict]:
    """The key each kind of cache of `db` is saved under by `ensure_artifacts`."""
    db_hash, descriptions = file_sha256(db), description_digest(db.parent / "database_description")
    return {
        "catalog": {"db": db_hash, "descriptions": descriptions},
        "value_index": {"db": db_hash, "config": config_hash(CONFIG.index.build_dict()),
                        "columns": config_hash(_indexed_columns(introspect_database(db)))},
        "context_store": {"db": db_hash, "descriptions": descriptions,
                          "config": config_hash({"embedder": CONFIG.embedder, "k": "context"})},
    }


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=30),
        keywords=st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=5),
    )
    @example(values=["a\0b", "\x01c\0", "\U0001F600 d\n"], keywords=["a\0b"])
    def test_value_index(self, values, keywords):
        with tempfile.TemporaryDirectory() as tmp:
            db = Path(tmp) / "values.sqlite"
            conn = sqlite3.connect(db)
            conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a TEXT, b TEXT)")
            conn.executemany("INSERT INTO t VALUES (?, ?, ?)",
                             [(i, v, values[-1 - i] if i % 2 else None)
                              for i, v in enumerate(values)])
            conn.commit()
            conn.close()
            catalog = introspect_database(db)
            built = build_value_index(catalog, db, IndexConfig())
            path = Path(tmp) / "values.qcx"
            save_envelope(path, VALUE_INDEX_MAGIC, {"k": 1}, *built.to_parts())
            loaded = load_envelope(path, VALUE_INDEX_MAGIC, {"k": 1}, _index_decoder(catalog))

            assert loaded is not None
            assert loaded.values == built.values
            assert loaded.locations == built.locations
            for name in ("loc_offsets", "loc_ids", "band_keys", "band_ids"):
                assert np.array_equal(getattr(loaded, name), getattr(built, name)), name
            for keyword in keywords + built.values[:3]:
                assert lsh_query(loaded, keyword, cap=20) == lsh_query(built, keyword, cap=20)

    @settings(max_examples=40, deadline=None)
    @given(
        texts=st.lists(st.text(min_size=1, max_size=30), max_size=12),
        queries=st.lists(st.text(max_size=20), min_size=1, max_size=4),
        k=st.integers(0, 15),
    )
    def test_context_store(self, texts, queries, k):
        columns = [ColumnInfo(name=f"c{i}\0{text[:2]}", column_description=text)
                   for i, text in enumerate(texts)]
        catalog = SchemaCatalog(db_id="d", tables=[TableInfo("t\0é", columns)])
        embedder = HashingEmbedder()
        built = build_context_store(catalog, embedder)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "store.qcx"
            save_envelope(path, CONTEXT_STORE_MAGIC, {"k": 1}, *built.to_parts())
            loaded = load_envelope(path, CONTEXT_STORE_MAGIC, {"k": 1}, _store_decoder(catalog))
        assert loaded is not None and loaded.embedder is None
        loaded.embedder = embedder
        assert loaded.items == built.items
        assert loaded.vectors.tobytes() == built.vectors.tobytes()
        for query in queries:
            assert retrieve_context(loaded, query, k) == retrieve_context(built, query, k)


class TestDamagedFiles:
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_every_truncation_is_a_miss_and_is_rebuilt(self, tmp_path, kind):
        db = _small_db(tmp_path)
        built = ensure_artifacts(db, CONFIG)
        magic, decoder = KINDS[kind]
        decode = decoder(built.catalog)
        key = _keys(db)[kind]
        cache = tmp_path / f"small.{kind}.qcx"
        whole = cache.read_bytes()
        assert load_envelope(cache, magic, key, decode) is not None
        for cut in range(len(whole)):
            cache.write_bytes(whole[:cut])
            assert load_envelope(cache, magic, key, decode) is None, cut
        for cut in sorted({0, 1, len(whole) // 3, len(whole) // 2, len(whole) - 1}):
            cache.write_bytes(whole[:cut])
            again = ensure_artifacts(db, CONFIG)
            assert cache.read_bytes() == whole, cut
            assert again.catalog == built.catalog
            assert again.value_index.values == built.value_index.values
            assert again.context_store.items == built.context_store.items != []

    def test_an_extended_file_is_a_miss(self, tmp_path):
        db = _small_db(tmp_path)
        ensure_artifacts(db, CONFIG)
        cache = tmp_path / "small.value_index.qcx"
        with open(cache, "ab") as fh:
            fh.write(b"\0" * 8)
        assert load_envelope(cache, VALUE_INDEX_MAGIC, _keys(db)["value_index"]) is None

    @pytest.mark.parametrize("kind", ["value_index", "context_store"])
    def test_old_pickle_file_is_rebuilt_without_being_unpickled(self, tmp_path, kind):
        db = _small_db(tmp_path)
        ensure_artifacts(db, CONFIG)
        cache = tmp_path / f"small.{kind}.qcx"
        fresh = cache.read_bytes()
        old_magic = {"value_index": b"QCWVIDX1", "context_store": b"QCWCTXS1"}[kind]
        header = json.dumps(_keys(db)[kind], sort_keys=True).encode("utf-8")
        cache.write_bytes(old_magic + b"\n" + len(header).to_bytes(8, "big") + header
                          + pickle.dumps(_RecordsUnpickling(), pickle.HIGHEST_PROTOCOL))
        UNPICKLED.clear()

        ensure_artifacts(db, CONFIG)
        assert UNPICKLED == []
        assert cache.read_bytes() == fresh

    @pytest.mark.parametrize("kind", ["value_index", "context_store"])
    def test_format_2_file_is_rebuilt_once(self, tmp_path, kind):
        """Caches in the two formats before this one are misses: format 2,
        whose document repeated the index's config and located columns or the
        store's items, and format 3, laid out as today but hashed with
        blake2b, whose band keys no query signature would meet."""
        db = _small_db(tmp_path)
        built = ensure_artifacts(db, CONFIG)
        cache = tmp_path / f"small.{kind}.qcx"
        fresh = cache.read_bytes()
        if kind == "value_index":
            document, arrays = built.value_index.to_parts()
            formats = {b"QCWVIDX2": {**document, "config": CONFIG.index.to_dict(),
                                     "locations": built.value_index.locations},
                       b"QCWVIDX3": document}
        else:
            document, arrays = built.context_store.to_parts()
            formats = {b"QCWCTXS2": {f.name: [getattr(item, f.name)
                                              for item in built.context_store.items]
                                     for f in dataclasses.fields(StoreItem)},
                       b"QCWCTXS3": document}
        for old_magic, old_document in formats.items():
            save_envelope(cache, old_magic, _keys(db)[kind], old_document, arrays)
            os.utime(cache, ns=(0, 0))

            again = ensure_artifacts(db, CONFIG)
            stamp = cache.stat().st_mtime_ns
            assert stamp != 0, old_magic
            assert cache.read_bytes() == fresh
            ensure_artifacts(db, CONFIG)
            assert cache.stat().st_mtime_ns == stamp
            assert again.value_index.values == built.value_index.values
            assert again.context_store.items == built.context_store.items != []

    def test_store_whose_vectors_do_not_fit_the_catalog_is_rebuilt(self, tmp_path):
        db = _small_db(tmp_path)
        built = ensure_artifacts(db, CONFIG)
        cache = tmp_path / "small.context_store.qcx"
        fresh, key = cache.read_bytes(), _keys(db)["context_store"]
        vectors = built.context_store.vectors
        assert len(vectors) == 2
        for wrong in (vectors[:1], np.vstack([vectors, vectors[:1]]), vectors[0]):
            save_envelope(cache, CONTEXT_STORE_MAGIC, key, {}, {"vectors": wrong})
            assert load_envelope(cache, CONTEXT_STORE_MAGIC, key,
                                 _store_decoder(built.catalog)) is None
            again = ensure_artifacts(db, CONFIG)
            assert cache.read_bytes() == fresh
            assert again.context_store.items == built.context_store.items

    def test_caching_imports_no_pickle(self):
        assert "pickle" not in vars(caching)


class TestCatalogIsTheOneCopy:
    def test_warm_load_takes_items_and_locations_from_the_catalog(self, tmp_path):
        db = build_finance_db(tmp_path / "finance.sqlite")
        build_finance_descriptions(tmp_path / "database_description")
        ensure_artifacts(db, CONFIG)
        warm = ensure_artifacts(db, CONFIG)
        items = warm.context_store.items
        assert len(items) > 10
        for item in items:
            attribute = item.doc_id.rsplit(".", 1)[1]
            assert item.text is getattr(warm.catalog.column(item.table, item.column), attribute)
        fresh = build_value_index(introspect_database(db), db, IndexConfig())
        assert len(fresh.locations) > 1
        assert warm.value_index.locations == fresh.locations
        assert warm.value_index.config is CONFIG.index

    def test_a_changed_column_list_rebuilds_the_index(self, tmp_path, monkeypatch):
        """The value index's key holds its column list, so a change to which
        columns are indexed is a miss even though the database is the same."""
        db = tmp_path / "coded.sqlite"
        conn = sqlite3.connect(db)
        conn.execute("CREATE TABLE fx (id INTEGER PRIMARY KEY, name TEXT, code VARCHAR(3))")
        conn.executemany("INSERT INTO fx VALUES (?, ?, ?)",
                         [(1, "euro", "EUR"), (2, "koruna", "CZK")])
        conn.commit()
        conn.close()
        assert ensure_artifacts(db, CONFIG).value_index.locations == [
            ("fx", "name"), ("fx", "code")]
        monkeypatch.setattr(value_index, "_is_text_type", lambda declared: declared == "TEXT")

        warm = ensure_artifacts(db, CONFIG).value_index
        fresh = build_value_index(introspect_database(db), db, IndexConfig())
        assert warm.locations == fresh.locations == [("fx", "name")]
        assert warm.values == fresh.values == ["euro", "koruna"]
        for name in ("loc_offsets", "loc_ids", "band_keys", "band_ids"):
            assert np.array_equal(getattr(warm, name), getattr(fresh, name)), name

    def test_documents_hold_only_the_values_separator(self, tmp_path):
        db = _small_db(tmp_path)
        ensure_artifacts(db, CONFIG)
        for kind, fields in (("value_index", ["sep"]), ("context_store", [])):
            document, _arrays = load_envelope(
                tmp_path / f"small.{kind}.qcx", KINDS[kind][0], _keys(db)[kind])
            assert sorted(document) == fields, kind


class TestValueIndexKey:
    """The index's key holds only the config fields its build reads; the
    retrieval fields come from the config it is loaded with."""

    @staticmethod
    def _config(**index_fields) -> PipelineConfig:
        return dataclasses.replace(CONFIG, index=IndexConfig(**index_fields))

    @pytest.fixture
    def builds(self, monkeypatch) -> list:
        calls = []

        def counting(*args):
            calls.append(args)
            return build_value_index(*args)

        monkeypatch.setattr(pipeline, "build_value_index", counting)
        return calls

    def test_a_changed_retrieval_field_loads_the_cached_index(self, tmp_path, builds):
        db = build_finance_db(tmp_path / "finance.sqlite")
        built = ensure_artifacts(db, CONFIG)
        builds.clear()
        cache = tmp_path / "finance.value_index.qcx"
        stamp = cache.stat().st_mtime_ns
        embedder = HashingEmbedder()
        assert len(lsh_query(built.value_index, "f")) == 2
        assert retrieve_entities(built.value_index, ["eur"], embedder) != []

        capped = ensure_artifacts(db, self._config(lsh_candidate_cap=1)).value_index
        assert len(lsh_query(capped, "f")) == 1
        none_kept = ensure_artifacts(db, self._config(embed_top_k=0)).value_index
        assert retrieve_entities(none_kept, ["eur"], embedder) == []
        strict = self._config(cosine_threshold=1.0)
        assert ensure_artifacts(db, strict).value_index.config is strict.index
        assert builds == []
        assert cache.stat().st_mtime_ns == stamp
        assert capped.values == built.value_index.values

    @pytest.mark.parametrize("index_fields", [
        {"ngram_size": 2}, {"permutation_seed": 14}, {"max_value_length": 4},
        {"num_permutations": 64, "lsh_bands": 16},
    ])
    def test_a_changed_build_field_rebuilds(self, tmp_path, builds, index_fields):
        db = build_finance_db(tmp_path / "finance.sqlite")
        ensure_artifacts(db, CONFIG)
        builds.clear()
        config = self._config(**index_fields)
        again = ensure_artifacts(db, config).value_index
        assert len(builds) == 1
        fresh = build_value_index(introspect_database(db), db, config.index)
        assert again.values == fresh.values
        assert np.array_equal(again.band_keys, fresh.band_keys)


UNPICKLED: list[str] = []


def _record_unpickling() -> None:
    UNPICKLED.append("unpickled")


class _RecordsUnpickling:
    def __reduce__(self):
        return (_record_unpickling, ())


class TestMappedArrays:
    def test_mapped_arrays_are_not_writeable(self, tmp_path):
        db = _small_db(tmp_path)
        ensure_artifacts(db, CONFIG)
        loaded = ensure_artifacts(db, CONFIG)
        index, store = loaded.value_index, loaded.context_store
        for array in (index.loc_offsets, index.loc_ids, index.band_keys, index.band_ids,
                      store.vectors):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0

    def test_arrays_sit_at_aligned_offsets_after_the_header(self, tmp_path):
        path = tmp_path / "x.qcx"
        arrays = {"a": np.arange(3, dtype=np.uint8), "b": np.ones((2, 3))}
        save_envelope(path, b"MAGIC", {"v": 1}, ["doc"], arrays)
        document, loaded = load_envelope(path, b"MAGIC", {"v": 1})
        assert document == ["doc"]
        assert {name: a.tolist() for name, a in loaded.items()} == {
            name: a.tolist() for name, a in arrays.items()
        }
        data = path.read_bytes()
        header_end = 14 + int.from_bytes(data[6:14], "big")
        assert header_end % caching.ALIGN == 0
        for name, _dtype, _shape, offset in json.loads(data[14:header_end])["arrays"]:
            assert offset % caching.ALIGN == 0
            assert data[header_end + offset :][: arrays[name].nbytes] == arrays[name].tobytes()

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
    def test_loads_leave_no_descriptor_open(self, tmp_path):
        db = _small_db(tmp_path)
        decode = _index_decoder(ensure_artifacts(db, CONFIG).catalog)
        cache = tmp_path / "small.value_index.qcx"
        key = _keys(db)["value_index"]
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(100):
            index = load_envelope(cache, VALUE_INDEX_MAGIC, key, decode)
            assert len(index) == 5
            del index
        assert len(os.listdir("/proc/self/fd")) == before

