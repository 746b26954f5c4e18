import dataclasses
import hashlib
import json
import random
import sqlite3
import string
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from querycrew import value_index
from querycrew.catalog import SchemaCatalog, introspect_database
from querycrew.context_store import HashingEmbedder
from querycrew.pipeline import PipelineConfig
from querycrew.textutils import normalize_value
from querycrew.value_index import (
    EntityMatch,
    IndexConfig,
    ValueIndexError,
    build_value_index,
    edit_distance,
    lsh_query,
    minhash_signature,
    retrieve_entities,
)
from test_context_store import char_ngrams, gram_hash


def dp_levenshtein(a: str, b: str) -> int:
    """Independent reference implementation: full DP matrix."""
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        table[i][0] = i
    for j in range(n + 1):
        table[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + cost,
            )
    return table[m][n]


def brute_force_best(keyword: str, values: list[str]) -> str:
    """Exact minimum-edit-distance value, ties to the smaller string."""
    return min(values, key=lambda v: (dp_levenshtein(keyword, v), v))


def jaccard(a: set, b: set) -> float:
    """Exact Jaccard similarity of two sets."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


def exact_ngram_jaccard(a: str, b: str, n: int = 3) -> float:
    """Exact n-gram Jaccard similarity (reference metric for the estimator)."""
    return jaccard(char_ngrams(normalize_value(a), n), char_ngrams(normalize_value(b), n))


def estimated_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    return float(np.count_nonzero(sig_a == sig_b)) / len(sig_a)


class TestIndexConfig:
    def test_defaults_consistent(self):
        cfg = IndexConfig()
        assert cfg.lsh_bands * cfg.lsh_rows == cfg.num_permutations

    def test_band_row_mismatch(self):
        with pytest.raises(ValueError):
            IndexConfig(lsh_bands=10, lsh_rows=4, num_permutations=128)

    def test_bad_ngram(self):
        with pytest.raises(ValueError):
            IndexConfig(ngram_size=0)

    @pytest.mark.parametrize("bad", [
        {"lsh_bands": -4, "lsh_rows": -32},
        {"lsh_bands": 0, "num_permutations": 0},
        {"lsh_rows": 0, "num_permutations": 0},
        {"max_value_length": 0},
        {"lsh_candidate_cap": -1},
        {"lsh_candidate_cap": float("nan")},
        {"embed_top_k": -1},
    ])
    def test_values_that_cannot_run_are_rejected(self, bad):
        name = next(iter(bad))
        with pytest.raises(ValueError, match=name):
            IndexConfig(**bad)
        with pytest.raises(ValueError, match=name):
            PipelineConfig.from_dict({**PipelineConfig().to_dict(), "index": bad})


class TestMinhashSignature:
    def test_identical_strings_identical_signatures(self):
        cfg = IndexConfig()
        a = minhash_signature("kings", cfg)
        b = minhash_signature("kings", cfg)
        assert np.array_equal(a, b)

    def test_empty_value_raises(self):
        with pytest.raises(ValueError):
            minhash_signature("   ", IndexConfig())

    def test_disjoint_ngrams_near_zero(self):
        cfg = IndexConfig()
        a = minhash_signature("aaaaaaa", cfg)
        b = minhash_signature("zzzzzzz", cfg)
        exact = exact_ngram_jaccard("aaaaaaa", "zzzzzzz")
        assert exact == 0.0
        assert estimated_jaccard(a, b) <= 0.05

    def test_estimate_close_to_oracle(self):
        cfg = IndexConfig()
        pairs = [("kings", "king"), ("euro", "eur"), ("north bohemia", "bohemia")]
        for left, right in pairs:
            exact = exact_ngram_jaccard(left, right)
            est = estimated_jaccard(
                minhash_signature(left, cfg), minhash_signature(right, cfg)
            )
            assert abs(est - exact) <= 0.15, (left, right, est, exact)

    def test_seed_changes_signature(self):
        a = minhash_signature("kings", IndexConfig(permutation_seed=1))
        b = minhash_signature("kings", IndexConfig(permutation_seed=2))
        assert not np.array_equal(a, b)


class TestSCurve:
    """The banding S-curve (Leskovec, Rajaraman and Ullman, Mining of Massive
    Datasets, 3.4): a signature row of two values agrees with probability J,
    their exact Jaccard, and some band of r rows of b agrees with probability
    1 - (1 - J^r)^b. A digest pin cannot tell a biased hash or mixer from a
    good one; these rates can."""

    def test_collision_rates_follow_the_s_curve(self):
        cfg, rng, n = IndexConfig(), random.Random(31), 4000
        lefts = ["".join(rng.choices(string.ascii_lowercase, k=rng.randint(5, 20)))
                 for _ in range(n)]
        rights = [_mutate(v, rng, edits=rng.randint(1, 3)) for v in lefts]
        jac = np.array([exact_ngram_jaccard(a, b) for a, b in zip(lefts, rights)])
        salts = value_index._permutations(cfg)
        sigs = value_index._signatures(lefts + rights, cfg, salts)
        keys = value_index._band_keys(
            [sigs], np.empty((cfg.lsh_bands, 2 * n), dtype=np.uint64), cfg)
        rows = (sigs[:, :n] == sigs[:, n:]).mean(axis=0)
        banded = (keys[:, :n] == keys[:, n:]).any(axis=0)
        p_band = 1 - (1 - jac**cfg.lsh_rows) ** cfg.lsh_bands
        bins = np.digitize(jac, [0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        # 5 standard deviations, not 3 or 4: the gram hash and the salts are one
        # fixed draw, whose own offset moved each bin's z by about +-1 over 40
        # seeds of pairs. A mixer made the identity, or salts all equal, reach 50+.
        for b in range(7):
            at = bins == b
            assert at.sum() >= 100, b
            # each pair's bands collide as one Bernoulli(p_band) draw
            p = p_band[at]
            spread = np.sqrt((p * (1 - p)).sum())
            assert abs(banded[at].sum() - p.sum()) <= 5 * spread + 1, b
            # each pair's row agreement is a mean of num_permutations Bernoulli(J) draws
            j = jac[at]
            spread = np.sqrt((j * (1 - j)).sum() / cfg.num_permutations)
            assert abs(rows[at].sum() - j.sum()) <= 5 * spread, b


def reference_signatures(values: list[str], cfg: IndexConfig) -> np.ndarray:
    """Value by value: hash each distinct gram, mix under each salt, take
    the minimum. (num_permutations, len(values))."""
    salts = value_index._permutations(cfg)
    sigs = np.empty((cfg.num_permutations, len(values)), dtype=np.uint64)
    for i, value in enumerate(values):
        hashes = np.array(
            [gram_hash(g) for g in char_ngrams(value, cfg.ngram_size)], dtype=np.uint64
        )
        for p, salt in enumerate(salts):
            sigs[p, i] = value_index._mix64(hashes ^ salt).min()
    return sigs


def reference_band_keys(sigs: np.ndarray, cfg: IndexConfig) -> np.ndarray:
    """FNV fold of each band's rows in Python integers mod 2^64, (bands, n)."""
    prime, mask = 1099511628211, (1 << 64) - 1
    keys = np.empty((cfg.lsh_bands, sigs.shape[1]), dtype=np.uint64)
    for i in range(sigs.shape[1]):
        for band in range(cfg.lsh_bands):
            acc = 14695981039346656037
            for row in range(band * cfg.lsh_rows, (band + 1) * cfg.lsh_rows):
                acc = ((acc * prime) & mask) ^ int(sigs[row, i])
            keys[band, i] = ((acc * prime) & mask) ^ (band + 1)
    return keys


# astral-plane characters, accents and repeated grams; one-character values
_texts = st.one_of(
    st.text(alphabet="ab é€\U0001F600\U0001D538", min_size=1, max_size=14),
    st.builds(
        lambda unit, times: unit * times,
        st.sampled_from(["ab", "aaa", "\U0001F600a"]),
        st.integers(1, 6),
    ),
).map(normalize_value).filter(bool)


class TestGramVocabularySignatures:
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(_texts, min_size=1, max_size=12),
        ngram_size=st.integers(1, 4),
        budget=st.sampled_from([1, 1 << 15]),
    )
    @example(values=["a"], ngram_size=3, budget=1 << 15)
    @example(values=["\U0001F600", "aaaa", "a"], ngram_size=4, budget=1)
    def test_signatures_and_band_keys_match_reference(self, values, ngram_size, budget):
        cfg = IndexConfig(ngram_size=ngram_size)
        salts = value_index._permutations(cfg)
        expected = reference_signatures(values, cfg)
        with mock.patch.object(value_index, "_GATHER_BUDGET", budget):
            got = value_index._signatures(values, cfg, salts)
            keys = value_index._band_keys(
                value_index._signature_groups(values, cfg, salts),
                np.empty((cfg.lsh_bands, len(values)), dtype=np.uint64), cfg,
            )
        assert np.array_equal(got, expected)
        assert np.array_equal(keys, reference_band_keys(expected, cfg))
        assert np.array_equal(minhash_signature(values[0], cfg), expected[:, 0])

    def test_long_grams_rank_before_packing(self):
        # nine 17-bit code points need 153 bits: the key is ranked twice
        cfg = IndexConfig(ngram_size=9)
        values = ["\U0001F600\U0001D538" * 5, "\U0001D538" * 11, "a\U0001F600b"]
        got = value_index._signatures(values, cfg, value_index._permutations(cfg))
        assert np.array_equal(got, reference_signatures(values, cfg))

    def test_pinned_band_keys_and_queries(self, tmp_path):
        """Digests of a seeded 5,000-value corpus's sorted band keys and of
        100 lsh_query results over it, captured when the gram hash became the
        numpy splitmix64 chain (the per-value reference above checks the same
        arrays gram by gram), and of its values and location arrays, captured
        from the build that kept a set of column ids per value. band_ids is
        not pinned: the order of equal keys under an unstable argsort may
        differ between CPUs."""
        rng = random.Random(7)
        alphabet = "abcdefghijklmnopqrstuvwxyz  0123456789\u00e9\u20ac\U0001F600"
        values: set[str] = set()
        while len(values) < 5000:
            value = "".join(rng.choices(alphabet, k=rng.randint(1, 24))).strip()
            if value:
                values.add(value)
        ordered = sorted(values)
        db = tmp_path / "pinned.sqlite"
        conn = sqlite3.connect(db)
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a TEXT, b TEXT)")
        conn.executemany(
            "INSERT INTO t VALUES (?, ?, ?)",
            [(i, v, ordered[-1 - i] if i % 3 == 0 else None) for i, v in enumerate(ordered)],
        )
        conn.commit()
        conn.close()
        index = build_value_index(introspect_database(db), db, IndexConfig())
        assert len(index) == 5000
        for name, data, digest in (
            ("values", json.dumps(index.values).encode(),
             "5850699cc6d0331c7df61f228a3e55a93dd3ef6b5856a72248faec15d3ea0912"),
            ("loc_offsets", index.loc_offsets.tobytes(),
             "b21581f591f7439cd84e0cde20f0f1f1ca518f151dc85388f5110bd3303bbe61"),
            ("loc_ids", index.loc_ids.tobytes(),
             "1480e6c55d1883f182dd4ffed34e621457e437925d7b0b39445e8acaf20830c5"),
        ):
            assert hashlib.sha256(data).hexdigest() == digest, name

        keys = hashlib.sha256()
        for band_keys in index.band_keys:
            keys.update(band_keys.tobytes())
        assert keys.hexdigest() == (
            "bf54251e4fdcf009851682df2380e92a56161b1a6d7b86e83da786089491103b"
        )
        queries = hashlib.sha256()
        for value in index.values[::50]:
            keyword = value[1:] + "x"
            queries.update(json.dumps([keyword, lsh_query(index, keyword, cap=10)]).encode())
        assert queries.hexdigest() == (
            "285a3d70c1b041bf071ae4a5651f1a4569a7a5ad2af8c213ad0f25c831173000"
        )


def reference_build(catalog: SchemaCatalog, db, cfg: IndexConfig) -> dict:
    """The per-value build: a set of column ids per distinct normalized
    value, then the per-value signature and band-key oracles, each band
    sorted by the build's argsort."""
    locations = value_index._indexed_columns(catalog)
    value_to_locs: dict[str, set[int]] = {}
    conn = sqlite3.connect(db)
    try:
        for loc_id, (table, column) in enumerate(locations):
            q = f'SELECT DISTINCT "{column}" FROM "{table}" WHERE "{column}" IS NOT NULL'
            for (raw,) in conn.execute(q):
                norm = normalize_value(raw) if isinstance(raw, str) else ""
                if norm and len(norm) <= cfg.max_value_length:
                    value_to_locs.setdefault(norm, set()).add(loc_id)
    finally:
        conn.close()
    values = sorted(value_to_locs)
    keys = reference_band_keys(reference_signatures(values, cfg), cfg)
    order = np.array([np.argsort(row) for row in keys], dtype=np.int32).reshape(keys.shape)
    return {
        "values": values,
        "loc_offsets": np.cumsum([0] + [len(value_to_locs[v]) for v in values], dtype=np.int64),
        "loc_ids": np.array(
            [i for v in values for i in sorted(value_to_locs[v])], dtype=np.int32
        ),
        "band_keys": np.take_along_axis(keys, order, axis=1),
        "band_ids": order,
    }


_WORDS = ["eur", "Euro", "kings", "\U0001F600a", "\U0001D538\U0001D538", "\u0130zmir", "ab"]
# "POINT TEXT" is indexed as text but has INTEGER affinity, so its numbers
# stay numbers; a TEXT column stores them as text
_COLUMN_TYPES = ["TEXT", "VARCHAR(8)", "POINT TEXT", "INTEGER", "REAL"]
_cells = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.sampled_from([0.5, -2.0, 3.25]),
    st.binary(max_size=3),
    st.sampled_from(["", " ", "\t\n "]),
    # case and whitespace variants of a few shared words
    st.builds(
        lambda word, upper, left, right: left + (word.upper() if upper else word) + right,
        st.sampled_from(_WORDS), st.booleans(),
        st.sampled_from(["", " ", "\t"]), st.sampled_from(["", "  ", "\n"]),
    ),
    st.text(alphabet="aB \U0001F600\U0001D538\u0130", max_size=10),
)


@st.composite
def _tables(draw):
    """(column types, rows) per table; a table may have no rows and a
    database no indexed column."""
    tables = []
    for _ in range(draw(st.integers(1, 3))):
        types = draw(st.lists(st.sampled_from(_COLUMN_TYPES), max_size=3))
        tables.append((types, draw(st.lists(st.tuples(*[_cells] * len(types)), max_size=8))))
    return tables


def _write_tables(db: Path, tables) -> None:
    """Table t{i} holds an integer key and columns c0, c1, ... of the given
    declared types, filled with the given rows."""
    conn = sqlite3.connect(db)
    for t, (types, rows) in enumerate(tables):
        columns = "".join(f", c{i} {kind}" for i, kind in enumerate(types))
        conn.execute(f"CREATE TABLE t{t} (id INTEGER PRIMARY KEY{columns})")
        marks = ", ?" * len(types)
        conn.executemany(f"INSERT INTO t{t} VALUES (NULL{marks})", rows)
    conn.commit()
    conn.close()


def _assert_build_equals(index, expected: dict) -> None:
    assert index.values == expected["values"]
    for name in ("loc_offsets", "loc_ids", "band_keys", "band_ids"):
        got = getattr(index, name)
        assert got.dtype == expected[name].dtype, name
        assert np.array_equal(got, expected[name]), name


class TestWholeBuild:
    @settings(max_examples=60, deadline=None)
    @given(tables=_tables(), max_len=st.integers(1, 12))
    @example(  # one value in two columns, its variants in one, numbers and a blob
        tables=[(["TEXT", "POINT TEXT"], [
            ("Eur", "eur"), (" EUR ", 5), ("eur\t", 2.5), ("   ", b"\x00"),
            ("\U0001F600ab", "abcd"), ("abcde", None), ("\u0130", "x"),
        ])],
        max_len=4,
    )
    @example(tables=[(["TEXT"], []), (["INTEGER", "REAL"], [(1, 2.0)])], max_len=100)
    @example(tables=[(["INTEGER"], [(1,)])], max_len=100)
    def test_build_matches_per_value_reference(self, tables, max_len):
        cfg = IndexConfig(max_value_length=max_len)
        with tempfile.TemporaryDirectory() as tmp:
            db = Path(tmp) / "cells.sqlite"
            _write_tables(db, tables)
            catalog = introspect_database(db)
            index = build_value_index(catalog, db, cfg)
            expected = reference_build(catalog, db, cfg)
        _assert_build_equals(index, expected)

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_blocks_meet_at_their_seams(self, tmp_path, block):
        """29 values signed `block` at a time, the last block partial: each
        block's keys land at its own values' offsets."""
        names = [f"Word {i}" + "\u00e9\U0001F600"[: i % 3] for i in range(29)]
        rows = [(name, names[i * 7 % 29].upper() if i % 2 else None)
                for i, name in enumerate(names)]
        db = tmp_path / "seams.sqlite"
        _write_tables(db, [(["TEXT", "TEXT"], rows)])
        catalog, cfg = introspect_database(db), IndexConfig()
        with mock.patch.object(value_index, "_BUILD_BLOCK", block):
            index = build_value_index(catalog, db, cfg)
        assert len(index) == 29
        _assert_build_equals(index, reference_build(catalog, db, cfg))

    @pytest.mark.parametrize("alphabet", [
        string.ascii_lowercase + " \u00e9",
        "".join(map(chr, range(0x4E00, 0x4E00 + 3000))) + " ",  # CJK: ~170k distinct grams
    ], ids=["narrow", "cjk"])
    def test_build_peak_stays_near_its_result(self, tmp_path, alphabet):
        """The signature pass holds the result and one block's working set,
        not the per-column value lists, the numbering's arrays or anything kept
        per distinct gram across blocks: those grow with the corpus, so over
        40 blocks they would exceed the bound."""
        rng = random.Random(11)
        words = sorted({"".join(rng.choices(alphabet, k=rng.randint(4, 24))).strip()
                        for _ in range(12_000)} - {""})
        db = tmp_path / "peak.sqlite"
        _write_tables(db, [(["TEXT", "TEXT"], [(w, rng.choice(words)) for w in words])])
        catalog, cfg, block = introspect_database(db), IndexConfig(), 256
        with mock.patch.object(value_index, "_BUILD_BLOCK", block):
            tracemalloc.start()
            try:
                index = build_value_index(catalog, db, cfg)
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
                keys = np.empty((cfg.lsh_bands, block), dtype=np.uint64)
                groups = value_index._signature_groups(index.values[-block:], cfg, index._salts)
                value_index._band_keys(groups, keys, cfg)
                work = tracemalloc.get_traced_memory()[1] - held
            finally:
                tracemalloc.stop()
        arrays = (index.loc_offsets, index.loc_ids, index.band_keys, index.band_ids)
        result = sum(a.nbytes for a in arrays) + sys.getsizeof(index.values) + sum(
            map(sys.getsizeof, index.values))
        assert len(index) > 40 * block
        assert peak <= result + 2 * work, (peak - result) / work


@pytest.fixture(scope="module")
def currency_index(finance_db, finance_catalog):
    return build_value_index(finance_catalog, finance_db, IndexConfig())


class TestBuildIndex:
    def test_distinct_values_only(self, currency_index):
        offsets = currency_index.loc_offsets
        currencies = [
            v
            for vid, v in enumerate(currency_index.values)
            if any(
                currency_index.locations[i] == ("customers", "Currency")
                for i in currency_index.loc_ids[offsets[vid] : offsets[vid + 1]]
            )
        ]
        assert sorted(currencies) == ["czk", "eur"]

    def test_pk_and_numeric_columns_skipped(self, currency_index):
        cols = set(currency_index.locations)
        assert ("customers", "CustomerID") not in cols
        assert ("transactions_1k", "Price") not in cols
        assert ("district", "A3") in cols

    def test_long_values_excluded(self, tmp_path, finance_catalog):
        import sqlite3

        db = tmp_path / "longvals.sqlite"
        conn = sqlite3.connect(db)
        conn.execute("CREATE TABLE notes (id INTEGER PRIMARY KEY, body TEXT)")
        conn.execute("INSERT INTO notes VALUES (1, ?)", ("x" * 500,))
        conn.execute("INSERT INTO notes VALUES (2, 'short note')")
        conn.commit()
        conn.close()
        from querycrew.catalog import introspect_database

        index = build_value_index(introspect_database(db), db, IndexConfig())
        assert index.values == ["short note"]

    def test_deterministic_rebuild(self, finance_db, finance_catalog):
        a = build_value_index(finance_catalog, finance_db, IndexConfig())
        b = build_value_index(finance_catalog, finance_db, IndexConfig())
        assert a.values == b.values
        assert np.array_equal(a.loc_offsets, b.loc_offsets)
        assert np.array_equal(a.loc_ids, b.loc_ids)
        for keys_a, keys_b in zip(a.band_keys, b.band_keys):
            assert np.array_equal(keys_a, keys_b)
        for ids_a, ids_b in zip(a.band_ids, b.band_ids):
            assert np.array_equal(ids_a, ids_b)


class TestLshQuery:
    def test_exact_value_always_found(self, currency_index):
        hits = lsh_query(currency_index, "EUR", cap=10)
        assert ("eur", "customers", "Currency") in hits

    def test_no_collision_empty(self, currency_index):
        assert lsh_query(currency_index, "q#7!@", cap=10) == []

    def test_euro_ranking_matches_oracle(self, tmp_path):
        import sqlite3

        from querycrew.catalog import introspect_database

        db = tmp_path / "euro.sqlite"
        conn = sqlite3.connect(db)
        conn.execute("CREATE TABLE fx (id INTEGER PRIMARY KEY, name TEXT)")
        conn.executemany(
            "INSERT INTO fx VALUES (?, ?)",
            [(1, "EUR"), (2, "EURO ZONE"), (3, "YEN")],
        )
        conn.commit()
        conn.close()
        # bands of one row: "eur" (J = 0.375) and "euro zone" (J = 0.417)
        # collide unless all 128 rows miss, whichever way the gram hash falls
        cfg = IndexConfig(lsh_bands=128, lsh_rows=1)
        index = build_value_index(introspect_database(db), db, cfg)
        hits = [v for v, _t, _c in lsh_query(index, "euro", cap=10)]
        oracle = sorted(
            ["eur", "euro zone", "yen"],
            key=lambda v: -exact_ngram_jaccard("euro", v),
        )
        assert set(hits) == {"eur", "euro zone"}
        assert oracle[-1] == "yen" and exact_ngram_jaccard("euro", "yen") == 0

    def test_cap_respected(self, currency_index):
        assert len(lsh_query(currency_index, "eur", cap=1)) <= 1

    def test_each_cap_keeps_a_prefix_of_the_ranking(self, currency_index):
        ranked = lsh_query(currency_index, "2012-08-25", cap=10**6)
        assert len(ranked) == 3
        for cap in range(len(ranked) + 2):
            assert lsh_query(currency_index, "2012-08-25", cap=cap) == ranked[:cap], cap


    @pytest.mark.parametrize("array, bad", [
        ("band_ids", -1), ("band_ids", 10**6), ("loc_ids", -1), ("loc_ids", 10**6),
        ("loc_offsets", "at_start"), ("loc_offsets", 10**9),
    ])
    def test_ids_outside_the_index_raise(self, currency_index, array, bad):
        """A negative id would index the values or the locations from their
        end, and a mapped cache holding one would load silently. A value's
        end offset at its start would drop its columns, and one past the end
        would emit it in columns where it does not occur."""
        assert lsh_query(currency_index, "eur") == [("eur", "customers", "Currency")]
        vid = currency_index.values.index("eur")
        ids = getattr(currency_index, array).copy()
        if array == "band_ids":
            ids[0, ids[0].tolist().index(vid)] = bad
        elif array == "loc_ids":
            ids[currency_index.loc_offsets[vid]] = bad
        else:
            ids[vid + 1] = ids[vid] if bad == "at_start" else bad
        damaged = dataclasses.replace(currency_index, **{array: ids})
        with pytest.raises(ValueIndexError):
            lsh_query(damaged, "eur", cap=10)


class TestEditDistance:
    def test_identity(self):
        assert edit_distance("eur", "eur") == 0

    def test_single_deletion(self):
        assert edit_distance("euro", "eur") == dp_levenshtein("euro", "eur") == 1

    def test_normalized_region_name(self):
        value = "North Bohemia".lower()
        assert edit_distance("north bohemia", value) == 0

    def test_against_dp_oracle_random(self):
        rng = random.Random(13)
        alphabet = string.ascii_lowercase[:6]
        for _ in range(300):
            a = "".join(rng.choices(alphabet, k=rng.randint(0, 9)))
            b = "".join(rng.choices(alphabet, k=rng.randint(0, 9)))
            assert edit_distance(a, b) == dp_levenshtein(a, b), (a, b)

    def test_symmetry_and_triangle_inequality(self):
        rng = random.Random(29)
        words = [
            "".join(rng.choices("abcd", k=rng.randint(0, 7))) for _ in range(40)
        ]
        for a in words[:12]:
            for b in words[:12]:
                assert edit_distance(a, b) == edit_distance(b, a)
                for c in words[:12]:
                    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


class _Offline:
    dimension = 8

    def embed(self, texts):
        raise RuntimeError("no network")


@pytest.fixture(scope="module")
def single_row_index(finance_db, finance_catalog):
    """The finance index in bands of one row: 'euro' and 'eur' (J = 0.375)
    collide unless all 128 rows miss, with probability 0.625^128 < 1e-26,
    whichever way the gram hash falls. Under the default 32 bands of 4 they
    collide with probability 0.47."""
    return build_value_index(finance_catalog, finance_db, IndexConfig(lsh_bands=128, lsh_rows=1))


class TestRetrieveEntities:
    def test_euro_scenario(self, single_row_index):
        matches = retrieve_entities(
            single_row_index, ["Euro"], embedder=HashingEmbedder(), cfg=single_row_index.config
        )
        currency_matches = [
            m for m in matches if (m.table, m.column) == ("customers", "Currency")
        ]
        assert len(currency_matches) == 1
        assert currency_matches[0].value == "eur"
        assert currency_matches[0].edit_distance == dp_levenshtein("euro", "eur")

    def test_threshold_filters_everything(self, currency_index):
        cfg = IndexConfig(cosine_threshold=0.999)
        matches = retrieve_entities(
            currency_index, ["Eurp"], embedder=HashingEmbedder(), cfg=cfg
        )
        assert matches == []

    def test_min_distance_per_column(self, tmp_path):
        import sqlite3

        from querycrew.catalog import introspect_database

        db = tmp_path / "mindist.sqlite"
        conn = sqlite3.connect(db)
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        conn.executemany(
            "INSERT INTO t VALUES (?, ?)",
            [(1, "bohemia"), (2, "bohemias north")],
        )
        conn.commit()
        conn.close()
        index = build_value_index(introspect_database(db), db, IndexConfig())
        matches = retrieve_entities(
            index, ["bohemia"], embedder=HashingEmbedder(), cfg=index.config
        )
        per_col = [m for m in matches if (m.table, m.column) == ("t", "v")]
        assert len(per_col) == 1
        assert per_col[0].value == "bohemia"
        assert per_col[0].edit_distance == 0

    def test_embedder_failure_degrades(self, single_row_index, caplog):
        import logging

        with caplog.at_level(logging.WARNING):
            matches = retrieve_entities(
                single_row_index, ["Euro", "czk"], embedder=_Offline(),
                cfg=single_row_index.config,
            )
        assert any(m.value == "eur" for m in matches)
        assert any(m.value == "czk" for m in matches)
        assert all(m.cosine == 1.0 for m in matches)
        # the one embed call of the question fails: one warning, not one per keyword
        assert ["falling back" in r.message for r in caplog.records] == [True]

    def test_one_embed_call_per_question(self, single_row_index):
        class Counting(HashingEmbedder):
            def embed(self, texts):
                self.calls.append(list(texts))
                return super().embed(texts)

        embedder = Counting()
        embedder.calls = []
        keywords = ["Euro", "czk", "EUR", "prague", "q#7!@"]
        matches = retrieve_entities(single_row_index, keywords, embedder=embedder)
        assert {m.keyword for m in matches} >= {"Euro", "czk"}
        assert len(embedder.calls) == 1
        texts = embedder.calls[0]
        assert len(texts) == len(set(texts)) and {"euro", "czk", "eur"} <= set(texts)
        assert retrieve_entities(single_row_index, ["q#7!@", ""], embedder=embedder) == []
        assert len(embedder.calls) == 1

    def test_cardinality_at_most_one_per_keyword_column(self, currency_index):
        matches = retrieve_entities(
            currency_index,
            ["eur", "czk", "bohemia", "prague"],
            embedder=HashingEmbedder(),
            cfg=currency_index.config,
        )
        seen = set()
        for m in matches:
            key = (m.keyword, m.table, m.column)
            assert key not in seen
            seen.add(key)
        for m in matches:
            assert m.cosine >= currency_index.config.cosine_threshold


def reference_retrieve_entities(index, keywords, embedder, cfg) -> list[EntityMatch]:
    """retrieve_entities keyword by keyword, one embed call per keyword."""
    out = []
    seen = set()
    for keyword in keywords:
        norm = normalize_value(keyword)
        if not norm or norm in seen:
            continue
        seen.add(norm)
        cands = lsh_query(index, norm, cfg.lsh_candidate_cap)
        if not cands:
            continue
        values = list(dict.fromkeys(v for v, _t, _c in cands))
        try:
            vectors = None if embedder is None else embedder.embed([norm] + values)
        except Exception:
            vectors = None
        if vectors is None:
            kept = dict.fromkeys(values, 1.0)
        else:
            cosines = {v: float(np.dot(vectors[1 + i], vectors[0])) for i, v in enumerate(values)}
            ranked = sorted(cosines.items(), key=lambda kv: (-kv[1], kv[0]))
            kept = {v: c for v, c in ranked[: cfg.embed_top_k] if c >= cfg.cosine_threshold}
        best = {}
        for value, table, column in cands:
            if value in kept:
                dist = dp_levenshtein(norm, value)
                if (table, column) not in best or (dist, value) < best[table, column]:
                    best[table, column] = (dist, value)
        out += [EntityMatch(keyword, value, table, column, dist, kept[value])
                for (table, column), (dist, value) in sorted(best.items())]
    return out


@pytest.fixture(scope="module")
def word_index(tmp_path_factory):
    """Three columns over 1,200 short words from a small alphabet, so that
    keywords near them collide with several values in several columns."""
    rng = random.Random(17)
    words = sorted({"".join(rng.choices("abcde", k=rng.randint(3, 8))) for _ in range(1200)})
    db = tmp_path_factory.mktemp("words") / "words.sqlite"
    conn = sqlite3.connect(db)
    conn.execute("CREATE TABLE w (id INTEGER PRIMARY KEY, a TEXT, b TEXT, c TEXT)")
    conn.executemany("INSERT INTO w VALUES (?, ?, ?, ?)", [
        (i, word, words[(i * 7) % len(words)].upper(), word if i % 3 else None)
        for i, word in enumerate(words)
    ])
    conn.commit()
    conn.close()
    return build_value_index(introspect_database(db), db, IndexConfig()), words


class TestRetrieveEntitiesReference:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        cap=st.integers(0, 12),
        top_k=st.integers(0, 10),
        threshold=st.sampled_from([0.0, 0.3, 0.6, 0.9]),
        embedder=st.sampled_from(
            [HashingEmbedder(), HashingEmbedder(dimension=16), None, _Offline()]
        ),
    )
    def test_matches_per_keyword_reference(
        self, word_index, data, cap, top_k, threshold, embedder
    ):
        index, words = word_index
        keyword = st.one_of(
            st.builds(
                lambda w, cut, extra, upper: (w[:cut] + extra).upper() if upper else w[cut:] + extra,
                st.sampled_from(words), st.integers(0, 3), st.text("abcdex ", max_size=2),
                st.booleans(),
            ),
            st.text("abcde \U0001F600", max_size=6),
        )
        keywords = data.draw(st.lists(keyword, max_size=6))
        cfg = dataclasses.replace(
            index.config, lsh_candidate_cap=cap, embed_top_k=top_k, cosine_threshold=threshold
        )
        expected = reference_retrieve_entities(index, keywords, embedder, cfg)
        assert retrieve_entities(index, keywords, embedder, cfg) == expected


class TestOracleContainment:
    """Band configuration must find near-duplicates reliably."""

    def test_containment_rate(self):
        import sqlite3
        import tempfile
        from pathlib import Path

        from querycrew.catalog import introspect_database

        rng = random.Random(99)
        alphabet = string.ascii_lowercase
        values = set()
        while len(values) < 2000:
            values.add("".join(rng.choices(alphabet, k=rng.randint(10, 16))))
        values = sorted(values)
        planted = rng.sample(values, 60)
        keywords = []
        for v in planted:
            keyword = _mutate(v, rng, edits=rng.choice((1, 1, 1, 2)))
            keywords.append(keyword)

        with tempfile.TemporaryDirectory() as tmp:
            db = Path(tmp) / "corpus.sqlite"
            conn = sqlite3.connect(db)
            conn.execute("CREATE TABLE corpus (id INTEGER PRIMARY KEY, v TEXT)")
            conn.executemany(
                "INSERT INTO corpus VALUES (?, ?)", list(enumerate(values))
            )
            conn.commit()
            conn.close()
            index = build_value_index(introspect_database(db), db, IndexConfig())

            eligible = 0
            contained = 0
            for keyword in keywords:
                best = max(values, key=lambda v: exact_ngram_jaccard(keyword, v))
                if exact_ngram_jaccard(keyword, best) < 0.5:
                    continue
                eligible += 1
                hits = [v for v, _t, _c in lsh_query(index, keyword, cap=10)]
                if best in hits:
                    contained += 1
        assert eligible >= 20, "fixture should produce enough eligible keywords"
        assert contained / eligible >= 0.9, (contained, eligible)


def _mutate(value: str, rng: random.Random, edits: int) -> str:
    chars = list(value)
    for _ in range(edits):
        op = rng.choice(("sub", "ins", "del")) if len(chars) > 3 else "ins"
        pos = rng.randrange(len(chars))
        if op == "sub":
            chars[pos] = rng.choice(string.ascii_lowercase)
        elif op == "ins":
            chars.insert(pos, rng.choice(string.ascii_lowercase))
        else:
            del chars[pos]
    return "".join(chars) or value

