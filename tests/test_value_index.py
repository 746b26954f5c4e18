import dataclasses
import hashlib
import json
import random
import sqlite3
import string
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from querycrew import value_index
from querycrew.catalog import introspect_database
from querycrew.context_store import HashingEmbedder
from querycrew.pipeline import PipelineConfig
from querycrew.textutils import char_ngrams, ngram_hash, normalize_value
from querycrew.value_index import (
    EntityMatch,
    IndexConfig,
    ValueIndexError,
    build_value_index,
    edit_distance,
    estimated_jaccard,
    exact_ngram_jaccard,
    lsh_query,
    minhash_signature,
    retrieve_entities,
)


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


def reference_signatures(values: list[str], cfg: IndexConfig) -> np.ndarray:
    """Value by value: hash each distinct gram, mix under each salt, take
    the minimum. (num_permutations, len(values))."""
    salts = value_index._permutations(cfg)
    sigs = np.empty((cfg.num_permutations, len(values)), dtype=np.uint64)
    for i, value in enumerate(values):
        hashes = np.array(
            [ngram_hash(g) for g in char_ngrams(value, cfg.ngram_size)], dtype=np.uint64
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
                value_index._signature_groups(values, cfg, salts), len(values), cfg
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
        100 lsh_query results over it, captured from the per-value build
        (one ngram_hash per gram occurrence) that the vocabulary replaced."""
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

        keys = hashlib.sha256()
        for band in index.bands:
            keys.update(band.sorted_keys.tobytes())
        assert keys.hexdigest() == (
            "9d84346c12a4af660547e452b32491f8812b3cd058e74731c37635edb422e41b"
        )
        queries = hashlib.sha256()
        for value in index.values[::50]:
            keyword = value[1:] + "x"
            queries.update(json.dumps([keyword, lsh_query(index, keyword, cap=10)]).encode())
        assert queries.hexdigest() == (
            "eb99403f9f7ccc8852edfe66a7f0f829b7bc327af5c2a0fc6d9ea20909de08da"
        )


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
        for band_a, band_b in zip(a.bands, b.bands):
            assert np.array_equal(band_a.sorted_keys, band_b.sorted_keys)
            assert np.array_equal(band_a.sorted_ids, band_b.sorted_ids)


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
        index = build_value_index(introspect_database(db), db, IndexConfig())
        hits = [v for v, _t, _c in lsh_query(index, "euro", cap=10)]
        oracle = sorted(
            ["eur", "euro zone", "yen"],
            key=lambda v: -exact_ngram_jaccard("euro", v),
        )
        assert hits, "expected collisions for euro-like values"
        assert set(hits) <= {"eur", "euro zone"}
        assert oracle[-1] == "yen" and "yen" not in hits

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


class TestRetrieveEntities:
    def test_euro_scenario(self, currency_index):
        matches = retrieve_entities(
            currency_index, ["Euro"], embedder=HashingEmbedder(), cfg=currency_index.config
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

    def test_embedder_failure_degrades(self, currency_index, caplog):
        class BrokenEmbedder:
            dimension = 8

            def embed(self, texts):
                raise RuntimeError("no network")

        import logging

        with caplog.at_level(logging.WARNING):
            matches = retrieve_entities(
                currency_index, ["Euro"], embedder=BrokenEmbedder(),
                cfg=currency_index.config,
            )
        assert any(m.value == "eur" for m in matches)
        assert all(m.cosine == 1.0 for m in matches)
        assert any("falling back" in r.message for r in caplog.records)

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

