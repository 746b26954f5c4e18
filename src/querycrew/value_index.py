"""MinHash-LSH index over distinct database values and hierarchical entity
retrieval: LSH candidates, embedding-similarity filter, then per-column
minimum edit distance.

Distinct text values from non-key columns are shingled into character
n-grams, MinHashed under seeded per-permutation salts, and bucketed into
bands. Signatures are computed a block of values at a time over the
block's gram vocabulary: each distinct gram is hashed once, and each
permutation mixes the vocabulary, gathers it per gram occurrence and reduces
to every value's minimum. A query computes the keyword's signature, probes
the band buckets, and ranks collision candidates by estimated Jaccard
similarity. Band buckets are kept as sorted numpy arrays so corpora with
millions of values stay indexable in memory.
"""

from __future__ import annotations

import itertools
import logging
import random
import sqlite3
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .catalog import SchemaCatalog, _tick
from .executor import connect_read_only
from .textutils import char_ngrams, check_int, jaccard, ngram_hash, normalize_value

logger = logging.getLogger(__name__)

_FNV_PRIME = np.uint64(1099511628211)
_FNV_OFFSET = np.uint64(14695981039346656037)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

_TEXT_TYPE_MARKERS = ("CHAR", "CLOB", "TEXT")


class ValueIndexError(Exception):
    """Value index could not be built or queried."""


@dataclass
class IndexConfig:
    """Knobs for indexing and the retrieval cascade.

    128 permutations in 32 bands of 4 rows put the collision S-curve near
    Jaccard 0.42, which keeps candidate sets around the tens on
    benchmark-scale corpora. cosine_threshold is a deployment choice, not a
    derived constant; 0.60 suits both the remote embeddings and the local
    hashing embedder.
    """

    ngram_size: int = 3
    num_permutations: int = 128
    lsh_bands: int = 32
    lsh_rows: int = 4
    max_value_length: int = 100
    permutation_seed: int = 13
    lsh_candidate_cap: int = 10
    cosine_threshold: float = 0.60
    embed_top_k: int = 10

    def __post_init__(self) -> None:
        for name, low in (
            ("ngram_size", 1), ("lsh_bands", 1), ("lsh_rows", 1), ("max_value_length", 1),
            ("lsh_candidate_cap", 0), ("embed_top_k", 0), ("num_permutations", 1),
        ):
            check_int(name, getattr(self, name), low)
        if self.lsh_bands * self.lsh_rows != self.num_permutations:
            raise ValueError(
                f"lsh_bands * lsh_rows must equal num_permutations "
                f"({self.lsh_bands} * {self.lsh_rows} != {self.num_permutations})"
            )
        if not 0.0 <= self.cosine_threshold <= 1.0:
            raise ValueError("cosine_threshold must be in [0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EntityMatch:
    keyword: str
    value: str
    table: str
    column: str
    edit_distance: int
    cosine: float


class _Band(NamedTuple):
    sorted_keys: np.ndarray  # uint64, ascending
    sorted_ids: np.ndarray  # int32, value ids in key order


@dataclass
class ValueIndex:
    """Immutable LSH index over the distinct values of one database.

    Its arrays are what the cache maps in place: value i's locations are
    loc_ids[loc_offsets[i] : loc_offsets[i + 1]], and row b of band_keys
    holds band b's keys in ascending order, row b of band_ids the ids of
    their values. Neither the config nor the locations are cached.
    """

    config: IndexConfig
    values: list[str]  # distinct normalized values, sorted
    locations: list[tuple[str, str]]  # _indexed_columns of the catalog
    loc_offsets: np.ndarray = field(repr=False)  # int64, len(values) + 1
    loc_ids: np.ndarray = field(repr=False)  # int32 indices into `locations`
    band_keys: np.ndarray = field(repr=False)  # uint64, (lsh_bands, len(values))
    band_ids: np.ndarray = field(repr=False)  # int32, (lsh_bands, len(values))
    _salts: np.ndarray = field(repr=False, default=None)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def bands(self) -> list[_Band]:
        return list(map(_Band, self.band_keys, self.band_ids))

    def to_parts(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The cache's JSON document and arrays (see `caching`). The values
        go as one UTF-8 blob, joined by a code point that none of them holds."""
        text = "".join(self.values)
        code_points = itertools.chain(range(0xD800), range(0xE000, 0x110000))  # no surrogates
        sep = next(ch for ch in map(chr, code_points) if ch not in text)
        blob = np.frombuffer(sep.join(self.values).encode("utf-8"), dtype=np.uint8)
        return {"sep": sep}, {
            "values": blob, "loc_offsets": self.loc_offsets, "loc_ids": self.loc_ids,
            "band_keys": self.band_keys, "band_ids": self.band_ids,
        }

    @classmethod
    def from_parts(
        cls, locations: list[tuple[str, str]], cfg: IndexConfig, document: dict, arrays: dict
    ):
        """Inverse of `to_parts`, given the `_indexed_columns` the arrays
        were built over; raises ValueError on arrays that do not fit."""
        keys, ids, offsets = arrays["band_keys"], arrays["band_ids"], arrays["loc_offsets"]
        n = keys.shape[-1]
        values = str(arrays["values"], "utf-8").split(document["sep"]) if n else []
        if (
            (keys.dtype, ids.dtype, offsets.dtype, arrays["loc_ids"].dtype)
            != (np.uint64, np.int32, np.int64, np.int32)
            or keys.shape != (cfg.lsh_bands, len(values)) or ids.shape != keys.shape
            or offsets.shape != (n + 1,)
        ):
            raise ValueError("value index arrays do not fit together")
        return cls(
            config=cfg,
            values=values,
            locations=locations,
            loc_offsets=offsets,
            loc_ids=arrays["loc_ids"],
            band_keys=keys,
            band_ids=ids,
            _salts=_permutations(cfg),
        )


def _indexed_columns(catalog: SchemaCatalog) -> list[tuple[str, str]]:
    """The (table, column) of each non-PK text column, in catalog order."""
    return [(tinfo.name, col.name) for tinfo in catalog.tables for col in tinfo.columns
            if not col.is_pk and _is_text_type(col.declared_type)]


def _permutations(cfg: IndexConfig) -> np.ndarray:
    """One 64-bit salt per permutation, drawn from the seeded generator."""
    rng = random.Random(cfg.permutation_seed)
    return np.array(
        [rng.randrange(1, 1 << 64) for _ in range(cfg.num_permutations)],
        dtype=np.uint64,
    )


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: full-avalanche 64-bit mixing, wraps mod 2^64."""
    x = x ^ (x >> np.uint64(30))
    x = x * _MIX1
    x = x ^ (x >> np.uint64(27))
    x = x * _MIX2
    return x ^ (x >> np.uint64(31))


def minhash_signature(value: str, cfg: IndexConfig) -> np.ndarray:
    """MinHash signature (num_permutations minima) of one string.

    Each permutation salts the gram hashes and applies a full-avalanche
    mixer, so minima behave like independent random draws per permutation
    (a plain linear map over 32-bit gram hashes stays order-preserving too
    often and collapses the estimate). Raises ValueError for values that
    normalize to the empty string; the index build skips those.
    """
    norm = normalize_value(value)
    if not norm:
        raise ValueError("empty value after normalization")
    return _signatures([norm], cfg, _permutations(cfg))[:, 0]


def estimated_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    return float(np.count_nonzero(sig_a == sig_b)) / len(sig_a)


def _gram_vocabulary(
    values: Sequence[str], n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Character n-grams of a block of non-empty normalized values.

    Returns (hashes, inverse, offsets): the ngram_hash of each distinct gram
    of the block, the vocabulary index of every gram occurrence (value after
    value), and where each value's occurrences start. A value of length L
    has L + n - 1 occurrences over its space-padded form, so none is empty.
    Occurrences are keyed by packing their code points into one uint64;
    when n code points do not fit, the key so far is replaced by its dense
    rank before packing more.
    """
    pad = " " * (n - 1)
    text = "".join(f"{pad}{v}{pad}" for v in values)
    codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
    counts = np.fromiter((len(v) + n - 1 for v in values), dtype=np.int64, count=len(values))
    offsets = np.zeros(len(values), dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    # a value's padded form is n - 1 code points longer than its gram count
    starts = np.arange(int(counts.sum()), dtype=np.int64)
    starts += np.repeat(np.arange(len(values), dtype=np.int64) * (n - 1), counts)

    width = max(int(codes.max()).bit_length(), 1)
    key = codes[starts]
    bits = width
    for j in range(1, n):
        if bits + width > 64:
            ranked, key = np.unique(key, return_inverse=True)
            key = key.astype(np.uint64)
            bits = max(len(ranked) - 1, 1).bit_length()
        key = (key << np.uint64(width)) | codes[starts + j]
        bits += width
    vocab, inverse = np.unique(key, return_inverse=True)
    some_start = np.empty(len(vocab), dtype=np.int64)
    some_start[inverse] = starts
    hashes = np.fromiter(
        (ngram_hash(text[p : p + n]) for p in some_start.tolist()),
        dtype=np.uint64,
        count=len(vocab),
    )
    return hashes, inverse, offsets


# Elements of one group's gathered (permutations x occurrences) table.
_GATHER_BUDGET = 1 << 15


def _signature_groups(
    values: Sequence[str], cfg: IndexConfig, salts: np.ndarray
) -> Iterator[np.ndarray]:
    """MinHash signatures of a block of normalized values, whole bands at a
    time: yields (rows, len(values)) arrays whose rows run through the
    permutations in order.

    Each distinct gram is hashed once. A permutation mixes the vocabulary's
    hashes, gathers them per occurrence and takes every value's minimum.
    A group holds as many bands as keep its gathered table within
    _GATHER_BUDGET (at least one), so a few keywords take every permutation
    in one pass and a build block holds one band's table at a time.
    """
    hashes, inverse, offsets = _gram_vocabulary(values, cfg.ngram_size)
    per_band = cfg.lsh_rows * len(inverse)
    group = cfg.lsh_rows * max(1, _GATHER_BUDGET // per_band)
    for p in range(0, len(salts), group):
        mixed = _mix64(hashes[None, :] ^ salts[p : p + group, None])
        yield np.minimum.reduceat(np.take(mixed, inverse, axis=1), offsets, axis=1)


def _signatures(values: Sequence[str], cfg: IndexConfig, salts: np.ndarray) -> np.ndarray:
    """Signature matrix of a small block, (num_permutations, len(values))."""
    return np.concatenate(list(_signature_groups(values, cfg, salts)))


def _band_keys(groups: Iterable[np.ndarray], n: int, cfg: IndexConfig) -> np.ndarray:
    """FNV-style mix of each band's rows into one uint64 key, (bands, n).

    Takes signature rows a group of whole bands at a time, so no caller
    needs to hold a whole signature matrix.
    """
    keys = np.empty((cfg.lsh_bands, n), dtype=np.uint64)
    band = 0
    for group in groups:
        rows = group.reshape(-1, cfg.lsh_rows, n)
        acc = np.full((len(rows), n), _FNV_OFFSET, dtype=np.uint64)
        for row in range(cfg.lsh_rows):
            acc = (acc * _FNV_PRIME) ^ rows[:, row]
        # fold the band id in so identical row values in different bands differ
        ids = np.arange(band + 1, band + len(rows) + 1, dtype=np.uint64)
        keys[band : band + len(rows)] = (acc * _FNV_PRIME) ^ ids[:, None]
        band += len(rows)
    return keys


_BUILD_BLOCK = 65_536


def build_value_index(
    catalog: SchemaCatalog, db_file: str | Path, cfg: IndexConfig | None = None
) -> ValueIndex:
    """Index every distinct text value of the catalog's `_indexed_columns`.

    Values are lowercased and stripped; values longer than
    cfg.max_value_length or empty after normalization are skipped.
    """
    cfg = cfg or IndexConfig()
    path = Path(db_file)
    try:
        conn = connect_read_only(path)
    except sqlite3.Error as exc:
        raise ValueIndexError(f"cannot open database {path}: {exc}") from exc

    value_to_locs: dict[str, set[int]] = {}
    locations = _indexed_columns(catalog)
    try:
        for loc_id, (table, column) in enumerate(locations):
            q = (
                f'SELECT DISTINCT "{_tick(column)}" FROM "{_tick(table)}"'
                f' WHERE "{_tick(column)}" IS NOT NULL'
            )
            try:
                rows = conn.execute(q).fetchall()
            except sqlite3.Error as exc:
                raise ValueIndexError(f"cannot read {table}.{column}: {exc}") from exc
            for (raw,) in rows:
                if not isinstance(raw, str):
                    continue
                norm = normalize_value(raw)
                if not norm or len(norm) > cfg.max_value_length:
                    continue
                value_to_locs.setdefault(norm, set()).add(loc_id)
    finally:
        conn.close()

    values = sorted(value_to_locs)
    loc_offsets = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum([len(value_to_locs[v]) for v in values], out=loc_offsets[1:])
    loc_ids = np.fromiter(
        itertools.chain.from_iterable(sorted(value_to_locs[v]) for v in values),
        dtype=np.int32, count=int(loc_offsets[-1]),
    )
    salts = _permutations(cfg)

    band_keys = np.empty((cfg.lsh_bands, len(values)), dtype=np.uint64)
    for start in range(0, len(values), _BUILD_BLOCK):
        block = values[start : start + _BUILD_BLOCK]
        groups = _signature_groups(block, cfg, salts)
        band_keys[:, start : start + len(block)] = _band_keys(groups, len(block), cfg)

    # ids within a bucket may come in any order: lsh_query unions them
    band_ids = np.empty(band_keys.shape, dtype=np.int32)
    for keys, ids in zip(band_keys, band_ids):
        order = np.argsort(keys)
        keys[:] = keys[order]
        ids[:] = order

    logger.info(
        "value index built: %d distinct values over %d columns", len(values), len(locations)
    )
    return ValueIndex(
        config=cfg,
        values=values,
        locations=locations,
        loc_offsets=loc_offsets,
        loc_ids=loc_ids,
        band_keys=band_keys,
        band_ids=band_ids,
        _salts=salts,
    )


def lsh_query(
    index: ValueIndex, keyword: str, cap: int | None = None
) -> list[tuple[str, str, str]]:
    """Band-bucket collision candidates for a keyword.

    Returns up to `cap` (value, table, column) triples ranked by estimated
    Jaccard similarity between the keyword's signature and each candidate's.
    """
    cfg = index.config
    cap = cfg.lsh_candidate_cap if cap is None else cap
    norm = normalize_value(keyword)
    if not norm or not index.values:
        return []
    sig = _signatures([norm], cfg, index._salts)
    keys = _band_keys([sig], 1, cfg)[:, 0]

    hits: list[np.ndarray] = []
    for band, key in zip(index.bands, keys):
        lo = np.searchsorted(band.sorted_keys, key, side="left")
        hi = np.searchsorted(band.sorted_keys, key, side="right")
        if hi > lo:
            hits.append(band.sorted_ids[lo:hi])
    if not hits:
        return []
    candidate_ids = np.unique(np.concatenate(hits))  # sorted, so its ends bound it
    if candidate_ids[0] < 0 or candidate_ids[-1] >= len(index.values):
        raise ValueIndexError(f"band ids outside [0, {len(index.values)}) in the value index")

    cand_values = [index.values[i] for i in candidate_ids]
    cand_sigs = _signatures(cand_values, cfg, index._salts)
    matches = (cand_sigs == sig).sum(axis=0)
    ranked = sorted(
        zip(cand_values, matches.tolist(), candidate_ids.tolist()),
        key=lambda item: (-item[1], item[0]),
    )

    out: list[tuple[str, str, str]] = []
    offsets, loc_ids = index.loc_offsets, index.loc_ids
    for value, _score, vid in ranked:
        start, stop = offsets[vid], offsets[vid + 1]
        if not 0 <= start < stop <= len(loc_ids):  # every value has a location
            raise ValueIndexError(f"location offsets of value {vid} outside the value index")
        for loc_id in loc_ids[start:stop].tolist():
            if len(out) >= cap:
                return out
            if not 0 <= loc_id < len(index.locations):
                raise ValueIndexError(f"location id {loc_id} outside the value index's columns")
            table, column = index.locations[loc_id]
            out.append((value, table, column))
    return out


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance with unit costs. Callers lowercase the inputs."""
    if a == b:
        return 0
    # strip common prefix/suffix; distance is unaffected
    while a and b and a[0] == b[0]:
        a, b = a[1:], b[1:]
    while a and b and a[-1] == b[-1]:
        a, b = a[:-1], b[:-1]
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) > len(b):
        a, b = b, a
    previous = list(range(len(a) + 1))
    for j, cb in enumerate(b, start=1):
        current = [j]
        append = current.append
        prev_diag = previous[0]
        for i, ca in enumerate(a, start=1):
            up = previous[i]
            left = current[i - 1]
            cost = prev_diag if ca == cb else prev_diag + 1
            if up + 1 < cost:
                cost = up + 1
            if left + 1 < cost:
                cost = left + 1
            append(cost)
            prev_diag = up
        previous = current
    return previous[-1]


def retrieve_entities(
    index: ValueIndex,
    keywords: Sequence[str],
    embedder=None,
    cfg: IndexConfig | None = None,
) -> list[EntityMatch]:
    """Hierarchical retrieval: LSH, then cosine filter, then per-column
    minimum edit distance.

    Per keyword, candidates from lsh_query are narrowed to the embed_top_k
    most cosine-similar values, values under cosine_threshold are dropped,
    and each (table, column) keeps the single value with the smallest edit
    distance (ties broken by the lexicographically smaller value). If the
    embedder is unavailable or fails, retrieval degrades to the LSH and
    edit-distance stages with cosine reported as 1.0.
    """
    cfg = cfg or index.config
    out: list[EntityMatch] = []
    seen_keywords: set[str] = set()
    for keyword in keywords:
        norm = normalize_value(keyword)
        if not norm or norm in seen_keywords:
            continue
        seen_keywords.add(norm)
        cands = lsh_query(index, norm, cfg.lsh_candidate_cap)
        if not cands:
            continue
        distinct_values: list[str] = []
        for value, _t, _c in cands:
            if value not in distinct_values:
                distinct_values.append(value)

        cosines = _cosine_filter(norm, distinct_values, embedder, cfg)
        if cosines is None:
            kept = {v: 1.0 for v in distinct_values}
        else:
            ranked = sorted(cosines.items(), key=lambda kv: (-kv[1], kv[0]))
            kept = {
                v: c
                for v, c in ranked[: cfg.embed_top_k]
                if c >= cfg.cosine_threshold
            }
        best: dict[tuple[str, str], tuple[int, str]] = {}
        for value, table, column in cands:
            if value not in kept:
                continue
            dist = edit_distance(norm, value)
            key = (table, column)
            if key not in best or (dist, value) < best[key]:
                best[key] = (dist, value)
        for (table, column), (dist, value) in sorted(best.items()):
            out.append(
                EntityMatch(
                    keyword=keyword,
                    value=value,
                    table=table,
                    column=column,
                    edit_distance=dist,
                    cosine=kept[value],
                )
            )
    return out


def _cosine_filter(
    keyword: str, values: list[str], embedder, cfg: IndexConfig
) -> dict[str, float] | None:
    """Cosine of each value against the keyword, or None when degraded."""
    if embedder is None:
        return None
    try:
        vectors = embedder.embed([keyword] + values)
    except Exception as exc:  # degrade, never fail retrieval
        logger.warning("embedder failed (%s); falling back to edit distance only", exc)
        return None
    q = vectors[0]
    return {v: float(np.dot(vectors[1 + i], q)) for i, v in enumerate(values)}


def exact_ngram_jaccard(a: str, b: str, n: int = 3) -> float:
    """Exact n-gram Jaccard similarity (reference metric for the estimator)."""
    return jaccard(char_ngrams(normalize_value(a), n), char_ngrams(normalize_value(b), n))


def _is_text_type(declared_type: str) -> bool:
    upper = declared_type.upper()
    return any(marker in upper for marker in _TEXT_TYPE_MARKERS)
