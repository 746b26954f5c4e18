"""MinHash-LSH index over distinct database values and hierarchical entity
retrieval: LSH candidates, embedding-similarity filter, then per-column
minimum edit distance.

Distinct text values from non-key columns are shingled into character
n-grams, MinHashed under seeded per-permutation salts, and bucketed into
bands, with no Python run per value. Signatures are computed a block of
values at a time over the block's gram vocabulary: each distinct gram is
hashed once, and each group of permutations mixes the vocabulary and takes
every value's minimum over cache-sized chunks of values of like length. A
query computes the keyword's signature, probes the band buckets, and ranks
collision candidates by estimated Jaccard similarity. Band buckets are kept
as sorted numpy arrays so corpora with millions of values stay indexable.
"""

from __future__ import annotations

import itertools
import logging
import random
import sqlite3
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .catalog import SchemaCatalog, _tick
from .executor import connect_read_only
from .textutils import _mix64, check_int, gram_vocabulary, normalize_value

logger = logging.getLogger(__name__)

_FNV_PRIME = np.uint64(1099511628211)
_FNV_OFFSET = np.uint64(14695981039346656037)

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
        for name in ("ngram_size", "lsh_bands", "lsh_rows", "max_value_length", "num_permutations"):
            check_int(name, getattr(self, name), 1)
        for name in ("lsh_candidate_cap", "embed_top_k", "permutation_seed"):
            check_int(name, getattr(self, name), 0)
        if self.lsh_bands * self.lsh_rows != self.num_permutations:
            raise ValueError(
                f"lsh_bands * lsh_rows must equal num_permutations "
                f"({self.lsh_bands} * {self.lsh_rows} != {self.num_permutations})"
            )
        if not 0.0 <= self.cosine_threshold <= 1.0:
            raise ValueError("cosine_threshold must be in [0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)

    def build_dict(self) -> dict:
        """The fields `build_value_index` reads, which key its cache; retrieval
        reads the others from the config the index is loaded with."""
        query_time = ("lsh_candidate_cap", "cosine_threshold", "embed_top_k")
        return {k: v for k, v in self.to_dict().items() if k not in query_time}


@dataclass
class EntityMatch:
    keyword: str
    value: str
    table: str
    column: str
    edit_distance: int
    cosine: float


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


def minhash_signature(value: str, cfg: IndexConfig) -> np.ndarray:
    """MinHash signature (num_permutations minima) of one string.

    Each permutation salts the 32-bit gram hashes and applies the mixer that
    made them (`textutils._mix64`), so a row of two signatures agrees with
    probability their n-gram Jaccard (a plain linear map over the gram
    hashes stays order-preserving too often and collapses the estimate).
    Raises ValueError for values that normalize to the empty string; the
    index build skips those.
    """
    norm = normalize_value(value)
    if not norm:
        raise ValueError("empty value after normalization")
    return _signatures([norm], cfg, _permutations(cfg))[:, 0]


# Elements of one gathered (grams x values x permutations) table.
_GATHER_BUDGET = 1 << 15


def _signature_groups(
    values: Sequence[str], cfg: IndexConfig, salts: np.ndarray
) -> Iterator[np.ndarray]:
    """MinHash signatures of a block of normalized values, whole bands at a
    time: yields (rows, len(values)) arrays whose rows run through the
    permutations in order.

    The values are sorted by gram count and cut into chunks, each a
    (longest, values) matrix of vocabulary ids with a value's column padded
    by its own last id (a repeated gram cannot change a minimum). A group
    of permutations mixes the vocabulary's hashes into a (vocabulary, rows)
    table, which each chunk gathers and reduces over grams. A group holds
    as many bands as keep the block's gather within _GATHER_BUDGET (at
    least one), so a few keywords take every permutation in one pass, and
    a chunk's gather stays within it even at build size.
    """
    hashes, grams, counts = gram_vocabulary(values, cfg.ngram_size)
    per_band = cfg.lsh_rows * len(grams)
    group = min(len(salts), cfg.lsh_rows * max(1, _GATHER_BUDGET // per_band))
    cap = _GATHER_BUDGET // group  # vocabulary ids in one chunk
    order = np.argsort(counts, kind="stable")
    padded = counts + (cfg.ngram_size - 1)  # code points of a value's padded form
    firsts = (np.cumsum(padded) - padded)[order]
    tails = counts[order] - 1  # from a value's first gram to its last
    chunks, e, lengths = [], len(values), counts[order].tolist()
    while e:  # from the longest values down, as many as fit in cap (at least one)
        s = max(0, e - max(1, cap // lengths[e - 1]))
        at = firsts[s:e] + np.minimum(np.arange(lengths[e - 1])[:, None], tails[s:e])
        chunks.append((order[s:e], grams[at]))
        e = s
    for p in range(0, len(salts), group):
        mixed = _mix64(hashes[:, None] ^ salts[None, p : p + group])
        sig = np.empty((mixed.shape[1], len(values)), dtype=np.uint64)
        # shortest first: value_heavy's peak RSS measured 11 MB below longest first
        for which, ids in reversed(chunks):
            sig[:, which] = np.minimum.reduce(np.take(mixed, ids, axis=0), axis=0).T
        yield sig


def _signatures(values: Sequence[str], cfg: IndexConfig, salts: np.ndarray) -> np.ndarray:
    """Signature matrix of a small block, (num_permutations, len(values))."""
    return np.concatenate(list(_signature_groups(values, cfg, salts)))


def _band_keys(groups: Iterable[np.ndarray], keys: np.ndarray, cfg: IndexConfig) -> np.ndarray:
    """FNV-style mix of each band's rows into one uint64 key, written into
    `keys` (bands, n) in place and returned.

    Takes signature rows a group of whole bands at a time, so no caller
    needs to hold a whole signature matrix.
    """
    band = 0
    for group in groups:
        rows = group.reshape(-1, cfg.lsh_rows, keys.shape[1])
        acc = keys[band : band + len(rows)]
        acc[:] = _FNV_OFFSET
        ids = np.arange(band + 1, band + len(rows) + 1, dtype=np.uint64)[:, None]
        # the band id is folded in last so identical row values in different bands differ
        for row in [*rows.swapaxes(0, 1), ids]:
            acc *= _FNV_PRIME
            acc ^= row
        band += len(rows)
    return keys


# Values signed at once. A value_heavy set-up (198,178 values) peaked at 158.5 MB
# with 16,384, 149.7 with 24,576, 154.6 with 32,768 and 190.4 with 65,536:
# glibc keeps smaller blocks' freed buffers on its heap, so it is not monotone.
_BUILD_BLOCK = 24_576


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

    locations = _indexed_columns(catalog)
    columns: list[list[str]] = []  # each column's kept values, normalized
    try:
        for table, column in locations:
            q = (
                f'SELECT DISTINCT "{_tick(column)}" FROM "{_tick(table)}"'
                f' WHERE "{_tick(column)}" IS NOT NULL'
            )
            try:
                columns.append([
                    norm for (raw,) in conn.execute(q) if isinstance(raw, str)
                    and 0 < len(norm := normalize_value(raw)) <= cfg.max_value_length
                ])
            except sqlite3.Error as exc:
                raise ValueIndexError(f"cannot read {table}.{column}: {exc}") from exc
    finally:
        conn.close()

    # one sort of an object array numbers the values: a set and a dict held
    # 23 MB on value_heavy that glibc at times kept past the signing pass,
    # lifting a set-up's peak RSS from about 150 to 169 MB
    sizes = list(map(len, columns))
    cells = np.fromiter(itertools.chain.from_iterable(columns), dtype=object, count=sum(sizes))
    distinct, row_ids = np.unique(cells, return_inverse=True)
    values = distinct.tolist()
    del columns, cells, distinct  # the signature pass reads none of them
    # one int64 per (value id, column id) pair, sorted value by value; case
    # or space variants of a value repeat its pair within a column
    pairs = row_ids.astype(np.int64) << 32
    pairs |= np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    pairs.sort()
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]
    loc_offsets = np.searchsorted(pairs >> 32, np.arange(len(values) + 1))
    loc_ids = (pairs & 0xFFFFFFFF).astype(np.int32)
    del row_ids, pairs
    salts = _permutations(cfg)

    band_keys = np.empty((cfg.lsh_bands, len(values)), dtype=np.uint64)
    for start in range(0, len(values), _BUILD_BLOCK):
        end = start + _BUILD_BLOCK
        _band_keys(_signature_groups(values[start:end], cfg, salts), band_keys[:, start:end], cfg)

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
    keys = _band_keys([sig], np.empty((cfg.lsh_bands, 1), dtype=np.uint64), cfg)[:, 0]

    hits: list[np.ndarray] = []
    for band_keys, band_ids, key in zip(index.band_keys, index.band_ids, keys):
        lo, hi = band_keys.searchsorted(key), band_keys.searchsorted(key, "right")
        if hi > lo:
            hits.append(band_ids[lo:hi])
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
    distance (ties broken by the lexicographically smaller value). Every
    keyword with candidates and every distinct candidate value go to the
    embedder in one call. If the embedder is unavailable or that call
    fails, retrieval degrades for every keyword, with one warning, to the
    LSH and edit-distance stages with cosine reported as 1.0.
    """
    cfg = cfg or index.config
    spellings: dict[str, str] = {}  # each normalized keyword's first spelling
    for keyword in keywords:
        if norm := normalize_value(keyword):
            spellings.setdefault(norm, keyword)
    queries = [(keyword, norm, cands) for norm, keyword in spellings.items()
               if (cands := lsh_query(index, norm, cfg.lsh_candidate_cap))]
    if not queries:
        return []

    # one row per distinct text: embed is a pure function of each text
    texts = list(dict.fromkeys(
        text for _k, norm, cands in queries for text in [norm, *(v for v, _t, _c in cands)]
    ))
    row = {text: i for i, text in enumerate(texts)}
    vectors = None
    if embedder is not None:
        try:
            vectors = embedder.embed(texts)
        except Exception as exc:  # degrade, never fail retrieval
            logger.warning("embedder failed (%s); falling back to edit distance only", exc)

    out: list[EntityMatch] = []
    for keyword, norm, cands in queries:
        distinct_values = list(dict.fromkeys(v for v, _t, _c in cands))
        if vectors is None:
            kept = dict.fromkeys(distinct_values, 1.0)
        else:
            q = vectors[row[norm]]
            cosines = {v: float(np.dot(vectors[row[v]], q)) for v in distinct_values}
            ranked = sorted(cosines.items(), key=lambda kv: (-kv[1], kv[0]))
            kept = {v: c for v, c in ranked[: cfg.embed_top_k] if c >= cfg.cosine_threshold}
        best: dict[tuple[str, str], tuple[int, str]] = {}
        for value, table, column in cands:
            if value not in kept:
                continue
            dist = edit_distance(norm, value)
            key = (table, column)
            if key not in best or (dist, value) < best[key]:
                best[key] = (dist, value)
        out += [EntityMatch(keyword, value, table, column, dist, kept[value])
                for (table, column), (dist, value) in sorted(best.items())]
    return out


def _is_text_type(declared_type: str) -> bool:
    upper = declared_type.upper()
    return any(marker in upper for marker in _TEXT_TYPE_MARKERS)
