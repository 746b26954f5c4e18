"""MinHash-LSH index over distinct database values and hierarchical entity
retrieval: LSH candidates, embedding-similarity filter, then per-column
minimum edit distance.

Distinct text values from non-key columns are shingled into character
n-grams, MinHashed under seeded per-permutation salts, and bucketed into
bands. A query computes the keyword's signature, probes the band buckets,
and ranks collision candidates by estimated Jaccard similarity. Band buckets
are kept as sorted numpy arrays so corpora with millions of values stay
indexable in memory.
"""

from __future__ import annotations

import logging
import random
import sqlite3
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .catalog import SchemaCatalog
from .textutils import char_ngrams, jaccard, ngram_hashes, normalize_value

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
        if self.ngram_size < 1:
            raise ValueError("ngram_size must be >= 1")
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


@dataclass
class _Band:
    sorted_keys: np.ndarray  # uint64, ascending
    sorted_ids: np.ndarray  # int64, value ids in key order


@dataclass
class ValueIndex:
    """Immutable LSH index over the distinct values of one database."""

    config: IndexConfig
    values: list[str]  # distinct normalized values
    locations: list[tuple[str, str]]  # distinct (table, column) pairs
    value_locs: list[tuple[int, ...]]  # per value: indices into `locations`
    bands: list[_Band] = field(repr=False, default_factory=list)
    _salts: np.ndarray = field(repr=False, default=None)

    def __len__(self) -> int:
        return len(self.values)

    def entry_count(self) -> int:
        return sum(len(locs) for locs in self.value_locs)


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
    salts = _permutations(cfg)
    return _signature_block([norm], cfg, salts)[0]


def estimated_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    return float(np.count_nonzero(sig_a == sig_b)) / len(sig_a)


def _signature_block(
    values: Sequence[str], cfg: IndexConfig, salts: np.ndarray
) -> np.ndarray:
    """Signatures for a block of already-normalized values, (len, num_perm)."""
    hash_lists = [ngram_hashes(v, cfg.ngram_size) for v in values]
    offsets = np.zeros(len(hash_lists), dtype=np.int64)
    total = 0
    for i, hl in enumerate(hash_lists):
        offsets[i] = total
        total += len(hl)
    concat = np.empty(total, dtype=np.uint64)
    pos = 0
    for hl in hash_lists:
        concat[pos : pos + len(hl)] = hl
        pos += len(hl)
    sigs = np.empty((len(values), cfg.num_permutations), dtype=np.uint64)
    for p in range(cfg.num_permutations):
        sigs[:, p] = np.minimum.reduceat(_mix64(concat ^ salts[p]), offsets)
    return sigs


def _band_keys(sigs: np.ndarray, cfg: IndexConfig) -> np.ndarray:
    """FNV-style mix of each band's rows into one uint64 key, (len, bands)."""
    n = sigs.shape[0]
    keys = np.empty((n, cfg.lsh_bands), dtype=np.uint64)
    for band in range(cfg.lsh_bands):
        start = band * cfg.lsh_rows
        acc = np.full(n, _FNV_OFFSET, dtype=np.uint64)
        for row in range(start, start + cfg.lsh_rows):
            acc = (acc * _FNV_PRIME) ^ sigs[:, row]
        # fold the band id in so identical row values in different bands differ
        keys[:, band] = (acc * _FNV_PRIME) ^ np.uint64(band + 1)
    return keys


_BUILD_BLOCK = 65_536


def build_value_index(
    catalog: SchemaCatalog, db_file: str | Path, cfg: IndexConfig | None = None
) -> ValueIndex:
    """Index every distinct text value of the non-PK text columns.

    Values are lowercased and stripped; values longer than
    cfg.max_value_length or empty after normalization are skipped.
    """
    cfg = cfg or IndexConfig()
    path = Path(db_file)
    try:
        conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    except sqlite3.Error as exc:
        raise ValueIndexError(f"cannot open database {path}: {exc}") from exc

    value_to_locs: dict[str, set[int]] = {}
    locations: list[tuple[str, str]] = []
    try:
        for tinfo in catalog.tables:
            for col in tinfo.columns:
                if col.is_pk or not _is_text_type(col.declared_type):
                    continue
                loc_id = len(locations)
                locations.append((tinfo.name, col.name))
                q = (
                    f'SELECT DISTINCT "{_tick(col.name)}" FROM "{_tick(tinfo.name)}"'
                    f' WHERE "{_tick(col.name)}" IS NOT NULL'
                )
                try:
                    rows = conn.execute(q).fetchall()
                except sqlite3.Error as exc:
                    raise ValueIndexError(f"cannot read {tinfo.name}.{col.name}: {exc}") from exc
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
    value_locs = [tuple(sorted(value_to_locs[v])) for v in values]
    salts = _permutations(cfg)

    all_keys = np.empty((len(values), cfg.lsh_bands), dtype=np.uint64)
    for start in range(0, len(values), _BUILD_BLOCK):
        block = values[start : start + _BUILD_BLOCK]
        sigs = _signature_block(block, cfg, salts)
        all_keys[start : start + len(block)] = _band_keys(sigs, cfg)

    bands: list[_Band] = []
    for band in range(cfg.lsh_bands):
        keys = all_keys[:, band]
        order = np.argsort(keys, kind="stable")
        bands.append(_Band(sorted_keys=keys[order], sorted_ids=order.astype(np.int64)))

    logger.info(
        "value index built: %d distinct values over %d columns", len(values), len(locations)
    )
    return ValueIndex(
        config=cfg,
        values=values,
        locations=locations,
        value_locs=value_locs,
        bands=bands,
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
    sig = _signature_block([norm], cfg, index._salts)
    keys = _band_keys(sig, cfg)[0]

    hits: list[np.ndarray] = []
    for band, key in zip(index.bands, keys):
        lo = np.searchsorted(band.sorted_keys, key, side="left")
        hi = np.searchsorted(band.sorted_keys, key, side="right")
        if hi > lo:
            hits.append(band.sorted_ids[lo:hi])
    if not hits:
        return []
    candidate_ids = np.unique(np.concatenate(hits))

    cand_values = [index.values[i] for i in candidate_ids]
    cand_sigs = _signature_block(cand_values, cfg, index._salts)
    matches = (cand_sigs == sig[0][None, :]).sum(axis=1)
    ranked = sorted(
        zip(cand_values, matches.tolist(), candidate_ids.tolist()),
        key=lambda item: (-item[1], item[0]),
    )

    out: list[tuple[str, str, str]] = []
    for value, _score, vid in ranked:
        for loc_id in index.value_locs[vid]:
            table, column = index.locations[loc_id]
            out.append((value, table, column))
            if len(out) >= cap:
                return out
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


def attach_sample_values(catalog: SchemaCatalog, index: ValueIndex, per_column: int = 3) -> None:
    """Fill ColumnInfo.sample_values with up to `per_column` short values."""
    by_loc: dict[tuple[str, str], list[str]] = {}
    for vid, locs in enumerate(index.value_locs):
        for loc_id in locs:
            by_loc.setdefault(index.locations[loc_id], []).append(index.values[vid])
    for (table, column), vals in by_loc.items():
        vals.sort(key=lambda v: (len(v), v))
        catalog.column(table, column).sample_values = vals[:per_column]


def _is_text_type(declared_type: str) -> bool:
    upper = declared_type.upper()
    return any(marker in upper for marker in _TEXT_TYPE_MARKERS)


def _tick(name: str) -> str:
    return name.replace('"', '""')
