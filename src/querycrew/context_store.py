"""Vector store over catalog description text and semantic top-k retrieval.

At preprocessing time every nonempty description field (expanded name,
column description, value description) becomes one store item with an
embedding vector. Retrieval is a linear cosine scan; catalogs hold thousands
of descriptions, not millions, so no ANN structure is needed.

Two embedding providers exist: a remote one speaking the common
`/embeddings` HTTP API and a deterministic local one (feature hashing over
character 1- to 3-grams) that keeps tests and air-gapped deployments offline.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np
import requests

from .catalog import SchemaCatalog
from .gateway import post_json
from .textutils import check_int, gram_vocabulary, normalize_value

logger = logging.getLogger(__name__)

FIELD_KINDS = ("expanded_name", "column_description", "value_description")

# Most texts one embeddings request carries.
EMBED_CHUNK = 256


class ContextStoreError(Exception):
    """Context store could not be built."""


class EmbeddingProvider(Protocol):
    dimension: int

    def embed(self, texts: Sequence[str]) -> np.ndarray: ...


class HashingEmbedder:
    """Deterministic local embedder: hashed character n-gram features (sizes
    1 through 3), L2-normalized.

    A pure function of the input text; identical text always yields the
    identical vector. The multi-scale grams keep near-duplicate short strings
    (a keyword and its stored spelling) above the default cosine threshold,
    mimicking how a real embedding model scores them. Used as the offline
    stand-in for a remote model.

    Each distinct gram adds +1 or -1 (bit 16 of its `textutils` hash) at its
    hash modulo the dimension. Texts go EMBED_CHUNK at a time through
    `gram_vocabulary`, which hashes a block's distinct grams in numpy; one
    bincount sums the signs of the block's distinct (text, gram) pairs into
    the output in place, so a call holds no other (texts x dimension) array.
    The sums are exact integers: summation order changes no bit.
    """

    def __init__(self, dimension: int = 256):
        check_int("embedding dimension", dimension, 1)
        self.dimension = dimension

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        dim = self.dimension
        out = np.zeros((len(texts), dim), dtype=np.float64)
        for start in range(0, len(texts), EMBED_CHUNK):
            block = out[start : start + EMBED_CHUNK]
            normalized = [normalize_value(text) for text in texts[start : start + EMBED_CHUNK]]
            rows = np.flatnonzero(list(map(len, normalized)))
            if not len(rows):
                continue
            values = [normalized[i] for i in rows.tolist()]
            cells, signs = [], []
            for n in (1, 2, 3):
                hashes, grams, counts = gram_vocabulary(values, n)
                # the k-th gram over all values, value i's, starts at position
                # k + (n - 1) i: n - 1 positions after each value start none
                owner = np.repeat(np.arange(len(values)), counts)
                pairs = (rows[owner] << 32) | grams[np.arange(len(owner)) + owner * (n - 1)]
                pairs.sort()
                pairs = pairs[np.diff(pairs, prepend=-1) != 0]  # a gram counts once
                h = hashes.astype(np.int64)[pairs & 0xFFFFFFFF]
                cells.append((pairs >> 32) * dim + h % dim)
                signs.append(((h >> 16) & 1) * 2.0 - 1.0)
            sums = np.bincount(np.concatenate(cells), np.concatenate(signs), len(block) * dim)
            block[...] = sums.reshape(block.shape)
            length = np.sqrt(np.einsum("ij,ij->i", block, block))[:, None]
            np.divide(block, length, out=block, where=length > 0)
        return out


class RemoteEmbedder:
    """Embeddings over an HTTP endpoint compatible with the standard API.

    Texts go out in requests of at most EMBED_CHUNK inputs each, in order,
    through `post_json`; its failures raise ContextStoreError, as does a body
    that is not one finite vector of `dimension` numbers per text sent.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        dimension: int = 1536,
        api_key_env: str = "EMBEDDINGS_API_KEY",
        timeout: float = 60.0,
        session: requests.Session | None = None,
    ):
        check_int("embedding dimension", dimension, 1)
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.dimension = dimension
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.session = session or requests.Session()

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        url = f"{self.base_url}/embeddings"
        chunks = [np.zeros((0, self.dimension))]
        for start in range(0, len(texts), EMBED_CHUNK):
            chunk = list(texts[start : start + EMBED_CHUNK])
            body = post_json(
                self.session, url, {"model": self.model, "input": chunk},
                self.api_key_env, self.timeout, ContextStoreError,
            )
            try:
                rows = np.array([d["embedding"] for d in body["data"]], dtype=np.float64)
                expected = (len(chunk), self.dimension)
                if rows.shape != expected or not np.isfinite(rows).all():
                    raise ValueError(f"shape {rows.shape}, expected {expected} finite values")
            except (LookupError, TypeError, ValueError, OverflowError) as exc:
                raise ContextStoreError(
                    f"{url} returned a body of the wrong shape: {exc!r}"
                ) from exc
            chunks.append(rows)
        vectors = np.concatenate(chunks)
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return vectors / norms


@dataclass
class StoreItem:
    doc_id: str
    table: str
    column: str
    text: str


@dataclass
class DescriptionHit(StoreItem):
    cosine: float


@dataclass
class ContextStore:
    """`_store_items` of a catalog and their vectors, row i embedding item i."""

    items: list[StoreItem]
    vectors: np.ndarray = field(repr=False, default=None)  # (len(items), dim), unit rows
    embedder: EmbeddingProvider = None

    def __len__(self) -> int:
        return len(self.items)

    def to_parts(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The cache's JSON document (empty) and arrays (see `caching`); the
        embedder is not cached, since it may hold a live session."""
        return {}, {"vectors": self.vectors}

    @classmethod
    def from_parts(cls, catalog: SchemaCatalog, arrays: dict[str, np.ndarray]) -> "ContextStore":
        """Inverse of `to_parts`, without an embedder; raises ValueError on
        vectors that do not fit the catalog's items."""
        items, vectors = _store_items(catalog), arrays["vectors"]
        if vectors.ndim != 2 or len(vectors) != len(items):
            raise ValueError("context store vectors do not fit its items")
        return cls(items=items, vectors=vectors)


def _store_items(catalog: SchemaCatalog) -> list[StoreItem]:
    """One item per nonempty description field per column, in catalog order."""
    return [StoreItem(f"{tinfo.name}.{col.name}.{kind}", tinfo.name, col.name, text)
            for tinfo in catalog.tables for col in tinfo.columns for kind in FIELD_KINDS
            if (text := getattr(col, kind))]


def build_context_store(catalog: SchemaCatalog, embedder: EmbeddingProvider) -> ContextStore:
    """Embed every `_store_items` item of the catalog.

    Embedding failures propagate as ContextStoreError: the store is built at
    preprocessing time where a hard failure is the right behavior.
    """
    items = _store_items(catalog)
    if not items:
        return ContextStore(items=[], vectors=np.zeros((0, embedder.dimension)), embedder=embedder)
    try:
        vectors = embedder.embed([item.text for item in items])
    except ContextStoreError:
        raise
    except Exception as exc:
        raise ContextStoreError(f"embedding failed during store build: {exc}") from exc
    if vectors.shape != (len(items), embedder.dimension):
        raise ContextStoreError(
            f"embedder returned shape {vectors.shape}, "
            f"expected {(len(items), embedder.dimension)}"
        )
    return ContextStore(items=items, vectors=vectors, embedder=embedder)


def retrieve_context(store: ContextStore, query_text: str, k: int) -> list[DescriptionHit]:
    """Top-k description items by cosine to the query text.

    Results are sorted by non-increasing cosine with ties broken by doc_id,
    so retrieval is stable across runs; a NaN cosine ranks last. k=0 or an
    empty store returns []. If embedding the query fails, retrieval degrades
    to no descriptions, with one warning, as `retrieve_entities` does.
    """
    if k <= 0 or not store.items:
        return []
    try:
        q = store.embedder.embed([query_text])[0]
    except Exception as exc:  # degrade, never fail the question
        logger.warning("embedder failed (%s); retrieving no descriptions", exc)
        return []
    # without BLAS, identical rows get identical scores, so ties fall to doc_id
    scores = np.einsum("ij,j->i", store.vectors, q)
    rank = np.where(np.isnan(scores), -np.inf, scores)
    # only items scoring at least the k-th best get sorted; every tie there stays in
    cut = len(rank) - min(k, len(rank))
    kept = np.flatnonzero(rank >= np.partition(rank, cut)[cut])
    order = sorted(kept, key=lambda i: (-rank[i], store.items[i].doc_id))
    return [DescriptionHit(**vars(store.items[i]), cosine=float(scores[i])) for i in order[:k]]
