"""Shared text normalization, character n-gram shingling and integer checks.

Both the value index and the hashing embedder shingle strings into character
n-grams over a lowercased, space-padded form, through `gram_vocabulary`.
Hashes must be stable across processes (no salted builtins) and must not
carry algebraic structure between overlapping grams (a linear checksum like
CRC32 correlates them and visibly biases the min-wise estimator), so grams
are hashed with blake2b behind a memo table.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

_NGRAM_HASH_CACHE: dict[str, int] = {}
_CACHE_LIMIT = 1 << 22


def normalize_value(text: str) -> str:
    return text.strip().lower()


def ngram_hash(gram: str) -> int:
    """Deterministic 32-bit hash of one n-gram."""
    cached = _NGRAM_HASH_CACHE.get(gram)
    if cached is not None:
        return cached
    digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=4).digest()
    value = int.from_bytes(digest, "big")
    if len(_NGRAM_HASH_CACHE) < _CACHE_LIMIT:
        _NGRAM_HASH_CACHE[gram] = value
    return value


def gram_vocabulary(
    values: Sequence[str], n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Character n-grams of non-empty normalized values, read from one text
    of their space-padded forms: (hashes, grams, counts), the ngram_hash of
    each distinct gram, the vocabulary index of the gram at each position
    that starts one, and each value's gram count. A value of length L has
    L + n - 1 grams from its form's first position on, so none is empty;
    the n - 1 positions after them start grams of spaces in no value.
    Grams are keyed by packing their code points into one uint64; when n do
    not fit, the key so far is replaced by its dense rank before packing.
    """
    pad = " " * (n - 1)
    text = pad + (pad * 2).join(values) + pad
    codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
    counts = np.fromiter(map(len, values), dtype=np.int64, count=len(values)) + (n - 1)

    width = max(int(codes.max()).bit_length(), 1)
    key = codes[: len(codes) - n + 1]
    bits = width
    for j in range(1, n):
        if bits + width > 64:
            ranked, key = np.unique(key, return_inverse=True)
            key = key.astype(np.uint64)
            bits = max(len(ranked) - 1, 1).bit_length()
        key = (key << np.uint64(width)) | codes[j : j + len(key)]
        bits += width
    vocab, grams = np.unique(key, return_inverse=True)
    some_start = np.empty(len(vocab), dtype=np.int64)
    some_start[grams] = np.arange(len(grams))
    hashes = np.fromiter(
        (ngram_hash(text[p : p + n]) for p in some_start.tolist()),
        dtype=np.uint64,
        count=len(vocab),
    )
    return hashes, grams, counts


def check_int(name: str, value: object, low: int) -> None:
    """The check of every integer setting: an int, not a bool, >= `low`."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{name} must be >= {low} and an int, got {value!r}")


def estimate_tokens(text: str) -> int:
    """Cheap token estimate (four characters per token)."""
    return len(text) // 4
