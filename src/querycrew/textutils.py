"""Shared text normalization, character n-gram hashing and integer checks.

Both the value index and the hashing embedder shingle strings into character
n-grams over a lowercased, space-padded form. Hashes must be stable across
processes (no salted builtins) and must not carry algebraic structure
between overlapping grams (a linear checksum like CRC32 correlates them and
visibly biases the min-wise estimator), so grams are hashed with blake2b
behind a memo table.
"""

from __future__ import annotations

import hashlib

_NGRAM_HASH_CACHE: dict[str, int] = {}
_CACHE_LIMIT = 1 << 22


def normalize_value(text: str) -> str:
    return text.strip().lower()


def char_ngrams(text: str, n: int) -> set[str]:
    """Distinct character n-grams of the space-padded string."""
    if not text:
        return set()
    pad = " " * (n - 1)
    padded = f"{pad}{text}{pad}"
    return {padded[i : i + n] for i in range(len(padded) - n + 1)}


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


def check_int(name: str, value: object, low: int) -> None:
    """The check of every integer setting: an int, not a bool, >= `low`."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{name} must be >= {low} and an int, got {value!r}")


def estimate_tokens(text: str) -> int:
    """Cheap token estimate (four characters per token)."""
    return len(text) // 4
