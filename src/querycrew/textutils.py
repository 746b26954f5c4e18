"""Shared text normalization, character n-gram shingling, 64-bit mixing and
integer checks.

Both the value index and the hashing embedder shingle strings into character
n-grams over a lowercased, space-padded form, through `gram_vocabulary`,
which hashes a block's distinct grams in numpy: h = _mix64(h ^ code) per code
point from a fixed seed, cut to 32 bits. The hash is stable across processes,
and the full-avalanche mixer leaves no algebraic structure between
overlapping grams (a linear checksum like CRC32 correlates them and visibly
biases the min-wise estimator).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)  # per call, they doubled a small _mix64
_GRAM_SEED = np.uint64(0x9E3779B97F4A7C15)  # splitmix64's increment


def normalize_value(text: str) -> str:
    return text.strip().lower()


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place: full-avalanche 64-bit mixing mod 2^64."""
    x ^= x >> _S30
    x *= _MIX1
    x ^= x >> _S27
    x *= _MIX2
    x ^= x >> _S31
    return x


def gram_vocabulary(
    values: Sequence[str], n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Character n-grams of non-empty normalized values, read from one text
    of their space-padded forms: (hashes, grams, counts), the 32-bit hash of
    each distinct gram, the vocabulary index of the gram at each position
    that starts one, and each value's gram count. A value of length L has
    L + n - 1 grams from its form's first position on, so none is empty;
    the n - 1 positions after them start grams of spaces in no value.
    Grams are keyed by packing their code points into one uint64 (when n do
    not fit, the key so far is replaced by its dense rank before packing);
    the keys only deduplicate, and each gram is hashed from its code points.
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
    hashes = np.full(len(vocab), _GRAM_SEED)
    for j in range(n):
        hashes ^= codes[some_start + j]
        _mix64(hashes)
    return hashes >> np.uint64(32), grams, counts


def check_int(name: str, value: object, low: int) -> None:
    """The check of every integer setting: an int, not a bool, >= `low`."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{name} must be >= {low} and an int, got {value!r}")


def estimate_tokens(text: str) -> int:
    """Cheap token estimate (four characters per token)."""
    return len(text) // 4
