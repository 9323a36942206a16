"""Packed-word helpers for 64-pattern-parallel simulation.

A *pattern vector* for one net is a ``numpy`` array of ``uint64`` words;
bit ``p % 64`` of word ``p // 64`` holds the net's value under pattern
``p``.  All simulators in :mod:`repro.sim` operate on these vectors.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

WORD_BITS = 64


def num_words(num_patterns: int) -> int:
    """Words needed to hold ``num_patterns`` bits."""
    if num_patterns < 0:
        raise ValueError("num_patterns must be non-negative")
    return (num_patterns + WORD_BITS - 1) // WORD_BITS


def pattern_mask(num_patterns: int) -> np.ndarray:
    """Word vector with exactly the first ``num_patterns`` bits set.

    Used to discard garbage in the unused high bits after inverting gates.
    """
    words = num_words(num_patterns)
    mask = np.full(words, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    tail = num_patterns % WORD_BITS
    if words and tail:
        mask[-1] = np.uint64((1 << tail) - 1)
    return mask


def pack_bits(bits: Iterable[int]) -> np.ndarray:
    """Pack an iterable of 0/1 values into a word vector (LSB first)."""
    bit_list = [1 if b else 0 for b in bits]
    vec = np.zeros(num_words(len(bit_list)), dtype=np.uint64)
    for p, b in enumerate(bit_list):
        if b:
            vec[p // WORD_BITS] |= np.uint64(1) << np.uint64(p % WORD_BITS)
    return vec


def unpack_bits(vec: np.ndarray, num_patterns: int) -> List[int]:
    """Inverse of :func:`pack_bits`."""
    out = []
    for p in range(num_patterns):
        word = int(vec[p // WORD_BITS])
        out.append((word >> (p % WORD_BITS)) & 1)
    return out


def get_bit(vec: np.ndarray, pattern: int) -> int:
    """Value of one pattern's bit in a word vector."""
    return (int(vec[pattern // WORD_BITS]) >> (pattern % WORD_BITS)) & 1


# Per-byte set-bit counts, the fallback when numpy lacks a native popcount.
_BYTE_POPCOUNT = np.array(
    [bin(b).count("1") for b in range(256)], dtype=np.uint8
)

if hasattr(np, "bitwise_count"):  # numpy >= 2

    def popcount(vec: np.ndarray) -> int:
        """Number of set bits across the whole word vector."""
        return int(np.bitwise_count(vec).sum())

    def popcount_rows(matrix: np.ndarray) -> np.ndarray:
        """Number of set bits in each row of a 2-D word matrix."""
        return np.bitwise_count(matrix).sum(axis=1, dtype=np.int64)

else:

    def popcount(vec: np.ndarray) -> int:
        """Number of set bits across the whole word vector."""
        return int(_BYTE_POPCOUNT[vec.view(np.uint8)].sum())

    def popcount_rows(matrix: np.ndarray) -> np.ndarray:
        """Number of set bits in each row of a 2-D word matrix."""
        return _BYTE_POPCOUNT[matrix.view(np.uint8)].sum(axis=1, dtype=np.int64)


def any_bit(vec: np.ndarray) -> bool:
    """True if any bit is set."""
    return bool(np.any(vec))


def random_patterns(
    num_nets: int, num_patterns: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform random pattern matrix of shape ``(num_nets, words)``, with
    unused tail bits cleared."""
    words = num_words(num_patterns)
    matrix = rng.integers(
        0, np.iinfo(np.uint64).max, size=(num_nets, words), dtype=np.uint64,
        endpoint=True,
    )
    matrix &= pattern_mask(num_patterns)
    return matrix
