"""Brute-force ground truth by exhaustive enumeration.

Sequences are fixed-width bit words (bit i = digit at position i); cyclic
windows are extracted by doubling the word and masking.  Enumeration of a
family visits its one-position combinations in colexicographic rank order,
so chunked runs over rank ranges merge to exactly the sequential tally.
The default size cap N <= 20 keeps words within a machine word and runtimes
bounded; CYCLOSEQ_ORACLE_CAP overrides it.
"""

from __future__ import annotations

import os
from collections import Counter
from math import comb
from typing import Callable, Hashable, Iterable, Iterator

from .errors import CapExceeded, ConstantSequence, UnsupportedPattern
from .exactmath import SequenceFamily
from .patterncounts import parse_pattern
from .tnumbers import SequenceType

DEFAULT_CAP = 20


def oracle_cap() -> int:
    return int(os.environ.get("CYCLOSEQ_ORACLE_CAP", str(DEFAULT_CAP)))


def _check_cap(N: int) -> None:
    cap = oracle_cap()
    if N > cap:
        raise CapExceeded(f"N = {N} exceeds the oracle cap {cap}")
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")


def unrank_combination(rank: int, n_positions: int, k: int) -> tuple[int, ...]:
    """Colex unranking: the rank-th k-subset of {0..n_positions-1}."""
    out = []
    for slot in range(k, 0, -1):
        c = slot - 1
        while comb(c + 1, slot) <= rank:
            c += 1
        out.append(c)
        rank -= comb(c, slot)
    return tuple(reversed(out))


def sequences_slice(m: int, n: int, lo: int, hi: int) -> Iterator[int]:
    """Words of the family whose colex ranks lie in [lo, hi)."""
    N = m + n
    _check_cap(N)
    total = SequenceFamily(m, n).size()  # refuses negative digit counts, not constant families
    lo, hi = max(lo, 0), min(hi, total)
    for rank in range(lo, hi):
        word = 0
        for pos in unrank_combination(rank, N, n):
            word |= 1 << pos
        yield word


def sequences(m: int, n: int) -> Iterator[int]:
    """All words with m zeros and n ones, in colex rank order."""
    yield from sequences_slice(m, n, 0, SequenceFamily(m, n).size())


def _occurrence_counter(N: int, pattern: str) -> Callable[[int], int]:
    """cyclic_occurrences(word, N, pattern) as a function of the word alone."""
    pattern = parse_pattern(pattern)
    L = len(pattern)
    if L > N:
        raise UnsupportedPattern(
            f"pattern length {L} exceeds the cycle length {N}"
        )
    target = sum(1 << j for j, ch in enumerate(pattern) if ch == "1")
    mask = (1 << L) - 1

    def occurrences(word: int) -> int:
        doubled = word | (word << N)
        return sum(1 for i in range(N) if (doubled >> i) & mask == target)

    return occurrences


def cyclic_occurrences(word: int, N: int, pattern: str) -> int:
    """Number of the N cyclic windows of the word spelling the pattern.

    Windows may use every digit of the cycle once, so patterns up to length
    N are meaningful here (the closed forms stop one digit earlier).
    """
    return _occurrence_counter(N, pattern)(word)


def jump_count(word: int, N: int) -> int:
    """Number of cyclic boundaries between unequal adjacent digits."""
    rotated = ((word >> 1) | (word << (N - 1))) & ((1 << N) - 1)
    return bin(word ^ rotated).count("1")


def type_signature(word: int, N: int) -> SequenceType:
    """Descending run-length partitions of the word's zero and one blocks."""
    word &= (1 << N) - 1
    ones = bin(word).count("1")
    if ones == 0 or ones == N:
        raise ConstantSequence("constant sequences have no two-digit block structure")
    # rotate so position 0 starts a new block
    w = word
    for shift in range(N):
        if (w & 1) != (w >> (N - 1)) & 1:
            break
        w = ((w >> 1) | (w << (N - 1))) & ((1 << N) - 1)
    runs: list[tuple[int, int]] = []
    digit = w & 1
    length = 0
    for i in range(N):
        d = (w >> i) & 1
        if d == digit:
            length += 1
        else:
            runs.append((digit, length))
            digit, length = d, 1
    runs.append((digit, length))
    zero_blocks = tuple(sorted((l for d, l in runs if d == 0), reverse=True))
    one_blocks = tuple(sorted((l for d, l in runs if d == 1), reverse=True))
    return SequenceType(zero_blocks, one_blocks)


def tally(words: Iterable[int], key: Callable[[int], Hashable]) -> dict:
    """Number of words per key value, in ascending key order."""
    return dict(sorted(Counter(map(key, words)).items()))


def jump_distribution(m: int, n: int) -> dict[int, int]:
    return tally(sequences(m, n), lambda word: jump_count(word, m + n))


def pattern_distribution(m: int, n: int, pattern: str) -> dict[int, int]:
    _check_cap(m + n)  # an over-cap family is refused before its pattern is read
    return tally(sequences(m, n), _occurrence_counter(m + n, pattern))


def joint_distribution(m: int, n: int, patterns: Iterable[str]) -> dict[tuple[int, ...], int]:
    _check_cap(m + n)
    counters = [_occurrence_counter(m + n, p) for p in patterns]
    return tally(sequences(m, n), lambda word: tuple(count(word) for count in counters))


def pattern_census(m: int, n: int, max_len: int = 4) -> dict[str, dict[int, int]]:
    """Occurrence distributions of every pattern up to max_len, in one sweep.

    A window of length L determines the shorter windows starting at the same
    position, so a single pass over each word tallies every pattern at once.
    """
    N = m + n
    _check_cap(N)
    max_len = min(max_len, N - 1) if N > 1 else 1
    sizes = [(L, (1 << L) - 1, 1 << L) for L in range(1, max_len + 1)]
    names = {
        L: [format(v, f"0{L}b")[::-1] for v in range(1 << L)]
        for L, _, _ in sizes
    }
    out: dict[str, dict[int, int]] = {
        names[L][v]: {} for L, _, size in sizes for v in range(size)
    }
    for word in sequences(m, n):
        doubled = word | (word << N)
        per = {L: [0] * size for L, _, size in sizes}
        for i in range(N):
            chunk = doubled >> i
            for L, mask, _ in sizes:
                per[L][chunk & mask] += 1
        for L, _, size in sizes:
            row = per[L]
            name_row = names[L]
            for v in range(size):
                d = out[name_row[v]]
                h = row[v]
                d[h] = d.get(h, 0) + 1
    return {p: dict(sorted(d.items())) for p, d in out.items()}


def type_census(m: int, n: int) -> dict[SequenceType, int]:
    return tally(sequences(m, n), lambda word: type_signature(word, m + n))


def allwords_pattern_distribution(N: int, pattern: str) -> dict[int, int]:
    _check_cap(N)
    return tally(range(1 << N), _occurrence_counter(N, pattern))


def allwords_jump_distribution(N: int) -> dict[int, int]:
    _check_cap(N)
    return tally(range(1 << N), lambda word: jump_count(word, N))
