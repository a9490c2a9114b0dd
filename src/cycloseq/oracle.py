"""Brute-force ground truth by exhaustive enumeration.

Sequences are fixed-width bit words (bit i = digit at position i), visited
in the order of `itertools.combinations`; cyclic windows are extracted by
doubling the word and masking.  `pattern_census` reads the requested
patterns off one sweep of window profiles.  The default size cap N <= 20
keeps words within a machine word and runtimes bounded;
CYCLOSEQ_ORACLE_CAP overrides it.
"""

from __future__ import annotations

import os
from collections import Counter
from itertools import combinations
from typing import Callable, Hashable, Iterable, Iterator

from .errors import CapExceeded, ConstantSequence, UnsupportedPattern
from .exactmath import SequenceFamily
from .patterncounts import parse_pattern
from .tnumbers import SequenceType

DEFAULT_CAP = 20


def oracle_cap() -> int:
    raw = os.environ.get("CYCLOSEQ_ORACLE_CAP", str(DEFAULT_CAP))
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"CYCLOSEQ_ORACLE_CAP must be an integer, got {raw!r}") from None


def _check_cap(N: int) -> None:
    cap = oracle_cap()
    if N > cap:
        raise CapExceeded(f"N = {N} exceeds the oracle cap {cap}")
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")


def sequences(m: int, n: int) -> Iterator[int]:
    """All words with m zeros and n ones, in enumeration order."""
    SequenceFamily(m, n)  # refuses negative digit counts, not constant families
    N = m + n
    _check_cap(N)
    yield from map(sum, combinations([1 << p for p in range(N)], n))


def _occurrence_counter(N: int, pattern: str) -> Callable[[int], int]:
    """cyclic_occurrences(word, N, pattern) as a function of the word alone."""
    pattern = parse_pattern(pattern)
    if len(pattern) > N:
        raise UnsupportedPattern(f"pattern length {len(pattern)} exceeds the cycle length {N}")
    ones = [j for j, ch in enumerate(pattern) if ch == "1"]
    zeros = [j for j, ch in enumerate(pattern) if ch == "0"]

    def occurrences(word: int) -> int:
        # bit i of doubled >> j is digit j of the window starting at i
        doubled = word | (word << N)
        hits = (1 << N) - 1
        for j in ones:
            hits &= doubled >> j
        for j in zeros:
            hits &= ~doubled >> j
        return hits.bit_count()

    return occurrences


def cyclic_occurrences(word: int, N: int, pattern: str) -> int:
    """Number of the N cyclic windows of the word spelling the pattern.

    Windows may use every digit of the cycle once, so patterns up to length
    N are meaningful here (the closed forms stop one digit earlier).
    """
    return _occurrence_counter(N, pattern)(word)


def _edges(word: int, N: int) -> int:
    """The word XOR its cyclic rotation: bit i is set where a block ends at position i."""
    mask = (1 << N) - 1
    word &= mask
    return word ^ ((word >> 1 | word << (N - 1)) & mask)


def jump_count(word: int, N: int) -> int:
    """Number of cyclic boundaries between unequal adjacent digits."""
    return _edges(word, N).bit_count()


def type_signature(word: int, N: int) -> SequenceType:
    """Descending run-length partitions of the word's zero and one blocks."""
    edges = _edges(word, N)
    if not edges:
        raise ConstantSequence("constant sequences have no two-digit block structure")
    ends = [i for i in range(N) if edges >> i & 1]
    blocks: tuple[list[int], list[int]] = ([], [])
    # each block runs from just after the previous end, cyclically, to its own
    for prev, end in zip(ends[-1:] + ends, ends):
        blocks[word >> end & 1].append((end - prev) % N)
    return SequenceType(*(tuple(sorted(b, reverse=True)) for b in blocks))


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


def pattern_census(m: int, n: int, patterns: Iterable[str]) -> dict[str, dict[int, int]]:
    """Occurrence distributions of the requested patterns, in one sweep.

    Each word is tallied by its profile, the counts of its N cyclic windows of
    the longest requested length by value.  A shorter pattern occurs wherever
    a window starts with it, so every distribution is read off the profiles.
    """
    N = m + n
    _check_cap(N)
    patterns = [parse_pattern(p) for p in patterns]
    width = max(map(len, patterns), default=0)
    if width > N:
        raise UnsupportedPattern(f"pattern length {width} exceeds the cycle length {N}")
    mask = (1 << width) - 1

    def profile(word: int) -> tuple[int, ...]:
        doubled = word | (word << N)
        counts = [0] * (mask + 1)
        for i in range(N):
            counts[(doubled >> i) & mask] += 1
        return tuple(counts)

    profiles = tally(sequences(m, n), profile)
    out: dict[str, dict[int, int]] = {}
    for pattern in patterns:
        value, step = int(pattern[::-1], 2), 1 << len(pattern)
        dist: Counter = Counter()
        for counts, words in profiles.items():
            dist[sum(counts[value::step])] += words
        out[pattern] = dict(sorted(dist.items()))
    return out


def type_census(m: int, n: int) -> dict[SequenceType, int]:
    return tally(sequences(m, n), lambda word: type_signature(word, m + n))

