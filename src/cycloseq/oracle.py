"""Brute-force ground truth by exhaustive enumeration.

Sequences are fixed-width bit words (bit i = digit at position i).  Every
count the oracle takes is cyclic, so it is the same on all rotations of a
word: `rotation_classes` visits one word per rotation class, by the
Fredricksen-Kessler-Maiorana rule restricted to m zeros and n ones, and
`tally` weights each key by its class size.  The sizes must sum to
C(m+n, n), or the enumeration raises `IncompleteEnumeration`.  Every
distribution enumerates its family afresh unless it is given the family's
classes from an earlier sweep, so a caller that tallies one family several
times enumerates it once.  Cyclic windows are extracted by doubling the word
and masking.  `pattern_census` reads the requested patterns off one sweep of
window profiles.  A sweep checks the cap N <= CAP, which bounds the runtime.
"""

from collections import Counter
from collections.abc import Callable, Hashable, Iterable, Iterator

from .errors import CapExceeded, ConstantSequence, IncompleteEnumeration
from .exactmath import SequenceFamily, pattern_family

CAP = 20


def check_cap(N: int) -> None:
    """Refuse a family of length N above the oracle cap; SequenceFamily owns N >= 1."""
    if N > CAP:
        raise CapExceeded(f"N = {N} exceeds the oracle cap {CAP}")


def rotation_classes(m: int, n: int) -> Iterator[tuple[int, int]]:
    """(word, class size) for one word of each rotation class with m zeros and n ones.

    Builds the lexicographically least rotations digit by digit: the next
    digit is at least the one p places back, p is the period of the prefix so
    far, and a full word whose period p divides N is a class of p words.
    """
    family = SequenceFamily(m, n)
    N = family.N
    check_cap(N)
    covered = 0
    stack = [(0, 1, 0, m, n)]  # digits placed, period, word, zeros left, ones left
    while stack:
        t, p, word, zeros, ones = stack.pop()
        if t == N:
            if N % p == 0:
                covered += p
                yield word, p
        elif t >= p and word >> (t - p) & 1:  # the digit p places back is a one
            if ones:
                stack.append((t + 1, p, word | 1 << t, zeros, ones - 1))
        else:  # a zero, or none yet: a one here makes the whole prefix the period
            if ones:
                stack.append((t + 1, t + 1, word | 1 << t, zeros, ones - 1))
            if zeros:
                stack.append((t + 1, p, word, zeros - 1, ones))
    if covered != family.size():
        raise IncompleteEnumeration(
            f"rotation classes of ({m}, {n}) cover {covered} words, not {family.size()}")


def _occurrence_counter(m: int, n: int, pattern: str) -> Callable[[int], int]:
    """word -> its windows that spell the pattern (up to N long); the sweep checks the cap."""
    N = pattern_family(m, n, pattern).N
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


def _edges(word: int, N: int) -> int:
    """The word XOR its cyclic rotation: bit i is set where a block ends at position i."""
    mask = (1 << N) - 1
    word &= mask
    return word ^ ((word >> 1 | word << (N - 1)) & mask)


def jump_count(word: int, N: int) -> int:
    """Number of cyclic boundaries between unequal adjacent digits."""
    return _edges(word, N).bit_count()


def type_signature(word: int, N: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(zero blocks, one blocks): descending run-length partitions of the word's blocks."""
    edges = _edges(word, N)
    if not edges:
        raise ConstantSequence("constant sequences have no two-digit block structure")
    ends = [i for i in range(N) if edges >> i & 1]
    blocks: tuple[list[int], list[int]] = ([], [])
    # each block runs from just after the previous end, cyclically, to its own
    for prev, end in zip(ends[-1:] + ends, ends):
        blocks[word >> end & 1].append((end - prev) % N)
    return tuple(tuple(sorted(b, reverse=True)) for b in blocks)


def tally(classes: Iterable[tuple[int, int]], key: Callable[[int], Hashable]) -> dict:
    """Number of words per key value, in ascending key order, from (word, weight) pairs."""
    counts: Counter = Counter()
    for word, size in classes:
        counts[key(word)] += size
    return dict(sorted(counts.items()))


Classes = Iterable[tuple[int, int]]


def _swept(m: int, n: int, classes: Classes | None) -> Classes:
    """The given classes of the family (m, n), or a fresh sweep of it."""
    return rotation_classes(m, n) if classes is None else classes


def jump_distribution(m: int, n: int, classes: Classes | None = None) -> dict[int, int]:
    return tally(_swept(m, n, classes), lambda word: jump_count(word, m + n))


def pattern_distribution(m: int, n: int, pattern: str,
                         classes: Classes | None = None) -> dict[int, int]:
    return tally(_swept(m, n, classes), _occurrence_counter(m, n, pattern))


def joint_distribution(m: int, n: int, patterns: Iterable[str],
                       classes: Classes | None = None) -> dict[tuple[int, ...], int]:
    counters = [_occurrence_counter(m, n, p) for p in patterns]
    return tally(_swept(m, n, classes), lambda word: tuple(count(word) for count in counters))


def pattern_census(m: int, n: int, patterns: Iterable[str],
                   classes: Classes | None = None) -> dict[str, dict[int, int]]:
    """Occurrence distributions of the requested patterns, in one sweep.

    Each word is tallied by its profile, the counts of its N cyclic windows of
    the longest requested length by value.  A shorter pattern occurs wherever
    a window starts with it, so every distribution is read off the profiles.
    """
    N = m + n
    patterns = list(patterns)
    for pattern in patterns:
        pattern_family(m, n, pattern)
    mask = (1 << max(map(len, patterns), default=0)) - 1

    def profile(word: int) -> tuple[int, ...]:
        doubled = word | (word << N)
        counts = [0] * (mask + 1)
        for i in range(N):
            counts[(doubled >> i) & mask] += 1
        return tuple(counts)

    profiles = tally(_swept(m, n, classes), profile)
    out: dict[str, dict[int, int]] = {}
    for pattern in patterns:
        value, step = int(pattern[::-1], 2), 1 << len(pattern)
        dist: Counter = Counter()
        for counts, words in profiles.items():
            dist[sum(counts[value::step])] += words
        out[pattern] = dict(sorted(dist.items()))
    return out


def type_census(m: int, n: int, classes: Classes | None = None) -> dict[tuple, int]:
    return tally(_swept(m, n, classes), lambda word: type_signature(word, m + n))

