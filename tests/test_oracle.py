from itertools import groupby, product
from math import gcd

import pytest

from cycloseq import oracle
from cycloseq.errors import (CapExceeded, ConstantSequence, IncompleteEnumeration,
                             UnsupportedPattern)
from cycloseq.exactmath import SequenceFamily, binomial
from references import cyclic_occurrences, sequences


def _patterns_up_to(top):
    return ["".join(p) for L in range(1, top + 1) for p in product("01", repeat=L)]


def _word(bits: str) -> int:
    # bits written in position order: first character is position 0
    return sum(1 << i for i, ch in enumerate(bits) if ch == "1")


def test_enumeration_visits_every_word_once():
    # constant families included: each holds its one word
    for m, n in [(3, 4), (5, 3), (1, 1), (6, 2), (0, 5), (5, 0)]:
        words = list(sequences(m, n))
        assert len(words) == binomial(m + n, n)
        assert len(set(words)) == len(words)
        assert all(bin(w).count("1") == n and w >> (m + n) == 0 for w in words)


def _rotations(word, N):
    mask = (1 << N) - 1
    return {(word >> i | word << (N - i)) & mask for i in range(N)}


def _necklace_count(N, n):
    # Burnside over the rotation group: (1/N) sum over d | gcd(N, n) of phi(d) C(N/d, n/d)
    phi = [sum(gcd(d, k) == 1 for k in range(1, d + 1)) for d in range(N + 1)]
    g = gcd(N, n)
    return sum(phi[d] * binomial(N // d, n // d) for d in range(1, g + 1) if g % d == 0) // N


def _profile(word, N, width):
    # counts of the N cyclic windows of the given width, by window value
    doubled = word | word << N
    counts = [0] * (1 << width)
    for i in range(N):
        counts[doubled >> i & ((1 << width) - 1)] += 1
    return tuple(counts)


@pytest.mark.parametrize("N", range(1, 15))
def test_rotation_classes_tally_like_every_word(N):
    # constant families included; the plain enumeration is the reference
    patterns = _patterns_up_to(min(4, N))
    keys = [lambda word: oracle.jump_count(word, N), lambda word: _profile(word, N, min(4, N))]
    if N >= 4:
        keys.append(lambda word: tuple(cyclic_occurrences(word, N, p)
                                       for p in ("01", "001", "0001")))
    for n in range(N + 1):
        m = N - n
        classes = list(oracle.rotation_classes(m, n))
        words = [(word, 1) for word in sequences(m, n)]
        assert len(classes) == _necklace_count(N, n), (m, n)
        seen: set[int] = set()
        for word, size in classes:
            rotations = _rotations(word, N)
            assert N % size == 0 and len(rotations) == size, (m, n, word)
            assert bin(word).count("1") == n and word >> N == 0, (m, n, word)
            assert not rotations & seen, (m, n, word)
            seen |= rotations
        types = [lambda word: oracle.type_signature(word, N)] if 0 < n < N else []
        for key in keys + types:
            assert oracle.tally(classes, key) == oracle.tally(words, key), (m, n)
        # the census is read off the word profiles, pattern by pattern
        profiles = oracle.tally(words, lambda word: _profile(word, N, min(4, N)))
        census = oracle.pattern_census(m, n, patterns)
        for pattern in patterns:
            value, step = int(pattern[::-1], 2), 1 << len(pattern)
            dist: dict[int, int] = {}
            for counts, mult in profiles.items():
                h = sum(counts[value::step])
                dist[h] = dist.get(h, 0) + mult
            assert census[pattern] == dict(sorted(dist.items())), (m, n, pattern)


def test_class_sizes_that_miss_the_family_size_raise(monkeypatch):
    monkeypatch.setattr(SequenceFamily, "size", lambda family: 1 + binomial(family.N, family.n))
    with pytest.raises(IncompleteEnumeration, match=r"cover 35 words, not 36") as raised:
        oracle.jump_distribution(3, 4)
    assert isinstance(raised.value, ArithmeticError)


def _occurrences(word, N, pattern):
    """The oracle's count of the pattern's cyclic windows in one word, tallied alone."""
    n = bin(word).count("1")
    (count,) = oracle.pattern_distribution(N - n, n, pattern, classes=[(word, 1)])
    return count


def test_cyclic_window_counting(monkeypatch):
    # the 24-digit reference sequence; (1100) occurs three times cyclically
    monkeypatch.setattr(oracle, "CAP", 24)
    bits = "000001110011010001100111"
    w = _word(bits)
    assert _occurrences(w, 24, "1100") == cyclic_occurrences(w, 24, "1100") == 3
    assert oracle.jump_count(w, 24) == 10


def test_window_counting_matches_string_scan():
    # every word of N <= 7 digits, every pattern up to the whole cycle
    for N in range(1, 8):
        for L in range(1, N + 1):
            for pattern in map("".join, product("01", repeat=L)):
                for w in range(1 << N):
                    assert _occurrences(w, N, pattern) == cyclic_occurrences(w, N, pattern), (
                        N, pattern, w)


def test_wraparound_window():
    assert _occurrences(_word("01"), 2, "01") == 1
    assert _occurrences(_word("10"), 2, "01") == 1
    assert oracle.pattern_distribution(1, 1, "01") == {1: 2}


def test_single_pattern_distributions():
    assert oracle.jump_distribution(3, 4) == {2: 7, 4: 21, 6: 7}
    assert oracle.pattern_distribution(5, 3, "010") == {0: 8, 1: 32, 3: 16}


def test_rotation_invariance_of_tallies():
    # tallies do not depend on which rotation of each word is visited
    base = oracle.pattern_distribution(4, 3, "001")
    rotated: dict[int, int] = {}
    for w in sequences(4, 3):
        r = ((w >> 2) | (w << 5)) & 0x7F
        h = cyclic_occurrences(r, 7, "001")
        rotated[h] = rotated.get(h, 0) + 1
    assert dict(sorted(rotated.items())) == base


def test_type_signatures():
    assert oracle.type_signature(_word("0011100"), 7) == ((4,), (3,))
    assert oracle.type_signature(_word("0110100"), 7) == ((3, 1), (2, 1))
    assert oracle.type_signature(_word("01010101"), 8) == ((1, 1, 1, 1), (1, 1, 1, 1))
    # odd length cannot alternate: the wraparound joins two zeros into one block
    assert oracle.type_signature(_word("0101010"), 7) == ((2, 1, 1), (1, 1, 1))
    with pytest.raises(ConstantSequence):
        oracle.type_signature(0, 5)
    with pytest.raises(ConstantSequence):
        oracle.type_signature(31, 5)


def _string_run_scan(bits: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # start the string at a block boundary, then read off its runs
    start = next(i for i in range(len(bits)) if bits[i] != bits[i - 1])
    runs = [(digit, len(list(run))) for digit, run in groupby(bits[start:] + bits[:start])]
    return tuple(
        tuple(sorted((length for d, length in runs if d == digit), reverse=True))
        for digit in "01"
    )


def test_type_signature_matches_a_string_run_scan():
    for N in range(2, 11):
        for w in range(1, (1 << N) - 1):
            bits = "".join(str((w >> i) & 1) for i in range(N))
            assert oracle.type_signature(w, N) == _string_run_scan(bits), bits


def test_pattern_census_agrees_with_single_queries():
    # every pattern up to the cycle length, then requests of mixed lengths,
    # answered in the requested order
    for m, n, patterns in ((4, 3, _patterns_up_to(4)), (1, 1, _patterns_up_to(2)),
                           (2, 1, _patterns_up_to(3)), (3, 2, _patterns_up_to(5)),
                           (5, 3, _patterns_up_to(5)), (4, 3, ["0110", "1", "00001", "10"]),
                           (4, 3, [])):
        census = oracle.pattern_census(m, n, patterns)
        assert list(census) == patterns
        for pattern in patterns:
            assert census[pattern] == oracle.pattern_distribution(m, n, pattern), (m, n, pattern)


def test_pattern_census_refuses_a_pattern_longer_than_the_cycle():
    with pytest.raises(UnsupportedPattern, match="exceeds the cycle length 5"):
        oracle.pattern_census(3, 2, ["01", "010101"])
    with pytest.raises(UnsupportedPattern):
        oracle.pattern_census(3, 2, ["012"])


def test_allwords_distributions():
    jumps = oracle.tally(((word, 1) for word in range(1 << 6)),
                         lambda word: oracle.jump_count(word, 6))
    assert sum(jumps.values()) == 64
    for tau, count in jumps.items():
        assert count == 2 * binomial(6, tau)
    dist = oracle.tally(((word, 1) for word in range(1 << 5)),
                        lambda word: cyclic_occurrences(word, 5, "11"))
    assert sum(dist.values()) == 32


def test_cap(monkeypatch):
    assert oracle.CAP == 20
    monkeypatch.setattr(oracle, "CAP", 6)
    with pytest.raises(CapExceeded):
        list(oracle.rotation_classes(4, 4))


@pytest.mark.parametrize("N, error", [(0, ValueError), (-1, ValueError), (21, CapExceeded)])
def test_check_cap_refuses_lengths_outside_1_to_the_cap(N, error):
    with pytest.raises(error) as exc:
        oracle.check_cap(N)
    assert exc.type is error
