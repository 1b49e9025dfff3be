"""Difference vectors and the usable zero-substring search.

A difference vector for an m-round syndrome history is the (m-1)-bit
string whose i-th bit (1-based) is 0 exactly when rounds i and i+1
returned the same syndrome. Throughout this module a difference vector is
an ASCII string over "0"/"1", and substring positions are 1-based to match
the round indexing used everywhere else: a zero run covering positions
[start, end] means rounds start .. end+1 all share one syndrome.

For each maximal zero run the counts (alpha, beta, gamma) are the minimum
number of faults evidenced strictly before the run's left boundary one,
strictly after its right boundary one, and the run length. A run is usable
under a fault budget t exactly when alpha + beta + gamma >= t; the search
below returns all usable runs in left-to-right order.

Fault counting pairs adjacent ones greedily from the left: a block of q
consecutive ones costs ceil(q/2) faults, which equals any maximal
non-overlapping pairing.

Everything is read off one split of the vector into its one-block
lengths o_0..o_k around the k zero runs. The fault count is the sum of
ceil(o/2), the pair count the sum of floor(o/2). Run j sits between
blocks j-1 and j, whose boundary ones it does not count, so alpha_j and
beta_j are a prefix and a suffix sum of ceil(o/2) with the neighbouring
block at floor(o/2).
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple


class ZeroSubstring(NamedTuple):
    """A maximal run of zeros with its fault-count statistics.

    ``j`` is the 1-based ordinal among the runs, ``start``/``end`` are
    1-based inclusive positions in the difference vector.
    """

    j: int
    start: int
    end: int
    gamma: int
    alpha: int
    beta: int


def difference_vector(syndromes) -> str:
    """The difference vector of a syndrome history: bit i is 0 exactly
    when rounds i and i+1 returned the same syndrome."""
    return "".join("0" if a == b else "1" for a, b in zip(syndromes, syndromes[1:]))


def _blocks(delta: str) -> tuple[list[int], list[int]]:
    """The one-block lengths o_0..o_k around the k maximal zero runs of
    ``delta`` (o_0 or o_k is 0 when it starts or ends with a zero), and
    the runs' lengths gamma_1..gamma_k."""
    if delta.strip("01"):
        raise ValueError(f"difference vector must be over '0'/'1', got {delta!r}")
    pieces = delta.split("0")  # every piece after the first follows a zero
    ones, zeros, gap = [len(pieces[0])], [], 0
    for piece in pieces[1:]:
        gap += 1
        if piece:
            ones.append(len(piece))
            zeros.append(gap)
            gap = 0
    if gap:
        ones.append(0)
        zeros.append(gap)
    return ones, zeros


def min_faults(delta: str) -> int:
    """Minimum fault count evidenced by ``delta``: 11 pairs plus leftover ones."""
    return sum((o + 1) // 2 for o in _blocks(delta)[0])


def pairs_only(delta: str) -> int:
    """Number of non-overlapping 11 substrings under greedy left-to-right pairing."""
    return sum(o // 2 for o in _blocks(delta)[0])


def decompose(delta: str) -> list[ZeroSubstring]:
    """All maximal zero runs of ``delta`` with their (alpha, beta, gamma)."""
    ones, zeros = _blocks(delta)
    # faults[i]: the faults of blocks 0..i-1; a run's neighbour blocks lose their boundary one
    faults = list(accumulate([(o + 1) // 2 for o in ones], initial=0))
    ends = accumulate(o + gamma for o, gamma in zip(ones, zeros))  # 1-based, run by run
    # ZeroSubstring(j, start, end, gamma, alpha, beta)
    return [ZeroSubstring(j, end - gamma + 1, end, gamma, faults[j - 1] + ones[j - 1] // 2,
                          ones[j] // 2 + faults[-1] - faults[j + 1])
            for j, (gamma, end) in enumerate(zip(zeros, ends), 1)]


def find_usable(t_in: int, delta: str) -> list[ZeroSubstring]:
    """Zero runs with ``alpha + beta + gamma >= t_in``, left to right.

    ``t_in`` must be at least 1: the usability criterion is vacuous at 0
    (with no remaining fault budget every repeated syndrome is correct, a
    case the stopping policies handle before calling this).
    """
    if t_in < 1:
        raise ValueError(f"fault budget must be >= 1, got {t_in}")
    return [run for run in decompose(delta) if run.alpha + run.beta + run.gamma >= t_in]


def operation_count(t_in: int, delta: str) -> int:
    """Primitive operations consumed by ``find_usable`` on this input: the
    characters of its one split of ``delta`` and the runs that split emits."""
    find_usable(t_in, delta)  # its t_in >= 1 check
    return len(delta) + len(decompose(delta))
