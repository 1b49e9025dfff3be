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

Fault counting pairs adjacent ones greedily from the left: a block of o
consecutive ones costs ceil(o/2) faults, which equals any maximal
non-overlapping pairing. ``str.count`` pairs the same way, so the pair
count is ``delta.count("11")`` and the fault count the ones less the
pairs.

Everything else is read off one pass over the split of the vector into
its one-block lengths o_0..o_k around the k zero runs. Run j sits
between blocks j-1 and j, whose boundary ones it does not count: alpha_j
is the faults of blocks 0..j-1 less o_{j-1} mod 2, and beta_j the faults
of blocks j..k less o_j mod 2, so each run's score alpha + beta + gamma
is known as soon as its right block is.
"""

from __future__ import annotations

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


def _check(delta: str) -> None:
    if delta.strip("01"):
        raise ValueError(f"difference vector must be over '0'/'1', got {delta!r}")


def _runs(delta: str) -> list[tuple[int, int, int, int, int, int]]:
    """The ``ZeroSubstring`` fields of every maximal zero run of ``delta``
    as plain tuples, left to right."""
    _check(delta)
    pieces = delta.split("0")  # every piece after the first follows a zero
    faults = delta.count("1") - delta.count("11")
    left = pos = len(pieces[0])  # the last one-block, and the position it ends at
    seen = (left + 1) // 2  # the faults of blocks up to and including ``left``
    runs, gap = [], 0
    for piece in pieces[1:]:
        gap += 1
        if piece:
            right = len(piece)
            runs.append((len(runs) + 1, pos + 1, pos + gap, gap, seen - (left & 1),
                         faults - seen - (right & 1)))
            pos += gap + right
            seen += (right + 1) // 2
            left, gap = right, 0
    if gap:
        runs.append((len(runs) + 1, pos + 1, pos + gap, gap, seen - (left & 1), 0))
    return runs


def min_faults(delta: str) -> int:
    """Minimum fault count evidenced by ``delta``: 11 pairs plus leftover ones."""
    _check(delta)
    return delta.count("1") - delta.count("11")


def pairs_only(delta: str) -> int:
    """Number of non-overlapping 11 substrings under greedy left-to-right pairing."""
    _check(delta)
    return delta.count("11")


def decompose(delta: str) -> list[ZeroSubstring]:
    """All maximal zero runs of ``delta`` with their (alpha, beta, gamma)."""
    return list(map(ZeroSubstring._make, _runs(delta)))


def _check_budget(t_in: int) -> None:
    if t_in < 1:
        raise ValueError(f"fault budget must be >= 1, got {t_in}")


def find_usable(t_in: int, delta: str) -> list[ZeroSubstring]:
    """Zero runs with ``alpha + beta + gamma >= t_in``, left to right.

    ``t_in`` must be at least 1: the usability criterion is vacuous at 0
    (with no remaining fault budget every repeated syndrome is correct, a
    case the stopping policies handle before calling this).
    """
    _check_budget(t_in)
    # (j, start, end, gamma, alpha, beta)
    return [ZeroSubstring._make(run) for run in _runs(delta)
            if run[3] + run[4] + run[5] >= t_in]


def operation_count(t_in: int, delta: str) -> int:
    """Primitive operations consumed by ``find_usable`` on this input: the
    characters of its one split of ``delta`` and the runs that split emits."""
    _check_budget(t_in)
    return len(delta) + len(_runs(delta))
