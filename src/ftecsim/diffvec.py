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
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ZeroSubstring:
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


class SyndromeHistory:
    """Ordered per-round syndromes with an incrementally maintained delta."""

    def __init__(self, syndromes=()):
        self.rounds: list[int] = []
        self._delta: list[str] = []
        for s in syndromes:
            self.add_round(s)

    @property
    def m(self) -> int:
        return len(self.rounds)

    @property
    def delta(self) -> str:
        return "".join(self._delta)

    def add_round(self, syndrome: int) -> None:
        if self.rounds:
            self._delta.append("0" if syndrome == self.rounds[-1] else "1")
        self.rounds.append(syndrome)


def _check_delta(delta: str) -> None:
    if any(ch not in "01" for ch in delta):
        raise ValueError(f"difference vector must be over '0'/'1', got {delta!r}")


def min_faults(delta: str) -> int:
    """Minimum fault count evidenced by ``delta``: 11 pairs plus leftover ones."""
    _check_delta(delta)
    total = 0
    q = 0
    for ch in delta:
        if ch == "1":
            q += 1
        else:
            total += (q + 1) // 2
            q = 0
    return total + (q + 1) // 2


def pairs_only(delta: str) -> int:
    """Number of non-overlapping 11 substrings under greedy left-to-right pairing."""
    _check_delta(delta)
    total = 0
    q = 0
    for ch in delta:
        if ch == "1":
            q += 1
        else:
            total += q // 2
            q = 0
    return total + q // 2


def decompose(delta: str, _ops=None) -> list[ZeroSubstring]:
    """All maximal zero runs of ``delta`` with their (alpha, beta, gamma).

    ``_ops`` is an optional single-element list used as a primitive
    operation counter by the work-bound check; each bit visited during the
    alpha/beta sweeps and the run scan increments it.
    """
    _check_delta(delta)
    runs: list[ZeroSubstring] = []
    length = len(delta)
    i = 0
    j = 0
    while i < length:
        if _ops is not None:
            _ops[0] += 1
        if delta[i] == "1":
            i += 1
            continue
        start = i
        while i < length and delta[i] == "0":
            if _ops is not None:
                _ops[0] += 1
            i += 1
        end = i - 1  # inclusive, 0-based
        j += 1
        # alpha: faults strictly before the left boundary one; beta: faults
        # strictly after the right boundary one. Edge runs have no boundary
        # one on that side and count zero there.
        alpha = 0 if start == 0 else min_faults(delta[: start - 1])
        beta = 0 if end == length - 1 else min_faults(delta[end + 2 :])
        if _ops is not None:
            _ops[0] += (start - 1 if start > 0 else 0) + (
                length - end - 2 if end < length - 1 else 0
            )
        runs.append(
            ZeroSubstring(
                j=j,
                start=start + 1,
                end=end + 1,
                gamma=end - start + 1,
                alpha=alpha,
                beta=beta,
            )
        )
    return runs


def find_usable(t_in: int, delta: str, _ops=None) -> list[ZeroSubstring]:
    """Zero runs with ``alpha + beta + gamma >= t_in``, left to right.

    ``t_in`` must be at least 1: the usability criterion is vacuous at 0
    (with no remaining fault budget every repeated syndrome is correct, a
    case the stopping policies handle before calling this).
    """
    if t_in < 1:
        raise ValueError(f"fault budget must be >= 1, got {t_in}")
    return [run for run in decompose(delta, _ops) if run.alpha + run.beta + run.gamma >= t_in]


def operation_count(t_in: int, delta: str) -> int:
    """Primitive operations consumed by ``find_usable`` on this input."""
    ops = [0]
    find_usable(t_in, delta, ops)
    return ops[0]
