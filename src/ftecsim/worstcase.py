"""Brute-force oracles and exhaustive verifiers for the stopping policies.

The usability oracle is deliberately independent of the usable-substring
search: it decides usability by enumerating fault combinations. The
enumeration happens once per (rounds, budget), in ``_combination_table``:
one row per fault assignment, held as four uint64 columns (the positions
covered at least once, the positions covered twice or more, and the
rounds with a type I and with a type II fault), grown in numpy one round
at a time. It has two readers: ``_unusable_table``, and
``consistent_combinations``, the definition-level form that filters the
rows one vector at a time. A ``_unusable_table`` entry names each
covered zero run by its end bit. It is read one vector at a time by
``oracle_unusable_runs``, which takes each run's start from the vector's
last one before that end, and all vectors of a length at once by
``usable_run_masks``, the form ``oracle-check``'s sweep reads, which
finds each vector's runs by bit arithmetic. Neither calls the search.

The round-bound search is not independent of the search: it reads
``decoders.reachable_states``, the walk of the policies' own decision
rule (``decoders.policy_decision``, which calls ``diffvec.find_usable``)
over every difference vector a policy can reach, and checks the
closed-form round caps of all three rules against the longest vector on
which the policy continues.
Both are exponential and meant for the small exhaustive regimes used in
tests and the ``oracle-check`` and ``verify-bounds`` commands.

Fault model used by the enumeration (single effective fault per round,
with budget t):

- a type I fault on round i contributes ones at positions i-1 and i of
  the difference vector (clipped at the ends);
- a type II fault on round i contributes a one at position i, or nothing
  on the last round;
- positions receiving no contribution must read 0, positions receiving
  exactly one contribution must read 1, and positions receiving two or
  more may adversarially resolve to either bit.

Type III faults are not enumerated separately: each is equivalent to a
type II fault one round earlier. Several faults in one round collapse to
one effective fault for worst-case purposes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .decoders import CONTINUE, reachable_states, worst_case_rounds
from .decoders import policy_decision  # noqa: F401  (perfbench's span list wraps this name)

_EXHAUSTIVE_MAX_M = 16
_EXHAUSTIVE_MAX_T = 5


@dataclass(frozen=True)
class FaultCombination:
    """One fault multiset consistent with a difference vector.

    ``faults`` holds ("I" | "II", round) pairs. ``cancellation_choices``
    records the forced resolution at every position where two or more
    faults contribute: with the target vector fixed, each such position
    resolves to the target's bit.
    """

    faults: tuple[tuple[str, int], ...]
    cancellation_choices: tuple[tuple[int, str], ...]


def _contribution(kind: str, i: int, m: int) -> int:
    """Bit mask (position p -> bit p-1) a single fault adds to delta."""
    if kind == "I":
        if i == 1:
            return 1
        if i == m:
            return 1 << (m - 2)
        return 0b11 << (i - 2)
    if kind == "II":
        if i == m:
            return 0
        return 1 << (i - 1)
    raise ValueError(f"unknown fault kind {kind!r}")


def _check_regime(m: int, t: int) -> None:
    if t < 0:
        raise ValueError(f"fault budget must be >= 0, got {t}")
    if m > _EXHAUSTIVE_MAX_M or t > _EXHAUSTIVE_MAX_T:
        raise ValueError(
            f"exhaustive regime exceeded (m={m}, t={t}; "
            f"limits m<={_EXHAUSTIVE_MAX_M}, t<={_EXHAUSTIVE_MAX_T})"
        )


def _packed(delta: str, t: int) -> int:
    """``delta`` as an int (position p -> bit p-1), after the regime and
    alphabet checks every oracle query shares."""
    _check_regime(len(delta) + 1, t)
    if delta.strip("01"):
        raise ValueError(f"difference vector must be over '0'/'1', got {delta!r}")
    return int(delta[::-1], 2) if delta else 0


@functools.cache
def _combination_table(m: int, t: int) -> tuple[np.ndarray, ...]:
    """Every assignment of at most t faults, at most one per round, over
    m rounds as four uint64 columns ``(once, twice, type_i, type_ii)``,
    built once per (m, t).

    ``once`` has a set bit wherever at least one fault contributes,
    ``twice`` wherever two or more do; ``type_i`` and ``type_ii`` have bit
    i-1 set when round i has a fault of that type. The table grows one
    round at a time: every row with fewer than t faults gets a child with
    a type I and a child with a type II fault on the new round, so it has
    sum over k <= t of C(m, k) * 2**k rows.
    """
    rows = np.zeros((4, 1), dtype=np.uint64)
    count = np.zeros(1, dtype=np.int64)
    for i in range(1, m + 1):
        grow = count < t
        parts, counts = [rows], [count]
        for column, kind in ((2, "I"), (3, "II")):
            child = rows[:, grow]
            mask = np.uint64(_contribution(kind, i, m))
            child[1] |= child[0] & mask
            child[0] |= mask
            child[column] |= np.uint64(1 << (i - 1))
            parts.append(child)
            counts.append(count[grow] + 1)
        rows, count = np.concatenate(parts, axis=1), np.concatenate(counts)
    return tuple(rows)


def consistent_combinations(delta: str, t: int) -> Iterator[FaultCombination]:
    """Every fault multiset of size <= t whose resolved vector equals ``delta``:
    the rows of ``_combination_table`` that cover every 1 of ``delta`` and
    cover no 0 exactly once."""
    target = np.uint64(_packed(delta, t))
    once, twice, type_i, type_ii = _combination_table(len(delta) + 1, t)
    consistent = ((target & ~once) == 0) & ((once & ~twice & ~target) == 0)
    rows = zip(*(column[consistent].tolist() for column in (type_i, type_ii, twice)))
    for kinds_i, kinds_ii, both in rows:
        faults = tuple((kind, i) for i in range(1, len(delta) + 2)
                       for kind, kinds in (("I", kinds_i), ("II", kinds_ii))
                       if kinds >> (i - 1) & 1)
        choices = tuple((pos + 1, bit) for pos, bit in enumerate(delta) if both >> pos & 1)
        yield FaultCombination(faults, choices)


@functools.cache
def _unusable_table(length: int, t: int) -> list[int]:
    """For every vector of ``length`` bits (bit p-1 is position p), a mask
    with bit ``end`` set for each zero run [start, end] that some consistent
    combination of at most t faults covers entirely; built once per
    (length, t) from the ``once`` and ``twice`` columns of
    ``_combination_table``.

    The enumeration is inverted: a combination is consistent exactly with
    the vectors ``single | S``, where ``single = once & ~twice`` and S is
    any subset of ``twice``, so each row is expanded over those subsets
    and its covered runs are OR-ed into its vectors' entries.
    """
    once, twice = _combination_table(length + 1, t)[:2]
    target = once & ~twice
    for pos in range(length):
        bit = np.uint64(1 << pos)
        free = (twice & bit) != 0
        target = np.concatenate([target, target[free] | bit])
        once = np.concatenate([once, once[free]])
        twice = np.concatenate([twice, twice[free]])
    # at m = 1 a type I fault on round 1 sets a position the empty vector lacks
    fits = (target >> np.uint64(length)) == 0
    target, once = target[fits], once[fits]
    zeros = ~target & np.uint64((1 << length) - 1)
    starts = zeros & ~(zeros << np.uint64(1))
    # a run's start bit carries past its end exactly when all its zeros are covered
    past = ((zeros & once) + starts) & ~zeros
    table = np.zeros(1 << length, dtype=np.uint64)
    np.bitwise_or.at(table, target, past)
    return table.tolist()


def oracle_unusable_runs(delta: str, t: int) -> set[tuple[int, int]]:
    """(start, end) of every maximal zero run certified unusable by
    enumeration; positions are 1-based and inclusive, as in ``diffvec``.

    A run is unusable when some consistent combination of at most t faults
    covers all of it, leaving it no OR zero (a position no fault
    contributes to). The answer is one lookup in ``_unusable_table``,
    whose entry has bit ``end`` set for each such run; the run starts just
    after the last one of ``delta`` before ``end``. The runs are read off
    the entry and the vector, not found by ``diffvec.decompose``: that is
    the search under test.
    """
    target = _packed(delta, t)
    covered = _unusable_table(len(delta), t)[target]
    runs = set()
    while covered:
        end = covered.bit_length() - 1
        covered ^= 1 << end
        runs.add((delta.rfind("1", 0, end) + 2, end))
    return runs


def usable_run_masks(length: int, t: int) -> list[int]:
    """For every vector of ``length`` bits (indexed as ``_unusable_table``
    is), ``starts | ends << length``: bit p-1 of ``starts`` and of ``ends``
    is set when a zero run the oracle finds usable starts, or ends, at
    position p.

    The bulk form of ``oracle_unusable_runs``: one ``_unusable_table`` read
    per (length, t) in a few numpy passes. A vector's runs come from bit
    arithmetic on it, not from ``diffvec``: its run ends are the zeros
    ``z & ~(z >> 1)``, a run is usable unless the table covers its end,
    and each usable end is filled down through its zeros to its start.
    """
    _check_regime(length + 1, t)
    one = np.uint64(1)
    zeros = ~np.arange(1 << length, dtype=np.uint64) & np.uint64((1 << length) - 1)
    covered = np.asarray(_unusable_table(length, t), dtype=np.uint64) >> one
    ends = zeros & ~(zeros >> one) & ~covered
    runs, fill, shift = ends, zeros, 1
    while shift < length:
        runs = runs | (runs >> np.uint64(shift)) & fill
        fill = fill & (fill >> np.uint64(shift))
        shift *= 2
    starts = runs & ~(runs << one)
    return (starts | ends << np.uint64(length)).tolist()


# ---------------------------------------------------------------------------
# Exhaustive policy-bound search


def max_unusable_length(kind: str, t: int, s1_branch: str = "n/a") -> int:
    """Length of the longest difference vector the policy never stops on.

    The longest continuing vector of :func:`decoders.reachable_states`, or
    -1 when the policy stops before the first difference bit exists (the
    weak t=1 zero branch). A vector longer than the closed-form cap + 2
    raises AssertionError, so the search ends even on a rule with no cap.
    """
    if t > _EXHAUSTIVE_MAX_T:
        raise ValueError(f"exhaustive regime exceeded (t={t} > {_EXHAUSTIVE_MAX_T})")
    hard_stop = worst_case_rounds(kind, t, s1_branch) + 2
    longest = -1
    for delta, decision in reachable_states(kind, t, s1_branch != "zero"):
        if len(delta) > hard_stop:
            raise AssertionError(f"policy survived past its round cap: kind={kind} t={t} "
                                 f"branch={s1_branch}, live example {delta!r}")
        if decision.action == CONTINUE:
            longest = max(longest, len(delta))
    return longest


def appendix_extremal_delta(t: int) -> str:
    """The maximal-length unusable difference vector construction.

    Zero runs of lengths g, g+1, ..., g+1, g with g = floor(t/2), with
    ceil(t/2) - 1 runs of g+1 in the middle, separated by single ones. It
    reaches the maximum unusable length for the strong policy.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    g = t // 2
    return "1".join("0" * n for n in [g] + [g + 1] * ((t - 1) // 2) + [g])


@dataclass(frozen=True)
class BoundCheck:
    kind: str
    t: int
    s1_branch: str
    searched_max_unusable_length: int
    implied_rounds: int
    formula_rounds: int
    table_rounds: int
    ok: bool


_TABLE_ROUNDS = {
    ("strong", "n/a"): {1: 3, 2: 5, 3: 8, 4: 11, 5: 15},
    ("weak", "nonzero"): {1: 2, 2: 4, 3: 6, 4: 9, 5: 12},
    ("weak", "zero"): {1: 1, 2: 4, 3: 7, 4: 10, 5: 14},
    ("shor", "n/a"): {1: 4, 2: 9, 3: 16, 4: 25, 5: 36},
}


def verify_round_bounds(t_max: int = 5) -> dict:
    """Exhaustively confirm the worst-case round counts for t = 1..t_max.

    For every rule and branch, Shor included, the search maximum must
    satisfy rounds = max_length + 2, match the closed form, and match the
    published table. The search returns only once no difference vector
    one bit past the maximum survives.
    """
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    if t_max > _EXHAUSTIVE_MAX_T:
        raise ValueError(f"t_max too large for exhaustive search: {t_max}")
    checks: list[BoundCheck] = []
    for (kind, branch), published in _TABLE_ROUNDS.items():
        for t in range(1, t_max + 1):
            max_len = max_unusable_length(kind, t, branch)
            implied = max_len + 2
            formula = worst_case_rounds(kind, t, branch)
            checks.append(BoundCheck(kind, t, branch, max_len, implied, formula, published[t],
                                     implied == formula == published[t]))
    return {"t_max": t_max, "ok": all(c.ok for c in checks), "checks": checks}
