"""Brute-force oracles and exhaustive verifiers for the stopping policies.

The usability oracle is deliberately independent of the usable-substring
search: it decides usability by enumerating fault combinations. The
round-bound search is not: it runs the policies' own decision rule
(``decoders.policy_decision``, which calls ``diffvec.find_usable``)
breadth-first over all difference vectors on which a policy has not yet
stopped, and checks the closed-form round caps against the longest one.
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

import re
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .decoders import CONTINUE, ProtocolDefect, policy_decision, worst_case_rounds
from .diffvec import ZeroSubstring

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


def _combination_masks(m: int, t: int) -> Iterator[tuple[tuple, int, int]]:
    """All fault assignments with <= t faults, at most one per round.

    Yields (faults, once, twice): ``once`` has a set bit wherever at least
    one fault contributes, ``twice`` wherever two or more do.
    """
    choices = []
    for i in range(1, m + 1):
        choices.append((("I", i), _contribution("I", i, m)))
        choices.append((("II", i), _contribution("II", i, m)))

    def rec(round_idx: int, remaining: int, faults: tuple, once: int, twice: int):
        yield faults, once, twice
        if remaining == 0:
            return
        for i in range(round_idx, m + 1):
            for kind in ("I", "II"):
                mask = _contribution(kind, i, m)
                yield from rec(
                    i + 1,
                    remaining - 1,
                    faults + ((kind, i),),
                    once | mask,
                    twice | (once & mask),
                )

    yield from rec(1, t, (), 0, 0)


_TABLES: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _combination_table(m: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """``(once, twice)`` of every ``_combination_masks(m, t)`` row as uint64
    arrays, built once per (m, t)."""
    table = _TABLES.get((m, t))
    if table is None:
        rows = [(once, twice) for _faults, once, twice in _combination_masks(m, t)]
        table = tuple(np.array(col, dtype=np.uint64) for col in zip(*rows))
        _TABLES[(m, t)] = table
    return table


def consistent_combinations(delta: str, t: int) -> Iterator[FaultCombination]:
    """Every fault multiset of size <= t whose resolved vector equals ``delta``."""
    m = len(delta) + 1
    _check_regime(m, t)
    target = 0
    for pos, ch in enumerate(delta):
        if ch == "1":
            target |= 1 << pos
    full = (1 << len(delta)) - 1
    for faults, once, twice in _combination_masks(m, t):
        single = once & ~twice
        # count 0 -> bit 0; count 1 -> bit 1; count >= 2 -> free
        if (~once & full) & target:
            continue
        if single & ~target:
            continue
        choices = tuple(
            (pos + 1, delta[pos]) for pos in range(len(delta)) if (twice >> pos) & 1
        )
        yield FaultCombination(faults, choices)


def oracle_usable(delta: str, t: int, run: ZeroSubstring) -> bool:
    """Definition-level usability: every consistent combination leaves an OR zero.

    A position is an OR zero for a combination when no fault contributes
    there; the run is usable when no consistent combination of at most t
    faults can cover every position of the run with cancellations.
    """
    unusable = oracle_unusable_runs(delta, t)
    return (run.start, run.end) not in unusable


def oracle_unusable_runs(delta: str, t: int) -> set[tuple[int, int]]:
    """(start, end) of every maximal zero run certified unusable by
    enumeration; positions are 1-based and inclusive, as in ``diffvec``."""
    m = len(delta) + 1
    _check_regime(m, t)
    if delta.strip("01"):
        raise ValueError(f"difference vector must be over '0'/'1', got {delta!r}")
    # found here, not by diffvec.decompose: that is the search under test
    runs = [(zeros.start() + 1, zeros.end()) for zeros in re.finditer("0+", delta)]
    once, twice = _combination_table(m, t)
    target = np.uint64(int(delta[::-1], 2) if delta else 0)
    # consistent: every 1 of delta is covered and no 0 is covered exactly once
    consistent = ((target & ~once) == 0) & ((once & ~twice & ~target) == 0)
    covered = once[consistent]
    # A run is unusable when some consistent combination covers all of it,
    # leaving it no OR zero (a position no fault contributes to).
    masks = np.array([(1 << end) - (1 << (start - 1)) for start, end in runs], dtype=np.uint64)
    hit = ((covered[:, None] & masks) == masks).any(axis=0)
    return {run for run, h in zip(runs, hit) if h}


# ---------------------------------------------------------------------------
# Exhaustive policy-bound search


def _policy_live(kind: str, t: int, s1_nonzero: bool, delta: str) -> bool:
    """True when the policy would keep measuring after observing ``delta``."""
    try:
        return policy_decision(kind, t, s1_nonzero, delta).action == CONTINUE
    except ProtocolDefect:
        return True  # a bound violation shows up as a live string past the cap


def max_unusable_length(kind: str, t: int, s1_branch: str = "n/a") -> int:
    """Length of the longest difference vector the policy never stops on.

    Breadth-first search over bit strings: a string is live only if the
    policy continued on every prefix, so extending the live frontier one
    bit at a time explores exactly the reachable histories. Returns -1
    when the policy stops before the first difference bit exists (the
    weak t=1 zero branch).
    """
    if t > _EXHAUSTIVE_MAX_T:
        raise ValueError(f"exhaustive regime exceeded (t={t} > {_EXHAUSTIVE_MAX_T})")
    if kind == "shor":
        raise ValueError("use the closed form for the Shor policy; its cap is large")
    s1_nonzero = s1_branch != "zero"
    if not _policy_live(kind, t, s1_nonzero, ""):
        return -1
    frontier = [""]
    length = 0
    hard_stop = worst_case_rounds(kind, t, s1_branch) + 2
    while frontier:
        nxt = [d + b for d in frontier for b in "01" if _policy_live(kind, t, s1_nonzero, d + b)]
        if not nxt:
            return length
        length += 1
        frontier = nxt
        if length > hard_stop:
            raise AssertionError(
                f"policy survived past its round cap: kind={kind} t={t} "
                f"branch={s1_branch}, live example {frontier[0]!r}"
            )
    return length


def appendix_extremal_delta(t: int) -> str:
    """The maximal-length unusable difference vector construction.

    For odd t: runs of lengths (t-1)/2, (t+1)/2, ..., (t+1)/2, (t-1)/2
    separated by single ones, (t+3)/2 runs in total. For even t: runs
    t/2, t/2+1, ..., t/2+1, t/2 with t/2+1 runs. Both reach the maximum
    unusable length for the strong policy.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if t % 2:
        c = (t + 3) // 2
        gammas = [(t - 1) // 2] + [(t + 1) // 2] * (c - 2) + [(t - 1) // 2]
    else:
        c = t // 2 + 1
        gammas = [t // 2] + [t // 2 + 1] * (c - 2) + [t // 2]
    return "1".join("0" * g for g in gammas)


@dataclass(frozen=True)
class BoundCheck:
    kind: str
    t: int
    s1_branch: str
    searched_max_length: int
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

    For the strong policy and both weak branches the search maximum must
    satisfy rounds = max_length + 2, match the closed form, and match the
    published table. The search returns only once no difference vector
    one bit past the maximum survives. The Shor row is checked against its
    closed form (its stopping rule is a trailing-repeat counter, so the
    quadratic cap needs no search).
    """
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    if t_max > _EXHAUSTIVE_MAX_T:
        raise ValueError(f"t_max too large for exhaustive search: {t_max}")
    checks: list[BoundCheck] = []
    for kind, branch in (("strong", "n/a"), ("weak", "nonzero"), ("weak", "zero")):
        for t in range(1, t_max + 1):
            max_len = max_unusable_length(kind, t, branch)
            implied = max_len + 2
            formula = worst_case_rounds(kind, t, branch)
            table = _TABLE_ROUNDS[(kind, branch)].get(t, formula)
            ok = implied == formula == table
            checks.append(BoundCheck(kind, t, branch, max_len, implied, formula, table, ok))
    for t in range(1, t_max + 1):
        formula = worst_case_rounds("shor", t)
        table = _TABLE_ROUNDS[("shor", "n/a")].get(t, formula)
        # Worst stream: no t+1 repeats ever happen, so the cap binds, and
        # the rule trivially stops at the cap by construction.
        ok = formula == table == (t + 1) ** 2
        checks.append(BoundCheck("shor", t, "n/a", formula - 2, formula, formula, table, ok))
    return {
        "t_max": t_max,
        "ok": all(c.ok for c in checks),
        "checks": checks,
    }
