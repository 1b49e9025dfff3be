"""Stopping policies for repeated syndrome measurement.

Three policies, each a pure function of the difference vector of the
rounds so far (and, for the weak policy, of whether the first syndrome
is zero):

- ``shor``: stop once t+1 consecutive rounds agree, or at the hard cap of
  (t+1)**2 rounds; correct with the latest syndrome.
- ``strong``: after each round, run the usable-substring search on the
  difference vector with budget t; stop on the earliest usable run
  (correct with the syndrome of the run's first round) or once the vector
  contains t non-overlapping 11 pairs (correct with the latest round).
- ``weak``: branch on whether the first syndrome is zero. For t = 1 this
  is the two-round protocol that may stop without correcting; for t >= 2
  it is the strong rule's stop test on a transformed vector: the first
  bit dropped, with budget t-1, when the first syndrome is nonzero, or a
  zero prepended, with budget t, when it is zero. A usable run through
  the prepended zero stops without correcting.

One function, :func:`policy_decision`, holds all three rules and makes
every decision, the budget-0 one of CSS two-stage mode's second stage
included (:data:`BUDGET_EXHAUSTED`). Before any stop test it reads its cap
from :func:`worst_case_rounds`, the one check of what a rule accepts: at
the cap the Shor rule stops, and the others, which the round bounds say
never get there, raise :class:`ProtocolDefect`. The reference shot runner
calls it round by round. Its decisions are shared frozen values: each
distinct one is built and checked once, so equal decisions are the same
object. One walk, :func:`reachable_states`, lists the states each rule can
reach before it stops: every difference vector for strong and weak, every
(rounds, repeats) pair for Shor. The Monte Carlo engine's transition tables
(:func:`policy_table`), :func:`decision_table` and the round-bound search
(``worstcase.max_unusable_length``) all read that walk, so none of them can
drift apart.

Tie-breaking is fixed: among usable runs the earliest wins, and within a
run the syndrome of its first round is used. All rounds of a run share one
syndrome, so the choice only pins determinism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .diffvec import find_usable, min_faults, pairs_only

CONTINUE = "continue"
STOP_CORRECT = "stop_correct"
STOP_NO_CORRECTION = "stop_no_correction"

# stopped_by reasons
USABLE_RUN = "usable_run"
PAIR_COUNT = "pair_count"
SHOR_REPEAT = "shor_repeat"
SHOR_CAP = "shor_cap"
WEAK_NO_CORRECTION = "weak_no_correction"

KINDS = ("shor", "strong", "weak")


class ProtocolDefect(RuntimeError):
    """The policy reached its worst-case round cap without deciding.

    The round bounds guarantee a decision at or before the cap, so hitting
    this means the stopping logic itself is broken; it is never a normal
    runtime outcome.
    """


@dataclass(frozen=True)
class PolicyDecision:
    """Outcome of one policy step."""

    action: str
    rounds_used: int
    round_index: int | None = None  # round whose syndrome corrects, 1-based
    stopped_by: str | None = None

    def __post_init__(self):
        if self.action == STOP_CORRECT and not (
            self.round_index is not None and 1 <= self.round_index <= self.rounds_used
        ):
            raise ValueError("stop_correct must name a round inside the history")


# Each distinct decision is built and checked once, then shared: the rules
# call this with all four fields, so equal decisions are the same object.
# A refused field set raises on every call, since an exception is not cached.
_decision = cache(PolicyDecision)


@dataclass(frozen=True)
class PolicyConfig:
    """Which policy to run and with what fault budget."""

    kind: str
    t: int

    def __post_init__(self):
        self.max_rounds_cap()  # refuses an unknown kind or t < 1

    def max_rounds_cap(self) -> int:
        """The most rounds the policy can take, over both first-syndrome branches."""
        if self.kind != "weak":
            return worst_case_rounds(self.kind, self.t)
        return max(worst_case_rounds("weak", self.t, branch) for branch in ("nonzero", "zero"))


def worst_case_rounds(kind: str, t: int, s1_branch: str = "n/a") -> int:
    """Closed-form maximum round count, and the one check of what a policy
    accepts: t >= 1 and the branch "n/a", or "nonzero" or "zero" for weak."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if kind == "shor" and s1_branch == "n/a":
        return (t + 1) ** 2
    if kind == "strong" and s1_branch == "n/a":
        return (t + 3) ** 2 // 4 - 1
    if kind == "weak" and s1_branch == "nonzero":
        return (t + 2) ** 2 // 4
    if kind == "weak" and s1_branch == "zero":
        return (t + 3) ** 2 // 4 - 2 if t > 1 else 1
    if kind not in KINDS:
        raise ValueError(f"unknown decoder kind {kind!r}")
    raise ValueError(f"{kind} policy has no s1_branch {s1_branch!r}")


# ---------------------------------------------------------------------------
# The decision function


def _stop(budget: int, vec: str, rounds: int, shift: int) -> PolicyDecision | None:
    """The strong rule's stop test with fault budget ``budget``, or None.

    It stops on the earliest usable run of ``vec``, correcting with round
    ``run.start + shift`` (none below 1), or on ``budget`` disjoint 11
    pairs, correcting with the latest round."""
    usable = find_usable(budget, vec) if vec else []
    if usable:
        index = usable[0].start + shift
        if index < 1:
            return _decision(STOP_NO_CORRECTION, rounds, None, WEAK_NO_CORRECTION)
        return _decision(STOP_CORRECT, rounds, index, USABLE_RUN)
    if pairs_only(vec) == budget:
        return _decision(STOP_CORRECT, rounds, rounds, PAIR_COUNT)
    return None


# No fault budget left (stage 2 of CSS two-stage mode): the first measured
# syndrome is guaranteed correct, so accept it.
BUDGET_EXHAUSTED = _decision(STOP_CORRECT, 1, 1, USABLE_RUN)


def policy_decision(kind: str, t: int, s1_nonzero: bool, delta: str) -> PolicyDecision:
    """Decision after observing a difference vector (and the s1 branch);
    every rule answers budget 0 with :data:`BUDGET_EXHAUSTED`."""
    if kind not in KINDS:
        raise ValueError(f"unknown decoder kind {kind!r}")
    if not t:
        return BUDGET_EXHAUSTED
    branch = "n/a" if kind != "weak" else "nonzero" if s1_nonzero else "zero"
    cap = worst_case_rounds(kind, t, branch)
    rounds = len(delta) + 1
    if kind == "weak" and t == 1:  # the two-round protocol for distance-3 codes
        if s1_nonzero and rounds == 1:
            return _decision(CONTINUE, rounds, None, None)
        if s1_nonzero and delta[0] == "0":
            return _decision(STOP_CORRECT, rounds, 1, USABLE_RUN)
        return _decision(STOP_NO_CORRECTION, rounds, None, WEAK_NO_CORRECTION)
    if kind == "shor":
        repeated = len(delta) - len(delta.rstrip("0")) >= t
        decision = _decision(STOP_CORRECT, rounds, rounds, SHOR_REPEAT) if repeated else None
    else:
        # weak tests delta without its first bit (budget t-1) or after a
        # prepended zero: position k of that vector is k+1 or k-1 in delta
        budget, vec, shift = ((t, delta, 0) if kind == "strong" else
                              (t - 1, delta[1:], 1) if s1_nonzero else (t, "0" + delta, -1))
        decision = _stop(budget, vec, rounds, shift)
    if decision:
        return decision
    if rounds < cap:
        return _decision(CONTINUE, rounds, None, None)
    if kind == "shor":
        return _decision(STOP_CORRECT, rounds, rounds, SHOR_CAP)
    raise ProtocolDefect(f"{kind} policy undecided at its round cap "
                         f"(t={t}, branch={branch}, delta={delta!r})")


# ---------------------------------------------------------------------------
# The reachable states, and the tables built from them


def _state_key(kind: str, delta: str):
    """What a decision reads of ``delta``: for Shor, length and trailing zeros."""
    if kind == "shor":
        return len(delta), len(delta) - len(delta.rstrip("0"))
    return delta


def reachable_states(kind: str, t: int, s1_nonzero: bool):
    """Yield ``(delta, decision)`` once per state the policy can reach.

    Depth first from the empty vector, "0" before "1", extending each
    continuing vector by one bit and skipping vectors whose state key
    was seen.
    """
    seen, stack = set(), [""]
    while stack:
        delta = stack.pop()
        key = _state_key(kind, delta)
        if key in seen:
            continue
        seen.add(key)
        decision = policy_decision(kind, t, s1_nonzero, delta)
        yield delta, decision
        if decision.action == CONTINUE:
            stack += (delta + "1", delta + "0")


def decision_table(kind: str, t: int, s1_nonzero: bool):
    """Map reachable (length, packed delta) states to compact decisions.

    Table entry layout: ``tables[length][delta_int]`` is ``None`` for
    states unreachable without an earlier stop, or a tuple
    ``(action, round_index, stopped_by)``. Delta bits pack little-endian:
    position i (1-based) lives at bit i-1. The entries are the states of
    :func:`reachable_states`, and the deepest one sets the row count. For
    strong and weak only: the walk keys Shor states by rounds and repeats,
    so most Shor vectors would be missing, and any other kind raises
    ValueError.
    """
    if kind not in ("strong", "weak"):
        raise ValueError(f"decision_table covers the strong and weak rules only, got {kind!r}")
    tables: list[list] = []
    for delta, decision in reachable_states(kind, t, s1_nonzero):
        while len(tables) <= len(delta):
            tables.append([None] * (1 << len(tables)))
        tables[len(delta)][int(delta[::-1] or "0", 2)] = (
            decision.action, decision.round_index, decision.stopped_by)
    return tables


# Stop-reason codes of the policy tables: an index into REASONS, or
# CODE_CONTINUE while the policy continues.
REASONS = (USABLE_RUN, PAIR_COUNT, SHOR_REPEAT, SHOR_CAP, WEAK_NO_CORRECTION)
CODE_CONTINUE = -1


@dataclass(frozen=True, eq=False)
class PolicyTable:
    """One stopping policy for every fault budget 0..t as a transition table.

    A shot with budget b starts in state ``root[b]``, before its first
    round. Each round moves it along ``successor[2 * state + changed]``,
    where ``changed`` is 1 when the round's syndrome differs from the one
    before (for the first round: when it is nonzero). The new state's
    column of ``entries`` holds the stop-reason code, the 1-based round
    whose syndrome corrects (0 for none), and ``diffvec.min_faults`` of
    the difference vector, which the two-stage rule subtracts from the
    stage-2 budget (0 for the Shor rule). ``stops[state]`` is True where
    that code is a stop. A stop state's successors point past the last
    state, so reading the entry of a stopped shot's next state raises
    IndexError.
    """

    root: np.ndarray  # (t + 1,) int64
    successor: np.ndarray  # (2 * states,) int64
    entries: np.ndarray  # (3, states) int64
    stops: np.ndarray  # (states,) bool
    max_rounds: int


def policy_table(kind: str, t: int) -> PolicyTable:
    """Build the transition table of one policy for budgets 0..t.

    Each budget has a root state and, per first-syndrome branch, the
    states of :func:`reachable_states`: one per difference vector for
    strong and weak, one per (rounds, repeats) for Shor. A continuing
    state's successors are the states of its two one-bit extensions,
    found by state key. Budget 0 accepts the first syndrome
    (:data:`BUDGET_EXHAUSTED`), as :func:`policy_decision` does.
    """
    entries: list[tuple] = []
    successor: dict[int, list] = {}  # a stop state has none: it points past the end
    root = []
    for budget in range(t + 1):
        root.append(len(entries))
        entries.append((CODE_CONTINUE, 0, 0))
        successor[root[-1]] = branches = []
        for s1_nonzero in (False, True):
            branches.append(len(entries))
            index, continuing = {}, []
            for delta, decision in reachable_states(kind, budget, s1_nonzero):
                index[_state_key(kind, delta)] = len(entries)
                code = CODE_CONTINUE
                if decision.action == CONTINUE:
                    continuing.append((len(entries), delta))
                else:
                    code = REASONS.index(decision.stopped_by)
                entries.append((code, decision.round_index or 0,
                                 0 if kind == "shor" else min_faults(delta)))
            for i, delta in continuing:
                successor[i] = [index[_state_key(kind, delta + b)] for b in "01"]
    end = len(entries)
    entries = np.array(entries, dtype=np.int64).T.copy()
    return PolicyTable(
        root=np.array(root, dtype=np.int64),
        successor=np.array([s for i in range(end) for s in successor.get(i, (end, end))],
                           dtype=np.int64),
        entries=entries,
        stops=entries[0] != CODE_CONTINUE,
        max_rounds=PolicyConfig(kind, t).max_rounds_cap(),
    )
