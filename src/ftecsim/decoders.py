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

One function, :func:`policy_decision`, makes every decision. The
reference shot runner calls it round by round. One walk,
:func:`reachable_states`, lists the states each rule can reach before it
stops: every difference vector for strong and weak, every (rounds,
repeats) pair for Shor. The Monte Carlo engine's transition tables
(:func:`policy_table`), :func:`decision_table` and the round-bound search
(``worstcase.max_unusable_length``) all read that walk, so none of them
can drift apart.

Tie-breaking is fixed: among usable runs the earliest wins, and within a
run the syndrome of its first round is used. All rounds of a run share one
syndrome, so the choice only pins determinism.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class PolicyConfig:
    """Which policy to run and with what fault budget."""

    kind: str
    t: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown decoder kind {self.kind!r}")
        if self.t < 1:
            raise ValueError(f"fault budget t must be >= 1, got {self.t}")

    def max_rounds_cap(self) -> int:
        """The most rounds the policy can take, over both first-syndrome branches."""
        if self.kind != "weak":
            return worst_case_rounds(self.kind, self.t)
        return max(worst_case_rounds("weak", self.t, branch) for branch in ("nonzero", "zero"))


def worst_case_rounds(kind: str, t: int, s1_branch: str = "n/a") -> int:
    """Closed-form maximum round count for a policy and fault budget."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if kind == "shor":
        return (t + 1) ** 2
    if kind == "strong":
        if t % 2:
            return ((t + 3) // 2) ** 2 - 1
        return (t + 2) * (t + 4) // 4 - 1
    if kind == "weak":
        if s1_branch not in ("nonzero", "zero"):
            raise ValueError("weak policy needs s1_branch 'nonzero' or 'zero'")
        if t == 1:
            return 2 if s1_branch == "nonzero" else 1
        if s1_branch == "nonzero":
            if t % 2 == 0:
                return ((t + 2) // 2) ** 2
            return (t + 1) * (t + 3) // 4
        if t % 2 == 0:
            return (t + 2) * (t + 4) // 4 - 2
        return ((t + 3) // 2) ** 2 - 2
    raise ValueError(f"unknown decoder kind {kind!r}")


# ---------------------------------------------------------------------------
# Pure decision functions


def shor_decision(t: int, delta: str) -> PolicyDecision:
    rounds = len(delta) + 1
    trailing = len(delta) - len(delta.rstrip("0"))
    if trailing >= t:
        return PolicyDecision(STOP_CORRECT, rounds, rounds, SHOR_REPEAT)
    if rounds >= (t + 1) ** 2:
        return PolicyDecision(STOP_CORRECT, rounds, rounds, SHOR_CAP)
    return PolicyDecision(CONTINUE, rounds)


def _stop(budget: int, vec: str, rounds: int, shift: int) -> PolicyDecision | None:
    """The strong rule's stop test with fault budget ``budget``, or None.

    It stops on the earliest usable run of ``vec``, correcting with round
    ``run.start + shift`` (none below 1), or on ``budget`` disjoint 11
    pairs, correcting with the latest round."""
    usable = find_usable(budget, vec) if vec else []
    if usable:
        index = usable[0].start + shift
        if index < 1:
            return PolicyDecision(STOP_NO_CORRECTION, rounds, None, WEAK_NO_CORRECTION)
        return PolicyDecision(STOP_CORRECT, rounds, index, USABLE_RUN)
    if pairs_only(vec) == budget:
        return PolicyDecision(STOP_CORRECT, rounds, rounds, PAIR_COUNT)
    return None


def _continue(kind: str, t: int, branch: str, delta: str) -> PolicyDecision:
    """Continue, unless the round cap is reached: then the rule is broken."""
    rounds = len(delta) + 1
    if rounds >= worst_case_rounds(kind, t, branch):
        raise ProtocolDefect(f"{kind} policy undecided at its round cap "
                             f"(t={t}, branch={branch}, delta={delta!r})")
    return PolicyDecision(CONTINUE, rounds)


def strong_decision(t: int, delta: str) -> PolicyDecision:
    return _stop(t, delta, len(delta) + 1, 0) or _continue("strong", t, "n/a", delta)


def weak_decision(t: int, s1_nonzero: bool, delta: str) -> PolicyDecision:
    rounds = len(delta) + 1
    if t == 1:
        # Two-round protocol for distance-3 codes.
        if not s1_nonzero:
            return PolicyDecision(STOP_NO_CORRECTION, rounds, None, WEAK_NO_CORRECTION)
        if rounds == 1:
            return PolicyDecision(CONTINUE, rounds)
        if delta[0] == "0":
            return PolicyDecision(STOP_CORRECT, rounds, 1, USABLE_RUN)
        return PolicyDecision(STOP_NO_CORRECTION, rounds, None, WEAK_NO_CORRECTION)
    # position k of the trimmed vector is k+1 in delta, of the extended one k-1
    if s1_nonzero:
        decision = _stop(t - 1, delta[1:], rounds, 1)
    else:
        decision = _stop(t, "0" + delta, rounds, -1)
    return decision or _continue("weak", t, "nonzero" if s1_nonzero else "zero", delta)


def policy_decision(kind: str, t: int, s1_nonzero: bool, delta: str) -> PolicyDecision:
    """Decision after observing a difference vector (and the s1 branch)."""
    if kind == "shor":
        return shor_decision(t, delta)
    if kind == "strong":
        return strong_decision(t, delta)
    if kind == "weak":
        return weak_decision(t, s1_nonzero, delta)
    raise ValueError(f"unknown decoder kind {kind!r}")


# ---------------------------------------------------------------------------
# CSS two-stage mode

# Stage 2 with no fault budget left: the first measured syndrome is
# guaranteed correct, so accept it. The policy tables' budget-0 root
# leads to the same decision; ``harness.run_shot_reference`` returns it.
BUDGET_EXHAUSTED = PolicyDecision(STOP_CORRECT, 1, 1, USABLE_RUN)


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
    was seen. Budget 0 accepts the first syndrome (:data:`BUDGET_EXHAUSTED`),
    as the reference runner does.
    """
    seen, stack = set(), [""]
    while stack:
        delta = stack.pop()
        key = _state_key(kind, delta)
        if key in seen:
            continue
        seen.add(key)
        decision = policy_decision(kind, t, s1_nonzero, delta) if t else BUDGET_EXHAUSTED
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
    strong and weak only: the walk keys Shor states by rounds and repeats.
    """
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
    stage-2 budget (0 for the Shor rule). A stop state's successors point
    past the last state, so advancing a stopped shot raises IndexError.
    """

    root: np.ndarray  # (t + 1,) int64
    successor: np.ndarray  # (2 * states,) int64
    entries: np.ndarray  # (3, states) int64
    max_rounds: int

    def advance(self, state, changed):
        """The states after one more round, and their entry rows."""
        state = self.successor[2 * state + changed]
        return state, np.take(self.entries, state, axis=1)


def policy_table(kind: str, t: int) -> PolicyTable:
    """Build the transition table of one policy for budgets 0..t.

    Each budget has a root state and, per first-syndrome branch, the
    states of :func:`reachable_states`: one per difference vector for
    strong and weak, one per (rounds, repeats) for Shor. A continuing
    state's successors are the states of its two one-bit extensions,
    found by state key. Budget 0 accepts the first syndrome
    (:data:`BUDGET_EXHAUSTED`).
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
    return PolicyTable(
        root=np.array(root, dtype=np.int64),
        successor=np.array([s for i in range(end) for s in successor.get(i, (end, end))],
                           dtype=np.int64),
        entries=np.array(entries, dtype=np.int64).T.copy(),
        max_rounds=PolicyConfig(kind, t).max_rounds_cap(),
    )
