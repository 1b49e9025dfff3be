from itertools import product

import pytest

from conftest import advance, run_stream
from ftecsim.colorcode import build_hex_color_code
from ftecsim.decoders import (
    BUDGET_EXHAUSTED,
    CODE_CONTINUE,
    CONTINUE,
    KINDS,
    PAIR_COUNT,
    REASONS,
    SHOR_CAP,
    SHOR_REPEAT,
    STOP_CORRECT,
    STOP_NO_CORRECTION,
    USABLE_RUN,
    WEAK_NO_CORRECTION,
    PolicyConfig,
    PolicyDecision,
    ProtocolDefect,
    decision_table,
    policy_decision,
    policy_table,
    worst_case_rounds,
)
from ftecsim.diffvec import min_faults
from ftecsim.extraction import MEASUREMENT, NoiseModel, compile_schedule
from ftecsim.harness import run_shot_reference
from ftecsim.recovery import build_table

PAPER_TABLE = {
    "strong": [3, 5, 8, 11, 15, 19, 24, 29, 35],
    "weak_nonzero": [2, 4, 6, 9, 12, 16, 20, 25, 30],
    "weak_zero": [1, 4, 7, 10, 14, 18, 23, 28, 34],
    "shor": [4, 9, 16, 25, 36, 49, 64, 81, 100],
}


def test_worst_case_rounds_full_table():
    for t in range(1, 10):
        assert worst_case_rounds("strong", t) == PAPER_TABLE["strong"][t - 1]
        assert worst_case_rounds("weak", t, "nonzero") == PAPER_TABLE["weak_nonzero"][t - 1]
        assert worst_case_rounds("weak", t, "zero") == PAPER_TABLE["weak_zero"][t - 1]
        assert worst_case_rounds("shor", t) == PAPER_TABLE["shor"][t - 1]


def test_shor_examples():
    d = run_stream("shor", 1, [7, 7])
    assert (d.action, d.rounds_used, d.round_index, d.stopped_by) == (
        STOP_CORRECT, 2, 2, SHOR_REPEAT)
    d = run_stream("shor", 1, [1, 2, 3, 4])
    assert (d.action, d.rounds_used, d.round_index, d.stopped_by) == (
        STOP_CORRECT, 4, 4, SHOR_CAP)
    d = run_stream("shor", 2, [5, 5, 5])
    assert (d.action, d.rounds_used, d.round_index) == (STOP_CORRECT, 3, 3)


def test_strong_protocol1_examples():
    d = run_stream("strong", 1, [9, 9])
    assert (d.action, d.round_index, d.stopped_by) == (STOP_CORRECT, 1, USABLE_RUN)
    d = run_stream("strong", 1, [1, 2, 3])
    assert (d.action, d.rounds_used, d.round_index, d.stopped_by) == (
        STOP_CORRECT, 3, 3, PAIR_COUNT)


def test_strong_static_decision_examples():
    d = policy_decision("strong", 3, True, "0100010")
    assert (d.action, d.round_index) == (STOP_CORRECT, 3)
    d = policy_decision("strong", 1, True, "11")
    assert (d.action, d.round_index, d.stopped_by) == (STOP_CORRECT, 3, PAIR_COUNT)
    assert policy_decision("strong", 3, True, "010010").action == CONTINUE


def test_table2_syndrome_selection_rows():
    # (stream, tabulated syndrome index), nonzero distinct values a, b, c
    a, b, c = 9, 5, 3
    rows = {
        "input": ([a, a, a], 1),
        "I(1)": ([a, b, b], 2),
        "I(2)": ([a, b, c], 3),
        "I(3)": ([a, a, b], 1),
        "II(1)": ([0, b, b], 2),
        "II(2)": ([a, a, b], 1),
        "II(3)": ([a, a, a], 1),
    }
    for name, (stream, expected_round) in rows.items():
        decision = run_stream("strong", 1, stream)
        assert decision.action == STOP_CORRECT, name
        assert decision.round_index == expected_round, name
        # chosen syndrome equals the tabulated one
        assert stream[decision.round_index - 1] == stream[expected_round - 1]


def test_weak_t1_examples():
    d = run_stream("weak", 1, [0])
    assert (d.action, d.rounds_used, d.stopped_by) == (
        STOP_NO_CORRECTION, 1, WEAK_NO_CORRECTION)
    d = run_stream("weak", 1, [4, 4])
    assert (d.action, d.round_index) == (STOP_CORRECT, 1)
    d = run_stream("weak", 1, [4, 6])
    assert (d.action, d.rounds_used) == (STOP_NO_CORRECTION, 2)


def test_weak_t2_spec_example():
    # s1 != 0, delta' = "0" after round 3: usable at budget 1, corrected
    # with round 2 after the index shift
    d = run_stream("weak", 2, [4, 5, 5])
    assert (d.action, d.rounds_used, d.round_index) == (STOP_CORRECT, 3, 2)


def test_weak_zero_branch_mapping():
    # noiseless: stops after round 2 without correction (prepended zero run)
    d = run_stream("weak", 2, [0, 0])
    assert (d.action, d.rounds_used) == (STOP_NO_CORRECTION, 2)
    # s1 = 0, s2 = s3 = s4 nonzero: deltaderived run maps back to round 2
    d = run_stream("weak", 2, [0, 7, 7, 7])
    assert (d.action, d.rounds_used, d.round_index) == (STOP_CORRECT, 4, 2)


def test_weak_pair_count_stop_uses_latest():
    # s1 != 0, all syndromes distinct: delta' all ones, pairs hit t-1
    d = run_stream("weak", 2, [1, 2, 3, 4])
    assert (d.action, d.rounds_used, d.round_index, d.stopped_by) == (
        STOP_CORRECT, 4, 4, PAIR_COUNT)


def test_policy_defect_is_unreachable_without_bugs():
    # the caps equal the exhaustive maxima, so a defect needs a broken rule;
    # force one by feeding the pure function a state past the cap that the
    # policy run round by round never reaches (it stops on the prefix "11")
    with pytest.raises(ProtocolDefect):
        policy_decision("strong", 1, True, "1111")
    # the weak rule shares the cap check (it stops on the prefix "111")
    with pytest.raises(ProtocolDefect):
        policy_decision("weak", 2, True, "11111")


def test_decision_tables_match_state_machines():
    """Every entry of every table below the cap: the pure rule's decision
    when each proper prefix of its delta continues, else None."""
    for kind, t, s1_nonzero in product(("strong", "weak"), (1, 2, 3), (False, True)):
        tables = decision_table(kind, t, s1_nonzero)
        for length in range(len(tables)):
            for bits in product("01", repeat=length):
                delta = "".join(bits)
                reachable = all(policy_decision(kind, t, s1_nonzero, delta[:k]).action
                                == CONTINUE for k in range(length))
                decision = policy_decision(kind, t, s1_nonzero, delta) if reachable else None
                expected = decision and (decision.action, decision.round_index,
                                         decision.stopped_by)
                assert tables[length][int(delta[::-1] or "0", 2)] == expected, (kind, t, delta)


def test_decision_table_refuses_shor_and_unknown_kinds():
    # keyed by (rounds, repeats), the Shor walk would leave reachable
    # vectors such as "11" (it shares "01"'s key) at None
    for kind in ("shor", "bogus"):
        with pytest.raises(ValueError, match=f"strong and weak rules only, got '{kind}'"):
            decision_table(kind, 2, True)


def test_policy_tables_match_rule_exhaustively():
    """Every vector reachable from ``root[t]``, for all three rules,
    t = 1..3 and both first-syndrome branches: each entry holds the pure
    rule's decision (and, for strong and weak, the vector's min faults),
    and a stop state's successors point past the table."""
    for kind, t in product(KINDS, (1, 2, 3)):
        table = policy_table(kind, t)
        entries, successor = table.entries.T.tolist(), table.successor.tolist()
        end = len(entries)
        for s1_nonzero in (False, True):
            stack = [(successor[2 * table.root[t] + s1_nonzero], "")]
            while stack:
                state, delta = stack.pop()
                code, pick, faults = entries[state]
                decision = policy_decision(kind, t, s1_nonzero, delta)
                expected = (CODE_CONTINUE if decision.action == CONTINUE
                            else REASONS.index(decision.stopped_by))
                assert (code, pick) == (expected, decision.round_index or 0), (kind, t, delta)
                assert kind == "shor" or faults == min_faults(delta), (kind, t, delta)
                assert table.stops[state] == (code != CODE_CONTINUE)
                following = successor[2 * state: 2 * state + 2]
                if code == CODE_CONTINUE:
                    stack += [(s, delta + b) for s, b in zip(following, "01")]
                else:
                    assert following == [end, end], (kind, t, delta)


def _two_stage_shot(d, kind, flip=False, sectors=("x", "z")):
    """One noiseless shot through the reference runner; with ``flip``, the
    first measurement of round 1 (in stage 1's first circuit) flips."""
    code = build_hex_color_code(d)
    t = (d - 1) // 2
    schedules = tuple(compile_schedule(code, NoiseModel(0.0), s) for s in sectors)
    first_meas = schedules[0].loc_kind.index((MEASUREMENT, 0))
    faults = {1: [(first_meas, "flip")]} if flip else {}
    return run_shot_reference(code, build_table(code, 1), kind, t, schedules=schedules,
                              injected_faults=faults)


def test_two_stage_budget_arithmetic():
    # noiseless d=5 strong: both stages at the full budget 2, three rounds each
    noiseless = _two_stage_shot(5, "strong")
    assert [d.rounds_used for d in noiseless.decisions] == [3, 3]
    # the flip gives the stage-1 difference vector "100": one fault
    # evidenced, so stage 2 runs at budget 1
    result = _two_stage_shot(5, "strong", flip=True)
    assert [d.rounds_used for d in result.decisions] == [4, 2]
    assert result.rounds_used == 6 and not result.logical_error
    # at d=3 (t = 1) the same fault leaves stage 2 no budget: one round
    result = _two_stage_shot(3, "strong", flip=True)
    assert [d.rounds_used for d in result.decisions] == [3, 1]
    assert result.decisions[1] == BUDGET_EXHAUSTED and not result.logical_error
    # the engine's policy tables lead from the budget-0 root to the same
    # decision, whatever the first syndrome
    for kind in ("strong", "weak"):
        table = policy_table(kind, 2)
        for changed in (False, True):
            _, (code, pick, _) = advance(table, table.root[0], changed)
            assert (REASONS[code], pick) == (BUDGET_EXHAUSTED.stopped_by,
                                             BUDGET_EXHAUSTED.round_index)


def test_policy_decision_answers_budget_zero():
    """Every rule accepts the first syndrome at budget 0, on both
    first-syndrome branches; an unknown kind still raises; and each
    policy table's budget-0 root still leads to that decision."""
    for kind in KINDS:
        for s1_nonzero in (False, True):
            assert policy_decision(kind, 0, s1_nonzero, "") == BUDGET_EXHAUSTED
    with pytest.raises(ValueError, match="unknown decoder kind"):
        policy_decision("nope", 0, True, "")
    for kind in KINDS:
        for t in range(1, 5):
            table = policy_table(kind, t)
            for changed in (0, 1):
                state = table.successor[2 * table.root[0] + changed]
                assert tuple(table.entries[:, state]) == (REASONS.index(USABLE_RUN), 1, 0)


def test_policy_table_stop_state_has_no_successor():
    # a stopped shot cannot be advanced: its successor is past the table
    for kind in KINDS:
        table = policy_table(kind, 2)
        for changed in (False, True):
            state, code = table.root[2], CODE_CONTINUE
            while code == CODE_CONTINUE:
                state, (code, _, _) = advance(table, state, changed)
            with pytest.raises(IndexError):
                advance(table, state, changed)


def test_two_stage_rejects_shor():
    with pytest.raises(ValueError, match="two-stage"):
        _two_stage_shot(3, "shor")
    assert _two_stage_shot(3, "shor", sectors=("all",)).rounds_used == 2


@pytest.mark.parametrize("kind", KINDS)
def test_negative_budget_meets_the_one_refusal(kind):
    """Below budget 0 every rule, branch and vector gets the refusal of
    ``worst_case_rounds``."""
    for s1_nonzero, delta in product((False, True), ("", "0", "01", "11")):
        with pytest.raises(ValueError, match="^t must be >= 1, got -1$"):
            policy_decision(kind, -1, s1_nonzero, delta)


def test_policy_config_validation():
    with pytest.raises(ValueError, match="unknown decoder kind 'nope'"):
        PolicyConfig("nope", 1)
    with pytest.raises(ValueError, match="t must be >= 1, got 0"):
        PolicyConfig("shor", 0)
    for kind, branch in (("shor", "bogus"), ("strong", "zero"), ("weak", "n/a")):
        with pytest.raises(ValueError, match=f"{kind} policy has no s1_branch '{branch}'"):
            worst_case_rounds(kind, 2, branch)
    for round_index in (None, 0, 3):
        with pytest.raises(ValueError, match="stop_correct must name a round inside"):
            PolicyDecision(STOP_CORRECT, 2, round_index, USABLE_RUN)
    assert PolicyConfig("weak", 2).max_rounds_cap() == 4
    assert PolicyConfig("weak", 3).max_rounds_cap() == 7
