import pytest

from conftest import run_stream
from ftecsim import decoders
from ftecsim.decoders import (
    CONTINUE,
    PAIR_COUNT,
    SHOR_CAP,
    SHOR_REPEAT,
    STOP_CORRECT,
    PolicyDecision,
    policy_decision,
)
from ftecsim.diffvec import decompose, find_usable
from ftecsim.worstcase import (
    appendix_extremal_delta,
    consistent_combinations,
    max_unusable_length,
    oracle_unusable_runs,
    oracle_usable,
    verify_round_bounds,
)


def faults_of(delta, t):
    return sorted(c.faults for c in consistent_combinations(delta, t))


def test_consistent_combinations_examples():
    assert (("I", 1),) in faults_of("10", 1)
    assert (("II", 1),) in faults_of("10", 1)
    combos = faults_of("00", 1)
    assert () in combos and (("II", 3),) in combos
    nonempty = [f for f in faults_of("11", 1) if f]
    assert nonempty == [(("I", 2),)]


def test_combination_choices_reported():
    # delta = 01 from I(1) + I(2): position 1 receives two contributions
    # that cancel, position 2 exactly one
    combos = list(consistent_combinations("01", 2))
    both = [c for c in combos if c.faults == (("I", 1), ("I", 2))]
    assert len(both) == 1
    assert both[0].cancellation_choices == ((1, "0"),)


def test_oracle_worked_examples():
    runs = decompose("010010")
    assert [oracle_usable("010010", 3, r) for r in runs] == [False, False, False]
    runs = decompose("0100010")
    assert oracle_usable("0100010", 3, runs[1]) is True
    runs = decompose("0")
    assert oracle_usable("0", 1, runs[0]) is True


def test_oracle_regime_refusal():
    with pytest.raises(ValueError, match="regime"):
        oracle_unusable_runs("0" * 20, 3)
    with pytest.raises(ValueError, match="regime"):
        max_unusable_length("strong", 7)
    with pytest.raises(ValueError, match="must be >= 0"):
        oracle_unusable_runs("0100", -1)


def test_extremal_family_construction():
    assert appendix_extremal_delta(3) == "010010"
    assert appendix_extremal_delta(2) == "010"
    lengths = {1: 1, 2: 3, 3: 6, 4: 9, 5: 13}
    for t, want in lengths.items():
        delta = appendix_extremal_delta(t)
        assert len(delta) == want
        # the strong policy is still live on the extremal string...
        assert policy_decision("strong", t, True, delta).action == CONTINUE
        # ...and decides on every one-bit extension
        for bit in "01":
            assert policy_decision("strong", t, True, delta + bit).action != CONTINUE


def test_extremal_family_oracle_confirmed():
    for t in (1, 2, 3):
        delta = appendix_extremal_delta(t)
        unusable = oracle_unusable_runs(delta, t)
        assert unusable == {(r.start, r.end) for r in decompose(delta)}


def test_max_unusable_length_examples():
    assert max_unusable_length("strong", 3) == 6
    assert max_unusable_length("strong", 2) == 3
    assert max_unusable_length("strong", 1) == 1
    for t in range(1, 6):
        assert max_unusable_length("shor", t) == (t + 1) ** 2 - 2


def test_all_ones_stream_stops_at_2t_plus_1():
    for t in (1, 2, 3, 4, 5):
        decision = run_stream("strong", t, range(1, 4 * t))
        assert decision.rounds_used == 2 * t + 1
        assert decision.stopped_by == PAIR_COUNT
        assert decision.round_index == 2 * t + 1


def test_verify_round_bounds_full():
    report = verify_round_bounds(5)
    assert report["ok"]
    rows = {(c.kind, c.s1_branch, c.t): c for c in report["checks"]}
    assert [rows[("strong", "n/a", t)].formula_rounds for t in range(1, 6)] == [3, 5, 8, 11, 15]
    assert [rows[("weak", "nonzero", t)].formula_rounds for t in range(1, 6)] == [2, 4, 6, 9, 12]
    assert [rows[("weak", "zero", t)].formula_rounds for t in range(1, 6)] == [1, 4, 7, 10, 14]
    assert [rows[("shor", "n/a", t)].formula_rounds for t in range(1, 6)] == [4, 9, 16, 25, 36]


def _shor_rule(late):
    """The Shor rule with its cap ``late`` rounds after (t+1)^2, or with no
    cap when ``late`` is None."""
    def rule(t, delta):
        rounds = len(delta) + 1
        if len(delta) - len(delta.rstrip("0")) >= t:
            return PolicyDecision(STOP_CORRECT, rounds, rounds, SHOR_REPEAT)
        if late is not None and rounds >= (t + 1) ** 2 + late:
            return PolicyDecision(STOP_CORRECT, rounds, rounds, SHOR_CAP)
        return PolicyDecision(CONTINUE, rounds)
    return rule


def test_verify_round_bounds_searches_the_shor_cap(monkeypatch):
    # the search finds a cap one round late in every Shor row...
    monkeypatch.setattr(decoders, "shor_decision", _shor_rule(1))
    report = verify_round_bounds(3)
    assert not report["ok"]
    assert {(c.kind, c.ok) for c in report["checks"]} == {
        ("strong", True), ("weak", True), ("shor", False)}
    assert [c.implied_rounds for c in report["checks"] if c.kind == "shor"] == [5, 10, 17]
    # ...and ends, rather than hangs, on a rule with no cap at all
    monkeypatch.setattr(decoders, "shor_decision", _shor_rule(None))
    with pytest.raises(AssertionError, match="kind=shor t=1"):
        verify_round_bounds(3)


def test_theorem1_equivalence_small_sweep():
    # the acceptance suite covers length <= 10; keep a quick version here
    for length in range(1, 8):
        for bits in range(1 << length):
            delta = format(bits, f"0{length}b")
            runs = decompose(delta)
            if not runs:
                continue
            for t in (1, 2, 3):
                search = {(r.start, r.end) for r in find_usable(t, delta)}
                oracle = {(r.start, r.end) for r in runs} - oracle_unusable_runs(delta, t)
                assert search == oracle, (delta, t)


def definition_unusable_runs(delta, t):
    """Plain-loop usability from ``consistent_combinations``: a run is
    unusable iff some consistent combination covers every position of it.
    A type I fault on round i covers positions i-1 and i, a type II fault
    position i (positions outside 1..len(delta) do not exist)."""
    runs = decompose(delta)
    unusable = set()
    for combo in consistent_combinations(delta, t):
        covered = set()
        for kind, i in combo.faults:
            covered.update((i - 1, i) if kind == "I" else (i,))
        for r in runs:
            if all(pos in covered for pos in range(r.start, r.end + 1)):
                unusable.add((r.start, r.end))
    return unusable


def test_oracle_matches_definition():
    cases = [(format(bits, f"0{length}b"), t)
             for length in range(1, 9) for bits in range(1 << length) for t in range(1, 6)]
    cases += [(appendix_extremal_delta(t), t) for t in (4, 5)]
    cases += [(delta, t) for delta in ("0" * 15, "010" * 5, "001000100010000", "100000000000001")
              for t in (1, 2)]
    for delta, t in cases:
        assert oracle_unusable_runs(delta, t) == definition_unusable_runs(delta, t), (delta, t)


def test_search_matches_oracle_t4_t5():
    for length in range(1, 10):
        for bits in range(1 << length):
            delta = format(bits, f"0{length}b")
            runs = decompose(delta)
            for t in (4, 5):
                search = {(r.start, r.end) for r in find_usable(t, delta)}
                oracle = {(r.start, r.end) for r in runs} - oracle_unusable_runs(delta, t)
                assert search == oracle, (delta, t)
