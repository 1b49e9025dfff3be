import re
from collections import Counter
from itertools import product
from math import comb

import numpy as np
import pytest

from conftest import run_stream
from ftecsim import decoders, worstcase
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
    _combination_table,
    appendix_extremal_delta,
    consistent_combinations,
    max_unusable_length,
    oracle_unusable_runs,
    usable_run_masks,
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
    assert oracle_unusable_runs("010010", 3) == {(1, 1), (3, 4), (6, 6)}
    # the middle run (3, 5) of 0100010 is usable at t = 3
    assert oracle_unusable_runs("0100010", 3) == {(1, 1), (7, 7)}
    assert oracle_unusable_runs("0", 1) == set()


def test_oracle_regime_refusal():
    with pytest.raises(ValueError, match=re.escape(
            "exhaustive regime exceeded (m=21, t=3; limits m<=16, t<=5)")):
        oracle_unusable_runs("0" * 20, 3)
    with pytest.raises(ValueError, match="regime"):
        max_unusable_length("strong", 7)
    with pytest.raises(ValueError, match="t_max too large for exhaustive search: 6"):
        verify_round_bounds(6)
    with pytest.raises(ValueError, match=re.escape("fault budget must be >= 0, got -1")):
        oracle_unusable_runs("0100", -1)
    with pytest.raises(ValueError, match=re.escape(
            "exhaustive regime exceeded (m=17, t=1; limits m<=16, t<=5)")):
        usable_run_masks(16, 1)
    with pytest.raises(ValueError, match=re.escape("fault budget must be >= 0, got -1")):
        usable_run_masks(4, -1)
    with pytest.raises(ValueError, match=re.escape(
            "difference vector must be over '0'/'1', got '0120'")):
        oracle_unusable_runs("0120", 2)
    with pytest.raises(ValueError, match=re.escape(
            "difference vector must be over '0'/'1', got '0x'")):
        list(consistent_combinations("0x", 1))
    # the empty vector is binary: no fault, or a type II fault on its one round
    assert sorted(c.faults for c in consistent_combinations("", 1)) == [(), (("II", 1),)]


def test_extremal_family_construction():
    assert appendix_extremal_delta(3) == "010010"
    assert appendix_extremal_delta(2) == "010"
    with pytest.raises(ValueError, match="t must be >= 1"):
        appendix_extremal_delta(0)
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


def test_closed_forms_past_the_published_table():
    """At t = 6 and 7, past ``_TABLE_ROUNDS`` and the regime of
    ``max_unusable_length``, every rule's longest continuing vector is two
    shorter than its closed-form round cap."""
    for kind, branch in (("shor", "n/a"), ("strong", "n/a"), ("weak", "nonzero"),
                         ("weak", "zero")):
        for t in (6, 7):
            longest = max(len(delta) for delta, decision in
                          decoders.reachable_states(kind, t, branch != "zero")
                          if decision.action == CONTINUE)
            assert longest + 2 == decoders.worst_case_rounds(kind, t, branch), (kind, branch, t)


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
    """``policy_decision`` with the Shor rule's cap ``late`` rounds after
    (t+1)^2, or with no cap when ``late`` is None; other kinds unchanged."""
    def rule(kind, t, s1_nonzero, delta):
        if kind != "shor":
            return policy_decision(kind, t, s1_nonzero, delta)
        rounds = len(delta) + 1
        if len(delta) - len(delta.rstrip("0")) >= t:
            return PolicyDecision(STOP_CORRECT, rounds, rounds, SHOR_REPEAT)
        if late is not None and rounds >= (t + 1) ** 2 + late:
            return PolicyDecision(STOP_CORRECT, rounds, rounds, SHOR_CAP)
        return PolicyDecision(CONTINUE, rounds)
    return rule


def test_verify_round_bounds_searches_the_shor_cap(monkeypatch):
    # the search finds a cap one round late in every Shor row...
    monkeypatch.setattr(decoders, "policy_decision", _shor_rule(1))
    report = verify_round_bounds(3)
    assert not report["ok"]
    assert {(c.kind, c.ok) for c in report["checks"]} == {
        ("strong", True), ("weak", True), ("shor", False)}
    assert [c.implied_rounds for c in report["checks"] if c.kind == "shor"] == [5, 10, 17]
    # ...and ends, rather than hangs, on a rule with no cap at all
    monkeypatch.setattr(decoders, "policy_decision", _shor_rule(None))
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


def per_vector_unusable_runs(delta, t):
    """The oracle one vector at a time: keep the rows of ``_combination_table``
    consistent with ``delta``, then mark a run unusable when one of them
    covers all of it."""
    once, twice, _type_i, _type_ii = _combination_table(len(delta) + 1, t)
    target = np.uint64(int(delta[::-1], 2) if delta else 0)
    # every 1 of delta is covered and no 0 is covered exactly once
    consistent = ((target & ~once) == 0) & ((once & ~twice & ~target) == 0)
    covered = once[consistent]
    runs = [(r.start, r.end) for r in decompose(delta)]
    masks = np.array([(1 << end) - (1 << (start - 1)) for start, end in runs], dtype=np.uint64)
    hit = ((covered[:, None] & masks) == masks).any(axis=0)
    return {run for run, h in zip(runs, hit) if h}


def test_oracle_table_matches_per_vector_oracle():
    for t in range(6):
        assert oracle_unusable_runs("", t) == set()  # m = 1: no position, no run
    for length in range(11):
        for bits in range(1 << length):
            delta = format(bits, f"0{length}b") if length else ""
            for t in range(4):
                assert oracle_unusable_runs(delta, t) == per_vector_unusable_runs(delta, t), \
                    (delta, t)
    for delta in ("0" * 15, "010" * 5, appendix_extremal_delta(5)):
        for t in range(1, 6):
            assert oracle_unusable_runs(delta, t) == per_vector_unusable_runs(delta, t), (delta, t)


def test_usable_run_masks_match_per_vector_oracle():
    """The bulk reader against the per-vector query: each entry's start and
    end bits are those of the zero runs ``oracle_unusable_runs`` leaves
    usable, with the runs found by a regular expression."""
    def expected(delta, t):
        runs = {(m.start() + 1, m.end()) for m in re.finditer("0+", delta)}
        usable = runs - oracle_unusable_runs(delta, t)
        starts = sum(1 << start - 1 for start, _ in usable)
        return starts | sum(1 << end - 1 for _, end in usable) << len(delta)

    for length in range(13):
        for t in range(6):
            masks = usable_run_masks(length, t)
            assert len(masks) == 1 << length
            for packed, mask in enumerate(masks):
                delta = format(packed, f"0{length}b")[::-1] if length else ""
                assert mask == expected(delta, t), (delta, t)
    for delta in ("0" * 15, "010" * 5, appendix_extremal_delta(5)):
        for t in range(6):
            assert usable_run_masks(len(delta), t)[int(delta[::-1], 2)] == expected(delta, t), \
                (delta, t)


def test_oracle_table_built_once_per_length_and_budget(monkeypatch):
    calls = []

    def counting(m, t):
        calls.append(((m, t), _combination_table(m, t)))
        return calls[-1][1]

    monkeypatch.setattr(worstcase, "_combination_table", counting)
    _combination_table.cache_clear()
    worstcase._unusable_table.cache_clear()
    assert oracle_unusable_runs("0100010", 3) == {(1, 1), (7, 7)}
    assert oracle_unusable_runs("0000000", 3) == set()
    assert [key for key, _ in calls] == [(8, 3)]
    # one per-vector table, for (7, 3): built by the first query, read by the rest
    unusable = worstcase._unusable_table
    assert (unusable.cache_info().misses, unusable.cache_info().currsize) == (1, 1)
    unusable(7, 3)
    assert (unusable.cache_info().misses, unusable.cache_info().hits) == (1, 2)
    # the definition-level filter reads the same cached arrays, not a rebuild
    assert (("II", 2), ("II", 6)) in [c.faults for c in consistent_combinations("0100010", 3)]
    assert [key for key, _ in calls] == [(8, 3), (8, 3)]
    assert calls[1][1] is calls[0][1]
    info = _combination_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def definition_table(m, t):
    """(faults, once, twice) of every assignment of at most t faults, at most
    one per round, from per-round choices. A type I fault on round i covers
    positions i-1 and i, a type II fault position i unless i = m, and
    positions run from 1 to m-1; but at m = 1 the type I fault on round 1
    still covers position 1, which the empty vector lacks."""
    top = max(m - 1, 1)
    rows = []
    for kinds in product((None, "I", "II"), repeat=m):
        faults = tuple((kind, i) for i, kind in enumerate(kinds, 1) if kind)
        if len(faults) > t:
            continue
        hits = Counter(p for kind, i in faults
                       for p in ((i - 1, i) if kind == "I" else (i,) if i < m else ())
                       if 1 <= p <= top)
        once = sum(1 << (p - 1) for p in hits)
        twice = sum(1 << (p - 1) for p, n in hits.items() if n >= 2)
        rows.append((faults, once, twice))
    return Counter(rows)


def test_combination_table_matches_definition():
    for m, t in product(range(1, 9), range(6)):
        once, twice, type_i, type_ii = (col.tolist() for col in _combination_table(m, t))
        rows = Counter(
            (tuple((kind, i) for i in range(1, m + 1)
                   for kind, kinds in (("I", ti), ("II", tii)) if kinds >> (i - 1) & 1), o, w)
            for o, w, ti, tii in zip(once, twice, type_i, type_ii))
        assert rows == definition_table(m, t), (m, t)
    for t in range(6):
        rows = len(_combination_table(16, t)[0])
        assert rows == sum(comb(16, k) << k for k in range(t + 1)), t
