from itertools import accumulate, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftecsim.diffvec import (
    ZeroSubstring,
    decompose,
    difference_vector,
    find_usable,
    min_faults,
    operation_count,
    pairs_only,
)
from ftecsim.worstcase import oracle_unusable_runs

deltas = st.text(alphabet="01", min_size=0, max_size=12)


def test_history_examples():
    assert difference_vector([5, 5, 5]) == "00"
    assert difference_vector([1, 5, 5]) == "10"
    assert difference_vector([3]) == ""


def test_history_incremental_matches_batch():
    syndromes = [0, 1, 1, 2, 2, 2, 0]
    delta = ""
    for k in range(1, len(syndromes)):
        delta += "0" if syndromes[k] == syndromes[k - 1] else "1"
        assert difference_vector(syndromes[: k + 1]) == delta
    assert difference_vector(syndromes) == delta == "101001"


def test_decompose_paper_example():
    runs = decompose("1011000111101")
    mid = [r for r in runs if r.gamma == 3][0]
    assert (mid.alpha, mid.beta, mid.gamma) == (2, 3, 3)
    assert (mid.start, mid.end) == (5, 7)


def test_decompose_edges():
    runs = decompose("000")
    assert len(runs) == 1
    assert (runs[0].alpha, runs[0].beta, runs[0].gamma) == (0, 0, 3)
    assert decompose("11") == []
    assert decompose("") == []


def test_find_usable_worked_examples():
    assert find_usable(3, "010010") == []
    middle = find_usable(3, "0100010")
    assert len(middle) == 1 and (middle[0].start, middle[0].end) == (3, 5)
    single = find_usable(1, "0")
    assert len(single) == 1 and single[0].gamma == 1


def test_find_usable_requires_positive_budget():
    with pytest.raises(ValueError):
        find_usable(0, "0")


def test_min_faults_examples():
    assert min_faults("110") == 1
    assert min_faults("000") == 0
    assert min_faults("101") == 2
    # consistency with the worked example's prefix/suffix counts
    assert min_faults("101") == 2  # alpha of the 000 run in 1011000111101
    assert min_faults("11101") == 3  # beta of that run


def test_pairs_only_examples():
    assert pairs_only("110") == 1
    assert pairs_only("11011") == 2
    assert pairs_only("10101") == 0


def _greedy_counts(delta):
    """(faults, pairs) by a per-character greedy scan: each one pairs with
    the next one when it can, and a one left unpaired is a fault alone."""
    faults = pairs = 0
    pending = False
    for ch in delta:
        if ch == "1" and pending:
            pairs += 1
            pending = False
        elif ch == "1":
            faults += 1
            pending = True
        else:
            pending = False
    return faults, pairs


ALL_DELTAS = ["".join(bits) for length in range(13) for bits in product("01", repeat=length)]


def test_min_faults_matches_block_formula():
    """min_faults and pairs_only against an independent per-character
    scan, on every vector of length <= 12."""
    assert len(ALL_DELTAS) == 8191
    for delta in ALL_DELTAS:
        assert (min_faults(delta), pairs_only(delta)) == _greedy_counts(delta), delta


def _reference_blocks(delta):
    """The one-block lengths o_0..o_k around the k zero runs of ``delta``
    and the runs' lengths, by a walk over its split."""
    pieces = delta.split("0")
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


def _reference_decompose(ones, zeros):
    """Every zero run by block sums: alpha and beta are a prefix and a
    suffix sum of ceil(o/2), with each neighbouring block at floor(o/2)."""
    faults = list(accumulate([(o + 1) // 2 for o in ones], initial=0))
    ends = accumulate(o + gamma for o, gamma in zip(ones, zeros))
    return [ZeroSubstring(j, end - gamma + 1, end, gamma, faults[j - 1] + ones[j - 1] // 2,
                          ones[j] // 2 + faults[-1] - faults[j + 1])
            for j, (gamma, end) in enumerate(zip(zeros, ends), 1)]


def _exactly(runs):
    """The runs with their types, so a plain tuple never equals a ZeroSubstring."""
    return [(type(run), tuple(run)) for run in runs]


def test_search_matches_block_sum_reference():
    """decompose, find_usable, min_faults and pairs_only equal the block-sum
    reference exactly (values, order and ZeroSubstring type) on every
    vector of length <= 12 and every budget 1..7, and find_usable is
    decompose filtered by score."""
    for delta in ALL_DELTAS:
        ones, zeros = _reference_blocks(delta)
        reference = _reference_decompose(ones, zeros)
        runs = decompose(delta)
        assert _exactly(runs) == _exactly(reference), delta
        assert min_faults(delta) == sum((o + 1) // 2 for o in ones), delta
        assert pairs_only(delta) == sum(o // 2 for o in ones), delta
        for t in range(1, 8):
            usable = find_usable(t, delta)
            assert _exactly(usable) == _exactly(
                [r for r in reference if r.alpha + r.beta + r.gamma >= t]), (delta, t)
            assert usable == [r for r in runs if r.alpha + r.beta + r.gamma >= t], (delta, t)


@pytest.mark.parametrize("delta", ["0120", "01 1", "2"])
@pytest.mark.parametrize("query", [
    min_faults, pairs_only, decompose,
    lambda delta: find_usable(1, delta),
    lambda delta: operation_count(1, delta),
    lambda delta: oracle_unusable_runs(delta, 1),
], ids=["min_faults", "pairs_only", "decompose", "find_usable", "operation_count",
        "oracle_unusable_runs"])
def test_queries_refuse_other_characters(query, delta):
    """Counting "1" and "11" would read past a foreign character, so every
    query checks the alphabet first."""
    with pytest.raises(ValueError, match="'0'/'1'"):
        query(delta)


@given(deltas)
@settings(max_examples=300)
def test_decompose_round_trip(delta):
    runs = decompose(delta)
    rebuilt = list(delta)
    for r in runs:
        assert set(delta[r.start - 1 : r.end]) == {"0"}
        assert r.gamma == r.end - r.start + 1
        for i in range(r.start - 1, r.end):
            rebuilt[i] = None
    # everything not covered by a run is a one
    assert all(ch == "1" for ch in rebuilt if ch is not None)
    # runs are maximal: neighbors are ones
    for r in runs:
        if r.start > 1:
            assert delta[r.start - 2] == "1"
        if r.end < len(delta):
            assert delta[r.end] == "1"


@given(deltas, st.integers(1, 4))
@settings(max_examples=300)
def test_usability_monotone_in_budget(delta, t):
    usable_t = {(r.start, r.end) for r in find_usable(t, delta)}
    for lower in range(1, t):
        usable_lower = {(r.start, r.end) for r in find_usable(lower, delta)}
        assert usable_t <= usable_lower


def test_alpha_beta_definition():
    """alpha and beta are the greedy fault counts of the prefix before the
    run's left boundary one and the suffix after its right one."""
    for delta in ALL_DELTAS:
        for r in decompose(delta):
            prefix = delta[: r.start - 2] if r.start > 1 else ""
            suffix = delta[r.end + 1 :] if r.end < len(delta) else ""
            assert (r.alpha, r.beta) == (_greedy_counts(prefix)[0], _greedy_counts(suffix)[0])


def test_operation_count_positive_and_grows():
    small = operation_count(1, "010")
    large = operation_count(3, "010010010010")
    assert 0 < small < large
