import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from ftecsim import build_hex_color_code
from ftecsim.harness import default_built_to_weight
from ftecsim.recovery import (
    _mix,
    _sector_rows,
    build_table,
    decode,
    decode_sector_masks,
    enumeration_count,
    final_verdict,
)
from ftecsim.stabilizer import PauliOperator, _gf2_pivots, multiply, syndrome_of


def all_paulis_up_to(n, wmax):
    for w in range(wmax + 1):
        for support in itertools.combinations(range(n), w):
            for letters in itertools.product("XYZ", repeat=w):
                p = PauliOperator.identity(n)
                for q, L in zip(support, letters):
                    p = multiply(p, PauliOperator.single(n, q, L))
                yield p


def _split(code, syndromes):
    """(X-sector bits, Z-sector bits) of a uint64 array of packed full
    syndromes, read bit by bit through the code's ``x_sector`` and
    ``z_sector``: the split the lookup makes by one shift and one mask."""
    parts = []
    for sector in (code.x_sector, code.z_sector):
        part = np.zeros_like(syndromes)
        for local, gi in enumerate(sector):
            part |= (syndromes >> np.uint64(gi) & np.uint64(1)) << np.uint64(local)
        parts.append(part)
    return tuple(parts)


def _pack(x_part, z_part, m):
    """Packed full syndromes from equal-length sector arrays."""
    return x_part | z_part << np.uint64(m)


def test_weight_one_table_has_distinct_syndromes(code3):
    table = build_table(code3, 1)
    assert len(table.keys) == 8  # 7 single-qubit errors + identity
    assert table.x_corrections is table.z_corrections is table.masks
    assert table.keys[0] == 0 and table.masks[0] == 0
    assert sorted(table.masks.tolist()) == [0] + [1 << q for q in range(7)]


def _sector_columns(code):
    """Column q of the Z-sector check matrix as a bit word."""
    cols = [0] * code.n
    for local, gi in enumerate(code.z_sector):
        for q in range(code.n):
            if (code.generators[gi].z_bits >> q) & 1:
                cols[q] |= 1 << local
    return cols


def _loop_table(code, weight):
    """{syndrome: mask} from the plain loop: supports in weight, then
    combinations, order, and the first one per syndrome kept."""
    cols = _sector_columns(code)
    expected = {0: 0}
    for w in range(1, weight + 1):
        for support in itertools.combinations(range(code.n), w):
            syndrome = mask = 0
            for q in support:
                syndrome ^= cols[q]
                mask |= 1 << q
            expected.setdefault(syndrome, mask)
    return expected


@functools.cache
def _combinations_table(code, weight):
    """(keys, masks) from the earlier array build: ``itertools.combinations``
    supports, each XORed over its columns, and ``np.unique``'s first index:
    the true syndromes, sorted, each with its first writer."""
    cols = np.array(_sector_columns(code), np.uint64)
    keys, masks = [np.zeros(1, np.uint64)], [np.zeros(1, np.uint64)]
    for w in range(1, weight + 1):
        flat = itertools.chain.from_iterable(itertools.combinations(range(code.n), w))
        supports = np.fromiter(flat, np.int64).reshape(-1, w)
        keys.append(np.bitwise_xor.reduce(cols[supports], axis=1))
        masks.append(np.bitwise_or.reduce(np.uint64(1) << supports.astype(np.uint64), axis=1))
    keys, first = np.unique(np.concatenate(keys), return_index=True)
    return keys, np.concatenate(masks)[first]


def _key_map(words, m):
    """The table's key map L, restated: the syndrome itself up to 18 bits,
    else ``x ^= x << 13; x ^= x << 7`` on m bits."""
    if m <= 18:
        return words
    low = np.uint64((1 << m) - 1)
    words = words ^ (words << np.uint64(13)) & low
    return words ^ (words << np.uint64(7)) & low


def _unmix(keys, m):
    """The inverse of ``_key_map``: undo each step by fixed-point iteration."""
    low = np.uint64((1 << m) - 1)
    for shift in (7, 13) if m > 18 else ():
        words = keys
        for _ in range(m // shift + 1):
            words = keys ^ (words << np.uint64(shift)) & low
        keys = words
    return keys


def _check_index(table):
    """The bucket index: one bucket per value of the keys' top bits, the
    buckets contiguous and in key order, each key inside its own bucket,
    and ``steps`` bisection steps enough for the largest bucket."""
    keys, starts = table.keys, table.starts
    assert len(starts) == (1 << min(table.m, 18)) + 1
    assert table.shift == table.m - min(table.m, 18)
    assert starts[0] == 0 and starts[-1] == len(keys)
    assert (starts[1:] >= starts[:-1]).all()
    assert (keys[1:] > keys[:-1]).all()
    position = np.arange(len(keys))
    bucket = keys >> np.uint64(table.shift)
    assert ((starts[bucket] <= position) & (position < starts[bucket + np.uint64(1)])).all()
    largest = int(np.diff(starts).max())
    assert 1 << table.steps >= largest > 1 << table.steps >> 1


def _check_table(code, weight, loop=True):
    """The table against the earlier array build: up to d=7 byte for byte;
    at d=9 its keys are the build's syndromes mapped through L and sorted,
    with the build's masks in that order."""
    table = build_table(code, weight)
    keys, masks = _combinations_table(code, weight)
    order = np.argsort(_key_map(keys, table.m), kind="stable")
    if table.m <= 18:
        assert (order == np.arange(len(keys))).all()
    assert table.keys.dtype == table.masks.dtype == np.uint64
    assert table.keys.tobytes() == _key_map(keys, table.m)[order].tobytes()
    assert table.masks.tobytes() == masks[order].tobytes()
    _check_index(table)
    if loop:
        expected = _loop_table(code, weight)
        assert table.keys.tolist() == sorted(expected)
        assert dict(zip(table.keys.tolist(), table.masks.tolist())) == expected


@pytest.mark.parametrize("d", [3, 5, 7, 9])
def test_table_matches_first_writer_wins_enumeration(d):
    """The build at the default weight against the array build it replaced
    and, below d=9 (where it takes seconds), the plain loop. At d=9 that is
    559,736 supports and 465,741 syndromes, whose 30-bit keys are mixed."""
    code = build_hex_color_code(d)
    _check_table(code, default_built_to_weight(code, (d - 1) // 2), loop=d < 9)


@pytest.mark.parametrize("d, weight", [(3, 0), (3, 7), (5, 4)])
def test_table_at_edge_weights(d, weight):
    """Weight 0 (the zero syndrome alone), every support of the d=3 code,
    and d=5 one weight past its default."""
    _check_table(build_hex_color_code(d), weight)


def test_d9_table_build_peak_memory():
    """The build works in place on the enumeration's key and mask arrays
    and frees each temporary before it takes the next full-length one, so
    its traced peak at d=9, weight 4 (the default) stays within 1.8 times
    the arrays of the table it returns
    (measured 1.66; a build that packed the keys into a new array and kept
    an index array of the first writers peaked at 2.69)."""
    code = build_hex_color_code(9)
    tracemalloc.start()
    try:
        table = build_table(code, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for a in (table.keys, table.masks, table.starts, table.solve))
    assert peak <= 1.8 * returned, (peak, returned)


def test_table_sort_words_fit_64_bits():
    """30 sector rows plus the 60 index bits of every d=9 support up to
    weight 30 overflow a uint64 sort word, so the build refuses before it
    allocates anything."""
    with pytest.raises(ValueError, match="64-bit"):
        build_table(build_hex_color_code(9), 30, budget=2**64)


def test_table_needs_self_dual_code_of_at_most_64_qubits():
    from ftecsim.stabilizer import StabilizerCode

    # [[4,1,2]]: X generator XXXX, Z generators ZZII and IIZZ
    code = StabilizerCode(
        n=4, k=1,
        generators=tuple(PauliOperator.from_string(g) for g in ("XXXX", "ZZII", "IIZZ")),
        logical_x=(PauliOperator.from_string("XXII"),),
        logical_z=(PauliOperator.from_string("ZIZI"),),
        css=True, x_sector=(0,), z_sector=(1, 2),
    )
    with pytest.raises(ValueError, match="self-dual"):
        build_table(code, 1)
    with pytest.raises(ValueError, match="n <= 64"):
        build_table(build_hex_color_code(11), 1)  # n = 91


def test_table_needs_sector_layout(interleaved3):
    """A self-dual code whose X and Z generators interleave passes the
    self-dual check, but a packed syndrome of it does not hold the X sector
    at bits 0..m-1 and the Z sector at m..2m-1, so the build refuses it."""
    with pytest.raises(ValueError, match="layout"):
        build_table(interleaved3, 1)


def test_decode_identity(code3, table3):
    assert decode(table3, code3, 0) == PauliOperator.identity(7)


def test_decode_single_qubit_examples(code3, table3):
    for q, kind in ((0, "X"), (2, "Z"), (5, "Y")):
        e = PauliOperator.single(7, q, kind)
        dec = decode(table3, code3, syndrome_of(code3, e))
        assert syndrome_of(code3, dec) == syndrome_of(code3, e)
        assert dec.weight() <= 1


def test_minimality_exhaustive_d3(code3, table3):
    for e in all_paulis_up_to(7, 3):
        dec = decode(table3, code3, syndrome_of(code3, e))
        assert syndrome_of(code3, dec) == syndrome_of(code3, e)
        assert dec.weight() <= e.weight()


def test_minimality_weight2_d5(code5, table5):
    # every weight-2 X error decodes to a weight <= 2 error with the same
    # sector syndrome
    for support in itertools.combinations(range(19), 2):
        mask = (1 << support[0]) | (1 << support[1])
        e = PauliOperator(19, mask, 0)
        dec = decode(table5, code5, syndrome_of(code5, e))
        assert dec.weight() <= 2
        assert syndrome_of(code5, dec) == syndrome_of(code5, e)


def test_gf2_fallback(code5):
    shallow = build_table(code5, 1)
    covered = set(shallow.keys.tolist())
    # find a weight-2 X-error syndrome outside the weight-1 table
    target = None
    for support in itertools.combinations(range(19), 2):
        e = PauliOperator(19, (1 << support[0]) | (1 << support[1]), 0)
        _, z_part = _split(code5, np.array([syndrome_of(code5, e)], np.uint64))
        if int(z_part[0]) not in covered:
            target = e
            break
    assert target is not None
    before = shallow.fallback_decodes
    dec = decode(shallow, code5, syndrome_of(code5, target))
    assert shallow.fallback_decodes > before
    assert syndrome_of(code5, dec) == syndrome_of(code5, target)


def test_final_verdict_examples(code3, table3):
    assert final_verdict(code3, table3, PauliOperator.identity(7)) == "no_logical_error"
    assert final_verdict(code3, table3, code3.generators[0]) == "no_logical_error"
    assert final_verdict(code3, table3, code3.logical_x[0]) == "logical_error"


def test_budget_refusal(code5):
    with pytest.raises(ValueError, match="budget"):
        build_table(code5, 4, budget=10)
    assert enumeration_count(19, 2) == 1 + 19 + 171


def test_non_css_rejected():
    from ftecsim.stabilizer import StabilizerCode

    code = StabilizerCode(
        n=2, k=1,
        generators=(PauliOperator.from_string("XZ"),),
        logical_x=(PauliOperator.from_string("ZX"),),
        logical_z=(PauliOperator.from_string("IZ"),),
    )
    with pytest.raises(ValueError, match="CSS"):
        build_table(code, 1)


def test_lookup_counts_misses_and_reproduces_syndromes(code5):
    """decode_sector_masks counts one fallback per looked-up syndrome absent
    from the keys, and every mask, looked up or solved, has its syndrome."""
    m = len(code5.x_sector)
    rng = np.random.default_rng(11)
    x_part = rng.integers(0, 1 << m, size=500).astype(np.uint64)
    z_part = rng.integers(0, 1 << m, size=500).astype(np.uint64)
    table = build_table(code5, 1)
    absent = int((~np.isin(x_part, table.keys)).sum() + (~np.isin(z_part, table.keys)).sum())
    assert absent > 0
    before = table.fallback_decodes
    cx, cz = decode_sector_masks(table, _pack(x_part, z_part, m))
    assert table.fallback_decodes - before == absent
    assert type(table.fallback_decodes) is int  # the benchmark writes it to JSON
    got = np.array([syndrome_of(code5, PauliOperator(19, mx, mz))
                    for mx, mz in zip(cx.tolist(), cz.tolist())], np.uint64)
    got_x, got_z = _split(code5, got)
    assert (got_x == x_part).all() and (got_z == z_part).all()


def test_key_map_is_invertible_and_linear():
    """``_mix`` is the restated L, an XOR-preserving bijection on m bits."""
    rng = np.random.default_rng(30)
    for m in (3, 18, 19, 30, 40):
        a, b = rng.integers(0, 1 << m, size=(2, 1000), dtype=np.uint64)
        assert (_mix(a, m) == _key_map(a, m)).all() and (_mix(a, m) >> np.uint64(m) == 0).all()
        assert (_mix(a ^ b, m) == _mix(a, m) ^ _mix(b, m)).all()
        assert (_unmix(_mix(a, m), m) == a).all()


def _reference_decode(code, weight, syndromes):
    """The earlier lookup: the bit-by-bit sector split, ``np.searchsorted``
    over the sorted true syndromes, and one ``np.bitwise_count`` parity per pivot
    column for the rest. Returns both mask arrays and the count of sector
    syndromes it solved."""
    x_part, z_part = _split(code, syndromes)
    keys, masks = _combinations_table(code, weight)
    syndromes = np.concatenate((z_part, x_part))
    index = keys.searchsorted(syndromes, "right") - 1
    found = masks[index]
    missing = keys[index] != syndromes
    unknown = syndromes[missing]
    solved = np.zeros(len(unknown), np.uint64)
    for col, sel in _gf2_pivots(_sector_rows(code, code.z_sector)):
        parity = np.bitwise_count(unknown & np.uint64(sel)) & 1
        solved |= parity.astype(np.uint64) << np.uint64(col)
    found[missing] = solved
    return found[:len(z_part)], found[len(z_part):], int(missing.sum())


@pytest.mark.parametrize("d, weight", [(3, 0), (5, 1), (7, 2), (9, 2), (9, 4)])
def test_lookup_matches_binary_search_and_pivot_loop(d, weight):
    """The bucketed lookup and the one-product fallback against the earlier
    binary search and per-pivot loop, on covered and uncovered syndromes,
    the edge words (zero, all ones, the syndromes whose keys are the first
    and the last of every bucket's range), an empty batch and a batch with
    exactly one miss: equal masks and an equal ``fallback_decodes`` delta.
    (9, 4) is the default d=9 table, whose buckets take bisection steps;
    every key of the largest bucket is looked up."""
    code = build_hex_color_code(d)
    table = build_table(code, weight)
    m = table.m
    covered = _combinations_table(code, weight)[0]
    rng = np.random.default_rng(d * 10 + weight)
    edge_keys = np.array([0, (1 << m) - 1], np.uint64)
    # the first and the last key of each top-bits value, near the ends and in between
    tops = np.array([0, 1, 2, (1 << min(m, 18)) - 2, (1 << min(m, 18)) - 1], np.uint64)
    low = np.uint64((1 << table.shift) - 1)
    largest = int(np.diff(table.starts).argmax())
    edge_keys = np.concatenate((edge_keys, tops << np.uint64(table.shift),
                                tops << np.uint64(table.shift) | low))
    words = np.concatenate((
        rng.choice(covered, size=600),
        rng.integers(0, 1 << m, size=600, dtype=np.uint64),
        covered[-3:], _unmix(edge_keys, m), _unmix(table.keys[-3:], m),
        _unmix(table.keys[table.starts[largest]:table.starts[largest + 1]], m),
    ))
    rng.shuffle(words)
    # one X-sector and one Z-sector word per packed syndrome, so an even count
    words = np.concatenate((words, np.zeros(len(words) % 2, np.uint64)))
    x_part, z_part = words[: len(words) // 2], words[len(words) // 2:]
    cases = [(x_part, z_part), (x_part[:0], z_part[:0])]
    miss = words[~np.isin(words, covered)][:1]
    assert len(miss) == 1  # every table here leaves syndromes uncovered
    one_miss = np.concatenate((covered[:5], miss))
    cases.append((one_miss, np.resize(covered, len(one_miss))))
    for x, z in cases:
        syndromes = _pack(x, z, m)
        ref_x, ref_z, ref_count = _reference_decode(code, weight, syndromes)
        before = table.fallback_decodes
        got_x, got_z = decode_sector_masks(table, syndromes)
        assert got_x.tobytes() == ref_x.tobytes() and got_z.tobytes() == ref_z.tobytes()
        assert table.fallback_decodes - before == ref_count
    assert ref_count == 1
