import itertools

import numpy as np
import pytest

from ftecsim import build_hex_color_code
from ftecsim.harness import default_built_to_weight
from ftecsim.recovery import (
    build_table,
    decode,
    decode_sector_masks,
    enumeration_count,
    final_verdict,
    popcount64,
    split_sectors,
)
from ftecsim.stabilizer import PauliOperator, multiply, syndrome_of


def all_paulis_up_to(n, wmax):
    for w in range(wmax + 1):
        for support in itertools.combinations(range(n), w):
            for letters in itertools.product("XYZ", repeat=w):
                p = PauliOperator.identity(n)
                for q, L in zip(support, letters):
                    p = multiply(p, PauliOperator.single(n, q, L))
                yield p


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


def _combinations_table(code, weight):
    """(keys, masks) from the earlier array build: ``itertools.combinations``
    supports, each XORed over its columns, and ``np.unique``'s first index."""
    cols = np.array(_sector_columns(code), np.uint64)
    keys, masks = [np.zeros(1, np.uint64)], [np.zeros(1, np.uint64)]
    for w in range(1, weight + 1):
        flat = itertools.chain.from_iterable(itertools.combinations(range(code.n), w))
        supports = np.fromiter(flat, np.int64).reshape(-1, w)
        keys.append(np.bitwise_xor.reduce(cols[supports], axis=1))
        masks.append(np.bitwise_or.reduce(np.uint64(1) << supports.astype(np.uint64), axis=1))
    keys, first = np.unique(np.concatenate(keys), return_index=True)
    return keys, np.concatenate(masks)[first]


def _check_table(code, weight, loop=True):
    table = build_table(code, weight)
    keys, masks = _combinations_table(code, weight)
    assert table.keys.dtype == table.masks.dtype == np.uint64
    assert table.keys.tobytes() == keys.tobytes()
    assert table.masks.tobytes() == masks.tobytes()
    if loop:
        expected = _loop_table(code, weight)
        assert table.keys.tolist() == sorted(expected)
        assert dict(zip(table.keys.tolist(), table.masks.tolist())) == expected


@pytest.mark.parametrize("d", [3, 5, 7, 9])
def test_table_matches_first_writer_wins_enumeration(d):
    """The build at the default weight against the array build it replaced
    and, below d=9 (where it takes seconds), the plain loop. At d=9 that is
    559,736 supports and 465,741 syndromes."""
    code = build_hex_color_code(d)
    _check_table(code, default_built_to_weight(code, (d - 1) // 2), loop=d < 9)


@pytest.mark.parametrize("d, weight", [(3, 0), (3, 7), (5, 4)])
def test_table_at_edge_weights(d, weight):
    """Weight 0 (the zero syndrome alone), every support of the d=3 code,
    and d=5 one weight past its default."""
    _check_table(build_hex_color_code(d), weight)


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
        _, z_part = split_sectors(code5, syndrome_of(code5, e))
        if z_part not in covered:
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
    cx, cz = decode_sector_masks(table, x_part, z_part)
    assert table.fallback_decodes - before == absent
    assert type(table.fallback_decodes) is int  # the benchmark writes it to JSON
    for x, z, mx, mz in zip(x_part.tolist(), z_part.tolist(), cx.tolist(), cz.tolist()):
        assert split_sectors(code5, syndrome_of(code5, PauliOperator(19, mx, mz))) == (x, z)


def test_popcount64_matches_bit_count():
    """The SWAR popcount against ``int.bit_count`` on random words and the
    edge words 0, all ones and the high bit alone."""
    rng = np.random.default_rng(64)
    words = np.concatenate((
        np.array([0, (1 << 64) - 1, 1 << 63], np.uint64),
        rng.integers(0, 1 << 64, size=2000, dtype=np.uint64),
        # sparse words, with about eight bits set
        np.bitwise_and.reduce(rng.integers(0, 1 << 64, size=(3, 2000), dtype=np.uint64)),
    ))
    counts = popcount64(words)
    assert counts.dtype == np.uint64
    assert counts.tolist() == [w.bit_count() for w in words.tolist()]
    assert counts[:3].tolist() == [0, 64, 1]
