import itertools

import numpy as np
import pytest

from ftecsim.recovery import (
    build_table,
    decode,
    decode_sector_masks,
    enumeration_count,
    final_verdict,
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
    assert len(table.x_corrections) == 8  # 7 single-qubit errors + identity
    assert len(table.z_corrections) == 8
    assert table.x_corrections[0] == 0 and table.z_corrections[0] == 0


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
    covered = set(shallow.x_corrections)
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


def test_array_decode_matches_scalar(code5):
    """decode_sector_masks on uint64 arrays agrees with it on ints, table
    hits and GF(2) fallbacks alike, and counts the same fallbacks."""
    m = len(code5.x_sector)
    rng = np.random.default_rng(11)
    x_part = rng.integers(0, 1 << m, size=500).astype(np.uint64)
    z_part = rng.integers(0, 1 << m, size=500).astype(np.uint64)
    scalar, batched = build_table(code5, 1), build_table(code5, 1)
    expected = [decode_sector_masks(scalar, int(a), int(b)) for a, b in zip(x_part, z_part)]
    cx, cz = decode_sector_masks(batched, x_part, z_part)
    assert list(zip(cx.tolist(), cz.tolist())) == expected
    assert batched.fallback_decodes == scalar.fallback_decodes > 0
