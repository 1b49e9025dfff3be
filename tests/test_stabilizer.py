import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftecsim.stabilizer import (
    PauliOperator,
    StabilizerCode,
    _gf2_pivots,
    commutes,
    logical_class,
    multiply,
    syndrome_of,
    syndrome_to_string,
)


def P(s):
    return PauliOperator.from_string(s)


def test_commutes_single_qubit():
    assert not commutes(P("X"), P("Z"))
    assert commutes(P("X"), P("X"))
    assert commutes(P("XX"), P("ZZ"))  # two anticommuting positions cancel


def test_multiply_examples():
    assert multiply(P("X"), P("X")) == P("I")
    assert multiply(P("X"), P("Z")) == P("Y")
    assert multiply(P("XI"), P("IZ")) == P("XZ")


def test_weight_and_strings():
    assert P("IIII").weight() == 0
    assert P("IXYZ").weight() == 3
    assert P("IXYZ").to_string() == "IXYZ"
    with pytest.raises(ValueError):
        PauliOperator.from_string("IXQ")
    with pytest.raises(ValueError, match="qubit count must be nonnegative, got -1"):
        PauliOperator(-1)
    for x, z in ((0b100, 0), (0, 0b100)):
        with pytest.raises(ValueError, match="support outside the qubit range"):
            PauliOperator(2, x, z)
    with pytest.raises(ValueError, match="qubit 2 out of range for n=2"):
        PauliOperator.single(2, 2, "X")
    with pytest.raises(ValueError, match=r"use identity\(\) for the trivial operator"):
        PauliOperator.single(2, 0, "I")


def test_size_mismatch_rejected(code3):
    with pytest.raises(ValueError):
        commutes(P("X"), P("XX"))
    with pytest.raises(ValueError):
        multiply(P("X"), P("XX"))
    with pytest.raises(ValueError, match="error acts on 2 qubits, code has 7"):
        syndrome_of(code3, P("XX"))


def _string_anticommutes(a: str, b: str) -> bool:
    # independent oracle: count positions with distinct non-identity letters
    odd = 0
    for x, y in zip(a, b):
        if x != "I" and y != "I" and x != y:
            odd ^= 1
    return bool(odd)


def test_syndrome_matches_string_oracle(code3):
    gens = [g.to_string() for g in code3.generators]
    for q in range(code3.n):
        for kind in "XYZ":
            e = PauliOperator.single(code3.n, q, kind)
            es = e.to_string()
            expected = 0
            for i, g in enumerate(gens):
                expected |= int(_string_anticommutes(g, es)) << i
            assert syndrome_of(code3, e) == expected


def test_syndrome_trivial_cases(code3):
    assert syndrome_of(code3, PauliOperator.identity(code3.n)) == 0
    for g in code3.generators:
        assert syndrome_of(code3, g) == 0


def test_syndrome_string_rendering():
    assert syndrome_to_string(0b101, 4) == "1010"


def _gf2_in_group(rows, n, target):
    # Gaussian elimination membership oracle over packed (x << n) | z rows
    basis = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    v = target
    for b in basis:
        v = min(v, v ^ b)
    return v == 0


def test_logical_class_exhaustive_d3(code3):
    """Every zero-syndrome Pauli on the d=3 code is trivial iff it is in
    the group generated by the six generators."""
    n = code3.n
    rows = [(g.x_bits << n) | g.z_bits for g in code3.generators]
    letters = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
    count_zero = 0
    for x in range(1 << n):
        for z in range(1 << n):
            p = PauliOperator(n, x, z)
            if syndrome_of(code3, p) != 0:
                continue
            count_zero += 1
            in_group = _gf2_in_group(rows, n, (x << n) | z)
            assert (logical_class(code3, p) == "trivial") == in_group
    assert count_zero == 4 * (1 << len(code3.generators))  # stabilizer + 3 logical cosets


def test_logical_class_rejects_nonzero_syndrome(code3):
    with pytest.raises(ValueError):
        logical_class(code3, PauliOperator.single(code3.n, 0, "X"))


def test_logical_class_examples(code3):
    assert logical_class(code3, PauliOperator.identity(code3.n)) == "trivial"
    assert logical_class(code3, code3.generators[0]) == "trivial"
    assert logical_class(code3, code3.logical_x[0]) == "logical"


paulis = st.integers(0, (1 << 14) - 1)


@given(paulis, paulis)
@settings(max_examples=200)
def test_multiply_commutative_and_involutive(a, b):
    n = 7
    pa = PauliOperator(n, a & 0x7F, (a >> 7) & 0x7F)
    pb = PauliOperator(n, b & 0x7F, (b >> 7) & 0x7F)
    assert multiply(pa, pb) == multiply(pb, pa)
    assert multiply(pa, pa) == PauliOperator.identity(n)


@given(paulis, paulis, paulis)
@settings(max_examples=200)
def test_multiply_associative(a, b, c):
    n = 7
    ops = [PauliOperator(n, v & 0x7F, (v >> 7) & 0x7F) for v in (a, b, c)]
    assert multiply(multiply(ops[0], ops[1]), ops[2]) == multiply(
        ops[0], multiply(ops[1], ops[2])
    )


@given(paulis, paulis)
@settings(max_examples=200)
def test_syndrome_linearity(code3, a, b):
    n = code3.n
    pa = PauliOperator(n, a & 0x7F, (a >> 7) & 0x7F)
    pb = PauliOperator(n, b & 0x7F, (b >> 7) & 0x7F)
    assert syndrome_of(code3, multiply(pa, pb)) == syndrome_of(code3, pa) ^ syndrome_of(
        code3, pb
    )


def test_code_validation_catches_broken_inputs():
    x1 = PauliOperator.from_string("XI")
    z1 = PauliOperator.from_string("ZI")
    x2 = PauliOperator.from_string("IX")
    z2 = PauliOperator.from_string("IZ")
    # anticommuting "generators"
    with pytest.raises(ValueError):
        StabilizerCode(2, 0, (x1, z1), (), ())
    # dependent generators
    with pytest.raises(ValueError):
        StabilizerCode(2, 0, (x1, x1), (), ())
    # broken logical pairing: both representatives commute with the
    # generator but also with each other
    with pytest.raises(ValueError):
        StabilizerCode(2, 1, (multiply(x1, x2),), (x1,), (x1,))
    with pytest.raises(ValueError, match="expected 2 generators for n=2, k=0, got 1"):
        StabilizerCode(2, 0, (x1,), (), ())
    with pytest.raises(ValueError, match="need exactly k logical X and k logical Z"):
        StabilizerCode(2, 1, (x1,), (x2,), ())
    with pytest.raises(ValueError, match="operator size does not match the code"):
        StabilizerCode(2, 1, (x1,), (P("X"),), (z2,))
    # the logical Z anticommutes with the generator
    with pytest.raises(ValueError, match="logical operators must commute with all generators"):
        StabilizerCode(2, 1, (x1,), (x2,), (multiply(z1, z2),))


def test_css_sector_validation(code3):
    gens = code3.generators
    with pytest.raises(ValueError):
        StabilizerCode(
            code3.n, 1, gens, code3.logical_x, code3.logical_z,
            css=True, x_sector=(0, 1, 2, 3), z_sector=(4, 5),
        )
    for x_sector, z_sector, message in (
            ((0, 1), (3, 4, 5), "CSS sectors must partition the generator indices"),
            ((0, 1, 2, 3), (3, 4, 5), "CSS sectors overlap"),
            ((0, 1), (2, 3, 4, 5), "generator 2 in the Z sector is not Z-only")):
        with pytest.raises(ValueError, match=message):
            StabilizerCode(code3.n, 1, gens, code3.logical_x, code3.logical_z,
                           css=True, x_sector=x_sector, z_sector=z_sector)


def test_gf2_pivots_rank_and_reduced_form():
    """On random row sets (fixed seed, up to 10 rows of up to 12 bits) the
    pivot count is the rank, read off the brute-force span, and each
    pivot's selected rows XOR to a row holding its column and no other
    pivot's column: the property the decoder's fallback solve reads."""
    rng = random.Random(20)
    for _ in range(300):
        bits = rng.randint(1, 12)
        rows = [rng.getrandbits(bits) for _ in range(rng.randint(0, 10))]
        span = {0}
        for row in rows:
            span |= {v ^ row for v in span}
        pivots = _gf2_pivots(rows)
        assert 1 << len(pivots) == len(span), rows
        for col, sel in pivots:
            combo = 0
            for i, row in enumerate(rows):
                if (sel >> i) & 1:
                    combo ^= row
            for other, _ in pivots:
                assert (combo >> other) & 1 == (other == col), (rows, col, other)
