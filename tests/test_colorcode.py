import itertools

import pytest

from ftecsim.colorcode import build_hex_color_code, build_hex_layout, verify_distance
from ftecsim.stabilizer import PauliOperator, StabilizerCode, logical_class, syndrome_of


@pytest.mark.parametrize("d", [3, 5, 7, 9])
def test_code_parameters(d):
    code = build_hex_color_code(d)
    n = (3 * d * d + 1) // 4
    assert code.n == n
    assert code.k == 1
    assert code.distance == d
    assert len(code.generators) == n - 1
    assert len(code.x_sector) == len(code.z_sector) == (n - 1) // 2


@pytest.mark.parametrize("d", [3, 5, 7, 9])
def test_layout_invariants(d):
    layout = build_hex_layout(d)
    assert len(layout.vertices) == (3 * d * d + 1) // 4
    assert len(layout.plaquettes) == (len(layout.vertices) - 1) // 2
    for plq in layout.plaquettes:
        assert len(plq) in (4, 6)
    for a, b in itertools.combinations(layout.plaquettes, 2):
        assert len(a & b) % 2 == 0  # commutation


@pytest.mark.parametrize("d", [3, 5, 7])
def test_xz_plaquette_pairs_share_support(d):
    code = build_hex_color_code(d)
    m = len(code.x_sector)
    for i in range(m):
        xg = code.generators[code.x_sector[i]]
        zg = code.generators[code.z_sector[i]]
        assert xg.x_bits == zg.z_bits


def test_d3_is_steane_sized():
    code = build_hex_color_code(3)
    assert code.n == 7
    assert len(code.x_sector) == len(code.z_sector) == 3
    assert all(code.generators[i].weight() == 4 for i in range(6))


def test_d5_counts():
    code = build_hex_color_code(5)
    assert code.n == 19
    assert len(code.generators) == 18
    weights = sorted(code.generators[i].weight() for i in code.x_sector)
    assert weights == [4, 4, 4, 4, 4, 4, 6, 6, 6]


def test_logical_runs_along_one_side():
    for d in (3, 5, 7, 9):
        code = build_hex_color_code(d)
        assert code.logical_x[0].weight() == d
        assert code.logical_z[0].weight() == d
        assert code.logical_x[0].x_bits == code.logical_z[0].z_bits


def test_distance_d3_brute_force(code3):
    """Exhaustive check over all 4^7 Paulis: no logical lighter than 3."""
    n = code3.n
    best = None
    for x in range(1 << n):
        for z in range(1 << n):
            p = PauliOperator(n, x, z)
            if p.weight() == 0 or syndrome_of(code3, p) != 0:
                continue
            if logical_class(code3, p) == "logical":
                w = p.weight()
                best = w if best is None else min(best, w)
    assert best == 3
    assert verify_distance(code3) == 3


def test_distance_d5(code5):
    assert verify_distance(code5) == 5


def test_verify_distance_degenerate_single_qubit():
    code = StabilizerCode(
        n=1, k=1, generators=(),
        logical_x=(PauliOperator.from_string("X"),),
        logical_z=(PauliOperator.from_string("Z"),),
    )
    assert verify_distance(code) == 1
    stabilized = StabilizerCode(n=1, k=0, generators=(PauliOperator.from_string("Z"),),
                                logical_x=(), logical_z=())
    with pytest.raises(ValueError, match="code has no nontrivial logical operator"):
        verify_distance(stabilized)


def test_verify_distance_refuses_large_codes():
    with pytest.raises(ValueError, match="search bound exceeded: code has n=37 > 19"):
        verify_distance(build_hex_color_code(7))


@pytest.mark.parametrize("d", [2, 4, 1, 13])
def test_rejects_bad_distances(d):
    with pytest.raises(ValueError):
        build_hex_color_code(d)
