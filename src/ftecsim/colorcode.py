"""Hexagonal (6.6.6) triangular color codes of odd distance.

The lattice is the standard triangular patch: sites ``(row, col)`` with
``0 <= col <= row <= 3*(d-1)/2`` on a triangular grid. Sites with
``(row + col) % 3 == 1`` are plaquette centers, the rest are qubits. This
is a proper 3-coloring of the triangular grid, so each plaquette's support
is simply its in-range nearest neighbors: six in the bulk, four on the
boundary. The distance-d member has ``(3*d**2 + 1) / 4`` qubits, one
logical qubit, and X/Z plaquette pairs with identical support.

Logical representatives run along the bottom side of the triangle, which
carries exactly ``d`` qubits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .stabilizer import PauliOperator, StabilizerCode, logical_class, syndrome_of

# Neighbor offsets on the triangular grid in (row, col) coordinates.
_NEIGHBOR_OFFSETS = ((0, -1), (0, 1), (-1, -1), (-1, 0), (1, 0), (1, 1))


@dataclass(frozen=True)
class HexLayout:
    """Geometric description of one triangular patch.

    ``vertices`` are qubit coordinates in row-major order; ``plaquettes``
    hold qubit index sets, one entry per plaquette center, also row-major.
    """

    d: int
    vertices: tuple[tuple[int, int], ...]
    plaquettes: tuple[frozenset[int], ...]


def _check_distance_arg(d: int) -> None:
    if d % 2 == 0 or not 3 <= d <= 11:
        raise ValueError(f"supported distances are odd and in [3, 11], got {d}")


def build_hex_layout(d: int) -> HexLayout:
    """Construct the triangular patch for odd distance ``d``."""
    _check_distance_arg(d)
    rmax = 3 * (d - 1) // 2
    qubits: list[tuple[int, int]] = []
    centers: list[tuple[int, int]] = []
    for r in range(rmax + 1):
        for c in range(r + 1):
            if (r + c) % 3 == 1:
                centers.append((r, c))
            else:
                qubits.append((r, c))
    index = {pos: i for i, pos in enumerate(qubits)}
    plaquettes = []
    for (r, c) in centers:
        support = frozenset(
            index[(r + dr, c + dc)]
            for dr, dc in _NEIGHBOR_OFFSETS
            if (r + dr, c + dc) in index
        )
        plaquettes.append(support)

    n = (3 * d * d + 1) // 4
    if len(qubits) != n:
        raise AssertionError(f"layout produced {len(qubits)} qubits, expected {n}")
    if len(plaquettes) != (n - 1) // 2:
        raise AssertionError("layout produced the wrong plaquette count")
    return HexLayout(d, tuple(qubits), tuple(plaquettes))


def build_hex_color_code(d: int) -> StabilizerCode:
    """Hexagonal color code of odd distance ``d`` as a StabilizerCode.

    Generators list the X sector first, then the Z sector, each in
    row-major plaquette order, so the syndrome bit layout is reproducible.
    The d=3 instance has the [[7,1,3]] parameters of the Steane code.
    """
    layout = build_hex_layout(d)
    n = len(layout.vertices)

    def plaquette_op(support: frozenset[int], kind: str) -> PauliOperator:
        mask = 0
        for q in support:
            mask |= 1 << q
        if kind == "X":
            return PauliOperator(n, mask, 0)
        return PauliOperator(n, 0, mask)

    x_gens = [plaquette_op(s, "X") for s in layout.plaquettes]
    z_gens = [plaquette_op(s, "Z") for s in layout.plaquettes]
    rmax = 3 * (d - 1) // 2
    bottom = [i for i, (r, _) in enumerate(layout.vertices) if r == rmax]
    if len(bottom) != d:
        raise AssertionError("bottom boundary does not carry d qubits")
    bottom_mask = 0
    for q in bottom:
        bottom_mask |= 1 << q
    logical_x = PauliOperator(n, bottom_mask, 0)
    logical_z = PauliOperator(n, 0, bottom_mask)

    m = len(layout.plaquettes)
    return StabilizerCode(
        n=n,
        k=1,
        generators=tuple(x_gens + z_gens),
        logical_x=(logical_x,),
        logical_z=(logical_z,),
        css=True,
        x_sector=tuple(range(m)),
        z_sector=tuple(range(m, 2 * m)),
        distance=d,
    )


DISTANCE_SEARCH_MAX_N = 19  # the most qubits verify_distance searches: d = 5


def verify_distance(code: StabilizerCode) -> int:
    """Minimum weight of a zero-syndrome Pauli in a nontrivial logical class.

    Enumerates Paulis in increasing weight, so the first hit is the code
    distance. Refuses codes of more than ``DISTANCE_SEARCH_MAX_N`` qubits
    (d >= 7) rather than silently truncating the search.
    """
    if code.n > DISTANCE_SEARCH_MAX_N:
        raise ValueError(f"exhaustive search bound exceeded: code has n={code.n} "
                         f"> {DISTANCE_SEARCH_MAX_N}")
    letters = ("X", "Y", "Z")
    for w in range(1, code.n + 1):
        for support in itertools.combinations(range(code.n), w):
            for assignment in itertools.product(letters, repeat=w):
                x = z = 0
                for q, kind in zip(support, assignment):
                    if kind != "Z":
                        x |= 1 << q
                    if kind != "X":
                        z |= 1 << q
                p = PauliOperator(code.n, x, z)
                if syndrome_of(code, p) == 0 and logical_class(code, p) == "logical":
                    return w
    raise ValueError("code has no nontrivial logical operator")
