"""Minimum-weight recovery for CSS codes and the final logical verdict.

X and Z errors are decoded independently, as the CSS structure allows:
X-type corrections are keyed by the Z-sector syndrome bits and Z-type
corrections by the X-sector bits. Tables enumerate pure-type errors in
increasing weight with first-writer-wins, so every stored entry is a
minimum-weight representative for its syndrome. Syndromes beyond the
enumerated weight fall back to an any-solution GF(2) solve; those only
arise past the fault budget, where no fault-tolerance guarantee applies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .stabilizer import PauliOperator, StabilizerCode, logical_class, multiply, syndrome_of

DEFAULT_BUDGET = 2_000_000


def _sector_columns(code: StabilizerCode, sector: tuple[int, ...]) -> list[int]:
    """Column q = packed sector-local syndrome of a single-qubit opposite-type error."""
    cols = [0] * code.n
    for local, gi in enumerate(sector):
        g = code.generators[gi]
        support = g.x_bits | g.z_bits
        for q in range(code.n):
            if (support >> q) & 1:
                cols[q] |= 1 << local
    return cols


class _Gf2Solver:
    """Any-solution solver for sector syndromes, from reduced row echelon form."""

    def __init__(self, cols: list[int], n: int, m: int):
        # rows of H: generator i has row = set of qubits in its support
        rows = [0] * m
        for q in range(n):
            col = cols[q]
            for i in range(m):
                if (col >> i) & 1:
                    rows[i] |= 1 << q
        pivots: list[tuple[int, int]] = []
        work = [(rows[i], 1 << i) for i in range(m)]
        for idx in range(m):
            mask, sel = work[idx]
            for col, (pmask, psel) in pivots:
                if (mask >> col) & 1:
                    mask ^= pmask
                    sel ^= psel
            if mask == 0:
                continue
            col = mask.bit_length() - 1
            # reduce earlier pivot rows so each pivot column stays unique
            pivots = [
                (c, (pm ^ mask, ps ^ sel)) if (pm >> col) & 1 else (c, (pm, ps))
                for c, (pm, ps) in pivots
            ]
            pivots.append((col, (mask, sel)))
        self.pivots = [(col, sel) for col, (mask, sel) in pivots]
        self.rank = len(self.pivots)
        self.m = m

    def solve(self, syndrome: int) -> int:
        x = 0
        for col, sel in self.pivots:
            if (sel & syndrome).bit_count() & 1:
                x |= 1 << col
        return x

    def solve_array(self, syndromes: np.ndarray) -> np.ndarray:
        """:meth:`solve` on a uint64 array of syndromes."""
        x = np.zeros(len(syndromes), np.uint64)
        for col, sel in self.pivots:
            x |= parity64(syndromes & np.uint64(sel)).astype(np.uint64) << np.uint64(col)
        return x


@dataclass
class SyndromeTable:
    """Per-sector minimum-weight lookup plus the GF(2) fallback solvers."""

    code: StabilizerCode
    built_to_weight: int
    x_corrections: dict[int, int]  # Z-sector syndrome -> X error mask
    z_corrections: dict[int, int]  # X-sector syndrome -> Z error mask
    _x_solver: _Gf2Solver
    _z_solver: _Gf2Solver
    fallback_decodes: int = 0


def enumeration_count(n: int, max_weight: int) -> int:
    total = 0
    for w in range(max_weight + 1):
        c = 1
        for i in range(w):
            c = c * (n - i) // (i + 1)
        total += c
    return total


def build_table(
    code: StabilizerCode, max_weight: int, budget: int = DEFAULT_BUDGET
) -> SyndromeTable:
    """Enumerate pure-type errors by increasing weight, first writer wins."""
    if not code.css:
        raise ValueError("lookup decoding is implemented for CSS codes only")
    required = enumeration_count(code.n, max_weight)
    if required > budget:
        raise ValueError(
            f"table enumeration needs {required} supports per sector, "
            f"budget is {budget}; lower max_weight or raise the budget"
        )
    cols_z = _sector_columns(code, code.z_sector)  # detect X errors
    cols_x = _sector_columns(code, code.x_sector)  # detect Z errors
    x_corrections: dict[int, int] = {0: 0}
    z_corrections: dict[int, int] = {0: 0}
    for w in range(1, max_weight + 1):
        for support in itertools.combinations(range(code.n), w):
            mask = 0
            syn_x_err = 0
            syn_z_err = 0
            for q in support:
                mask |= 1 << q
                syn_x_err ^= cols_z[q]
                syn_z_err ^= cols_x[q]
            if syn_x_err not in x_corrections:
                x_corrections[syn_x_err] = mask
            if syn_z_err not in z_corrections:
                z_corrections[syn_z_err] = mask
    return SyndromeTable(
        code=code,
        built_to_weight=max_weight,
        x_corrections=x_corrections,
        z_corrections=z_corrections,
        _x_solver=_Gf2Solver(cols_z, code.n, len(code.z_sector)),
        _z_solver=_Gf2Solver(cols_x, code.n, len(code.x_sector)),
    )


def split_sectors(code: StabilizerCode, syndrome: int) -> tuple[int, int]:
    """(X-sector bits, Z-sector bits) of a packed full syndrome."""
    x_part = z_part = 0
    for local, gi in enumerate(code.x_sector):
        x_part |= ((syndrome >> gi) & 1) << local
    for local, gi in enumerate(code.z_sector):
        z_part |= ((syndrome >> gi) & 1) << local
    return x_part, z_part


def decode_sector_masks(table: SyndromeTable, x_part, z_part) -> tuple:
    """(x_mask, z_mask) correction for the two sector syndromes.

    The parts are ints, or uint64 arrays decoded elementwise into uint64
    arrays of masks. Syndromes the table does not cover fall back to the
    GF(2) solver and count in ``table.fallback_decodes``.
    """
    if isinstance(x_part, np.ndarray):
        return (
            _lookup_array(table, table.x_corrections, table._x_solver, z_part),
            _lookup_array(table, table.z_corrections, table._z_solver, x_part),
        )
    x_mask = table.x_corrections.get(z_part)
    if x_mask is None:
        table.fallback_decodes += 1
        x_mask = table._x_solver.solve(z_part)
    z_mask = table.z_corrections.get(x_part)
    if z_mask is None:
        table.fallback_decodes += 1
        z_mask = table._z_solver.solve(x_part)
    return x_mask, z_mask


def _lookup_array(table: SyndromeTable, corrections: dict[int, int], solver: _Gf2Solver,
                  syndromes: np.ndarray) -> np.ndarray:
    masks = np.zeros(len(syndromes), np.uint64)
    hit = np.flatnonzero(syndromes)  # the zero syndrome needs no correction
    get = corrections.get
    found = np.array([get(s, -1) for s in syndromes[hit].tolist()], dtype=np.int64)
    masks[hit] = found
    missing = hit[found < 0]
    if len(missing):
        table.fallback_decodes += len(missing)
        masks[missing] = solver.solve_array(syndromes[missing])
    return masks


def parity64(words: np.ndarray) -> np.ndarray:
    """Parity of each uint64 word, as a bool array."""
    for shift in (32, 16, 8, 4, 2, 1):
        words = words ^ (words >> np.uint64(shift))
    return (words & np.uint64(1)).astype(bool)


def decode(table: SyndromeTable, code: StabilizerCode, syndrome: int) -> PauliOperator:
    """A Pauli whose syndrome equals the input, minimum weight when covered."""
    x_part, z_part = split_sectors(code, syndrome)
    x_mask, z_mask = decode_sector_masks(table, x_part, z_part)
    result = PauliOperator(code.n, x_mask, z_mask)
    check = syndrome_of(code, result)
    if check != syndrome:
        raise RuntimeError(
            f"decoder produced syndrome {check:#x} for requested {syndrome:#x}"
        )
    return result


def final_verdict(
    code: StabilizerCode, table: SyndromeTable, frame_after_recovery: PauliOperator
) -> str:
    """Ideal error correction followed by the logical classification."""
    ideal = decode(table, code, syndrome_of(code, frame_after_recovery))
    residual = multiply(frame_after_recovery, ideal)
    if logical_class(code, residual) == "logical":
        return "logical_error"
    return "no_logical_error"
