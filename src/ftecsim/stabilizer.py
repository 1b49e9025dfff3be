"""Pauli algebra on packed bit vectors and the stabilizer-code container.

An n-qubit Pauli operator is stored as two little-endian bit masks
``(x_bits, z_bits)``: bit ``q`` of ``x_bits`` set means X acts on qubit
``q``, bit ``q`` of ``z_bits`` means Z acts, and both bits set mean Y.
Global phase is never tracked: syndromes and logical verdicts are
phase-insensitive, and the Monte Carlo sampler only needs the Pauli frame
modulo phase. Inner products reduce to AND + popcount on machine words,
which is what keeps the sampler's inner loop cheap.

One GF(2) row reduction, :func:`_gf2_pivots`, serves the whole package:
the code's independence check reads its rank, and the decoder's fallback
(``recovery.decode_sector_masks``) solves syndromes with a matrix that
``recovery.build_table`` reads off its pivots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

_PAULI_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_PAULI = {bits: name for name, bits in _PAULI_BITS.items()}


@dataclass(frozen=True)
class PauliOperator:
    """Phase-free Pauli operator on ``n`` qubits, packed as two bit masks."""

    n: int
    x_bits: int = 0
    z_bits: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"qubit count must be nonnegative, got {self.n}")
        mask = (1 << self.n) - 1
        if self.x_bits & ~mask or self.z_bits & ~mask:
            raise ValueError("bit vector has support outside the qubit range")

    @classmethod
    def identity(cls, n: int) -> "PauliOperator":
        return cls(n, 0, 0)

    @classmethod
    def from_string(cls, s: str) -> "PauliOperator":
        """Parse the canonical text form, e.g. ``"IXYZ"`` (qubit 0 first)."""
        x = z = 0
        for q, ch in enumerate(s):
            try:
                xb, zb = _PAULI_BITS[ch]
            except KeyError:
                raise ValueError(f"invalid Pauli letter {ch!r} in {s!r}") from None
            x |= xb << q
            z |= zb << q
        return cls(len(s), x, z)

    @classmethod
    def single(cls, n: int, qubit: int, kind: str) -> "PauliOperator":
        """Weight-1 operator ``kind`` in {X, Y, Z} on the given qubit."""
        if not 0 <= qubit < n:
            raise ValueError(f"qubit {qubit} out of range for n={n}")
        xb, zb = _PAULI_BITS[kind]
        if (xb, zb) == (0, 0):
            raise ValueError("use identity() for the trivial operator")
        return cls(n, xb << qubit, zb << qubit)

    def to_string(self) -> str:
        return "".join(
            _BITS_PAULI[(self.x_bits >> q) & 1, (self.z_bits >> q) & 1]
            for q in range(self.n)
        )

    def weight(self) -> int:
        return (self.x_bits | self.z_bits).bit_count()

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        return multiply(self, other)

    def __repr__(self) -> str:
        return f"PauliOperator({self.to_string()!r})"


def _check_same_size(a: PauliOperator, b: PauliOperator) -> None:
    if a.n != b.n:
        raise ValueError(f"qubit count mismatch: {a.n} != {b.n}")


def commutes(a: PauliOperator, b: PauliOperator) -> bool:
    """True iff the symplectic inner product of ``a`` and ``b`` is even."""
    _check_same_size(a, b)
    return ((a.x_bits & b.z_bits).bit_count() + (a.z_bits & b.x_bits).bit_count()) % 2 == 0


def multiply(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Product ``a * b`` with the phase dropped (componentwise XOR)."""
    _check_same_size(a, b)
    return PauliOperator(a.n, a.x_bits ^ b.x_bits, a.z_bits ^ b.z_bits)


def _gf2_pivots(rows: list[int]) -> list[tuple[int, int]]:
    """Reduced row echelon form over GF(2) of packed rows, as ``(col, sel)``
    pairs, one per independent row: the rows whose indices are the set bits
    of ``sel`` XOR to a row with bit ``col`` set and every other pivot's
    column clear. The pair count is the rank."""
    pivots: list[tuple[int, tuple[int, int]]] = []
    for i, row in enumerate(rows):
        mask, sel = row, 1 << i
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
    return [(col, sel) for col, (mask, sel) in pivots]


@dataclass(frozen=True)
class StabilizerCode:
    """An [[n, k, d]] stabilizer code with fixed generator and logical order.

    For CSS codes the generator list holds the X sector first and the Z
    sector second; ``x_sector`` / ``z_sector`` give the index ranges. The
    syndrome bit layout everywhere in this package is bit ``i`` of a packed
    integer = outcome of ``generators[i]``.
    """

    n: int
    k: int
    generators: tuple[PauliOperator, ...]
    logical_x: tuple[PauliOperator, ...]
    logical_z: tuple[PauliOperator, ...]
    css: bool = False
    x_sector: tuple[int, ...] = field(default_factory=tuple)
    z_sector: tuple[int, ...] = field(default_factory=tuple)
    distance: int = 0

    @property
    def r(self) -> int:
        """Number of stabilizer generators (n - k)."""
        return self.n - self.k

    def __post_init__(self):
        if len(self.generators) != self.r:
            raise ValueError(
                f"expected {self.r} generators for n={self.n}, k={self.k}, "
                f"got {len(self.generators)}"
            )
        if len(self.logical_x) != self.k or len(self.logical_z) != self.k:
            raise ValueError("need exactly k logical X and k logical Z operators")
        for p in (*self.generators, *self.logical_x, *self.logical_z):
            if p.n != self.n:
                raise ValueError("operator size does not match the code")
        for i, g in enumerate(self.generators):
            for h in self.generators[i + 1:]:
                if not commutes(g, h):
                    raise ValueError("stabilizer generators must pairwise commute")
        rows = [(g.x_bits << self.n) | g.z_bits for g in self.generators]
        if len(_gf2_pivots(rows)) != self.r:
            raise ValueError("stabilizer generators are not independent")
        for i in range(self.k):
            for g in self.generators:
                if not commutes(self.logical_x[i], g) or not commutes(self.logical_z[i], g):
                    raise ValueError("logical operators must commute with all generators")
            for j in range(self.k):
                want = i != j
                if commutes(self.logical_x[i], self.logical_z[j]) != want:
                    raise ValueError("logical X/Z pairing is broken")
        if self.css:
            if set(self.x_sector) | set(self.z_sector) != set(range(self.r)):
                raise ValueError("CSS sectors must partition the generator indices")
            if set(self.x_sector) & set(self.z_sector):
                raise ValueError("CSS sectors overlap")
            for i in self.x_sector:
                if self.generators[i].z_bits:
                    raise ValueError(f"generator {i} in the X sector is not X-only")
            for i in self.z_sector:
                if self.generators[i].x_bits:
                    raise ValueError(f"generator {i} in the Z sector is not Z-only")


def syndrome_of(code: StabilizerCode, e: PauliOperator) -> int:
    """Packed syndrome of ``e``: bit i set iff ``e`` anticommutes with generator i."""
    if e.n != code.n:
        raise ValueError(f"error acts on {e.n} qubits, code has {code.n}")
    syn = 0
    ex, ez = e.x_bits, e.z_bits
    for i, g in enumerate(code.generators):
        par = ((g.x_bits & ez).bit_count() + (g.z_bits & ex).bit_count()) & 1
        syn |= par << i
    return syn


def syndrome_to_string(syndrome: int, r: int) -> str:
    """Render a packed syndrome as a bit string, generator 0 first."""
    return "".join("1" if (syndrome >> i) & 1 else "0" for i in range(r))


def logical_class(code: StabilizerCode, residual: PauliOperator) -> str:
    """Classify a zero-syndrome residual as ``"trivial"`` or ``"logical"``.

    The caller must have applied ideal error correction first; a nonzero
    syndrome is a contract violation. Given a zero syndrome and a full set
    of logical representatives, the residual is in the stabilizer group
    exactly when it commutes with every logical operator.
    """
    syn = syndrome_of(code, residual)
    if syn:
        raise ValueError(
            f"residual has nonzero syndrome {syndrome_to_string(syn, code.r)}; "
            "apply ideal error correction before classifying"
        )
    for lop in (*code.logical_x, *code.logical_z):
        if not commutes(residual, lop):
            return "logical"
    return "trivial"
