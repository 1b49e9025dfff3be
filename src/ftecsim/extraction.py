"""Shor syndrome-extraction circuits under circuit-level depolarizing noise.

Each stabilizer generator of weight w is measured with a w-qubit cat-state
ancilla, one controlled-Pauli per support qubit, a transversal Hadamard,
and w single-qubit Z measurements whose parity is the reported bit. The
noise model follows the standard circuit-level depolarizing convention:

1. every one-qubit gate (the Hadamards) is followed by X/Y/Z, p/3 each;
2. every two-qubit gate is followed by one of the 15 nontrivial two-qubit
   Paulis, p/15 each;
3. cat states are prepared ideally and then each cat qubit suffers
   one-qubit depolarizing noise with rate p (no verification circuit);
4. every classical measurement outcome flips with probability p;
5. there is no idling noise.

The sampler tracks the Pauli frame, not state vectors. Propagation
reduces to two rules. A fault component that acts as X on a cat qubit
pushes the generator's Pauli letter onto that qubit's data partner and
never flips the reported bit; a component acting as Z on a cat qubit
(including the Z part of Y) flips the reported bit and never touches
data. Errors deposited on data qubits during a generator's own circuit
are invisible to that generator's outcome (its controlled gate has
already acted) but are seen by every later circuit, which is what
produces partially detectable, type-I style faults.

Locations are numbered consecutively through the round: circuit 0's 4w
locations first (cat preparations, two-qubit gates, Hadamards,
measurements, w of each in that order), then circuit 1's, and so on.
These flat ids are stable and used by the fault-injection harness.
``CompiledSchedule`` numbers every (location, fault value) pair as one
row of its fault table, which the scalar and the batched rounds share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stabilizer import PauliOperator, StabilizerCode, syndrome_of

CAT_PREP = "cat_qubit_prep"
TWO_QUBIT = "two_qubit_gate"
ONE_QUBIT = "one_qubit_gate"
MEASUREMENT = "ancilla_measurement"

_LETTERS = ("I", "X", "Y", "Z")
# Two-qubit fault values as (data, ancilla) pairs, identity-pair excluded.
TWO_QUBIT_FAULTS = tuple(
    (d, a) for d in _LETTERS for a in _LETTERS if (d, a) != ("I", "I")
)


@dataclass(frozen=True)
class NoiseModel:
    """The physical error rate p of every location."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"error rate must be in [0, 1], got {self.p}")


@dataclass(frozen=True)
class ShorCircuit:
    """One generator measurement: support order fixes the gate order."""

    generator_index: int
    w: int
    support: tuple[int, ...]
    letters: tuple[str, ...]
    locations: tuple[tuple[str, int], ...]


def build_round_schedule(code: StabilizerCode) -> list[ShorCircuit]:
    """One Shor circuit per generator, in the code's generator order."""
    schedule = []
    for gi, g in enumerate(code.generators):
        support = []
        letters = []
        for q in range(code.n):
            xb = (g.x_bits >> q) & 1
            zb = (g.z_bits >> q) & 1
            if xb or zb:
                support.append(q)
                letters.append("Y" if xb and zb else ("X" if xb else "Z"))
        w = len(support)
        locations = tuple(
            (kind, j)
            for kind in (CAT_PREP, TWO_QUBIT, ONE_QUBIT, MEASUREMENT)
            for j in range(w)
        )
        schedule.append(
            ShorCircuit(gi, w, tuple(support), tuple(letters), locations)
        )
    return schedule


class FrameState:
    """Accumulated data error plus its syndrome, kept in sync incrementally.

    ``x``/``z`` are the packed bit masks of the Pauli frame on the data
    block; ``syndrome`` is the packed true syndrome over all generators of
    the compiled code. Shots own their frame exclusively; all cross-shot
    state (schedules, tables) is immutable.
    """

    __slots__ = ("x", "z", "syndrome")

    def __init__(self, x: int = 0, z: int = 0, syndrome: int = 0):
        self.x = x
        self.z = z
        self.syndrome = syndrome

    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def to_pauli(self, n: int) -> PauliOperator:
        return PauliOperator(n, self.x, self.z)


class FrameBatch:
    """The Pauli frames of a batch of shots, one uint64 word per shot.

    The array form of :class:`FrameState`; it needs n <= 64 data qubits
    and r <= 64 generators, which holds for every supported distance.
    """

    __slots__ = ("x", "z", "syndrome")

    def __init__(self, shots: int):
        self.x = np.zeros(shots, np.uint64)
        self.z = np.zeros(shots, np.uint64)
        self.syndrome = np.zeros(shots, np.uint64)


# Faults drawn per batched slice of a round (see CompiledSchedule.slices).
_FAULTS_PER_DRAW = 1 << 18

# Each location kind's fault values, in the sampler's choice order; a
# uniform choice over them realizes the p/3, p/15, p/3 and p distributions.
_VALUES = {
    CAT_PREP: ("X", "Y", "Z"),
    TWO_QUBIT: TWO_QUBIT_FAULTS,
    ONE_QUBIT: ("X", "Y", "Z"),
    MEASUREMENT: ("flip",),
}


def _flip_and_deposit(kind: str, value, letter: str) -> tuple[bool, str]:
    """Whether a fault value flips its circuit's reported bit, and the Pauli
    it leaves on the data partner ("I" for none); ``letter`` is the
    generator's letter on that qubit."""
    if kind == CAT_PREP:
        return value in ("Y", "Z"), letter if value in ("X", "Y") else "I"
    if kind == TWO_QUBIT:
        data, ancilla = value
        return ancilla in ("Y", "Z"), data
    return kind == MEASUREMENT or value in ("X", "Y"), "I"


class CompiledSchedule:
    """One measurement schedule and its fault table.

    ``sector`` selects which circuits the schedule contains: "all" for a
    full round, "x"/"z" for the two stages of CSS two-stage mode. Reported
    syndromes pack the measured circuits' bits from zero upward in
    measurement order; the frame's true syndrome always spans the full
    generator list, and ``base`` is where the reported bits sit in it.
    Rounds on this schedule are sampled at ``noise.p``.

    Location ``lid`` has the fault values ``values[lid]`` and owns table
    rows ``first_row[lid] + choice``, one per value in that order. Row
    ``row`` holds the fault twice: ``effects[row]`` is (flip, X deposit, Z
    deposit, true-syndrome change) for the scalar round
    (:func:`_apply_faults`), and ``words[row]`` is the same fault as four
    uint64 XOR words for batched rounds (:meth:`fold`).
    """

    def __init__(self, code: StabilizerCode, noise: NoiseModel, sector: str = "all"):
        if code.n > 64 or code.r > 64:
            raise ValueError("a compiled schedule needs n, r <= 64: its fault words are uint64")
        self.code = code
        self.noise = noise
        if sector == "all":
            gen_ids = list(range(code.r))
        elif sector in ("x", "z"):
            if not code.css:
                raise ValueError("sector schedules need a CSS code")
            gen_ids = list(code.x_sector if sector == "x" else code.z_sector)
        else:
            raise ValueError(f"unknown sector {sector!r}")
        full = build_round_schedule(code)
        self.circuits = [full[g] for g in gen_ids]
        self.n_circuits = len(self.circuits)
        self.gen_bit = [c.generator_index for c in self.circuits]
        # A schedule measures a contiguous generator range, which makes
        # projecting the true syndrome onto reported bits a shift + mask.
        self.base = self.gen_bit[0] if self.gen_bit else 0
        if self.gen_bit != list(range(self.base, self.base + self.n_circuits)):
            raise ValueError(f"the {sector!r} generators must be a contiguous range")
        self.local_mask = (1 << self.n_circuits) - 1

        # Syndrome contribution of a single-qubit X (resp. Z) deposit.
        self.syn_x = [0] * code.n
        self.syn_z = [0] * code.n
        for gi, g in enumerate(code.generators):
            for q in range(code.n):
                if (g.z_bits >> q) & 1:
                    self.syn_x[q] |= 1 << gi
                if (g.x_bits >> q) & 1:
                    self.syn_z[q] |= 1 << gi

        self.loc_circuit: list[int] = []
        self.loc_kind: list[tuple[str, int]] = []
        self.values: list[tuple] = []
        self.effects: list[tuple[int, int, int, int]] = []
        first_row = []
        for ci, circ in enumerate(self.circuits):
            for kind, j in circ.locations:
                self.loc_circuit.append(ci)
                self.loc_kind.append((kind, j))
                self.values.append(_VALUES[kind])
                first_row.append(len(self.effects))
                for value in _VALUES[kind]:
                    flip, deposit = _flip_and_deposit(kind, value, circ.letters[j])
                    self.effects.append(self._effect(flip, deposit, circ.support[j]))
        self.n_locations = len(self.values)
        self.first_row = np.array(first_row, dtype=np.int64)
        self.n_choices = np.array([len(v) for v in self.values], dtype=np.float64)

        # A deposit in circuit c is seen by the circuits after c only, so a
        # row's reported-syndrome word is (proj(syn_delta) & later[c]) ^
        # (flip << c). No word depends on the round's other faults, so a
        # round's faults fold into each shot by XOR in any order.
        flip, dep_x, dep_z, syn = np.array(self.effects, np.uint64).reshape(-1, 4).T
        c = np.repeat(np.array(self.loc_circuit, np.uint64), self.n_choices.astype(np.int64))
        later = np.uint64(self.local_mask) & ~((np.uint64(2) << c) - np.uint64(1))
        report = ((syn >> np.uint64(self.base)) & later) ^ (flip << c)
        self.words = np.stack((report, dep_x, dep_z, syn), axis=1)

    def _effect(self, flip: bool, deposit: str, qubit: int):
        dep_x = dep_z = syn_delta = 0
        if deposit in ("X", "Y"):
            dep_x = 1 << qubit
            syn_delta ^= self.syn_x[qubit]
        if deposit in ("Z", "Y"):
            dep_z = 1 << qubit
            syn_delta ^= self.syn_z[qubit]
        return (1 if flip else 0, dep_x, dep_z, syn_delta)

    # -- frame helpers ----------------------------------------------------

    def new_frame(self, pauli: PauliOperator | None = None) -> FrameState:
        if pauli is None:
            return FrameState()
        return FrameState(pauli.x_bits, pauli.z_bits, syndrome_of(self.code, pauli))

    def reported_bits(self, full_syndrome: int) -> int:
        """Project a full true syndrome onto this schedule's measured bits."""
        return (full_syndrome >> self.base) & self.local_mask

    # -- batched rounds ---------------------------------------------------

    def draw(self, p: float, shots: int, rng: np.random.Generator):
        """(shot, row) of the faults of one round over ``shots`` shots.

        Every location of every shot fails independently with
        probability p: the failing cells of the shots x locations grid are
        found by geometric gaps, in increasing order, so ``shot`` is
        sorted. Each failure then takes a uniform fault value.
        """
        cells = shots * self.n_locations
        if p <= 0.0 or cells == 0:
            empty = np.zeros(0, np.int64)
            return empty, empty
        mean = cells * p
        block = int(mean + 6.0 * mean ** 0.5) + 16
        # a gap of cells + 1 already ends the grid; clipping keeps the sums in int64
        pos = np.cumsum(np.minimum(rng.geometric(p, block), cells + 1)) - 1
        while pos[-1] < cells:
            gaps = np.minimum(rng.geometric(p, block), cells + 1)
            pos = np.concatenate((pos, pos[-1] + np.cumsum(gaps)))
        pos = pos[: np.searchsorted(pos, cells)]
        shot, loc = np.divmod(pos, self.n_locations)
        choice = (rng.random(len(pos)) * self.n_choices[loc]).astype(np.int64)
        return shot, self.first_row[loc] + choice

    def fold(self, frames: FrameBatch, active: np.ndarray, shot: np.ndarray,
             row: np.ndarray) -> np.ndarray:
        """Run one round on the shots ``active``; return their reported syndromes.

        Fault i (table row ``row[i]``) lands on shot ``active[shot[i]]``;
        ``shot`` must be sorted. The frames are updated in place, and the
        result equals :func:`_apply_faults` on the same faults.
        """
        report = (frames.syndrome[active] >> np.uint64(self.base)) & np.uint64(self.local_mask)
        if len(shot):
            starts = np.flatnonzero(np.diff(shot, prepend=-1))
            folded = np.bitwise_xor.reduceat(np.take(self.words, row, axis=0), starts, axis=0)
            hit = shot[starts]
            report[hit] ^= folded[:, 0]
            hit = active[hit]
            frames.x[hit] ^= folded[:, 1]
            frames.z[hit] ^= folded[:, 2]
            frames.syndrome[hit] ^= folded[:, 3]
        return report

    def slices(self, p: float, active: np.ndarray) -> list[np.ndarray]:
        """``active`` cut into slices of about ``_FAULTS_PER_DRAW`` expected
        faults, to draw and fold one at a time; this bounds the size of a
        round's arrays at high p."""
        step = max(1, int(_FAULTS_PER_DRAW / max(p * self.n_locations, 1.0)))
        return np.split(active, range(step, len(active), step))


def compile_schedule(
    code: StabilizerCode, noise: NoiseModel, sector: str = "all"
) -> CompiledSchedule:
    return CompiledSchedule(code, noise, sector)


def _apply_faults(compiled: CompiledSchedule, frame: FrameState, fired) -> int:
    """Run one round with the given (flat_id, choice_index) faults, reading
    each fault's ``effects`` row.

    ``fired`` must be sorted by flat id, which equals circuit order. The
    reported bit of each circuit is its true-syndrome bit before that
    circuit's own deposits, xored with that circuit's flip faults.
    """
    x, z, tsyn = frame.x, frame.z, frame.syndrome
    loc_circuit = compiled.loc_circuit
    first_row = compiled.first_row
    effects = compiled.effects
    gen_bit = compiled.gen_bit
    report = 0
    prev = 0
    i = 0
    nf = len(fired)
    while i < nf:
        ci = loc_circuit[fired[i][0]]
        # circuits without faults between prev and ci report current bits
        for c in range(prev, ci):
            report |= ((tsyn >> gen_bit[c]) & 1) << c
        bit = (tsyn >> gen_bit[ci]) & 1
        flips = 0
        while i < nf and loc_circuit[fired[i][0]] == ci:
            flat, choice = fired[i]
            fl, dx, dz, sd = effects[first_row[flat] + choice]
            flips ^= fl
            x ^= dx
            z ^= dz
            tsyn ^= sd
            i += 1
        report |= (bit ^ flips) << ci
        prev = ci + 1
    for c in range(prev, compiled.n_circuits):
        report |= ((tsyn >> gen_bit[c]) & 1) << c
    frame.x, frame.z, frame.syndrome = x, z, tsyn
    return report


def sample_round(
    compiled: CompiledSchedule, frame: FrameState, rng: np.random.Generator
) -> int:
    """Sample one noisy round at the schedule's ``noise.p``; mutates the
    frame, returns the syndrome.

    Locations fail independently with probability p, so the number of
    failures is binomial and the failing set is uniform; with zero
    failures the round reports the frame's exact syndrome.
    """
    n, p = compiled.n_locations, compiled.noise.p
    k = int(rng.binomial(n, p)) if (n and p > 0) else 0
    if k == 0:
        return compiled.reported_bits(frame.syndrome)
    idx = range(n) if k == n else sorted(rng.choice(n, size=k, replace=False).tolist())
    fired = []
    for flat in idx:
        n_choices = len(compiled.values[flat])
        choice = int(rng.integers(n_choices)) if n_choices > 1 else 0
        fired.append((flat, choice))
    return _apply_faults(compiled, frame, fired)


def inject_round(
    compiled: CompiledSchedule, frame: FrameState, faults
) -> int:
    """Deterministic round: zero noise plus exactly the given faults.

    ``faults`` is an iterable of (location_id, value); values are "X"/"Y"/
    "Z" for cat and one-qubit locations, a (data, ancilla) letter pair for
    two-qubit gates, and "flip" for measurements.
    """
    fired = []
    for location_id, value in faults:
        if not 0 <= location_id < compiled.n_locations:
            raise ValueError(f"location id {location_id} out of range")
        kind, _ = compiled.loc_kind[location_id]
        try:
            choice = compiled.values[location_id].index(
                tuple(value) if kind == TWO_QUBIT else value)
        except ValueError:
            raise ValueError(
                f"fault value {value!r} is not legal for a {kind} location"
            ) from None
        fired.append((location_id, choice))
    fired.sort()
    return _apply_faults(compiled, frame, fired)
