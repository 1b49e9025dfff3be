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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stabilizer import PauliOperator, StabilizerCode

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


class CompiledSchedule:
    """Flattened location/effect tables for one measurement schedule.

    ``sector`` selects which circuits the schedule contains: "all" for a
    full round, "x"/"z" for the two stages of CSS two-stage mode. Reported
    syndromes pack the measured circuits' bits from zero upward in
    measurement order; the frame's true syndrome always spans the full
    generator list, and ``base`` is where the reported bits sit in it.
    Rounds on this schedule are sampled at ``noise.p``.
    """

    def __init__(self, code: StabilizerCode, noise: NoiseModel, sector: str = "all"):
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

        # Syndrome contribution of a single-qubit X (resp. Z) deposit.
        self.syn_x = [0] * code.n
        self.syn_z = [0] * code.n
        for gi, g in enumerate(code.generators):
            for q in range(code.n):
                if (g.z_bits >> q) & 1:
                    self.syn_x[q] |= 1 << gi
                if (g.x_bits >> q) & 1:
                    self.syn_z[q] |= 1 << gi

        # Per-location effect tables: loc_effects[flat_id][choice] is
        # (flip, dep_x, dep_z, syn_delta). Uniform choice over each table
        # row realizes the p/3, p/15, p/3, p location distributions.
        self.loc_circuit: list[int] = []
        self.loc_kind: list[tuple[str, int]] = []
        self.loc_effects: list[tuple] = []
        for ci, circ in enumerate(self.circuits):
            for kind, j in circ.locations:
                q = circ.support[j]
                letter = circ.letters[j]
                if kind == CAT_PREP:
                    choices = tuple(
                        self._effect(flip="Z" in val or val == "Y",
                                     deposit=letter if val in ("X", "Y") else None,
                                     qubit=q)
                        for val in ("X", "Y", "Z")
                    )
                elif kind == TWO_QUBIT:
                    choices = tuple(
                        self._effect(flip=a in ("Y", "Z"),
                                     deposit=d if d != "I" else None,
                                     qubit=q)
                        for d, a in TWO_QUBIT_FAULTS
                    )
                elif kind == ONE_QUBIT:
                    choices = tuple(
                        self._effect(flip=val in ("X", "Y"), deposit=None, qubit=q)
                        for val in ("X", "Y", "Z")
                    )
                else:
                    choices = (self._effect(flip=True, deposit=None, qubit=q),)
                self.loc_circuit.append(ci)
                self.loc_kind.append((kind, j))
                self.loc_effects.append(choices)
        self.n_locations = len(self.loc_effects)
        # A schedule measures a contiguous generator range, which makes
        # projecting the true syndrome onto reported bits a shift + mask.
        self.base = self.gen_bit[0] if self.gen_bit else 0
        if self.gen_bit != list(range(self.base, self.base + self.n_circuits)):
            raise ValueError(f"the {sector!r} generators must be a contiguous range")
        self.local_mask = (1 << self.n_circuits) - 1

    def _effect(self, flip: bool, deposit: str | None, qubit: int):
        dep_x = dep_z = syn_delta = 0
        if deposit is not None:
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
        frame = FrameState(pauli.x_bits, pauli.z_bits)
        frame.syndrome = self.syndrome_of_frame(frame)
        return frame

    def syndrome_of_frame(self, frame: FrameState) -> int:
        syn = 0
        for q in range(self.code.n):
            if (frame.x >> q) & 1:
                syn ^= self.syn_x[q]
            if (frame.z >> q) & 1:
                syn ^= self.syn_z[q]
        return syn

    def reported_bits(self, full_syndrome: int) -> int:
        """Project a full true syndrome onto this schedule's measured bits."""
        return (full_syndrome >> self.base) & self.local_mask


def compile_schedule(
    code: StabilizerCode, noise: NoiseModel, sector: str = "all"
) -> CompiledSchedule:
    return CompiledSchedule(code, noise, sector)


def _apply_faults(compiled: CompiledSchedule, frame: FrameState, fired) -> int:
    """Run one round with the given (flat_id, choice_index) faults.

    ``fired`` must be sorted by flat id, which equals circuit order. The
    reported bit of each circuit is its true-syndrome bit before that
    circuit's own deposits, xored with that circuit's flip faults.
    """
    x, z, tsyn = frame.x, frame.z, frame.syndrome
    loc_circuit = compiled.loc_circuit
    loc_effects = compiled.loc_effects
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
            fl, dx, dz, sd = loc_effects[flat][choice]
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
        n_choices = len(compiled.loc_effects[flat])
        choice = int(rng.integers(n_choices)) if n_choices > 1 else 0
        fired.append((flat, choice))
    return _apply_faults(compiled, frame, fired)


# ---------------------------------------------------------------------------
# Batched rounds: many shots per numpy operation


_FAULTS_PER_DRAW = 1 << 18


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


class FaultEffects:
    """One schedule's faults as four-word XOR effects, for batched rounds.

    Row ``first_row[location_id] + choice`` of ``words`` holds, for the
    fault value with that choice index, the change to the reported
    syndrome, the X and Z deposits on the data, and the change to the true
    syndrome. A deposit in circuit c is seen by the circuits after c only,
    so the reported-syndrome word is ``(proj(syn_delta) & later[c]) ^
    (flip << c)``. No word depends on the round's other faults, so a
    round's faults fold into each shot by XOR in any order, and the result
    equals :func:`_apply_faults` on the same faults. A noisy round on a
    batch of shots is :meth:`draw`, then :meth:`fold`, per :meth:`slices`.
    """

    def __init__(self, compiled: CompiledSchedule):
        code = compiled.code
        if code.n > 64 or code.r > 64:
            raise ValueError("batched rounds need n, r <= 64")
        rows = []
        first_row = []
        for flat, choices in enumerate(compiled.loc_effects):
            c = compiled.loc_circuit[flat]
            later = compiled.local_mask & ~((2 << c) - 1)
            first_row.append(len(rows))
            for flip, dep_x, dep_z, syn_delta in choices:
                report = (compiled.reported_bits(syn_delta) & later) ^ (flip << c)
                rows.append((report, dep_x, dep_z, syn_delta))
        self.words = np.array(rows, dtype=np.uint64).reshape(-1, 4)
        self.first_row = np.array(first_row, dtype=np.int64)
        self.n_choices = np.array([len(e) for e in compiled.loc_effects], dtype=np.float64)
        self.n_locations = compiled.n_locations
        self.base = np.uint64(compiled.base)
        self.mask = np.uint64(compiled.local_mask)

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
        pos = np.cumsum(rng.geometric(p, block)) - 1
        while pos[-1] < cells:
            pos = np.concatenate((pos, pos[-1] + np.cumsum(rng.geometric(p, block))))
        pos = pos[: np.searchsorted(pos, cells)]
        shot, loc = np.divmod(pos, self.n_locations)
        choice = (rng.random(len(pos)) * self.n_choices[loc]).astype(np.int64)
        return shot, self.first_row[loc] + choice

    def fold(self, frames: FrameBatch, active: np.ndarray, shot: np.ndarray,
             row: np.ndarray) -> np.ndarray:
        """Run one round on the shots ``active``; return their reported syndromes.

        Fault i (effect row ``row[i]``) lands on shot ``active[shot[i]]``;
        ``shot`` must be sorted. The frames are updated in place.
        """
        report = (frames.syndrome[active] >> self.base) & self.mask
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


def _choice_index(compiled: CompiledSchedule, location_id: int, value) -> int:
    kind, _ = compiled.loc_kind[location_id]
    try:
        if kind == CAT_PREP or kind == ONE_QUBIT:
            return ("X", "Y", "Z").index(value)
        if kind == TWO_QUBIT:
            return TWO_QUBIT_FAULTS.index(tuple(value))
        if value == "flip":
            return 0
        raise ValueError
    except ValueError:
        raise ValueError(
            f"fault value {value!r} is not legal for a {kind} location"
        ) from None


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
        fired.append((location_id, _choice_index(compiled, location_id, value)))
    fired.sort()
    return _apply_faults(compiled, frame, fired)


def legal_values(compiled: CompiledSchedule, location_id: int):
    """Every legal fault value at a location, in the sampler's choice order."""
    kind, _ = compiled.loc_kind[location_id]
    if kind in (CAT_PREP, ONE_QUBIT):
        return ("X", "Y", "Z")
    if kind == TWO_QUBIT:
        return TWO_QUBIT_FAULTS
    return ("flip",)
