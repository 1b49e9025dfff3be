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
produces partially detectable, type-I style faults. So a round is one
pass over its circuits in measurement order, taking its faults in any
order.

Locations are numbered consecutively through the round: circuit 0's 4w
locations first (cat preparations, two-qubit gates, Hadamards,
measurements, w of each in that order), then circuit 1's, and so on.
These flat ids are stable and used by the fault-injection harness.
``CompiledSchedule`` numbers every (location, fault value) pair as one
row of its fault table, which the scalar and the batched rounds share.

The scalar round keeps a whole frame (``FrameState``); a batched round
keeps one uint64 word per shot (``FrameBatch``), so each table row folds
as two XOR words, one on the reported syndrome and one on the frame
word, and its failing cells are numpy's geometric gaps (``_gaps``).
"""

from __future__ import annotations

import math
import numbers
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


def _is_a(value, kind) -> bool:
    """``value`` is a ``kind`` of number (numpy's included) but not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_rate(p: float) -> None:
    """Reject a physical error rate that is no real number in [0, 1], NaN included."""
    if not _is_a(p, numbers.Real):
        raise ValueError(f"physical error rate must be a real number, got {p!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"physical error rate {p} outside [0, 1]")


@dataclass(frozen=True)
class NoiseModel:
    """The physical error rate p of every location."""

    p: float

    def __post_init__(self):
        _check_rate(self.p)


@dataclass(frozen=True)
class ShorCircuit:
    """One generator measurement: support order fixes the gate order."""

    w: int
    support: tuple[int, ...]
    letters: tuple[str, ...]
    locations: tuple[tuple[str, int], ...]


def build_round_schedule(code: StabilizerCode) -> list[ShorCircuit]:
    """One Shor circuit per generator, in the code's generator order."""
    schedule = []
    for g in code.generators:
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
        schedule.append(ShorCircuit(w, tuple(support), tuple(letters), locations))
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

    Word i holds what a verdict reads of shot i's frame, all of it linear
    in the faults: the true syndrome in bits 0..r-1, the parity of the X
    part against logical Z (``x & code.logical_z[0].z_bits``) in bit r and
    that of the Z part against logical X in bit r + 1 (:func:`frame_words`).
    It needs r + 2 <= 64, which holds for every supported distance.
    """

    __slots__ = ("word",)

    def __init__(self, shots: int):
        self.word = np.zeros(shots, np.uint64)


def frame_words(code: StabilizerCode, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The :class:`FrameBatch` words of the Paulis with the uint64 X masks
    ``x`` and Z masks ``z``: one parity per generator, then the two
    logical parities."""
    checks = [(g.x_bits, g.z_bits) for g in code.generators]
    checks += [(0, code.logical_z[0].z_bits), (code.logical_x[0].x_bits, 0)]
    cx, cz = np.array(checks, np.uint64).T
    odd = np.bitwise_count(x[:, None] & cz ^ z[:, None] & cx) & np.uint8(1)
    return np.bitwise_or.reduce(odd.astype(np.uint64) << np.arange(len(checks), dtype=np.uint64),
                                axis=1)


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
    (:func:`_apply_faults`), and ``words[row]`` is the same fault as two
    uint64 XOR words for batched rounds (:meth:`fold`), one on the
    reported syndrome and one on the :class:`FrameBatch` word.
    ``deposits[row]`` is its (X deposit, Z deposit) as uint64 words, for a
    batched caller that keeps whole frames.
    """

    def __init__(self, code: StabilizerCode, noise: NoiseModel, sector: str = "all"):
        if code.n > 64 or code.r + 2 > 64:
            raise ValueError("a compiled schedule needs n <= 64 and r + 2 <= 64: "
                             "its fault and frame words are uint64")
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
        # A schedule measures a contiguous generator range, which makes
        # projecting the true syndrome onto reported bits a shift + mask.
        self.base = gen_ids[0] if gen_ids else 0
        if gen_ids != list(range(self.base, self.base + self.n_circuits)):
            raise ValueError(f"the {sector!r} generators must be a contiguous range")
        self.local_mask = (1 << self.n_circuits) - 1

        # Syndrome contribution of a single-qubit X (resp. Z) deposit.
        qubits = range(code.n)
        self.syn_x = [syndrome_of(code, PauliOperator.single(code.n, q, "X")) for q in qubits]
        self.syn_z = [syndrome_of(code, PauliOperator.single(code.n, q, "Z")) for q in qubits]

        self.loc_circuit: list[int] = []
        self.loc_kind: list[tuple[str, int]] = []
        self.values: list[tuple] = []
        self.effects: list[tuple[int, int, int, int]] = []
        first_row, loc_qubit = [], []
        for ci, circ in enumerate(self.circuits):
            for kind, j in circ.locations:
                self.loc_circuit.append(ci)
                self.loc_kind.append((kind, j))
                self.values.append(_VALUES[kind])
                first_row.append(len(self.effects))
                loc_qubit.append(circ.support[j])
                for value in _VALUES[kind]:
                    flip, deposit = _flip_and_deposit(kind, value, circ.letters[j])
                    self.effects.append(self._effect(flip, deposit, circ.support[j]))
        self.n_locations = len(self.values)
        self.first_row = np.array(first_row, dtype=np.int64)
        self.n_choices = np.array([len(v) for v in self.values], dtype=np.float64)

        # A deposit in circuit c is seen by the circuits after c only, so a
        # row's reported-syndrome word is (proj(syn_delta) & later[c]) ^
        # (flip << c); its frame word is that of its deposit, an X and/or a
        # Z on the location's qubit. No word depends on the round's other
        # faults, so a round's faults fold into each shot by XOR in any order.
        flip, dep_x, dep_z, syn = np.array(self.effects, np.uint64).reshape(-1, 4).T
        per_row = self.n_choices.astype(np.int64)
        c = np.repeat(np.array(self.loc_circuit, np.uint64), per_row)
        later = np.uint64(self.local_mask) & ~((np.uint64(2) << c) - np.uint64(1))
        report = ((syn >> np.uint64(self.base)) & later) ^ (flip << c)
        unit = np.uint64(1) << np.arange(code.n, dtype=np.uint64)
        none = np.zeros(code.n, np.uint64)
        q = np.repeat(loc_qubit, per_row)
        frame = (np.where(dep_x != 0, frame_words(code, unit, none)[q], 0)
                 ^ np.where(dep_z != 0, frame_words(code, none, unit)[q], 0))
        self.words = np.stack((report, frame), axis=1)
        self.deposits = np.stack((dep_x, dep_z), axis=1)

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
        found by geometric gaps (:func:`_gaps`), in increasing order, so
        ``shot`` is sorted. Each failure then takes a uniform fault value.
        """
        cells = shots * self.n_locations
        if p <= 0.0 or cells == 0:
            empty = np.zeros(0, np.int64)
            return empty, empty
        mean = cells * p
        block = int(mean + 6.0 * mean ** 0.5) + 16
        gaps = _gaps(p, block, rng)
        gaps[0] -= 1.0  # cells count from 0
        pos = np.cumsum(gaps)
        while pos[-1] < cells:
            pos = np.concatenate((pos, pos[-1] + np.cumsum(_gaps(p, block, rng))))
        pos = pos[: np.searchsorted(pos, cells)].astype(np.int64)
        shot, loc = np.divmod(pos, self.n_locations)
        choice = (rng.random(len(pos)) * self.n_choices[loc]).astype(np.int64)
        return shot, self.first_row[loc] + choice

    def fold(self, frames: FrameBatch, active: np.ndarray, shot: np.ndarray,
             row: np.ndarray) -> np.ndarray:
        """Run one round on the shots ``active``; return their reported syndromes.

        Fault i (table row ``row[i]``) lands on shot ``active[shot[i]]``;
        ``shot`` must be sorted. The faults' words are XORed into one running
        prefix; a shot's faults fold to the prefix at its last fault XOR the
        prefix at the previous shot's last fault. The frames are updated in
        place, and the result equals :func:`_apply_faults` on the same faults.
        """
        report = (frames.word[active] >> np.uint64(self.base)) & np.uint64(self.local_mask)
        if len(shot):
            prefix = np.take(self.words, row, axis=0)  # a copy: the table stays as it is
            np.bitwise_xor.accumulate(prefix, axis=0, out=prefix)
            # each shot's last fault
            ends = np.append(np.flatnonzero(shot[1:] != shot[:-1]), len(shot) - 1)
            folded = np.take(prefix, ends, axis=0)
            folded[1:] ^= np.take(prefix, ends[:-1], axis=0)
            hit = shot[ends]
            report[hit] ^= folded[:, 0]
            frames.word[active[hit]] ^= folded[:, 1]
        return report

    def slices(self, p: float, shots: int) -> list[range]:
        """Positions 0..``shots``-1 of a round's running shots cut into
        slices of about ``_FAULTS_PER_DRAW`` expected faults, to draw one at
        a time; this bounds the size of a round's arrays at high p."""
        step = max(1, int(_FAULTS_PER_DRAW / max(p * self.n_locations, 1.0)))
        return [range(k, min(k + step, shots)) for k in range(0, shots, step)]


def _gaps(p: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` geometric gaps at rate 0 < p <= 1 as float64: the numbers
    ``rng.geometric(p, size)`` gives, from the same draws. Below p = 1/3
    numpy inverts one standard exponential per gap, ``ceil(-E /
    log1p(-p))``, done here in place (a gap past int64, which numpy
    saturates, stays a float past any grid); from 1/3 on it searches, so
    ``geometric`` is called (its split is at the double nearest 1/3).
    """
    if p >= 1 / 3:
        return rng.geometric(p, size).astype(np.float64)
    gaps = rng.standard_exponential(size)
    gaps /= -math.log1p(-p)  # math's log1p is the C library's, as numpy's is
    return np.ceil(gaps, out=gaps)


def compile_schedule(
    code: StabilizerCode, noise: NoiseModel, sector: str = "all"
) -> CompiledSchedule:
    return CompiledSchedule(code, noise, sector)


def _apply_faults(compiled: CompiledSchedule, frame: FrameState, fired) -> int:
    """Run one round with the given (flat_id, choice_index) faults, in any
    order, reading each fault's ``effects`` row.

    In one pass over the circuits in measurement order, circuit c reports
    the true-syndrome bit ``base + c`` before its own deposits, XORed with
    its flip faults; then its faults' X/Z deposits and syndrome changes are
    applied, so only the circuits after c see them.
    """
    by_circuit = [[] for _ in range(compiled.n_circuits)]
    for flat, choice in fired:
        by_circuit[compiled.loc_circuit[flat]].append(
            compiled.effects[compiled.first_row[flat] + choice])
    x, z, tsyn = frame.x, frame.z, frame.syndrome
    report = 0
    for c, effects in enumerate(by_circuit):
        bit = (tsyn >> (compiled.base + c)) & 1
        for flip, dep_x, dep_z, syn_delta in effects:
            bit, x, z, tsyn = bit ^ flip, x ^ dep_x, z ^ dep_z, tsyn ^ syn_delta
        report |= bit << c
    frame.x, frame.z, frame.syndrome = x, z, tsyn
    return report


def sample_round(
    compiled: CompiledSchedule, frame: FrameState, rng: np.random.Generator
) -> int:
    """Sample one noisy round at the schedule's ``noise.p``; mutates the
    frame, returns the syndrome.

    Locations fail independently with probability p, so the number of
    failures is binomial and the failing set is uniform; the failing
    locations draw their values in location order. With zero failures
    the round reports the frame's exact syndrome.
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
        if not (_is_a(location_id, numbers.Integral) and 0 <= location_id < compiled.n_locations):
            raise ValueError(f"location id {location_id!r} is not an integer in range")
        kind, _ = compiled.loc_kind[location_id]
        try:
            choice = compiled.values[location_id].index(
                tuple(value) if kind == TWO_QUBIT else value)
        except (TypeError, ValueError):  # TypeError: a two-qubit value that is no pair
            raise ValueError(f"fault value {value!r} is not legal for a {kind} location") from None
        fired.append((location_id, choice))
    return _apply_faults(compiled, frame, fired)
