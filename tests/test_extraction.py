import dataclasses
import itertools

import numpy as np
import pytest

from ftecsim.extraction import (
    CAT_PREP,
    MEASUREMENT,
    ONE_QUBIT,
    TWO_QUBIT,
    FrameBatch,
    FrameState,
    NoiseModel,
    _apply_faults,
    _gaps,
    build_round_schedule,
    compile_schedule,
    inject_round,
    sample_round,
)
from ftecsim.colorcode import build_hex_color_code
from ftecsim.stabilizer import PauliOperator, StabilizerCode, syndrome_of

NOISELESS = NoiseModel(0.0)


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))


def toy_code():
    return StabilizerCode(
        n=2, k=1,
        generators=(PauliOperator.from_string("ZZ"),),
        logical_x=(PauliOperator.from_string("XX"),),
        logical_z=(PauliOperator.from_string("ZI"),),
    )


def repetition_code(n):
    """The n-qubit bit-flip code: n - 1 generators Z_i Z_(i+1)."""
    return StabilizerCode(
        n=n, k=1,
        generators=tuple(PauliOperator(n, 0, 3 << i) for i in range(n - 1)),
        logical_x=(PauliOperator(n, (1 << n) - 1, 0),),
        logical_z=(PauliOperator(n, 0, 1),),
    )


def test_schedule_shapes(code3):
    sched = build_round_schedule(code3)
    assert len(sched) == 6
    assert all(len(c.locations) == 4 * c.w for c in sched)
    assert sched[0].w == 4 and len(sched[0].locations) == 16
    # two-qubit gates touch each support qubit exactly once
    for c in sched:
        assert sorted(c.support) == sorted(set(c.support))


def test_schedule_toy_and_empty():
    sched = build_round_schedule(toy_code())
    assert len(sched) == 1 and len(sched[0].locations) == 8
    empty = StabilizerCode(
        n=1, k=1, generators=(),
        logical_x=(PauliOperator.from_string("X"),),
        logical_z=(PauliOperator.from_string("Z"),),
    )
    assert build_round_schedule(empty) == []


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(-0.1)
    with pytest.raises(ValueError):
        NoiseModel(1.5)
    for p in (True, "0.1", None):
        with pytest.raises(ValueError, match="physical error rate must be a real number"):
            NoiseModel(p)


def test_noiseless_soundness_exhaustive(code3, compiled3):
    rng = _rng()
    for w in (0, 1, 2):
        for support in itertools.combinations(range(7), w):
            for letters in itertools.product("XYZ", repeat=w):
                e = PauliOperator.identity(7)
                for q, L in zip(support, letters):
                    e = e * PauliOperator.single(7, q, L)
                frame = compiled3.new_frame(e)
                syn = sample_round(compiled3, frame, rng)
                assert syn == syndrome_of(code3, e)
                assert (frame.x, frame.z) == (e.x_bits, e.z_bits)


def test_measurement_flip_is_type_one(code3, compiled3):
    sched = build_round_schedule(code3)
    offset = 0
    for ci, circ in enumerate(sched):
        meas0 = offset + 3 * circ.w
        frame = compiled3.new_frame()
        syn = inject_round(compiled3, frame, [(meas0, "flip")])
        assert syn == 1 << ci
        assert frame.weight() == 0
        offset += 4 * circ.w


def test_cat_fault_deposits_generator_letter(code3, compiled3):
    # cat-prep X on cat qubit j lands the controlled letter on its data
    # partner and leaves the reported parity alone
    sched = build_round_schedule(code3)
    circ = sched[0]  # X-type plaquette
    frame = compiled3.new_frame()
    syn = inject_round(compiled3, frame, [(0, "X")])  # cat qubit 0 of circuit 0
    assert frame.weight() == 1
    q = circ.support[0]
    assert frame.x == (1 << q) and frame.z == 0
    # the deposit is invisible to its own circuit but every later circuit
    # in the round sees it, so the reported syndrome is exactly the final
    # frame's syndrome (only Z-sector bits fire for an X deposit)
    assert (syn >> 0) & 1 == 0
    assert syn == syndrome_of(code3, PauliOperator(7, 1 << q, 0))
    assert syn != 0


def test_two_qubit_data_side_weight(code3, compiled3):
    sched = build_round_schedule(code3)
    lid = sched[0].w  # first two-qubit gate of circuit 0
    frame = compiled3.new_frame()
    inject_round(compiled3, frame, [(lid, ("X", "I"))])
    assert frame.weight() == 1


def test_no_fault_equals_noiseless(code3, compiled3):
    frame = compiled3.new_frame(PauliOperator.single(7, 3, "Y"))
    syn = inject_round(compiled3, frame, [])
    assert syn == syndrome_of(code3, PauliOperator.single(7, 3, "Y"))


@pytest.mark.parametrize("d", [3, 5])
def test_single_fault_weight_bound(d):
    from ftecsim.colorcode import build_hex_color_code

    code = build_hex_color_code(d)
    compiled = compile_schedule(code, NOISELESS)
    for lid, values in enumerate(compiled.values):
        for value in values:
            frame = compiled.new_frame()
            inject_round(compiled, frame, [(lid, value)])
            assert frame.weight() <= 1
            # the incrementally tracked syndrome against stabilizer's parity
            assert frame.syndrome == syndrome_of(code, frame.to_pauli(code.n))


def test_fault_type_catalog(code3, compiled3):
    """Single faults over a 3-round noiseless history only produce the
    type I / II / III difference patterns."""
    rng = _rng(1)
    allowed = {1: {"00", "10"}, 2: {"00", "01", "10", "11"}, 3: {"00", "01"}}
    for fault_round in (1, 2, 3):
        for lid, values in enumerate(compiled3.values):
            for value in values:
                frame = compiled3.new_frame()
                syns = []
                for r in (1, 2, 3):
                    faults = [(lid, value)] if r == fault_round else []
                    syns.append(inject_round(compiled3, frame, faults))
                delta = "".join(
                    "0" if syns[i + 1] == syns[i] else "1" for i in range(2)
                )
                assert delta in allowed[fault_round]


def test_sampling_determinism(code3, compiled3):
    compiled = compile_schedule(code3, NoiseModel(0.05))
    runs = []
    for _ in range(2):
        rng = _rng(42)
        frame = compiled.new_frame()
        runs.append([sample_round(compiled, frame, rng) for _ in range(50)])
    assert runs[0] == runs[1]


def test_illegal_injections_rejected(compiled3):
    with pytest.raises(ValueError):
        inject_round(compiled3, compiled3.new_frame(), [(0, "flip")])  # cat loc
    with pytest.raises(ValueError):
        inject_round(compiled3, compiled3.new_frame(), [(10_000, "X")])
    with pytest.raises(ValueError):
        inject_round(compiled3, compiled3.new_frame(), [(4, ("I", "I"))])
    # a two-qubit value that is no pair, a float id and a bool id
    two_qubit = compiled3.loc_kind.index((TWO_QUBIT, 0))
    for lid, value in ((two_qubit, 3), (1.5, "X"), (True, "X")):
        with pytest.raises(ValueError):
            inject_round(compiled3, compiled3.new_frame(), [(lid, value)])
    first = {kind: compiled3.loc_kind.index((kind, 0)) for kind in (CAT_PREP, ONE_QUBIT,
                                                                    MEASUREMENT)}
    for kind, value in ((MEASUREMENT, "X"), (CAT_PREP, ("X", "Z")), (ONE_QUBIT, "flip")):
        with pytest.raises(ValueError, match=f"not legal for a {kind} location"):
            inject_round(compiled3, compiled3.new_frame(), [(first[kind], value)])
    # a two-qubit value is read as a letter pair
    frame = compiled3.new_frame()
    inject_round(compiled3, frame, [(two_qubit, "XI")])
    assert frame.weight() == 1


def test_sector_schedules(code5):
    cs_x = compile_schedule(code5, NOISELESS, "x")
    cs_z = compile_schedule(code5, NOISELESS, "z")
    assert cs_x.n_circuits == cs_z.n_circuits == 9
    frame = cs_z.new_frame(PauliOperator.single(19, 0, "X"))
    syn_z = sample_round(cs_z, frame, _rng())
    # X errors are seen by the Z sector only, reported in stage-local bits
    full = syndrome_of(code5, PauliOperator.single(19, 0, "X"))
    assert syn_z == full >> 9
    assert sample_round(cs_x, frame, _rng()) == 0
    with pytest.raises(ValueError, match="unknown sector 'y'"):
        compile_schedule(code5, NOISELESS, "y")
    with pytest.raises(ValueError, match="sector schedules need a CSS code"):
        compile_schedule(dataclasses.replace(code5, css=False), NOISELESS, "x")
    refusal = r"needs n <= 64 and r \+ 2 <= 64"
    with pytest.raises(ValueError, match=refusal):
        compile_schedule(build_hex_color_code(11), NOISELESS)  # n = 91
    # a frame word holds r syndrome bits and two logical parities
    with pytest.raises(ValueError, match=refusal):
        compile_schedule(repetition_code(64), NOISELESS)  # r = 63
    assert compile_schedule(repetition_code(63), NOISELESS).n_circuits == 62


def test_sector_schedule_needs_contiguous_generators(interleaved3):
    for sector in ("x", "z"):
        with pytest.raises(ValueError, match="contiguous"):
            compile_schedule(interleaved3, NOISELESS, sector)
    assert compile_schedule(interleaved3, NOISELESS, "all").n_circuits == 6


def _frame_word(code, frame):
    """A reference frame's batched word, bit by bit from its x, z and
    syndrome: the true syndrome in bits 0..r-1, the parity of x against
    logical Z in bit r, that of z against logical X in bit r + 1, and
    nothing above."""
    x_odd = (frame.x & code.logical_z[0].z_bits).bit_count() & 1
    z_odd = (frame.z & code.logical_x[0].x_bits).bit_count() & 1
    return frame.syndrome | x_odd << code.r | z_odd << (code.r + 1)


def _random_frames(compiled, rng, shots):
    """Reference frames and the same frames as a batch, from random Paulis."""
    n = compiled.code.n
    refs = []
    batch = FrameBatch(shots)
    for i in range(shots):
        x, z = (int(v) for v in rng.integers(0, 1 << n, size=2))
        frame = compiled.new_frame(PauliOperator(n, x, z))
        refs.append(frame)
        batch.word[i] = _frame_word(compiled.code, frame)
    return refs, batch


def _fold_matches_inject_round(compiled, rng, fault_rows):
    """Fold ``fault_rows[j]`` (table rows) into the j-th active shot through
    CompiledSchedule.fold, and the same (location, value) faults into the
    reference frames through inject_round (which runs _apply_faults); the
    reports must agree, and each batched frame word must hold its reference
    frame's syndrome and logical parities, bit by bit."""
    shots = len(fault_rows)
    refs, batch = _random_frames(compiled, rng, shots + 100)
    active = rng.permutation(shots + 100)[:shots]
    expected = []
    for i, rows in zip(active, fault_rows):
        locs = np.searchsorted(compiled.first_row, rows, side="right") - 1
        faults = [(int(lid), compiled.values[lid][row - compiled.first_row[lid]])
                  for lid, row in zip(locs, rows)]
        expected.append(inject_round(compiled, refs[i], faults))
    shot = np.repeat(np.arange(shots), [len(rows) for rows in fault_rows])
    row = np.array([r for rows in fault_rows for r in rows], np.int64)
    assert compiled.fold(batch, active, shot, row).tolist() == expected
    for i, ref in enumerate(refs):
        assert int(batch.word[i]) == _frame_word(compiled.code, ref)


@pytest.mark.parametrize("d", [3, 5, 7, 9])
@pytest.mark.parametrize("sector", ["all", "x", "z"])
def test_scalar_round_ignores_fault_order(d, sector):
    """_apply_faults and inject_round give one report and one frame for a
    fault set in any order: sorted by location, reversed and shuffled, on
    random starting frames, with a location sometimes failing twice."""
    compiled = compile_schedule(build_hex_color_code(d), NOISELESS, sector)
    rng = _rng(100 + d)
    refs, _ = _random_frames(compiled, rng, 200)
    for ref in refs:
        lids = rng.integers(compiled.n_locations, size=int(rng.integers(2, 9)))
        fired = [(int(lid), int(rng.integers(len(compiled.values[lid])))) for lid in lids]
        faults = [(lid, compiled.values[lid][choice]) for lid, choice in fired]
        in_order = np.argsort(lids, kind="stable")
        outcomes = set()
        for order in (in_order, in_order[::-1], rng.permutation(len(lids))):
            for run, items in ((_apply_faults, fired), (inject_round, faults)):
                frame = FrameState(ref.x, ref.z, ref.syndrome)
                report = run(compiled, frame, [items[i] for i in order])
                outcomes.add((report, frame.x, frame.z, frame.syndrome))
        assert len(outcomes) == 1, (d, sector, fired)


@pytest.mark.parametrize("d", [3, 5, 7, 9])
@pytest.mark.parametrize("sector", ["all", "x", "z"])
def test_batched_fold_matches_apply_faults(d, sector):
    """The batched words and the scalar effects of every table row give the
    same reports and frames: first random fault sets, then each row alone,
    then the edges of fold's per-shot segments."""
    compiled = compile_schedule(build_hex_color_code(d), NOISELESS, sector)
    n_rows = len(compiled.effects)
    assert compiled.words.shape == (n_rows, 2)
    assert n_rows == compiled.first_row[-1] + len(compiled.values[-1])
    rng = _rng(d)
    fault_rows = []
    for _ in range(300):
        lids = rng.integers(compiled.n_locations, size=int(rng.integers(0, 7)))
        fault_rows.append([int(compiled.first_row[lid] + rng.integers(len(compiled.values[lid])))
                           for lid in lids])
    _fold_matches_inject_round(compiled, rng, fault_rows)
    # one fault per shot, every row exactly once
    _fold_matches_inject_round(compiled, rng, [[int(r)] for r in rng.permutation(n_rows)])
    rows = [int(r) for r in rng.permutation(n_rows)[:9]]
    for fault_rows in (
        [[], [], [rows[0]], [], []],  # one fault in the whole batch
        [[rows[0]]],
        [[], rows, []],  # every fault on one shot
        [rows],
        [[], [], [], rows[:4]],  # faults only on the last active shot
        [rows[:3], [rows[3]], [], rows[4:]],  # a repeated shot at both ends
    ):
        _fold_matches_inject_round(compiled, rng, fault_rows)


@pytest.mark.parametrize("d", [3, 5])
def test_fold_and_draw_leave_tables_untouched(d):
    """``fold`` runs its prefix XOR in place on a gathered copy of the fault
    words, never on the table: after folds of every row, of long per-shot
    runs and of many drawn rounds, the schedule's ``words``, ``effects``,
    ``first_row`` and ``n_choices`` equal those of a freshly compiled one."""
    code = build_hex_color_code(d)
    compiled, fresh = compile_schedule(code, NOISELESS), compile_schedule(code, NOISELESS)
    rng = _rng(40 + d)
    n_rows = len(compiled.effects)
    batch, active = FrameBatch(64), np.arange(64)
    folds = [
        (np.sort(rng.integers(64, size=n_rows)), rng.permutation(n_rows)),  # every row
        (np.repeat(np.arange(4), 500), rng.integers(n_rows, size=2000)),  # long runs
    ]
    folds += [compiled.draw(p, 64, rng) for p in (1e-3, 1e-2, 0.1, 0.5, 1.0) for _ in range(20)]
    for shot, row in folds:
        compiled.fold(batch, active, shot, row)
    assert compiled.words.tobytes() == fresh.words.tobytes()
    assert compiled.effects == fresh.effects
    assert compiled.first_row.tobytes() == fresh.first_row.tobytes()
    assert compiled.n_choices.tobytes() == fresh.n_choices.tobytes()


def test_batched_round_noise_extremes(code5):
    compiled = compile_schedule(code5, NOISELESS)
    rng = _rng(3)
    refs, batch = _random_frames(compiled, rng, 50)
    active = np.arange(50)
    # p = 0: one slice holds every active shot
    assert [len(part) for part in compiled.slices(0.0, len(active))] == [50]
    assert compiled.slices(0.0, 0) == []
    # p = 1: a chunk goes in slices of at most 2^18 expected faults
    parts = compiled.slices(1.0, 4096)
    assert len(parts) > 1 and np.array_equal(np.concatenate(parts), np.arange(4096))
    assert max(len(part) for part in parts) * compiled.n_locations <= 1 << 18
    # p = 0, and p so small that the geometric gaps saturate int64: no
    # fault is drawn, so the report is noiseless and the frames untouched
    for p in (0.0, 1e-20, 1e-300):
        shot, row = compiled.draw(p, 50, rng)
        assert len(shot) == len(row) == 0
        report = compiled.fold(batch, active, shot, row)
        assert report.tolist() == [compiled.reported_bits(f.syndrome) for f in refs]
        assert batch.word.tolist() == [_frame_word(code5, f) for f in refs]
    # p = 1: every location fails exactly once in every shot
    shot, row = compiled.draw(1.0, 50, rng)
    loc = np.searchsorted(compiled.first_row, row, side="right") - 1
    assert np.array_equal(shot, np.repeat(np.arange(50), compiled.n_locations))
    assert np.array_equal(loc, np.tile(np.arange(compiled.n_locations), 50))
    # 0 < p < 1: the failing fraction of the grid is p
    shot, _ = compiled.draw(0.25, 2000, rng)
    assert abs(len(shot) / (2000 * compiled.n_locations) - 0.25) < 0.005


class _UnitGaps:
    """A generator whose geometric gaps are all 1, so every cell fails:
    from ``geometric`` and, below p = 1/3, from the smallest positive
    exponentials, whose inversion rounds up to 1. ``random`` delegates to a
    seeded ``Generator``. Counts its gap draws."""

    def __init__(self, seed):
        self.rng = _rng(seed)
        self.gap_calls = 0

    def geometric(self, p, size):
        self.gap_calls += 1
        return np.ones(size, np.int64)

    def standard_exponential(self, size):
        self.gap_calls += 1
        return np.full(size, np.finfo(np.float64).tiny)

    def random(self, size):
        return self.rng.random(size)


def test_draw_refills_gaps_past_first_block(compiled3):
    """At d=3, 3 shots and p = 0.01 the grid has 288 cells and the first
    block of gaps covers 29 of them, so when every cell fails ``draw`` refills
    nine times: ten gap draws, and every cell of the grid once, in order."""
    n = compiled3.n_locations
    assert 3 * n == 288
    gen = _UnitGaps(5)
    shot, row = compiled3.draw(0.01, 3, gen)
    assert gen.gap_calls == 10
    assert np.array_equal(shot, np.repeat(np.arange(3), n))
    loc = np.tile(np.arange(n), 3)
    first = compiled3.first_row[loc]
    assert ((first <= row) & (row < first + compiled3.n_choices[loc])).all()


def _geometric_draw(compiled, p, shots, rng):
    """``CompiledSchedule.draw`` with its gaps from ``rng.geometric``, as it
    was drawn before the exponential form: the reference of the draw."""
    cells = shots * compiled.n_locations
    mean = cells * p
    block = int(mean + 6.0 * mean ** 0.5) + 16
    pos = np.cumsum(np.minimum(rng.geometric(p, block), cells + 1)) - 1
    while pos[-1] < cells:
        gaps = np.minimum(rng.geometric(p, block), cells + 1)
        pos = np.concatenate((pos, pos[-1] + np.cumsum(gaps)))
    pos = pos[: np.searchsorted(pos, cells)]
    shot, loc = np.divmod(pos, compiled.n_locations)
    choice = (rng.random(len(pos)) * compiled.n_choices[loc]).astype(np.int64)
    return shot, compiled.first_row[loc] + choice


@pytest.mark.parametrize("p", [1e-300, 1e-20, 1e-6, 1e-3, 1e-2, 0.2,
                               np.nextafter(1 / 3, 0), 1 / 3, 0.5, 1.0])
def test_draw_matches_geometric_draw(compiled3, p):
    """``draw`` gives the faults the ``rng.geometric`` draw gives, from the
    same stream, and leaves the stream where that draw leaves it: below
    p = 1/3 through numpy's own exponential inversion, from 1/3 on through
    ``rng.geometric`` itself. The gaps are compared alone first, since
    wrong ones can keep ``draw`` from ending; numpy saturates at int64."""
    for shots in (1, 64, 4096):
        for seed in range(3):
            rng, ref = _rng(seed), _rng(seed)
            gaps = np.minimum(_gaps(p, 1000, rng), 2.0 ** 63)
            assert np.array_equal(gaps, ref.geometric(p, 1000).astype(np.float64)), seed
            shot, row = compiled3.draw(p, shots, rng)
            want_shot, want_row = _geometric_draw(compiled3, p, shots, ref)
            assert shot.dtype == row.dtype == np.int64
            assert np.array_equal(shot, want_shot) and np.array_equal(row, want_row), (shots, seed)
            assert rng.random() == ref.random(), (shots, seed)
