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
    NoiseModel,
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
    first = {kind: compiled3.loc_kind.index((kind, 0)) for kind in (CAT_PREP, ONE_QUBIT,
                                                                    MEASUREMENT)}
    for kind, value in ((MEASUREMENT, "X"), (CAT_PREP, ("X", "Z")), (ONE_QUBIT, "flip")):
        with pytest.raises(ValueError, match=f"not legal for a {kind} location"):
            inject_round(compiled3, compiled3.new_frame(), [(first[kind], value)])
    # a two-qubit value is read as a letter pair
    frame = compiled3.new_frame()
    inject_round(compiled3, frame, [(compiled3.loc_kind.index((TWO_QUBIT, 0)), "XI")])
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


def test_sector_schedule_needs_contiguous_generators(code3):
    # X and Z generators interleaved: the X sector is not one bit range
    gens = code3.generators
    interleaved = dataclasses.replace(
        code3, generators=tuple(gens[i] for pair in zip((0, 1, 2), (3, 4, 5)) for i in pair),
        x_sector=(0, 2, 4), z_sector=(1, 3, 5))
    for sector in ("x", "z"):
        with pytest.raises(ValueError, match="contiguous"):
            compile_schedule(interleaved, NOISELESS, sector)
    assert compile_schedule(interleaved, NOISELESS, "all").n_circuits == 6


def _random_frames(compiled, rng, shots):
    """Reference frames and the same frames as a batch, from random Paulis."""
    n = compiled.code.n
    refs = []
    batch = FrameBatch(shots)
    for i in range(shots):
        x, z = (int(v) for v in rng.integers(0, 1 << n, size=2))
        frame = compiled.new_frame(PauliOperator(n, x, z))
        refs.append(frame)
        batch.x[i], batch.z[i], batch.syndrome[i] = frame.x, frame.z, frame.syndrome
    return refs, batch


def _fold_matches_inject_round(compiled, rng, fault_rows):
    """Fold ``fault_rows[j]`` (table rows) into the j-th active shot through
    CompiledSchedule.fold, and the same (location, value) faults into the
    reference frames through inject_round (which runs _apply_faults); the
    reports and frames must agree."""
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
        assert (int(batch.x[i]), int(batch.z[i]), int(batch.syndrome[i])) == (
            ref.x, ref.z, ref.syndrome)


@pytest.mark.parametrize("d", [3, 5, 7, 9])
@pytest.mark.parametrize("sector", ["all", "x", "z"])
def test_batched_fold_matches_apply_faults(d, sector):
    """The batched words and the scalar effects of every table row give the
    same reports and frames: first random fault sets, then each row alone."""
    compiled = compile_schedule(build_hex_color_code(d), NOISELESS, sector)
    n_rows = len(compiled.effects)
    assert compiled.words.shape == (n_rows, 4)
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


def test_batched_round_noise_extremes(code5):
    compiled = compile_schedule(code5, NOISELESS)
    rng = _rng(3)
    refs, batch = _random_frames(compiled, rng, 50)
    active = np.arange(50)
    # p = 0: one slice holds every active shot
    assert [len(part) for part in compiled.slices(0.0, active)] == [50]
    # p = 1: a chunk goes in slices of at most 2^18 expected faults
    parts = compiled.slices(1.0, np.arange(4096))
    assert len(parts) > 1 and np.array_equal(np.concatenate(parts), np.arange(4096))
    assert max(len(part) for part in parts) * compiled.n_locations <= 1 << 18
    # p = 0, and p so small that the geometric gaps saturate int64: no
    # fault is drawn, so the report is noiseless and the frames untouched
    for p in (0.0, 1e-20, 1e-300):
        shot, row = compiled.draw(p, 50, rng)
        assert len(shot) == len(row) == 0
        report = compiled.fold(batch, active, shot, row)
        assert report.tolist() == [compiled.reported_bits(f.syndrome) for f in refs]
        assert batch.syndrome.tolist() == [f.syndrome for f in refs]
    # p = 1: every location fails exactly once in every shot
    shot, row = compiled.draw(1.0, 50, rng)
    loc = np.searchsorted(compiled.first_row, row, side="right") - 1
    assert np.array_equal(shot, np.repeat(np.arange(50), compiled.n_locations))
    assert np.array_equal(loc, np.tile(np.arange(compiled.n_locations), 50))
    # 0 < p < 1: the failing fraction of the grid is p
    shot, _ = compiled.draw(0.25, 2000, rng)
    assert abs(len(shot) / (2000 * compiled.n_locations) - 0.25) < 0.005
