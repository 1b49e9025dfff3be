import dataclasses
import math

import numpy as np
import pytest

from conftest import run_stream
from ftecsim import harness
from ftecsim.decoders import (
    BUDGET_EXHAUSTED,
    CODE_CONTINUE,
    CONTINUE,
    KINDS,
    PAIR_COUNT,
    REASONS,
    SHOR_CAP,
    SHOR_REPEAT,
    USABLE_RUN,
    WEAK_NO_CORRECTION,
    PolicyConfig,
    policy_table,
)
from ftecsim.diffvec import difference_vector, min_faults
from ftecsim.extraction import FrameBatch, NoiseModel, compile_schedule
from ftecsim.harness import (
    BracketError,
    ExperimentConfig,
    ExperimentStats,
    _run_policy,
    enumerate_single_faults,
    estimate_pseudothreshold,
    run_point,
    run_shot_reference,
    sample_fault_pairs,
    threshold_lower_bound,
    wilson_interval,
)
from ftecsim.recovery import popcount64
from ftecsim.stabilizer import PauliOperator, syndrome_of


class _Replay:
    """Round source for `_run_policy`: replays fixed syndrome streams,
    one row per shot."""

    def __init__(self, streams):
        self.streams = np.array(streams, dtype=np.uint64)

    def __call__(self, active, r):
        return self.streams[active, r - 1]


def _random_stream(rng, length):
    """A syndrome stream that changes each round with a per-stream
    probability, so both long repeat runs and busy vectors occur."""
    change = rng.uniform(0.05, 0.95)
    stream = [int(rng.integers(0, 2))]
    for _ in range(length - 1):
        flip = int(rng.integers(1, 4)) if rng.random() < change else 0
        stream.append(stream[-1] ^ flip)
    return stream


def test_engine_policy_stream_matches_state_machines():
    """The engine's batched policy stepping (one transition table per
    kind) must agree with the pure decision rule on random syndrome
    streams, for every kind and t = 1..4."""
    rng = np.random.default_rng(123)
    seen = {kind: set() for kind in KINDS}
    for kind in KINDS:
        for t in (1, 2, 3, 4):
            table = policy_table(kind, t)
            cap = PolicyConfig(kind, t).max_rounds_cap()
            streams = [_random_stream(rng, cap + 1) for _ in range(300)]
            chosen, chosen_round, rounds, reason, faults = _run_policy(
                table, _Replay(streams), np.full(len(streams), t)
            )
            for i, stream in enumerate(streams):
                decision = run_stream(kind, t, stream)
                assert rounds[i] == decision.rounds_used
                assert REASONS[reason[i]] == decision.stopped_by
                if decision.action == "stop_correct":
                    assert chosen_round[i] == decision.round_index
                    assert chosen[i] == stream[decision.round_index - 1]
                else:
                    assert chosen_round[i] == 0 and chosen[i] == 0
                if kind != "shor":
                    assert faults[i] == min_faults(difference_vector(stream[:rounds[i]]))
            seen[kind] |= {REASONS[code] for code in reason}
    # every stop reason of every kind occurred
    assert seen == {"shor": {SHOR_REPEAT, SHOR_CAP}, "strong": {USABLE_RUN, PAIR_COUNT},
                    "weak": {USABLE_RUN, PAIR_COUNT, WEAK_NO_CORRECTION}}


def test_history_min_faults_matches_diffvec():
    """The min-faults row along every reachable prefix of random
    histories, walking the successors for every budget up to t=4."""
    tables = [policy_table(kind, 4) for kind in ("strong", "weak")]
    rng = np.random.default_rng(5)
    for _ in range(200):
        rounds = int(rng.integers(1, 12))
        stream = rng.integers(0, 3, size=rounds).tolist()
        delta = difference_vector(stream)
        for table in tables:
            for budget in range(1, 5):
                state, prev = table.root[budget], 0
                for length, syn in enumerate(stream):
                    state, (code, _, faults) = table.advance(state, syn != prev)
                    prev = syn
                    assert faults == min_faults(delta[:length])
                    if code != CODE_CONTINUE:
                        break


def test_wilson_interval_reference_values():
    low, high = wilson_interval(0, 100)
    assert low == pytest.approx(0.0, abs=1e-12) and 0.03 < high < 0.045
    low, high = wilson_interval(50, 100)
    assert abs(low - 0.4038) < 5e-4 and abs(high - 0.5962) < 5e-4
    assert wilson_interval(0, 0) == (0.0, 1.0)
    # exact at the ends, for every shot count
    for n in range(1, 10_001):
        assert wilson_interval(0, n)[0] == 0.0 and wilson_interval(n, n)[1] == 1.0, n


def test_noiseless_points():
    for decoder, rounds in (("shor", 2.0), ("strong", 2.0), ("weak", 1.0)):
        cfg = ExperimentConfig(d=3, decoder=decoder, shots=500, seed=1)
        # p = 1e-20: geometric gaps far past the grid draw no fault
        for p in (0.0, 1e-20):
            stats = run_point(cfg, p)
            assert stats.p_l_hat == 0.0
            assert stats.avg_rounds == rounds
            assert stats.max_rounds_seen == rounds


def test_worker_count_invariance():
    base = ExperimentConfig(d=3, decoder="strong", shots=10_000, seed=10, workers=1)
    a = run_point(base, 3e-3)
    b = run_point(dataclasses.replace(base, workers=2), 3e-3)
    assert a == b


def test_early_stop_determinism():
    base = ExperimentConfig(
        d=3, decoder="shor", shots=100_000, seed=4, workers=1, max_errors=40
    )
    a = run_point(base, 1e-2)
    b = run_point(dataclasses.replace(base, workers=2), 1e-2)
    assert a == b
    assert a.shots < 100_000  # the cut actually fired


def test_rounds_bounded_by_worst_case():
    """The counts that ``run_point`` derives from its summed chunk vectors
    agree with each other: per decoder, in two-stage mode (whose cap is
    two stages' worth) and when ``max_errors`` stops the run early."""
    points = [(decoder, False, None) for decoder in ("shor", "strong", "weak")]
    points += [("strong", True, None), ("weak", False, 50)]
    for decoder, two_stage, max_errors in points:
        shots = 4000 if max_errors is None else 20_000
        cfg = ExperimentConfig(d=3, decoder=decoder, shots=shots, seed=3,
                               css_two_stage=two_stage, max_errors=max_errors)
        stats = run_point(cfg, 0.3)
        cap = PolicyConfig(decoder, 1).max_rounds_cap() * (2 if two_stage else 1)
        hist = stats.rounds_histogram
        assert stats.max_rounds_seen <= cap
        assert set(hist) <= set(range(1, cap + 1))
        assert sum(hist.values()) == stats.shots
        assert sum(stats.stopped_by.values()) == stats.shots
        assert stats.avg_rounds == sum(r * c for r, c in hist.items()) / stats.shots
        assert stats.max_rounds_seen == max(hist)
        assert stats.p_l_hat == stats.logical_errors / stats.shots
        if max_errors is None:
            assert stats.shots == shots
        else:
            # the run stops at the first chunk boundary with max_errors errors
            assert stats.logical_errors >= max_errors
            assert stats.shots % harness.CHUNK_SHOTS == 0 and stats.shots < shots


def test_reference_runner_agrees_with_engine_distribution(code3, table3):
    # same physics, independent code paths: estimates must agree within CIs
    p = 5e-3
    cfg = ExperimentConfig(d=3, decoder="strong", shots=30_000, seed=77)
    engine = run_point(cfg, p)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=99)))
    schedules = (compile_schedule(code3, NoiseModel(p)),)
    shots = 3000
    errors = sum(
        run_shot_reference(code3, table3, "strong", 1, schedules=schedules,
                           rng=rng).logical_error
        for _ in range(shots)
    )
    low, high = wilson_interval(errors, shots)
    assert low <= engine.ci_high and engine.ci_low <= high


def test_reference_runner_input_checks(code3, table3):
    # an unknown kind or a negative budget is refused, not run
    for kind, t in (("nope", 1), ("shor", -1)):
        with pytest.raises(ValueError, match="unknown decoder kind|negative fault budget"):
            run_shot_reference(code3, table3, kind, t)
    # no budget: the first syndrome is accepted after one round
    result = run_shot_reference(code3, table3, "strong", 0)
    assert result.decisions == (BUDGET_EXHAUSTED,) and result.rounds_used == 1


def test_two_stage_runs_and_preserves_distance_at_zero_noise():
    cfg = ExperimentConfig(d=5, decoder="strong", shots=300, seed=8, css_two_stage=True)
    stats = run_point(cfg, 0.0)
    assert stats.p_l_hat == 0.0
    assert stats.avg_rounds == 6.0  # three X-sector rounds plus three Z-sector rounds


def test_two_stage_engine_matches_reference_distribution(code5, table5):
    """The engine's two-stage loop against the reference runner on the
    X- and Z-sector schedules."""
    p = 2e-3
    schedules = tuple(compile_schedule(code5, NoiseModel(p), s) for s in ("x", "z"))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=321)))
    shots = 2500
    results = [run_shot_reference(code5, table5, "strong", 2, schedules=schedules, rng=rng)
               for _ in range(shots)]
    ref_errors = sum(r.logical_error for r in results)
    ref_rounds = sum(r.rounds_used for r in results) / shots

    cfg = ExperimentConfig(d=5, decoder="strong", shots=25_000, seed=555,
                           css_two_stage=True)
    engine = run_point(cfg, p)
    low, high = wilson_interval(ref_errors, shots)
    assert low <= engine.ci_high and engine.ci_low <= high
    assert abs(engine.avg_rounds - ref_rounds) < 0.15


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("decoder", ["strong", "weak"])
def test_two_stage_single_faults(d, decoder):
    """Exhaustive order-1 fault injection into two-stage mode through the
    engine: every weight-1 input error, and every fault in every round up
    to the cap, at a location of the shared fault table. Each case gives
    the reference runner's verdict, residual words, rounds and last stop
    reason on the X- and Z-sector schedules. On the cases the noiseless
    shot reaches: no logical error, and a residual weight of at most the
    faults landed."""
    ctx = harness._context((d, decoder, True, None))
    n = ctx.code.n
    cases = [(PauliOperator.single(n, q, kind), {}) for q in range(n) for kind in "XYZ"]
    cases += [(None, {rho: [(lid, value)]})
              for rho in range(1, ctx.cap + 1)
              for lid, values in enumerate(ctx.stages[0].values) for value in values]
    assert len(cases) == {(3, "strong"): 1605, (3, "weak"): 1077,
                          (5, "strong"): 9297, (5, "weak"): 7449}[d, decoder]
    errors, x, z, _, _ = _assert_injected_match_reference(ctx, cases)
    weight = popcount64(x | z)
    reached = _reference_run(ctx, {}).rounds_used
    checked = 0
    for i, (initial, faults) in enumerate(cases):
        if any(rho > reached for rho in faults):
            continue
        checked += 1
        assert not errors[i], (i, faults)
        assert weight[i] <= len(faults), (i, faults)
    assert checked == {(3, "strong"): 1077, (3, "weak"): 549,
                       (5, "strong"): 5601, (5, "weak"): 3753}[d, decoder]


def test_threshold_lower_bound_examples():
    assert threshold_lower_bound(2, 1, 1) == pytest.approx(1.0)
    # C(500, 3) = 20708500 and C(448, 4) = 1656033680
    assert threshold_lower_bound(100, 2, 5) == pytest.approx(20708500 ** (-1 / 2), rel=1e-12)
    assert threshold_lower_bound(64, 3, 7) == pytest.approx(1656033680 ** (-1 / 3), rel=1e-12)
    assert threshold_lower_bound(64, 3, 7) < threshold_lower_bound(64, 3, 6)
    with pytest.raises(ValueError):
        threshold_lower_bound(1, 3, 1)
    with pytest.raises(ValueError):
        threshold_lower_bound(0, 1, 1)


def test_threshold_bound_matches_direct_formula():
    for L, t, r in ((10, 1, 3), (20, 2, 4), (7, 3, 9)):
        direct = math.comb(r * L, t + 1) ** (-1.0 / t)
        assert threshold_lower_bound(L, t, r) == pytest.approx(direct, rel=1e-12)


def test_pseudothreshold_algebraic_fixture(monkeypatch):
    """A synthetic decoder with p_L = p**2 crosses the 2p/3 line at 2/3."""

    def fake_run_point(config, p, point_key=0):
        pl = p * p
        return ExperimentStats(
            p=p, shots=10**9, logical_errors=int(pl * 10**9), p_l_hat=pl,
            ci_low=pl * 0.999, ci_high=pl * 1.001, avg_rounds=2.0,
            rounds_histogram={}, max_rounds_seen=2, stopped_by={}, seed=0,
        )

    monkeypatch.setattr(harness, "run_point", fake_run_point)
    cfg = ExperimentConfig(d=3, decoder="strong", shots=1, seed=0)
    result = estimate_pseudothreshold(cfg, 0.05, 0.99, shots_per_probe=1000, iterations=12)
    assert result.estimate == pytest.approx(2.0 / 3.0, rel=2e-3)
    assert result.ci_low <= 2.0 / 3.0 <= result.ci_high


def test_pseudothreshold_bracket_error(monkeypatch):
    def fake_run_point(config, p, point_key=0):
        return ExperimentStats(
            p=p, shots=1000, logical_errors=0, p_l_hat=0.0, ci_low=0.0,
            ci_high=3e-3, avg_rounds=2.0, rounds_histogram={}, max_rounds_seen=2,
            stopped_by={}, seed=0,
        )

    monkeypatch.setattr(harness, "run_point", fake_run_point)
    cfg = ExperimentConfig(d=3, decoder="strong", shots=1, seed=0)
    with pytest.raises(BracketError) as err:
        estimate_pseudothreshold(cfg, 1e-4, 1e-3, shots_per_probe=1000)
    assert err.value.probes  # sampled curve attached


def test_eccp_noiseless_input_errors_d5(code5, table5, compiled5):
    """Zero circuit noise, every input error of weight <= 2, every policy:
    the protocol must finish with no logical error."""
    import itertools

    from ftecsim.stabilizer import multiply

    cases = []
    for w in (1, 2):
        for support in itertools.combinations(range(19), w):
            for letters in itertools.product("XYZ", repeat=w):
                e = PauliOperator.identity(19)
                for q, kind in zip(support, letters):
                    e = multiply(e, PauliOperator.single(19, q, kind))
                cases.append(e)
    for decoder in ("shor", "strong", "weak"):
        for e in cases:
            result = run_shot_reference(
                code5, table5, decoder, 2, schedules=(compiled5,), injected_faults={},
                initial_error=e,
            )
            assert not result.logical_error, (decoder, e.to_string())


def test_correct_round_guarantee_exhaustive(code3, compiled3):
    """For every single injected fault on d=3, the syndrome the strong
    policy selects equals the true syndrome of the data frame at the end
    of the selected round (the defining property of a usable syndrome)."""
    from ftecsim.extraction import inject_round

    cap = PolicyConfig("strong", 1).max_rounds_cap()
    for fault_round in range(1, cap + 1):
        for lid, values in enumerate(compiled3.values):
            for value in values:
                frame = compiled3.new_frame()
                history = []
                frame_syndromes = []
                decision = None
                rounds = 0
                while True:
                    rounds += 1
                    faults = [(lid, value)] if rounds == fault_round else []
                    history.append(inject_round(compiled3, frame, faults))
                    frame_syndromes.append(frame.syndrome)
                    decision = run_stream("strong", 1, history)
                    if decision.action != CONTINUE:
                        break
                if rounds < fault_round:
                    continue  # fault never fired
                chosen = decision.round_index
                assert history[chosen - 1] == frame_syndromes[chosen - 1], (
                    fault_round, lid, value)


def test_fault_enum_quick(code3):
    report = enumerate_single_faults(3, "strong")
    assert report.ok
    assert report.cases > 1000
    report = sample_fault_pairs(5, "strong", samples=500, seed=5)
    assert report.ok and report.cases == 500


def test_fault_enum_counts_unreached_rounds(code3, table3, compiled3):
    """Single-fault enumeration runs the rounds up to the noiseless stop and
    only counts the later ones: a fault there never fires, so the shot is
    the noiseless one."""
    faults = [(lid, value) for lid, values in enumerate(compiled3.values) for value in values]
    assert len(faults) == 528
    for decoder in KINDS:
        report = enumerate_single_faults(3, decoder)
        noiseless = run_shot_reference(code3, table3, decoder, 1, schedules=(compiled3,),
                                       injected_faults={})
        reached = noiseless.rounds_used
        cap = PolicyConfig(decoder, 1).max_rounds_cap()
        assert report.cases == 3 * code3.n + reached * len(faults)
        assert report.skipped_unreached == (cap - reached) * len(faults)
        for late_round in range(reached + 1, cap + 1):
            for lid, value in faults[::7]:
                late = run_shot_reference(code3, table3, decoder, 1, schedules=(compiled3,),
                                          injected_faults={late_round: [(lid, value)]})
                assert late == noiseless, (decoder, late_round, lid, value)


# ---------------------------------------------------------------------------
# The batched fault injector against the scalar reference runner


def _reference_run(ctx, faults, initial=None):
    return run_shot_reference(ctx.code, ctx.table, ctx.kind, ctx.t, schedules=tuple(ctx.stages),
                              initial_error=initial, injected_faults=faults)


def _draw_pair(rng, ctx):
    """One sampled pair, drawn in ``sample_fault_pairs``' order: (round,
    location, value) per fault."""
    compiled = ctx.stages[0]
    pair = []
    for _ in range(2):
        rho = int(rng.integers(1, ctx.cap + 1))
        lid = int(rng.integers(compiled.n_locations))
        pair.append((rho, lid, compiled.values[lid][int(rng.integers(len(compiled.values[lid])))]))
    return pair


def _injected_batch(ctx, cases):
    """``harness._run_injected``'s input for (input error or None,
    {round: [(location, value)]}) cases: the initial frames, and the
    faults as (cases, k) matrices of rounds and table rows, padded with
    round 0 (no fault). A fault's row is read from the schedule its shot
    runs in that round, so every stage schedule must share one row
    layout."""
    compiled = ctx.stages[0]
    for other in ctx.stages[1:]:
        assert other.values == compiled.values
        assert np.array_equal(other.first_row, compiled.first_row)
    frames = FrameBatch(len(cases))
    k = max((sum(map(len, faults.values())) for _, faults in cases), default=0)
    rnd = np.zeros((len(cases), k), np.int64)
    row = np.zeros_like(rnd)
    for i, (initial, faults) in enumerate(cases):
        if initial is not None:
            frames.x[i], frames.z[i] = initial.x_bits, initial.z_bits
            frames.syndrome[i] = syndrome_of(ctx.code, initial)
        placed = [(rho, lid, value) for rho, at in faults.items() for lid, value in at]
        for j, (rho, lid, value) in enumerate(placed):
            rnd[i, j] = rho
            row[i, j] = compiled.first_row[lid] + compiled.values[lid].index(value)
    return frames, rnd, row


def _assert_injected_match_reference(ctx, cases):
    """Run the cases through the injector, check each against the
    reference runner, and return the injector's result."""
    result = harness._run_injected(ctx, *_injected_batch(ctx, cases))
    errors, x, z, rounds, reason = result
    for i, (initial, faults) in enumerate(cases):
        ref = _reference_run(ctx, faults, initial)
        got = (bool(errors[i]), int(x[i]), int(z[i]), int(rounds[i]), REASONS[reason[i]])
        want = (ref.logical_error, ref.residual.x_bits, ref.residual.z_bits, ref.rounds_used,
                ref.decisions[-1].stopped_by)
        assert got == want, (i, initial and initial.to_string(), faults)
    return result


@pytest.mark.parametrize("decoder", KINDS)
def test_injected_single_faults_match_reference(decoder):
    """Every d=3 weight-1 input error and every single fault in every round
    up to the policy's cap (reached or not): the batched injector gives the
    reference runner's verdict, residual words, rounds and stop reason."""
    ctx = harness._context((3, decoder, False, None))
    n = ctx.code.n
    cases = [(PauliOperator.single(n, q, kind), {}) for q in range(n) for kind in "XYZ"]
    cases += [(None, {rho: [(lid, value)]})
              for rho in range(1, ctx.cap + 1)
              for lid, values in enumerate(ctx.stages[0].values) for value in values]
    assert len(cases) == 3 * n + ctx.cap * 528
    _assert_injected_match_reference(ctx, cases)


@pytest.mark.parametrize("d, samples", [(3, 600), (5, 300)])
@pytest.mark.parametrize("decoder", KINDS)
def test_injected_pairs_match_reference(d, samples, decoder):
    """Fixed-seed sampled fault pairs, some in one round and some past
    the stop, through the batched injector and the reference runner."""
    ctx = harness._context((d, decoder, False, None))
    rng = np.random.default_rng(1000 * d + samples)
    cases = []
    for _ in range(samples):
        faults: dict[int, list] = {}
        for rho, lid, value in _draw_pair(rng, ctx):
            faults.setdefault(rho, []).append((lid, value))
        cases.append((None, faults))
    _assert_injected_match_reference(ctx, cases)


def _reference_single_faults(ctx):
    """Order-1 injection as one reference shot per case: (cases, logical
    failures, weight violations, skipped, failures recorded)."""
    compiled = ctx.stages[0]
    counts = [0, 0, 0]
    failures = []

    def check(label, faults, initial=None, landed=1):
        result = _reference_run(ctx, faults, initial)
        weight_bad = result.residual.weight() > landed
        counts[0] += 1
        counts[1] += result.logical_error
        counts[2] += weight_bad
        if (weight_bad or result.logical_error) and len(failures) < 20:
            failures.append({"case": label, "residual": result.residual.to_string(),
                             "rounds": result.rounds_used,
                             "stopped_by": result.decisions[-1].stopped_by})

    for q in range(ctx.code.n):
        for kind in "XYZ":
            check(f"input {kind}{q}", {}, PauliOperator.single(ctx.code.n, q, kind), landed=0)
    faults = [(lid, value) for lid, values in enumerate(compiled.values) for value in values]
    reached = _reference_run(ctx, {}).rounds_used
    for rho in range(1, reached + 1):
        for lid, value in faults:
            check(f"round {rho} loc {lid} {value}", {rho: [(lid, value)]})
    return (*counts, (ctx.cap - reached) * len(faults), failures)


def _reference_pairs(ctx, samples, seed):
    """Order-2 injection as one reference shot per pair: (logical failures,
    failures recorded, pairs by faults landed)."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))
    logical = 0
    failures = []
    landed = [0, 0, 0]
    for _ in range(samples):
        pair = _draw_pair(rng, ctx)
        faults: dict[int, list] = {}
        for rho, lid, value in pair:
            faults.setdefault(rho, []).append((lid, value))
        result = _reference_run(ctx, faults)
        landed[sum(rho <= result.rounds_used for rho, _, _ in pair)] += 1
        logical += result.logical_error
        if result.logical_error and len(failures) < 20:
            failures.append({"case": repr(pair), "residual": result.residual.to_string(),
                             "rounds": result.rounds_used,
                             "stopped_by": result.decisions[-1].stopped_by})
    return logical, failures, landed


def _corrupt(monkeypatch, ctx):
    """Give the cached context a table whose every other correction carries
    the logical operator as well: syndromes still match, verdicts flip."""
    table = ctx.table
    masks = table.masks.copy()
    masks[1::2] ^= np.uint64(ctx.code.logical_x[0].x_bits)
    monkeypatch.setattr(ctx, "table", dataclasses.replace(table, masks=masks))


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("decoder", KINDS)
def test_single_fault_report_matches_reference_loop(monkeypatch, decoder, corrupt):
    """``enumerate_single_faults``' counts and failure records (labels,
    order, the 20-entry cap) equal one reference shot per case; chunks of
    97 cases put chunk edges inside the run."""
    ctx = harness._context((3, decoder, False, None))
    if corrupt:
        _corrupt(monkeypatch, ctx)
    monkeypatch.setattr(harness, "CHUNK_SHOTS", 97)
    report = enumerate_single_faults(3, decoder)
    cases, logical, weight, skipped, failures = _reference_single_faults(ctx)
    assert (report.cases, report.logical_failures, report.weight_violations,
            report.skipped_unreached) == (cases, logical, weight, skipped)
    assert report.failures == failures
    assert len(failures) == (20 if corrupt else 0)


@pytest.mark.parametrize("d, decoder, samples, seed, corrupt", [
    (3, "weak", 400, 2, False), (5, "strong", 300, 4, True), (3, "shor", 300, 6, True),
])
def test_pair_report_matches_reference_loop(monkeypatch, d, decoder, samples, seed, corrupt):
    """``sample_fault_pairs`` draws the reference loop's pairs and records
    its failures and landed counts, across chunk edges."""
    ctx = harness._context((d, decoder, False, None))
    if corrupt:
        _corrupt(monkeypatch, ctx)
    monkeypatch.setattr(harness, "CHUNK_SHOTS", 97)
    report = sample_fault_pairs(d, decoder, samples=samples, seed=seed)
    logical, failures, landed = _reference_pairs(ctx, samples, seed)
    assert (report.cases, report.logical_failures, report.landed) == (samples, logical, landed)
    assert report.failures == failures
    assert len(failures) == 20


def test_sampled_pairs_landed_counts():
    """Of 2000 d=5 strong pairs at seed 0, many land fewer than two faults
    (a fault's round is drawn up to the cap, the shot often stops sooner);
    the batched counts equal the reference runner's."""
    report = sample_fault_pairs(5, "strong", samples=2000, seed=0)
    ctx = harness._context((5, "strong", False, None))
    assert report.landed == _reference_pairs(ctx, 2000, 0)[2] == [312, 511, 1177]


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(d=4, decoder="shor")
    with pytest.raises(ValueError):
        ExperimentConfig(d=3, decoder="fancy")
    with pytest.raises(ValueError):
        ExperimentConfig(d=3, decoder="shor", css_two_stage=True)
    with pytest.raises(ValueError):
        ExperimentConfig(d=3, decoder="shor", shots=0)
    for name in ("built_to_weight", "workers", "max_errors"):
        for value in (0, -3):
            with pytest.raises(ValueError, match=name):
                ExperimentConfig(d=3, decoder="strong", **{name: value})
        assert getattr(ExperimentConfig(d=3, decoder="strong", **{name: 1}), name) == 1


def test_worker_env_override(monkeypatch):
    from ftecsim.harness import resolve_workers

    monkeypatch.setenv("FTECSIM_WORKERS", "3")
    assert resolve_workers(None) == 3
    assert resolve_workers(2) == 2
    for bad in ("zebra", "0", "-3"):
        monkeypatch.setenv("FTECSIM_WORKERS", bad)
        with pytest.raises(ValueError, match="FTECSIM_WORKERS"):
            resolve_workers(None)
