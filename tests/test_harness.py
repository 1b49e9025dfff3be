import dataclasses
import math

import numpy as np
import pytest

from ftecsim import harness
from ftecsim.decoders import (
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
    make_policy,
    policy_table,
)
from ftecsim.diffvec import min_faults
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


class _Replay:
    """Round source for `_run_policy`: replays fixed syndrome streams,
    one row per shot."""

    def __init__(self, streams):
        self.streams = np.array(streams, dtype=np.uint64)
        self.round = 0

    def __call__(self, active):
        syn = self.streams[active, self.round]
        self.round += 1
        return syn


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
    kind) must agree with the reference PolicyDecision state machines on
    random syndrome streams, for every kind and t = 1..4."""
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
                policy = make_policy(PolicyConfig(kind, t))
                decision = None
                for syn in stream:
                    decision = policy.step(int(syn))
                    if decision.action != CONTINUE:
                        break
                assert rounds[i] == decision.rounds_used
                assert REASONS[reason[i]] == decision.stopped_by
                if decision.action == "stop_correct":
                    assert chosen_round[i] == decision.round_index
                    assert chosen[i] == stream[decision.round_index - 1]
                else:
                    assert chosen_round[i] == 0 and chosen[i] == 0
                if kind != "shor":
                    assert faults[i] == min_faults(policy.history.delta)
            seen[kind] |= {REASONS[code] for code in reason}
    # every stop reason of every kind occurred
    assert seen == {"shor": {SHOR_REPEAT, SHOR_CAP}, "strong": {USABLE_RUN, PAIR_COUNT},
                    "weak": {USABLE_RUN, PAIR_COUNT, WEAK_NO_CORRECTION}}


def test_history_min_faults_matches_diffvec():
    """The min-faults row along every reachable prefix of random
    histories, walking the successors for every budget up to t=4."""
    from ftecsim.diffvec import SyndromeHistory

    tables = [policy_table(kind, 4) for kind in ("strong", "weak")]
    rng = np.random.default_rng(5)
    for _ in range(200):
        rounds = int(rng.integers(1, 12))
        stream = rng.integers(0, 3, size=rounds).tolist()
        delta = SyndromeHistory(stream).delta
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


def test_noiseless_points():
    for decoder, rounds in (("shor", 2.0), ("strong", 2.0), ("weak", 1.0)):
        cfg = ExperimentConfig(d=3, decoder=decoder, shots=500, seed=1)
        stats = run_point(cfg, 0.0)
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
    for decoder in ("shor", "strong", "weak"):
        cfg = ExperimentConfig(d=3, decoder=decoder, shots=4000, seed=3)
        stats = run_point(cfg, 0.3)
        cap = PolicyConfig(decoder, 1).max_rounds_cap()
        assert stats.max_rounds_seen <= cap
        assert set(stats.rounds_histogram) <= set(range(1, cap + 1))
        assert sum(stats.rounds_histogram.values()) == stats.shots


def test_reference_runner_agrees_with_engine_distribution(code3, table3):
    # same physics, independent code paths: estimates must agree within CIs
    p = 5e-3
    cfg = ExperimentConfig(d=3, decoder="strong", shots=30_000, seed=77)
    engine = run_point(cfg, p)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=99)))
    shots = 3000
    errors = sum(
        run_shot_reference(code3, table3, "strong", 1, p=p, rng=rng).logical_error
        for _ in range(shots)
    )
    low, high = wilson_interval(errors, shots)
    assert low <= engine.ci_high and engine.ci_low <= high


def test_two_stage_runs_and_preserves_distance_at_zero_noise():
    cfg = ExperimentConfig(d=5, decoder="strong", shots=300, seed=8, css_two_stage=True)
    stats = run_point(cfg, 0.0)
    assert stats.p_l_hat == 0.0
    assert stats.avg_rounds == 6.0  # three X-sector rounds plus three Z-sector rounds


def test_two_stage_engine_matches_reference_distribution(code5, table5):
    """The engine's inline two-stage loop against an independent runner
    built from TwoStageState and the public sector samplers."""
    from ftecsim.decoders import TwoStageState
    from ftecsim.extraction import NoiseModel, compile_schedule, sample_round
    from ftecsim.recovery import decode_sector_masks, final_verdict

    p = 2e-3
    noise = NoiseModel(p)
    cs_x = compile_schedule(code5, noise, "x")
    cs_z = compile_schedule(code5, noise, "z")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=321)))

    def reference_shot():
        frame = cs_x.new_frame()
        ts = TwoStageState("strong", 2)
        hist1, hist2 = [], []
        decision1 = decision2 = None
        while ts.stage == 1:
            syn = sample_round(cs_x, noise, frame, rng)
            hist1.append(syn)
            decision1 = ts.step(syn)
        while ts.stage2 is None:
            syn = sample_round(cs_z, noise, frame, rng)
            hist2.append(syn)
            decision2 = ts.step(syn)
        sx = hist1[decision1.round_index - 1] if decision1.action == "stop_correct" else 0
        sz = hist2[decision2.round_index - 1] if decision2.action == "stop_correct" else 0
        cx, cz = decode_sector_masks(table5, np.array([sx], np.uint64),
                                     np.array([sz], np.uint64))
        frame.x ^= int(cx[0])
        frame.z ^= int(cz[0])
        residual = frame.to_pauli(code5.n)
        rounds = len(hist1) + len(hist2)
        return final_verdict(code5, table5, residual) == "logical_error", rounds

    shots = 2500
    results = [reference_shot() for _ in range(shots)]
    ref_errors = sum(err for err, _ in results)
    ref_rounds = sum(r for _, r in results) / shots

    cfg = ExperimentConfig(d=5, decoder="strong", shots=25_000, seed=555,
                           css_two_stage=True)
    engine = run_point(cfg, p)
    low, high = wilson_interval(ref_errors, shots)
    assert low <= engine.ci_high and engine.ci_low <= high
    assert abs(engine.avg_rounds - ref_rounds) < 0.15


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

    from ftecsim.stabilizer import PauliOperator, multiply

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
                code5, table5, decoder, 2, injected_faults={}, initial_error=e,
                compiled=compiled5,
            )
            assert not result.logical_error, (decoder, e.to_string())


def test_correct_round_guarantee_exhaustive(code3, compiled3):
    """For every single injected fault on d=3, the syndrome the strong
    policy selects equals the true syndrome of the data frame at the end
    of the selected round (the defining property of a usable syndrome)."""
    from ftecsim.extraction import inject_round, legal_values

    cap = PolicyConfig("strong", 1).max_rounds_cap()
    for fault_round in range(1, cap + 1):
        for lid in range(compiled3.n_locations):
            for value in legal_values(compiled3, lid):
                frame = compiled3.new_frame()
                policy = make_policy(PolicyConfig("strong", 1))
                history = []
                frame_syndromes = []
                decision = None
                rounds = 0
                while True:
                    rounds += 1
                    faults = [(lid, value)] if rounds == fault_round else []
                    history.append(inject_round(compiled3, frame, faults))
                    frame_syndromes.append(frame.syndrome)
                    decision = policy.step(history[-1])
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
    from ftecsim.extraction import legal_values

    faults = [(lid, value) for lid in range(compiled3.n_locations)
              for value in legal_values(compiled3, lid)]
    assert len(faults) == 528
    for decoder in KINDS:
        report = enumerate_single_faults(3, decoder, include_input_errors=False)
        noiseless = run_shot_reference(code3, table3, decoder, 1, injected_faults={},
                                       compiled=compiled3)
        reached = noiseless.decision.rounds_used
        cap = PolicyConfig(decoder, 1).max_rounds_cap()
        assert report.cases == reached * len(faults)
        assert report.skipped_unreached == (cap - reached) * len(faults)
        for late_round in range(reached + 1, cap + 1):
            for lid, value in faults[::7]:
                late = run_shot_reference(code3, table3, decoder, 1, compiled=compiled3,
                                          injected_faults={late_round: [(lid, value)]})
                assert late == noiseless, (decoder, late_round, lid, value)


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
