import dataclasses
import math

import numpy as np
import pytest

from conftest import advance, run_stream
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
    run_experiment,
    run_point,
    run_shot_reference,
    sample_fault_pairs,
    threshold_lower_bound,
    wilson_interval,
)
from ftecsim.recovery import decode_sector_masks, popcount64
from ftecsim.stabilizer import PauliOperator, syndrome_of


class _Replay:
    """Round source for `_run_policy`: replays fixed syndrome streams,
    one row per shot; no shot joins."""

    def __init__(self, streams):
        self.streams = np.array(streams, dtype=np.uint64)

    def __call__(self, active, r):
        return self.streams[active, r - 1], active, ()


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


def _run_policy_per_round_entries(table, next_round, budget, path=(), order=None):
    """The earlier policy loop, kept as the reference of ``_run_policy``:
    each round reads the new states' three entry rows and scatters every
    stop's four values. It finds the joined shots by their numbers, not
    by the source's insertion points."""
    n = len(budget)
    history = np.zeros((table.max_rounds, n), np.uint64)
    chosen_round, rounds, reason, faults = (np.zeros(n, np.int64) for _ in range(4))
    active = np.arange(n) if order is None else order
    prev = np.zeros(n, np.uint64)
    state = table.root[budget[active]]
    r = 0
    while active.size or r < len(path):
        syn, running, _ = next_round(active, r + 1)
        if len(running) > len(active):
            old = running < len(rounds)
            joined_prev = np.zeros(len(running), np.uint64)
            joined_prev[old] = prev
            joined_state = np.full(len(running), path[r])
            joined_state[old] = state
            active, prev, state = running, joined_prev, joined_state
            history, chosen_round, rounds, reason, faults = (
                np.concatenate((a, np.zeros((*a.shape[:-1], (~old).sum()), a.dtype)), axis=-1)
                for a in (history, chosen_round, rounds, reason, faults))
        history[r, active] = syn
        r += 1
        state, (code, pick, evidenced) = advance(table, state, syn != prev)
        prev = syn
        stop = code != CODE_CONTINUE
        done = active[stop]
        chosen_round[done] = pick[stop]
        rounds[done] = r
        reason[done] = code[stop]
        faults[done] = evidenced[stop]
        active, prev, state = active[~stop], prev[~stop], state[~stop]
    chosen = history[chosen_round - 1, np.arange(len(rounds))]
    chosen[chosen_round == 0] = 0
    return chosen, chosen_round, rounds, reason, faults


class _Script:
    """Round source with joins: shot i reports ``streams[i]``; a shot that
    joins in round r reports zeros before it. While the noiseless path
    lasts, each round a seeded draw adds new shots (one to three in round
    1, up to three later), inserted at once at positions drawn among the
    running ones, whose order they keep."""

    def __init__(self, streams, path_rounds, seed):
        self.streams, self.path_rounds, self.seed = streams, path_rounds, seed
        self.joined = {}  # shot -> the round it joined in
        self.total = 0

    def __call__(self, active, r):
        if self.total == 0:
            self.total = int(active.max(initial=-1)) + 1
        draw = np.random.default_rng((self.seed, r))
        at = ()
        if r <= self.path_rounds:
            at = draw.integers(0, len(active) + 1, size=int(draw.integers(r == 1, 4)))
            new = range(self.total, self.total + len(at))
            active = np.insert(active, at, new)
            self.joined.update(dict.fromkeys(new, r))
            self.total += len(at)
        syn = np.array([self.streams[i % len(self.streams)][r - 1]
                        if r >= self.joined.get(i, 1) else 0 for i in active.tolist()],
                       np.uint64)
        return syn, active, at


def test_run_policy_matches_per_round_entry_loop():
    """``_run_policy``'s stop flags and one entry read per shot give the five
    arrays of the per-round-entry loop, for every kind and t = 1..4: random
    syndromes, budgets 0..t, a shuffled order, and shots joining along the
    noiseless path."""
    rng = np.random.default_rng(2024)
    for kind in KINDS:
        for t in (1, 2, 3, 4):
            table = policy_table(kind, t)
            path, state = [], table.root[t]
            while not table.stops[state]:
                path.append(state)
                state = table.successor[2 * state]
            streams = [_random_stream(rng, table.max_rounds + 1) for _ in range(200)]
            budget = rng.integers(0, t + 1, size=200)
            for joins, order in (((), None), (path, None), (path, rng.permutation(200))):
                seed = int(rng.integers(1 << 30))
                got, expected = (run(table, _Script(streams, len(joins), seed), budget, joins,
                                     order)
                                 for run in (_run_policy, _run_policy_per_round_entries))
                for a, b in zip(got, expected):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (kind, t)
                assert len(got[0]) > 200 or not joins


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
                    state, (code, _, faults) = advance(table, state, syn != prev)
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


_GROUP_CASES = [(d, decoder, two_stage) for d in (3, 5)
                for decoder, two_stage in (("shor", False), ("strong", False), ("weak", False),
                                           ("strong", True), ("weak", True))]
_GROUP_CASES.append((9, "weak", True))


@pytest.mark.parametrize("d, decoder, two_stage", _GROUP_CASES)
def test_group_rows_equal_one_chunk_at_a_time(d, decoder, two_stage):
    """A group of G > 1 chunks, whose shots start quiet, gives each chunk's
    count row exactly as that chunk run alone, a group of one whose shots
    all start explicit, and leaves each chunk's stream at the same place,
    so every draw covered the same number of running shots. G = 2, 3 and
    32, each with a short last chunk, from no noise to every location
    failing."""
    ctx = harness._context((d, decoder, two_stage, None))
    for p in (0.0, 5e-5, 1e-3, 1e-2, 1.0):
        total = (3072 if p < 1e-2 else 384) // (8 if d == 9 else 1)  # shots in the group
        for g in (2, 3, 32):
            sizes = [total // g] * (g - 1) + [total // g // 3 + 1]
            grouped = [harness._chunk_seed(7, g, i) for i in range(g)]
            alone = [harness._chunk_seed(7, g, i) for i in range(g)]
            rows = harness._simulate_group(ctx, p, sizes, grouped)
            want = [harness._simulate_group(ctx, p, [n], [rng])[0]
                    for n, rng in zip(sizes, alone)]
            assert rows.tolist() == np.array(want).tolist(), (p, g)
            # the streams' next numbers agree: each consumed the same draws
            assert ([rng.integers(1 << 62) for rng in grouped]
                    == [rng.integers(1 << 62) for rng in alone]), (p, g)


def test_multi_slice_explicit_round_pinned():
    """One explicit 4096-shot chunk whose rounds are drawn and folded in
    several slices (``CompiledSchedule.slices``): its count row, pinned.
    At these rates every shot runs to the same round and stop, so the
    logical-error count is what reads the folded frames."""
    for key, p, n_slices, errors, rounds, reason in (
        ((5, "strong", False, None), 0.3, [2], 3058, 5, 1),
        ((5, "strong", False, None), 1.0, [6], 3095, 5, 1),
        ((9, "weak", True, None), 0.3, [3, 3], 3089, 9, 0),
    ):
        ctx = harness._context(key)
        assert [len(s.slices(p, 4096)) for s in ctx.stages] == n_slices
        row = harness._simulate_group(ctx, p, [4096], [harness._chunk_seed(7, 0, 0)])
        want = np.zeros(ctx.cap + 2 + len(REASONS), np.int64)
        want[[0, 1 + rounds, ctx.cap + 2 + reason]] = errors, 4096, 4096
        assert row.tolist() == [want.tolist()], (key, p)


def test_fixed_seed_outputs_pinned():
    """Fixed-seed outputs of the chunk-at-a-time engine, pinned: a change to
    what any chunk draws, or to how its shots are counted, fails here."""
    for d, decoder, two_stage, p, shots, errors, hist, stops in (
        (3, "weak", False, 7e-4, 131072, 71, {1: 123944, 2: 7128},
         {USABLE_RUN: 769, WEAK_NO_CORRECTION: 130303}),
        (5, "strong", False, 1e-4, 65536, 0, {3: 60140, 4: 4880, 5: 516}, None),
        (5, "weak", True, 1e-3, 20000, 27, {4: 13781, 5: 5353, 6: 858, 7: 8}, None),
        # window fault probability q = 0.45: one group of the four chunks, shots starting quiet
        (3, "weak", False, 6.2e-3, 16384, 496, {1: 10196, 2: 6188},
         {USABLE_RUN: 508, WEAK_NO_CORRECTION: 15876}),
        (5, "strong", False, 5.9e-4, 16384, 25, {3: 9861, 4: 4940, 5: 1583},
         {PAIR_COUNT: 457, USABLE_RUN: 15927}),
        (5, "weak", True, 8.9e-4, 16384, 18, {4: 11852, 5: 3920, 6: 605, 7: 7},
         {PAIR_COUNT: 205, USABLE_RUN: 2658, WEAK_NO_CORRECTION: 13521}),
    ):
        cfg = ExperimentConfig(d=d, decoder=decoder, css_two_stage=two_stage, shots=shots,
                               seed=3)
        stats = run_point(cfg, p)
        assert (stats.logical_errors, stats.rounds_histogram) == (errors, hist)
        assert stops is None or stats.stopped_by == stops
    result = estimate_pseudothreshold(ExperimentConfig(d=3, decoder="weak", seed=3), 5e-5, 8e-3,
                                      shots_per_probe=131072, iterations=3)
    assert result.estimate == 0.0006861337354823592
    assert [s.logical_errors for _, s in result.probes] == [0, 6416, 40, 559, 190]


def test_quiet_shots_are_never_simulated(monkeypatch):
    """At d=3 weak and p=5e-5, the engine's one fold entry sees only the
    shots a fault met: each explicit shot folds in at most every round up
    to the cap, every explicit shot met a fault, and they are few. At p=0
    no shot becomes explicit."""
    calls = []
    apply_faults = harness._apply_faults

    def spy(compiled, frames, shot, row, active):
        calls.append((frames, len(shot), len(active)))
        return apply_faults(compiled, frames, shot, row, active)

    monkeypatch.setattr(harness, "_apply_faults", spy)
    cfg = ExperimentConfig(d=3, decoder="weak", shots=32 * harness.CHUNK_SHOTS, seed=5,
                           workers=1)
    ctx = harness._context((3, "weak", False, None))
    for p in (5e-5, 0.0):
        calls.clear()
        stats = run_point(cfg, p)
        batches = {id(frames): frames for frames, _, _ in calls}
        explicit = sum(len(frames.x) for frames in batches.values())
        folded = sum(active for _, _, active in calls)
        assert folded <= explicit * ctx.cap
        assert explicit <= sum(faults for _, faults, _ in calls)
        if p:
            assert 0 < explicit < 0.01 * stats.shots
        else:
            assert explicit == folded == 0


@pytest.fixture
def pools(monkeypatch):
    """The process count, the caller included, of every pool the harness
    starts; in ``pools.deals`` the hand-offs of every deal on one, and in
    ``pools.exits`` its children's exit codes once it is closed."""

    class Made(list):
        deals: list
        exits: list

    made = Made()
    made.deals = []
    made.exits = []

    class Counting(harness._Pool):
        def __init__(self, workers):
            made.append(workers)
            super().__init__(workers)

        def deal(self, jobs):
            made.deals.append(list(jobs))
            return super().deal(jobs)

        def close(self):
            super().close()
            made.exits.append([proc.exitcode for proc in self.procs])

    monkeypatch.setattr(harness, "_Pool", Counting)
    return made


def test_pseudothreshold_one_pool_same_result(pools):
    """All probes of a 2- or 3-worker bisection share one pool, and the
    result, probes included, equals the 1-worker one. At 3 workers a
    point's 4 chunks make 2 or 4 hand-offs, so some deals are ragged."""
    base = ExperimentConfig(d=3, decoder="weak", seed=0, workers=1)
    args = (2e-4, 8e-3, 4 * harness.CHUNK_SHOTS, 3)
    a = estimate_pseudothreshold(base, *args)
    assert pools == []
    for workers in (2, 3):
        pools.deals.clear()
        b = estimate_pseudothreshold(dataclasses.replace(base, workers=workers), *args)
        assert len(a.probes) == 5 and a == b
    assert pools == [2, 3]
    assert {len(jobs) for jobs in pools.deals} == {2, 4}  # never a multiple of 3


def test_experiment_one_pool_same_stats_after_a_cut(pools):
    """Three rates on one pool of 2 or 3 processes; ``max_errors`` cuts
    the first point after a later chunk, and the next point is whole and
    equal to its 1-worker run, so none of the cut point's chunks leak
    into it."""
    base = ExperimentConfig(d=3, decoder="shor", p_values=(3e-3, 1e-3, 2e-3),
                            shots=9 * harness.CHUNK_SHOTS, seed=4, workers=1, max_errors=300)
    a = run_experiment(base)
    for workers in (2, 3):
        pools.deals.clear()
        assert run_experiment(dataclasses.replace(base, workers=workers)) == a
        assert {len(jobs) for jobs in pools.deals} == {workers}  # W hand-offs per deal
    assert pools == [2, 3]
    assert harness.CHUNK_SHOTS < a[0].shots < base.shots  # cut after a later chunk
    assert a[1].shots == base.shots


def test_handoff_size_follows_max_errors(pools):
    """A campaign that ``max_errors`` can cut deals its W processes W
    hand-offs at a time, since a dealt hand-off runs to its end, and a
    job simulates at most four chunks' worth of shots: a group of G > 1
    chunks, whose shots start quiet, at window fault probability q with
    G q < 4 (here G q <= 1, as the worker share of 5 chunks caps G), or
    one chunk, whose shots all start explicit. One that cannot be cut
    deals each point whole. Both give the same points."""
    cfg = ExperimentConfig(d=3, decoder="weak", p_values=(1e-3, 8e-3),
                           shots=9 * harness.CHUNK_SHOTS, seed=2, workers=2)
    ctx = harness._context((3, "weak", False, None))
    q = [ctx.window_q(p) for p in cfg.p_values]
    assert 0.09 < q[0] < 0.1 and q[1] > 0.5  # quiet groups of 5 (its share), then explicit

    def handoffs():
        return [[len(job[5]) for job in jobs] for jobs in pools.deals]

    whole = run_experiment(cfg)
    assert handoffs() == [[5, 4], [1] * 9]
    pools.deals.clear()
    cut = run_experiment(dataclasses.replace(cfg, max_errors=10**9))
    assert handoffs() == [[5, 4]] + [[1, 1]] * 4 + [[1]] and pools == [2, 2]
    # chunks of explicit shots per hand-off
    work = [len(job[5]) * ctx.window_q(job[1]) if len(job[5]) > 1 else 1
            for jobs in pools.deals for job in jobs]
    assert work[:2] == [5 * q[0], 4 * q[0]] and max(work) <= 1
    assert [s.shots for s in cut] == [s.shots for s in whole]


def test_group_size_follows_window_q():
    """``window_q`` is 1 - (1-p)^(len(path) x locations), the chance that a
    fault meets a noiseless shot; ``_group_size`` is 2^ceil(log2(2/q))
    chunks, at most each worker's share of the point, and the share at
    q = 0. So a group simulates two to four chunks' worth of explicit
    shots unless the share caps it, and above q = 1/2 every hand-off is
    one chunk."""
    for key in ((3, "weak", False, None), (5, "strong", False, None), (5, "weak", True, None),
                (3, "shor", False, None)):
        ctx = harness._context(key)
        window = len(ctx.path) * sum(s.n_locations for s in ctx.stages)
        for p in (1e-5, 7e-4, 1e-2, 0.3):
            assert math.isclose(ctx.window_q(p), 1 - (1 - p) ** window, rel_tol=1e-9), (key, p)
        assert (ctx.window_q(0.0), ctx.window_q(1.0)) == (0.0, 1.0)
    size = harness._group_size
    assert [size(q, 100, 1) for q in (0.51, 0.75, 1.0)] == [1, 1, 1]
    assert [size(q, 100, 1) for q in (0.26, 0.4, 0.45, 0.5)] == [8, 8, 8, 4]
    assert [size(q, 100, 1) for q in (0.25, 0.2, 0.1, 1e-3)] == [8, 16, 32, 100]
    for q in np.geomspace(1e-4, 1, 97):
        for share in (1, 7, 100, 10**5):
            g = size(q, share, 1)  # g q is the group's chunks' worth of explicit shots
            if q > 0.5:
                assert g == 1, (q, share)
            else:
                assert g * q < 4 and (g * q >= 2 or g == share), (q, share)
    assert [size(1e-3, 9, w) for w in (1, 2, 3, 9, 16)] == [9, 5, 3, 1, 1]  # the worker share
    assert [size(0.0, 9, w) for w in (1, 2, 4)] == [9, 5, 3]


def test_pool_sized_to_the_chunks(pools):
    """A pool has at most one process per chunk of a point, the caller
    included; points of one chunk start none."""
    cfg = ExperimentConfig(d=3, decoder="weak", shots=2 * harness.CHUNK_SHOTS, seed=1,
                           workers=8)
    assert run_point(cfg, 1e-3) == run_point(dataclasses.replace(cfg, workers=1), 1e-3)
    assert pools == [2]
    run_experiment(dataclasses.replace(cfg, shots=harness.CHUNK_SHOTS, p_values=(1e-3, 1e-2)))
    assert pools == [2]


def test_pool_shut_down_on_return_and_on_bracket_error(pools):
    import multiprocessing

    cfg = ExperimentConfig(d=3, decoder="weak", seed=0, workers=2)
    estimate_pseudothreshold(cfg, 2e-4, 8e-3, 2 * harness.CHUNK_SHOTS, 1)
    assert multiprocessing.active_children() == []
    with pytest.raises(BracketError):  # both ends lie above the 2p/3 line
        estimate_pseudothreshold(cfg, 5e-3, 1e-2, 2 * harness.CHUNK_SHOTS, 1)
    assert multiprocessing.active_children() == []
    assert pools == [2, 2]
    assert pools.exits == [[0], [0]]  # each child left its loop; none was terminated


def test_child_exception_raised_in_the_caller(monkeypatch):
    """A hand-off that raises in a pool child raises the same exception
    from the caller's ``run_point``, and no child outlives it. (The fork
    copies the patched ``_run_chunk``; it fails only outside the caller.)"""
    import multiprocessing
    import os

    caller, run_chunk = os.getpid(), harness._run_chunk

    def failing(job):
        if os.getpid() != caller:
            raise ValueError("hand-off failed in a child")
        return run_chunk(job)

    monkeypatch.setattr(harness, "_run_chunk", failing)
    cfg = ExperimentConfig(d=3, decoder="weak", shots=4 * harness.CHUNK_SHOTS, seed=1,
                           workers=2)
    with pytest.raises(ValueError, match="hand-off failed in a child"):
        run_point(cfg, 1e-2)
    assert multiprocessing.active_children() == []


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
    # an unknown kind, a negative budget or a non-integer one is refused, not run
    for kind, t in (("nope", 1), ("shor", -1), ("strong", 1.5), ("strong", True)):
        with pytest.raises(ValueError, match="unknown decoder kind|t must be"):
            run_shot_reference(code3, table3, kind, t)
    # rounds sampled at p > 0 need an rng; injected rounds read none
    noisy = (compile_schedule(code3, NoiseModel(1e-3)),)
    with pytest.raises(ValueError, match="need an rng"):
        run_shot_reference(code3, table3, "strong", 1, schedules=noisy)
    assert not run_shot_reference(code3, table3, "strong", 1, schedules=noisy,
                                  injected_faults={}).logical_error
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

    def fake_run_point(config, p, point_key, run):
        pl = p * p
        return ExperimentStats(
            p=p, shots=10**9, logical_errors=int(pl * 10**9), p_l_hat=pl,
            ci_low=pl * 0.999, ci_high=pl * 1.001, avg_rounds=2.0,
            rounds_histogram={}, max_rounds_seen=2, stopped_by={}, seed=0,
        )

    monkeypatch.setattr(harness, "_run_point", fake_run_point)
    cfg = ExperimentConfig(d=3, decoder="strong", shots=1, seed=0)
    result = estimate_pseudothreshold(cfg, 0.05, 0.99, shots_per_probe=1000, iterations=12)
    assert result.estimate == pytest.approx(2.0 / 3.0, rel=2e-3)
    assert result.ci_low <= 2.0 / 3.0 <= result.ci_high


def test_pseudothreshold_bracket_error(monkeypatch):
    def fake_run_point(config, p, point_key, run):
        return ExperimentStats(
            p=p, shots=1000, logical_errors=0, p_l_hat=0.0, ci_low=0.0,
            ci_high=3e-3, avg_rounds=2.0, rounds_histogram={}, max_rounds_seen=2,
            stopped_by={}, seed=0,
        )

    monkeypatch.setattr(harness, "_run_point", fake_run_point)
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


def _draw_pairs(rng, ctx, size):
    """``size`` pairs drawn in the order ``sample_fault_pairs`` draws one
    chunk's, one scalar call per number: every fault's round, then every
    fault's location, then every fault's value. Returns, per pair, its
    (round, location, value) per fault."""
    compiled = ctx.stages[0]
    rounds = [int(rng.integers(1, ctx.cap + 1)) for _ in range(2 * size)]
    lids = [int(rng.integers(compiled.n_locations)) for _ in range(2 * size)]
    values = [compiled.values[lid][int(rng.integers(len(compiled.values[lid])))] for lid in lids]
    faults = list(zip(rounds, lids, values))
    return [faults[2 * i:2 * i + 2] for i in range(size)]


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
    for pair in _draw_pairs(rng, ctx, samples):
        faults: dict[int, list] = {}
        for rho, lid, value in pair:
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
    failures recorded, pairs by faults landed). Chunk i of
    ``harness.CHUNK_SHOTS`` pairs is drawn from its own stream,
    ``harness._chunk_seed(seed, harness._PAIR_KEY, i)``."""
    pairs = []
    for i, start in enumerate(range(0, samples, harness.CHUNK_SHOTS)):
        rng = harness._chunk_seed(seed, harness._PAIR_KEY, i)
        pairs += _draw_pairs(rng, ctx, min(harness.CHUNK_SHOTS, samples - start))
    logical = 0
    failures = []
    landed = [0, 0, 0]
    for pair in pairs:
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
    assert report.landed == _reference_pairs(ctx, 2000, 0)[2] == [317, 512, 1171]


def _chi_square_exceeds(counts, false_alarm=1e-6) -> bool:
    """Pearson's statistic of ``counts`` against equal cells, above the
    Laurent-Massart bound P(chi2_k >= k + 2 sqrt(k x) + 2 x) <= exp(-x)
    at exp(-x) = ``false_alarm``, k the cells less one."""
    counts = np.asarray(counts, np.float64)
    expected = counts.sum() / len(counts)
    stat = ((counts - expected) ** 2 / expected).sum()
    k, x = len(counts) - 1, -math.log(false_alarm)
    return stat > k + 2 * math.sqrt(k * x) + 2 * x


def test_sampled_pair_draws_are_uniform(monkeypatch):
    """The 2e5 faults of 1e5 d=5 strong pairs at seed 5, as
    ``sample_fault_pairs`` hands them to the engine: rounds uniform on
    1..cap, location ids uniform on 0..n_locations-1, and, within each
    location kind of more than one value, value indices uniform. Each of
    the five chi-square checks has a false-alarm rate of at most 1e-6
    under the chi-square approximation (every cell expects over 500
    faults), so about 5e-6 in all."""
    ctx = harness._context((5, "strong", False, None))
    compiled = ctx.stages[0]
    seen = []
    run_injected = harness._run_injected

    def capture(ctx, frames, rnd, row):
        seen.append((rnd.ravel(), row.ravel()))
        return run_injected(ctx, frames, rnd, row)

    monkeypatch.setattr(harness, "_run_injected", capture)
    report = sample_fault_pairs(5, "strong", samples=100_000, seed=5)
    assert report.ok and report.cases == 100_000
    rnd, row = (np.concatenate(column) for column in zip(*seen))
    assert len(rnd) == 200_000
    lid = np.searchsorted(compiled.first_row, row, side="right") - 1
    choice = row - compiled.first_row[lid]
    assert rnd.min() >= 1 and rnd.max() <= ctx.cap
    assert not _chi_square_exceeds(np.bincount(rnd, minlength=ctx.cap + 1)[1:])
    assert not _chi_square_exceeds(np.bincount(lid, minlength=compiled.n_locations))
    assert (choice < compiled.n_choices[lid]).all()
    kinds = np.array([kind for kind, _ in compiled.loc_kind])[lid]
    widths = {kind: len(values) for (kind, _), values in zip(compiled.loc_kind, compiled.values)}
    assert sorted(widths.values()) == [1, 3, 3, 15]
    for kind, width in widths.items():
        if width > 1:
            counts = np.bincount(choice[kinds == kind], minlength=width)
            assert not _chi_square_exceeds(counts), kind


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
    # wrongly typed values are refused here, for every caller, naming the field
    for name, value in (("d", 3.0), ("shots", 100.5), ("seed", 1.5), ("workers", 1.5),
                        ("max_errors", 2.5), ("built_to_weight", True), ("css_two_stage", 1),
                        ("p_values", 0.01), ("p_values", (True,)), ("p_values", ["0.01"])):
        with pytest.raises(ValueError, match=f"{name} must be"):
            ExperimentConfig(**{"d": 3, "decoder": "strong", name: value})
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        ExperimentConfig(d=3, decoder="strong", seed=-1)
    # a table weight past the enumeration budget is refused here, naming the
    # field, before any table is built; the deepest weight within it passes
    with pytest.raises(ValueError, match="built_to_weight 5 at d=9 needs 6508884 table"):
        ExperimentConfig(d=9, decoder="weak", built_to_weight=5)
    assert ExperimentConfig(d=9, decoder="weak", built_to_weight=4).built_to_weight == 4
    cfg = ExperimentConfig(d=3, decoder="strong", p_values=[1e-3, 1], shots=np.int64(5))
    assert cfg.p_values == (1e-3, 1) and cfg.shots == 5


def test_counts_checked_before_any_work(monkeypatch):
    """A non-integer or bool probe or pair count, or a probe shot count
    below 1, is refused, naming the argument, before any probe or pair
    runs."""
    monkeypatch.setattr(harness, "_run_chunk", None)  # a chunk would raise TypeError
    monkeypatch.setattr(harness, "_run_injected", None)
    cfg = ExperimentConfig(d=3, decoder="weak", workers=1)
    for value in (1.5, True, np.float64(2.0)):
        with pytest.raises(ValueError, match="iterations must be an integer"):
            estimate_pseudothreshold(cfg, 1e-4, 1e-2, 1000, iterations=value)
        with pytest.raises(ValueError, match="shots_per_probe must be an integer"):
            estimate_pseudothreshold(cfg, 1e-4, 1e-2, shots_per_probe=value)
        with pytest.raises(ValueError, match="samples must be an integer"):
            sample_fault_pairs(3, "weak", samples=value)
    for value in (0, -5):
        with pytest.raises(ValueError, match=f"shots_per_probe must be >= 1, got {value}"):
            estimate_pseudothreshold(cfg, 1e-4, 1e-2, shots_per_probe=value)
    with pytest.raises(ValueError, match="seed must be an integer"):
        sample_fault_pairs(3, "weak", samples=10, seed=1.5)


def test_run_point_rejects_rates_outside_unit_interval(monkeypatch):
    """``run_point`` checks p as ``ExperimentConfig`` checks ``p_values``,
    and ``estimate_pseudothreshold`` checks both bracket ends, before any
    chunk runs: a bool or a string is no rate."""
    cfg = ExperimentConfig(d=3, decoder="weak", shots=100, seed=1, workers=1)
    monkeypatch.setattr(harness, "_run_chunk", None)  # a chunk would raise TypeError
    for p in (-0.5, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"physical error rate .* outside \[0, 1\]"):
            run_point(cfg, p)
    for p in (True, "0.1"):
        with pytest.raises(ValueError, match="physical error rate must be a real number"):
            run_point(cfg, p)
    for bracket in ((1e-4, True), ("1e-4", 1e-2), (False, 1e-2)):
        with pytest.raises(ValueError, match="p_lo and p_hi must be real numbers"):
            estimate_pseudothreshold(cfg, *bracket, shots_per_probe=100)


def test_contexts_share_one_table_per_distance_and_weight():
    """Contexts that differ only in decoder or two-stage mode, or that name
    the default weight by number, hold the one code and table of their
    distance and weight; another weight gets its own table. The shared
    table's ``fallback_decodes``, which the benchmark reads as a difference
    around each call, still counts every call's misses."""
    base = harness._context((5, "strong", False, None))
    default = harness.default_built_to_weight(base.code, 2)
    for key in ((5, "weak", False, None), (5, "weak", True, None), (5, "shor", False, None),
                (5, "strong", True, default)):
        ctx = harness._context(key)
        assert ctx.table is base.table and ctx.code is base.code, key
    shallow = harness._context((5, "strong", False, 1))
    assert shallow.code is base.code and shallow.table is not base.table
    assert len(shallow.table.keys) < len(base.table.keys)
    also = harness._context((5, "weak", True, 1))
    assert also.table is shallow.table
    m = shallow.table.m
    syndromes = np.random.default_rng(5).integers(0, 1 << 2 * m, size=300).astype(np.uint64)
    sectors = np.concatenate((syndromes >> np.uint64(m), syndromes & np.uint64((1 << m) - 1)))
    misses = int(np.count_nonzero(~np.isin(sectors, shallow.table.keys)))
    assert misses > 0
    for ctx in (shallow, also, shallow):
        before = ctx.table.fallback_decodes
        decode_sector_masks(ctx.table, syndromes)
        assert ctx.table.fallback_decodes - before == misses
