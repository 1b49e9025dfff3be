"""Monte Carlo experiments, fault-injection checks, and threshold analysis.

The Monte Carlo engine runs all shots of a chunk together, as numpy
arrays in the manner of a Pauli-frame simulator: every shot's frame and
syndromes are uint64 words, and all shots still running take each round
in step. A round draws the failing locations of the whole
shots x locations grid and folds each fault's four-word XOR effect into
its shot (``CompiledSchedule.fold``). Every stopping rule is one
transition table (``decoders.PolicyTable``): per round, each shot moves
to its state's successor for "syndrome changed or not" and reads that
state's decision; a shot leaves the active set when it stops. One
driver, ``_run_shots``, runs every stage this way (in two-stage mode the
Z-sector stage starts with each shot's remaining budget) and then applies
each shot's chosen correction; only the source of each round's faults
differs between its callers. The Monte Carlo chunk samples them and
returns its counts as one vector, which ``run_point`` adds up. The
fault-injection checks give each case one shot, which starts from its
input error and folds only its injected faults, each in its own round
counted over all stages.

The scalar reference runner ``run_shot_reference`` plays one shot, in
either mode, through the same circuit semantics (``inject_round`` for
injected faults, ``sample_round`` for sampled ones), the pure decision
rule ``decoders.policy_decision`` and the scalar decoder; its
``ShotResult`` carries the verdict, the residual frame before ideal EC
and each stage's stop decision. The tests check the engine and the
fault-injection checks against it.

Reproducibility: shots are processed in fixed-size chunks and every chunk
draws from its own counter-based Philox stream keyed by
(seed, point_key, chunk_index). Aggregation adds counts in chunk order,
so results are byte-identical for any worker count, and the optional
stop-after-N-logical-errors rule is evaluated at chunk boundaries in
chunk order for the same reason.
"""

from __future__ import annotations

import dataclasses
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import decoders
from .colorcode import build_hex_color_code
from .decoders import (
    BUDGET_EXHAUSTED,
    CODE_CONTINUE,
    CONTINUE,
    REASONS,
    STOP_CORRECT,
    PolicyDecision,
    PolicyTable,
    policy_decision,
    policy_table,
)
from .diffvec import difference_vector, min_faults
from .extraction import (
    CompiledSchedule,
    FrameBatch,
    NoiseModel,
    compile_schedule,
    inject_round,
    sample_round,
)
from .recovery import (
    DEFAULT_BUDGET,
    SyndromeTable,
    build_table,
    decode_sector_masks,
    enumeration_count,
    parity64,
    popcount64,
)
from .stabilizer import PauliOperator, StabilizerCode

CHUNK_SHOTS = 4096
SUPPORTED_DISTANCES = (3, 5, 7, 9)
WORKER_ENV_VAR = "FTECSIM_WORKERS"

_WILSON_Z = 1.959963984540054  # 95 percent


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation campaign: a code, a decoder, and sampling controls."""

    d: int
    decoder: str
    p_values: tuple[float, ...] = ()
    shots: int = 10_000
    seed: int = 0
    css_two_stage: bool = False
    max_errors: int | None = None
    workers: int | None = None
    built_to_weight: int | None = None

    def __post_init__(self):
        if self.d not in SUPPORTED_DISTANCES:
            raise ValueError(f"d must be one of {SUPPORTED_DISTANCES}, got {self.d}")
        if self.decoder not in decoders.KINDS:
            raise ValueError(f"unknown decoder {self.decoder!r}")
        if self.shots < 1:
            raise ValueError("shots must be positive")
        for p in self.p_values:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"physical error rate {p} outside [0, 1]")
        for name in ("max_errors", "workers", "built_to_weight"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.css_two_stage and self.decoder == "shor":
            raise ValueError("two-stage mode applies to the strong or weak decoders")

    @property
    def t(self) -> int:
        return (self.d - 1) // 2


@dataclass(frozen=True)
class ShotResult:
    logical_error: bool
    residual: PauliOperator  # the frame after the chosen correction, before ideal EC
    decisions: tuple[PolicyDecision, ...]  # each stage's stop: rounds, reason, chosen round
    rounds_used: int  # over all stages


@dataclass
class ExperimentStats:
    p: float
    shots: int
    logical_errors: int
    p_l_hat: float
    ci_low: float
    ci_high: float
    avg_rounds: float
    rounds_histogram: dict[int, int]
    max_rounds_seen: int
    # stop reason -> shots; in two-stage mode, each shot's stage-2 stop
    stopped_by: dict[str, int]
    seed: int

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def wilson_interval(errors: int, shots: int, z: float = _WILSON_Z) -> tuple[float, float]:
    if shots == 0:
        return (0.0, 1.0)
    phat = errors / shots
    denom = 1.0 + z * z / shots
    center = (phat + z * z / (2 * shots)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / shots + z * z / (4 * shots * shots))
    # exact at the ends, where rounding would leave a residue
    return (max(0.0, center - half) if errors else 0.0,
            min(1.0, center + half) if errors < shots else 1.0)


def default_built_to_weight(code: StabilizerCode, t: int) -> int:
    """Deepest table weight within ``recovery.DEFAULT_BUDGET``, at most t + 1."""
    w = t + 1
    while w > 1 and enumeration_count(code.n, w) > DEFAULT_BUDGET:
        w -= 1
    return w


# ---------------------------------------------------------------------------
# Engine context (immutable per process, shared by all chunks)


class _Context:
    def __init__(self, d: int, decoder: str, css_two_stage: bool, built_to_weight: int | None):
        self.kind = decoder
        self.t = (d - 1) // 2
        self.code = build_hex_color_code(d)
        weight = (
            built_to_weight
            if built_to_weight is not None
            else default_built_to_weight(self.code, self.t)
        )
        self.table = build_table(self.code, weight)
        self.m = len(self.code.x_sector)
        self.x_mask = np.uint64((1 << self.m) - 1)
        # per stage, its compiled schedule; its ``base`` places the stage's
        # reported bits in the full syndrome
        sectors = ("x", "z") if css_two_stage else ("all",)
        self.stages = [compile_schedule(self.code, NoiseModel(0.0), s) for s in sectors]
        # an X error flips logical Z, a Z error flips logical X
        self.x_logical = np.uint64(self.code.logical_z[0].z_bits)
        self.z_logical = np.uint64(self.code.logical_x[0].x_bits)
        self.policy = policy_table(self.kind, self.t)
        self.cap = self.policy.max_rounds * len(self.stages)


_CTX_CACHE: dict[tuple, _Context] = {}


def _context(key: tuple) -> _Context:
    ctx = _CTX_CACHE.get(key)
    if ctx is None:
        ctx = _Context(*key)
        _CTX_CACHE[key] = ctx
    return ctx


def _run_policy(table: PolicyTable, next_round, budget: np.ndarray):
    """Drive one stopping policy over a batch of shots, all rounds in step.

    ``next_round(active, r)`` runs round r (1-based) on the shots
    ``active`` (an index array) and returns their reported syndromes; each
    shot starts in ``table.root`` at its own fault ``budget``. Returns,
    per shot, the chosen syndrome (0 for no correction), the 1-based round
    it came from (0 for none), the rounds used, the stop-reason code (an
    index into ``REASONS``) and the minimum fault count of the final
    difference vector.
    """
    n = len(budget)
    history = np.zeros((table.max_rounds, n), np.uint64)
    chosen_round = np.zeros(n, np.int64)
    rounds = np.zeros(n, np.int64)
    reason = np.zeros(n, np.int64)
    faults = np.zeros(n, np.int64)
    active = np.arange(n)
    prev = np.zeros(n, np.uint64)
    state = table.root[budget]
    r = 0
    while active.size:
        syn = next_round(active, r + 1)
        history[r, active] = syn
        r += 1
        state, (code, pick, evidenced) = table.advance(state, syn != prev)
        prev = syn
        stop = code != CODE_CONTINUE
        if not stop.any():
            continue
        done = active[stop]
        chosen_round[done] = pick[stop]
        rounds[done] = r
        reason[done] = code[stop]
        faults[done] = evidenced[stop]
        keep = ~stop
        active, prev, state = active[keep], prev[keep], state[keep]
    chosen = history[chosen_round - 1, np.arange(n)]
    chosen[chosen_round == 0] = 0
    return chosen, chosen_round, rounds, reason, faults


def _apply_faults(compiled: CompiledSchedule, frames: FrameBatch, shot: np.ndarray,
                  row: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Fold one round's faults into the frames of the shots ``active`` and
    return their reported syndromes (``CompiledSchedule.fold``).

    The batched counterpart of ``extraction._apply_faults``: the engine
    applies every round's faults through this one module-level name, so a
    tracer that replaces it sees each batched round and its fault count
    ``len(shot)``, as it sees each round of the scalar path.
    """
    return compiled.fold(frames, active, shot, row)


def _decode_into(ctx: _Context, frames: FrameBatch, syndrome: np.ndarray) -> None:
    """XOR the decoded correction of each shot's ``syndrome`` into its frame."""
    hit = np.flatnonzero(syndrome)
    part = syndrome[hit]
    cx, cz = decode_sector_masks(ctx.table, part & ctx.x_mask, part >> np.uint64(ctx.m))
    frames.x[hit] ^= cx
    frames.z[hit] ^= cz


def _run_shots(ctx: _Context, frames: FrameBatch, fold_round) -> tuple:
    """Every stage of a batch of shots, one per frame of ``frames``, then
    each shot's chosen correction.

    ``fold_round(compiled, active, rnd)`` runs one round of the stage
    schedule ``compiled`` on the shots ``active``, whose round numbers
    counted over all stages are ``rnd``, and returns their reported
    syndromes. Each stage after the first runs with budget t minus the
    faults evidenced by the previous stage's difference vector, as in
    ``run_shot_reference``. The frames' x/z words are left holding the
    residual before ideal EC. Returns the residual's syndrome (the frames'
    ``syndrome`` words are not updated), the rounds used and the last
    stage's stop-reason codes (indices into ``REASONS``).
    """
    n = len(frames.x)
    chosen = np.zeros(n, np.uint64)
    rounds = np.zeros(n, np.int64)
    budget = np.full(n, ctx.t, np.int64)
    for compiled in ctx.stages:
        # ``rounds`` holds the earlier stages' rounds until this stage ends
        def next_round(active, r, compiled=compiled):
            return fold_round(compiled, active, rounds[active] + r)

        syn, _, used, reason, faults = _run_policy(ctx.policy, next_round, budget)
        chosen |= syn << np.uint64(compiled.base)
        rounds += used
        budget = np.maximum(ctx.t - faults, 0)
    # a correction's syndrome is the syndrome it was decoded from
    residual = frames.syndrome ^ chosen
    _decode_into(ctx, frames, chosen)
    return residual, rounds, reason


def _logical_errors(ctx: _Context, frames: FrameBatch, residual: np.ndarray) -> np.ndarray:
    """Ideal EC on the corrected frames (``residual`` from :func:`_run_shots`);
    True where a logical error remains."""
    _decode_into(ctx, frames, residual)
    return parity64(frames.x & ctx.x_logical) | parity64(frames.z & ctx.z_logical)


def _simulate_chunk(ctx: _Context, p: float, shots: int, rng: np.random.Generator) -> np.ndarray:
    """All shots of one chunk, every round sampled at rate p. Returns the
    chunk's counts as one int64 vector: the logical errors, then the shots
    that used 0..``ctx.cap`` rounds, then the shots per ``REASONS`` entry
    of their last stage's stop. Chunks aggregate by adding vectors."""
    frames = FrameBatch(shots)

    def fold_round(compiled, active, rnd):
        return np.concatenate([
            _apply_faults(compiled, frames, *compiled.draw(p, len(part), rng), part)
            for part in compiled.slices(p, active)
        ])

    residual, rounds, reason = _run_shots(ctx, frames, fold_round)
    errors = _logical_errors(ctx, frames, residual)
    return np.concatenate((
        [errors.sum()],
        np.bincount(rounds, minlength=ctx.cap + 1),
        np.bincount(reason, minlength=len(REASONS)),
    ))


def _chunk_seed(seed: int, point_key: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(point_key, chunk_index))
    return np.random.Generator(np.random.Philox(ss))


def _run_chunk(args) -> tuple:
    (ctx_key, p, shots, seed, point_key, chunk_index) = args
    return _simulate_chunk(_context(ctx_key), p, shots, _chunk_seed(seed, point_key, chunk_index))


def resolve_workers(workers: int | None) -> int:
    """The configured worker count (``ExperimentConfig`` keeps it >= 1),
    else ``FTECSIM_WORKERS``, else 1."""
    if workers is not None:
        return workers
    env = os.environ.get(WORKER_ENV_VAR)
    if not env:
        return 1
    try:
        value = int(env)
    except ValueError:
        value = 0  # reported below, as any value under 1 is
    if value < 1:
        raise ValueError(f"{WORKER_ENV_VAR} must be an integer >= 1, got {env!r}")
    return value


def run_point(config: ExperimentConfig, p: float, point_key: int = 0) -> ExperimentStats:
    """Simulate one physical error rate and aggregate the shot outcomes."""
    ctx_key = (config.d, config.decoder, config.css_two_stage, config.built_to_weight)
    ctx = _context(ctx_key)
    n_chunks = (config.shots + CHUNK_SHOTS - 1) // CHUNK_SHOTS
    jobs = [(ctx_key, p, min(CHUNK_SHOTS, config.shots - i * CHUNK_SHOTS), config.seed,
             point_key, i) for i in range(n_chunks)]
    workers = resolve_workers(config.workers)

    total = np.zeros(ctx.cap + 2 + len(REASONS), np.int64)

    def consume(counts) -> bool:
        total[:] += counts
        return config.max_errors is not None and total[0] >= config.max_errors

    if workers <= 1 or n_chunks == 1:
        for job in jobs:
            if consume(_run_chunk(job)):
                break
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for counts in pool.map(_run_chunk, jobs):
                if consume(counts):
                    break

    errors = int(total[0])
    hist = total[1:ctx.cap + 2].tolist()
    stops = total[ctx.cap + 2:].tolist()
    shots = sum(hist)
    ci_low, ci_high = wilson_interval(errors, shots)
    return ExperimentStats(
        p=p,
        shots=shots,
        logical_errors=errors,
        p_l_hat=errors / shots,
        ci_low=ci_low,
        ci_high=ci_high,
        avg_rounds=sum(r * c for r, c in enumerate(hist)) / shots,
        rounds_histogram={r: c for r, c in enumerate(hist) if c},
        max_rounds_seen=max(r for r, c in enumerate(hist) if c),
        stopped_by=dict(sorted((REASONS[i], c) for i, c in enumerate(stops) if c)),
        seed=config.seed,
    )


def run_experiment(config: ExperimentConfig) -> list[ExperimentStats]:
    return [run_point(config, p, point_key=i) for i, p in enumerate(config.p_values)]


# ---------------------------------------------------------------------------
# Reference per-shot runner (the tests' oracle for the engine and the injector)


def run_shot_reference(
    code: StabilizerCode,
    table: SyndromeTable,
    kind: str,
    t: int,
    *,
    schedules: tuple[CompiledSchedule, ...] | None = None,
    rng: np.random.Generator | None = None,
    initial_error: PauliOperator | None = None,
    injected_faults: dict[int, list] | None = None,
) -> ShotResult:
    """One protocol run through the pure decision rule, round by round.

    ``schedules`` holds one compiled schedule per stage: the noiseless
    "all" schedule by default, the "x" and "z" schedules in two-stage
    mode. Each stage after the first runs with budget t minus the faults
    evidenced by the previous stage's difference vector; at budget 0 it
    takes one round and stops with ``BUDGET_EXHAUSTED``. Each stage's
    chosen syndrome goes into the full syndrome at its schedule's
    ``base``. ``injected_faults`` maps a round number, counted across
    the stages, to (location id, value) pairs applied in that round on
    top of zero noise; without it rounds are sampled at each schedule's
    ``noise.p``. The result carries the frame after the chosen
    correction and before ideal EC (``residual``) and each stage's stop
    decision.
    """
    from .recovery import decode, final_verdict

    if kind not in decoders.KINDS or t < 0:
        raise ValueError(f"unknown decoder kind {kind!r} or negative fault budget t={t}")
    if schedules is None:
        schedules = (compile_schedule(code, NoiseModel(0.0)),)
    if kind == "shor" and len(schedules) > 1:
        raise ValueError("two-stage mode applies to the strong or weak decoders")
    frame = schedules[0].new_frame(initial_error)
    chosen = rounds = 0
    budget = t
    decisions = []
    for compiled in schedules:
        history = []
        decision = None
        while decision is None or decision.action == CONTINUE:
            rounds += 1
            if injected_faults is not None:
                syn = inject_round(compiled, frame, injected_faults.get(rounds, ()))
            else:
                syn = sample_round(compiled, frame, rng)
            history.append(syn)
            delta = difference_vector(history)
            decision = (policy_decision(kind, budget, history[0] != 0, delta)
                        if budget else BUDGET_EXHAUSTED)
        decisions.append(decision)
        if decision.action == STOP_CORRECT:
            chosen |= history[decision.round_index - 1] << compiled.base
        budget = max(t - min_faults(delta), 0)
    if chosen:
        correction = decode(table, code, chosen)
        frame.x ^= correction.x_bits
        frame.z ^= correction.z_bits
    residual = frame.to_pauli(code.n)
    return ShotResult(
        logical_error=final_verdict(code, table, residual) == "logical_error",
        residual=residual,
        decisions=tuple(decisions),
        rounds_used=rounds,
    )


# ---------------------------------------------------------------------------
# Fault-injection verification


FAILURES_RECORDED = 20  # failing cases a report lists, the first in case order


@dataclass
class FaultEnumReport:
    d: int
    decoder: str
    order: int
    cases: int
    skipped_unreached: int
    logical_failures: int
    weight_violations: int
    failures: list = field(default_factory=list)
    # order 2: landed[k] is the number of pairs of which k faults landed,
    # that is, came in a round the shot reached
    landed: list | None = None

    @property
    def ok(self) -> bool:
        return not self.logical_failures and not self.weight_violations


def _run_injected(ctx: _Context, frames: FrameBatch, rnd: np.ndarray, row: np.ndarray) -> tuple:
    """Injected cases through the engine, one case per shot of ``frames``.

    Each shot starts from its frame in ``frames`` (an input error, or
    none) and samples no noise. ``rnd`` and ``row`` are (shots, k)
    matrices: fault j of shot i, row ``row[i, j]`` of the fault table
    that every stage schedule shares, folds in round ``rnd[i, j]``,
    counted over all stages, if the shot is still running then. Round 0
    means no fault, and a fault whose round the shot never reaches never
    folds. Returns, per shot, the logical verdict, the residual x and z
    words after the chosen correction and before ideal EC, the rounds
    used and the last stage's stop-reason code (an index into
    ``REASONS``).
    """
    def fold_round(compiled, active, now):
        pos, j = np.nonzero(rnd[active] == now[:, None])
        return _apply_faults(compiled, frames, pos, row[active[pos], j], active)

    residual, rounds, reason = _run_shots(ctx, frames, fold_round)
    x, z = frames.x.copy(), frames.z.copy()
    return _logical_errors(ctx, frames, residual), x, z, rounds, reason


def _tally(report: FaultEnumReport, ctx: _Context, result: tuple, weight_bad: np.ndarray,
           label) -> None:
    """Count one chunk of cases (``result`` of :func:`_run_injected`) into
    the report and record its first failures; ``label(i)`` names case i."""
    errors, x, z, rounds, reason = result
    report.cases += len(errors)
    report.logical_failures += int(errors.sum())
    report.weight_violations += int(weight_bad.sum())
    for i in np.flatnonzero(errors | weight_bad)[:FAILURES_RECORDED - len(report.failures)]:
        report.failures.append(
            {"case": label(i),
             "residual": PauliOperator(ctx.code.n, int(x[i]), int(z[i])).to_string(),
             "rounds": int(rounds[i]),
             "stopped_by": REASONS[reason[i]]}
        )


def enumerate_single_faults(d: int, decoder: str) -> FaultEnumReport:
    """Exhaustive order-1 fault injection for one decoder.

    Every input error of weight 1 and every (round, location, value)
    circuit fault runs the full protocol; the verdict must be
    no_logical_error and the pre-ideal-EC residual weight at most the
    number of circuit faults that landed. A fault in a round after the
    noiseless run stops never fires, so those rounds are only counted,
    as ``skipped_unreached``. The cases run through the engine in chunks
    of ``CHUNK_SHOTS``.
    """
    ctx = _context((d, decoder, False, None))
    compiled = ctx.stages[0]
    rows = len(compiled.words)
    no_fault = np.zeros((1, 1), np.int64)  # round 0
    reached = int(_run_injected(ctx, FrameBatch(1), no_fault, no_fault)[3][0])
    report = FaultEnumReport(d, decoder, 1, 0, (ctx.cap - reached) * rows, 0, 0)
    # cases: X, Y and Z on each qubit, then every table row in each reached round
    inputs = 3 * ctx.code.n
    faults = [(lid, value) for lid, values in enumerate(compiled.values) for value in values]
    syn_x = np.array(compiled.syn_x, np.uint64)
    syn_z = np.array(compiled.syn_z, np.uint64)

    def label(case):
        if case < inputs:
            return f"input {'XYZ'[case % 3]}{case // 3}"
        rho, row = divmod(case - inputs, rows)
        lid, value = faults[row]
        return f"round {rho + 1} loc {lid} {value}"

    total = inputs + reached * rows
    for start in range(0, total, CHUNK_SHOTS):
        case = np.arange(start, min(start + CHUNK_SHOTS, total))
        frames = FrameBatch(len(case))
        q, letter = np.divmod(case[case < inputs], 3)
        has_x, has_z = letter != 2, letter != 0
        k = len(q)
        frames.x[:k] = has_x.astype(np.uint64) << q.astype(np.uint64)
        frames.z[:k] = has_z.astype(np.uint64) << q.astype(np.uint64)
        frames.syndrome[:k] = np.where(has_x, syn_x[q], 0) ^ np.where(has_z, syn_z[q], 0)
        rnd, row = np.divmod(case - inputs, rows)
        rnd = np.where(case < inputs, 0, rnd + 1)
        result = _run_injected(ctx, frames, rnd[:, None], row[:, None])
        weight_bad = popcount64(result[1] | result[2]) > (rnd > 0)  # faults that landed
        _tally(report, ctx, result, weight_bad, lambda i: label(start + i))
    return report


def sample_fault_pairs(d: int, decoder: str, samples: int, seed: int = 0) -> FaultEnumReport:
    """Order-2 fault injection: uniformly sampled ordered pairs.

    Each fault's round is uniform over 1 to the policy's round cap, so a
    fault can come after the shot stops and never land; the pair counts
    as a case all the same, and ``landed`` counts the pairs by how many
    of their faults landed. A pair fails on a logical error. The pairs
    are drawn and run in chunks of ``CHUNK_SHOTS``.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    ctx = _context((d, decoder, False, None))
    compiled = ctx.stages[0]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))
    report = FaultEnumReport(d, decoder, 2, 0, 0, 0, 0)
    landed = np.zeros(3, np.int64)
    for start in range(0, samples, CHUNK_SHOTS):
        size = min(CHUNK_SHOTS, samples - start)
        draws = np.empty((2 * size, 3), np.int64)  # (round, location, value index), two per pair
        for j in range(2 * size):
            rho = int(rng.integers(1, ctx.cap + 1))
            lid = int(rng.integers(compiled.n_locations))
            draws[j] = rho, lid, int(rng.integers(len(compiled.values[lid])))
        rnd, lid, choice = draws.reshape(size, 2, 3).transpose(2, 0, 1)
        result = _run_injected(ctx, FrameBatch(size), rnd, compiled.first_row[lid] + choice)
        landed += np.bincount((rnd <= result[3][:, None]).sum(1), minlength=3)

        def label(i):
            pair = draws[2 * i:2 * i + 2].tolist()
            return repr([(r, loc, compiled.values[loc][c]) for r, loc, c in pair])

        _tally(report, ctx, result, np.zeros(size, bool), label)
    report.landed = landed.tolist()
    return report


# ---------------------------------------------------------------------------
# Closed-form threshold analysis


def threshold_lower_bound(locations_per_round: int, t: int, rounds: int) -> float:
    """Lower bound C(rounds*L, t+1) ** (-1/t) on the concatenation threshold.

    Evaluated through log-gamma so huge binomial coefficients never
    overflow.
    """
    if locations_per_round < 1 or rounds < 1 or t < 1:
        raise ValueError("locations, rounds, and t must all be positive")
    total = rounds * locations_per_round
    if total < t + 1:
        raise ValueError(
            f"need rounds * locations >= t + 1, got {total} < {t + 1}"
        )
    ln_comb = (
        math.lgamma(total + 1) - math.lgamma(t + 2) - math.lgamma(total - t)
    )
    return math.exp(-ln_comb / t)


# ---------------------------------------------------------------------------
# Pseudothreshold estimation


class BracketError(RuntimeError):
    """The pseudothreshold bracket has no sign change; carries the curve."""

    def __init__(self, message: str, probes):
        super().__init__(message)
        self.probes = probes


@dataclass
class PseudothresholdResult:
    estimate: float
    ci_low: float
    ci_high: float
    probes: list
    shots_per_probe: int


def estimate_pseudothreshold(
    config: ExperimentConfig,
    p_lo: float,
    p_hi: float,
    shots_per_probe: int = 200_000,
    iterations: int = 9,
) -> PseudothresholdResult:
    """Bisect g(p) = p_L(p) - 2p/3 between a bracketing pair of rates.

    Probes use fixed shot counts and deterministic per-probe streams. The
    returned interval is read off the probes whose whole binomial
    confidence band lies on one side of the 2p/3 line.
    """
    probes: list[tuple[float, ExperimentStats]] = []
    probe_cfg = dataclasses.replace(config, shots=shots_per_probe, max_errors=None)
    counter = 0

    def g(p: float) -> float:
        nonlocal counter
        counter += 1
        stats = run_point(probe_cfg, p, point_key=1_000_000 + counter)
        probes.append((p, stats))
        return stats.p_l_hat - 2.0 * p / 3.0

    if not (0 < p_lo < p_hi <= 1):
        raise ValueError("need 0 < p_lo < p_hi <= 1")
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    g_lo = g(p_lo)
    g_hi = g(p_hi)
    if not (g_lo < 0 < g_hi):
        curve = [
            {"p": p, "p_l": s.p_l_hat, "ci_low": s.ci_low, "ci_high": s.ci_high}
            for p, s in probes
        ]
        raise BracketError(
            f"no crossing in bracket [{p_lo}, {p_hi}]: g({p_lo})={g_lo:.3g}, "
            f"g({p_hi})={g_hi:.3g}; sampled curve attached",
            curve,
        )
    lo, hi = p_lo, p_hi
    for _ in range(iterations):
        mid = math.sqrt(lo * hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    estimate = math.sqrt(lo * hi)

    # Final falsi-style refinement: a binomially weighted log-log fit over
    # the probes nearest the bracket, intersected with the 2p/3 line. The
    # raw bracket endpoints are noise-dominated once g is smaller than the
    # per-probe error, so interpolation through all nearby probes is the
    # better estimator.
    near = [
        (p, s) for p, s in probes
        if estimate / 4 <= p <= estimate * 4 and s.logical_errors > 0
    ]
    if len(near) >= 3:
        xs = [math.log(p) for p, _ in near]
        ys = [math.log(s.p_l_hat) for _, s in near]
        ws = [float(s.logical_errors) for _, s in near]
        sw = sum(ws)
        xbar = sum(w * x for w, x in zip(ws, xs)) / sw
        ybar = sum(w * y for w, y in zip(ws, ys)) / sw
        sxx = sum(w * (x - xbar) ** 2 for w, x in zip(ws, xs))
        if sxx > 0:
            slope = sum(w * (x - xbar) * (y - ybar) for w, x, y in zip(ws, xs, ys)) / sxx
            if slope > 1.05:
                # solve  ybar + slope (x - xbar) = log(2/3) + x
                x_cross = (math.log(2.0 / 3.0) - ybar + slope * xbar) / (slope - 1.0)
                p_cross = math.exp(x_cross)
                if lo / 2 <= p_cross <= hi * 2:
                    estimate = p_cross
                    # statistical error of the fitted crossing
                    var_y = 1.0 / sw + (x_cross - xbar) ** 2 / sxx
                    sigma = math.sqrt(var_y) / (slope - 1.0)
                    lo = max(lo / 2, estimate * math.exp(-1.96 * sigma))
                    hi = min(hi * 2, estimate * math.exp(1.96 * sigma))

    below = [p for p, s in probes if s.ci_high < 2.0 * p / 3.0]
    above = [p for p, s in probes if s.ci_low > 2.0 * p / 3.0]
    ci_low = min(max(below) if below else lo, lo)
    ci_high = max(min(above) if above else hi, hi)
    return PseudothresholdResult(estimate, ci_low, ci_high, probes, shots_per_probe)
