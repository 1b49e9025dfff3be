"""Monte Carlo experiments, fault-injection checks, and threshold analysis.

The Monte Carlo engine runs all shots of a chunk together, as numpy
arrays in the manner of a Pauli-frame simulator: every shot's frame and
syndromes are uint64 words, and all shots still running take each round
in step. A round draws the failing locations of the whole
shots x locations grid and folds each fault's four-word XOR effect into
its shot (``extraction.FaultEffects``). Every stopping rule is one
transition table (``decoders.PolicyTable``): per round, each shot moves
to its state's successor for "syndrome changed or not" and reads that
state's decision; a shot leaves the active set when it stops. In
two-stage mode the same loop then runs the Z-sector stage with each
shot's remaining budget, and the final decode and verdict run once over
the whole chunk.

The scalar reference runner ``run_shot_reference`` plays one shot through
the same circuit semantics (``inject_round`` for injected faults,
``sample_round`` for sampled ones), the ``PolicyDecision`` state machines
and the scalar decoder; its ``ShotResult`` carries the verdict, the
residual frame before ideal EC and the stop decision. The tests compare
it with the engine, and the fault-injection checks are built on it.

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
    CODE_CONTINUE,
    CONTINUE,
    REASONS,
    STOP_CORRECT,
    PolicyConfig,
    PolicyDecision,
    PolicyTable,
    make_policy,
    policy_table,
)
from .extraction import (
    CompiledSchedule,
    FaultEffects,
    FrameBatch,
    NoiseModel,
    compile_schedule,
    inject_round,
    legal_values,
    sample_round,
)
from .recovery import (
    DEFAULT_BUDGET,
    SyndromeTable,
    build_table,
    decode_sector_masks,
    enumeration_count,
    parity64,
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
    decision: PolicyDecision  # the stop: rounds used, reason, chosen round


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
    return (max(0.0, center - half), min(1.0, center + half))


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
        self.d = d
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
        # per stage: its schedule's fault effects, and the shift that places
        # its reported bits in the full syndrome
        flags = NoiseModel(0.0)
        sectors = (("x", 0), ("z", self.m)) if css_two_stage else (("all", 0),)
        self.stages = [
            (FaultEffects(compile_schedule(self.code, flags, sector)), np.uint64(shift))
            for sector, shift in sectors
        ]
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

    ``next_round(active)`` runs one round on the shots ``active`` (an
    index array) and returns their reported syndromes; each shot starts
    in ``table.root`` at its own fault ``budget``. Returns, per shot, the
    chosen syndrome (0 for no correction), the 1-based round it came from
    (0 for none), the rounds used, the stop-reason code (an index into
    ``REASONS``) and the minimum fault count of the final difference
    vector.
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
        syn = next_round(active)
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


def _apply_faults(effects: FaultEffects, frames: FrameBatch, shot: np.ndarray,
                  row: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Fold one round's faults into the frames of the shots ``active`` and
    return their reported syndromes (``FaultEffects.fold``).

    The batched counterpart of ``extraction._apply_faults``: the engine
    applies every round's faults through this one module-level name, so a
    tracer that replaces it sees each batched round and its fault count
    ``len(shot)``, as it sees each round of the scalar path.
    """
    return effects.fold(frames, active, shot, row)


def _logical_errors(ctx: _Context, frames: FrameBatch, chosen: np.ndarray) -> np.ndarray:
    """Apply each shot's chosen correction, then ideal EC; True where a
    logical error remains."""
    # a correction's syndrome is the syndrome it was decoded from
    residual = frames.syndrome ^ chosen
    for syndrome in (chosen, residual):
        hit = np.flatnonzero(syndrome)
        part = syndrome[hit]
        cx, cz = decode_sector_masks(ctx.table, part & ctx.x_mask, part >> np.uint64(ctx.m))
        frames.x[hit] ^= cx
        frames.z[hit] ^= cz
    return parity64(frames.x & ctx.x_logical) | parity64(frames.z & ctx.z_logical)


def _simulate_chunk(ctx: _Context, p: float, shots: int, rng: np.random.Generator) -> tuple:
    """All shots of one chunk: stage 1, then stage 2 in two-stage mode, then
    the verdicts. Stage 2 runs with each shot's budget t minus the faults
    evidenced by its stage-1 difference vector (``TwoStageState``)."""
    frames = FrameBatch(shots)
    chosen = np.zeros(shots, np.uint64)
    rounds = np.zeros(shots, np.int64)
    budget = np.full(shots, ctx.t, np.int64)
    for effects, shift in ctx.stages:
        def next_round(active, effects=effects):
            return np.concatenate([
                _apply_faults(effects, frames, *effects.draw(p, len(part), rng), part)
                for part in effects.slices(p, active)
            ])

        syn, _, used, reason, faults = _run_policy(ctx.policy, next_round, budget)
        chosen |= syn << shift
        rounds += used
        budget = np.maximum(ctx.t - faults, 0)
    errors = int(_logical_errors(ctx, frames, chosen).sum())
    hist = np.bincount(rounds, minlength=ctx.cap + 2).tolist()
    stops = np.bincount(reason, minlength=len(REASONS)).tolist()
    stopped_by = {REASONS[i]: c for i, c in enumerate(stops) if c}
    return (shots, errors, int(rounds.sum()), hist, int(rounds.max()), stopped_by)


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
    sizes = [
        min(CHUNK_SHOTS, config.shots - i * CHUNK_SHOTS) for i in range(n_chunks)
    ]
    jobs = [
        (ctx_key, p, sizes[i], config.seed, point_key, i) for i in range(n_chunks)
    ]
    workers = resolve_workers(config.workers)

    shots = errors = rounds_sum = max_rounds = 0
    hist: dict[int, int] = {}
    stopped: dict[str, int] = {}

    def consume(result) -> bool:
        nonlocal shots, errors, rounds_sum, max_rounds
        c_shots, c_errors, c_rsum, c_hist, c_max, c_stop = result
        shots += c_shots
        errors += c_errors
        rounds_sum += c_rsum
        max_rounds = max(max_rounds, c_max)
        for r, cnt in enumerate(c_hist):
            if cnt:
                hist[r] = hist.get(r, 0) + cnt
        for k, v in c_stop.items():
            stopped[k] = stopped.get(k, 0) + v
        return config.max_errors is not None and errors >= config.max_errors

    if workers <= 1 or n_chunks == 1:
        for job in jobs:
            if consume(_run_chunk(job)):
                break
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for result in pool.map(_run_chunk, jobs):
                if consume(result):
                    break

    ci_low, ci_high = wilson_interval(errors, shots)
    return ExperimentStats(
        p=p,
        shots=shots,
        logical_errors=errors,
        p_l_hat=errors / shots if shots else 0.0,
        ci_low=ci_low,
        ci_high=ci_high,
        avg_rounds=rounds_sum / shots if shots else 0.0,
        rounds_histogram=dict(sorted(hist.items())),
        max_rounds_seen=max_rounds,
        stopped_by=dict(sorted(stopped.items())),
        seed=config.seed,
    )


def run_experiment(config: ExperimentConfig) -> list[ExperimentStats]:
    return [run_point(config, p, point_key=i) for i, p in enumerate(config.p_values)]


# ---------------------------------------------------------------------------
# Reference per-shot runner (used by the fault-injection harness and tests)


def run_shot_reference(
    code: StabilizerCode,
    table: SyndromeTable,
    kind: str,
    t: int,
    *,
    p: float = 0.0,
    rng: np.random.Generator | None = None,
    initial_error: PauliOperator | None = None,
    injected_faults: dict[int, list] | None = None,
    compiled: CompiledSchedule | None = None,
) -> ShotResult:
    """One protocol run through the reference policy objects.

    ``injected_faults`` maps a round number to (location id, value) pairs
    applied in that round on top of p = 0 noise; without it rounds are
    sampled at rate ``p``. This path shares the circuit semantics with
    the fast engine but drives the PolicyDecision state machines and the
    scalar decoder directly. The result carries the frame after the
    chosen correction and before ideal EC (``residual``) and the stop
    decision.
    """
    from .recovery import decode, final_verdict
    from .stabilizer import syndrome_of

    noise = NoiseModel(p)
    if compiled is None:
        compiled = compile_schedule(code, noise)
    frame = compiled.new_frame(initial_error)
    policy = make_policy(PolicyConfig(kind, t))
    history = []
    decision = None
    while decision is None or decision.action == CONTINUE:
        if injected_faults is not None:
            syn = inject_round(compiled, frame, injected_faults.get(len(history) + 1, ()))
        else:
            syn = sample_round(compiled, noise, frame, rng)
        history.append(syn)
        decision = policy.step(syn)
    if decision.action == STOP_CORRECT:
        chosen = history[decision.round_index - 1]
        if chosen:
            correction = decode(table, code, chosen)
            frame.x ^= correction.x_bits
            frame.z ^= correction.z_bits
            frame.syndrome ^= syndrome_of(code, correction)
    residual = frame.to_pauli(code.n)
    return ShotResult(
        logical_error=final_verdict(code, table, residual) == "logical_error",
        residual=residual,
        decision=decision,
    )


# ---------------------------------------------------------------------------
# Fault-injection verification


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

    @property
    def ok(self) -> bool:
        return not self.logical_failures and not self.weight_violations


def _fault_injector(d: int, decoder: str):
    """The set-up the fault-injection checks share: the code, its
    noiseless schedule, the policy's round cap, and ``run(faults,
    initial)``, one reference shot with those faults injected."""
    t = (d - 1) // 2
    code = build_hex_color_code(d)
    table = build_table(code, default_built_to_weight(code, t))
    compiled = compile_schedule(code, NoiseModel(0.0))
    cap = PolicyConfig(decoder, t).max_rounds_cap()

    def run(faults, initial=None) -> ShotResult:
        return run_shot_reference(code, table, decoder, t, initial_error=initial,
                                  injected_faults=faults, compiled=compiled)

    return code, compiled, cap, run


def _record(report: FaultEnumReport, case: str, result: ShotResult,
            max_failures_recorded: int) -> None:
    if len(report.failures) < max_failures_recorded:
        report.failures.append(
            {"case": case, "residual": result.residual.to_string(),
             "rounds": result.decision.rounds_used,
             "stopped_by": result.decision.stopped_by}
        )


def enumerate_single_faults(d: int, decoder: str, include_input_errors: bool = True,
                            max_failures_recorded: int = 20) -> FaultEnumReport:
    """Exhaustive order-1 fault injection for one decoder.

    Every input error of weight 1 and every (round, location, value)
    circuit fault runs the full protocol; the verdict must be
    no_logical_error and the pre-ideal-EC residual weight at most the
    number of circuit faults that landed. A fault in a round after the
    noiseless run stops never fires, so those rounds are only counted,
    as ``skipped_unreached``.
    """
    code, compiled, cap, run = _fault_injector(d, decoder)
    report = FaultEnumReport(d, decoder, 1, 0, 0, 0, 0)

    def check(label, faults, initial=None, landed=1):
        result = run(faults, initial)
        report.cases += 1
        weight_bad = result.residual.weight() > landed
        if weight_bad:
            report.weight_violations += 1
        if result.logical_error:
            report.logical_failures += 1
        if weight_bad or result.logical_error:
            _record(report, label, result, max_failures_recorded)

    if include_input_errors:
        for q in range(code.n):
            for kind in ("X", "Y", "Z"):
                check(f"input {kind}{q}", {}, PauliOperator.single(code.n, q, kind), landed=0)

    faults = [(lid, value) for lid in range(compiled.n_locations)
              for value in legal_values(compiled, lid)]
    reached = run({}).decision.rounds_used
    report.skipped_unreached = (cap - reached) * len(faults)
    for rho in range(1, reached + 1):
        for lid, value in faults:
            check(f"round {rho} loc {lid} {value}", {rho: [(lid, value)]})
    return report


def sample_fault_pairs(d: int, decoder: str, samples: int, seed: int = 0,
                       max_failures_recorded: int = 20) -> FaultEnumReport:
    """Order-2 fault injection: uniformly sampled ordered pairs."""
    _, compiled, cap, run = _fault_injector(d, decoder)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))
    report = FaultEnumReport(d, decoder, 2, 0, 0, 0, 0)
    n_loc = compiled.n_locations
    for _ in range(samples):
        faults: dict[int, list] = {}
        desc = []
        for _ in range(2):
            rho = int(rng.integers(1, cap + 1))
            lid = int(rng.integers(n_loc))
            values = legal_values(compiled, lid)
            value = values[int(rng.integers(len(values)))]
            faults.setdefault(rho, []).append((lid, value))
            desc.append((rho, lid, value))
        result = run(faults)
        report.cases += 1
        if result.logical_error:
            report.logical_failures += 1
            _record(report, repr(desc), result, max_failures_recorded)
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
