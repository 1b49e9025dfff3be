"""Monte Carlo experiments, fault-injection checks, and threshold analysis.

The Monte Carlo engine runs the shots of a batch together, as numpy
arrays in the manner of a Pauli-frame simulator: every shot's frame is
one uint64 word (``extraction.FrameBatch``: its true syndrome and two
logical parities), and all shots still running take each round in step.
A round draws the failing locations of the whole shots x locations grid
and folds each fault's two-word XOR effect into its shot
(``CompiledSchedule.fold``). Every stopping rule is one transition table
(``decoders.PolicyTable``): per round, each shot moves to its state's
successor for "syndrome changed or not" and reads whether that state
stops; a shot leaves the active set when it stops, and its decision is
read from its stop state once every shot has stopped. One driver,
``_run_shots``, runs every stage this way (in two-stage mode the
Z-sector stage starts with each shot's remaining budget); only the
source of each round's faults differs between its callers. Then
``_verdicts`` decodes each shot's chosen and ideal-EC corrections in one
call and reads a logical error off the frame word's parity bits.

A Monte Carlo hand-off is a group of consecutive chunks run as one batch
(``_simulate_group``). At low p most shots never meet a fault: such a
*quiet* shot follows each stage's noiseless path (``_Context.path``) and
is only counted. Only the shots a fault has met, the *explicit* ones,
are held in arrays; a quiet shot that a fault meets joins them at the
noiseless state of that round. At window fault probability q a group
holds 2^ceil(log2(2/q)) chunks, two to four chunks' worth of explicit
shots (``_group_size``). A group of one chunk, which is every hand-off
above q = 1/2, starts every shot explicit. A group returns one count row
per chunk, which ``run_point`` adds up. The fault-injection checks give
each case one explicit shot, which starts from its input error and folds
only its injected faults, each in its own round counted over all stages.
Their reports list residual errors, which no frame word holds, so
``_run_injected`` keeps each case's x and z words, from the deposits in
the folding stage's schedule.

The scalar reference runner ``run_shot_reference`` plays one shot, in
either mode, through the same circuit semantics (``inject_round`` for
injected faults, ``sample_round`` for sampled ones), the pure decision
rule ``decoders.policy_decision`` and the scalar decoder; its
``ShotResult`` carries the verdict, the residual frame before ideal EC
and each stage's stop decision. The tests check the engine and the
fault-injection checks against it.

Reproducibility: shots are processed in fixed-size chunks and every chunk
draws from its own counter-based Philox stream keyed by
(seed, point_key, chunk_index), round by round, over exactly the shots
of the chunk still running, whether they are quiet or explicit, and
whatever group it runs in. Aggregation adds the chunks' rows in chunk
order, so results are byte-identical for any worker count and grouping,
and the optional stop-after-N-logical-errors rule is evaluated at chunk
boundaries in chunk order for the same reason. Sampled fault pairs draw
each chunk the same way, under one fixed point key. A campaign
(``run_experiment``, ``estimate_pseudothreshold``) runs all its points on
one chunk runner. With W > 1 workers that is one pool of this process
and W - 1 children forked from it: each point's hand-offs are dealt
round-robin among the W, and this process runs its own share. A campaign
that no ``max_errors`` can cut deals each point at once. One that can be
cut deals W hand-offs at a time and reads all their rows before it
checks the cut, so a cut wastes at most W - 1 hand-offs, each up to
about four chunks' worth of explicit shots.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import decoders
from .colorcode import build_hex_color_code
from .decoders import (
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
    _check_rate,
    _is_a,
    compile_schedule,
    frame_words,
    inject_round,
    sample_round,
)
from .recovery import (
    DEFAULT_BUDGET,
    SyndromeTable,
    build_table,
    decode_sector_masks,
    enumeration_count,
)
from .stabilizer import PauliOperator, StabilizerCode

CHUNK_SHOTS = 4096
SUPPORTED_DISTANCES = (3, 5, 7, 9)


def _check_int(name: str, value, low: int, optional: bool = False) -> None:
    """The one check of an integer argument: an integer, not a bool, at
    least ``low``; ``None`` passes when ``optional``."""
    if value is None and optional:
        return
    if not _is_a(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _check_code(d, decoder: str) -> None:
    """The one check of a distance and a decoder, for campaigns and fault
    injection alike, made before anything is built."""
    if not _is_a(d, numbers.Integral):
        raise ValueError(f"d must be an integer, got {d!r}")
    if d not in SUPPORTED_DISTANCES:
        raise ValueError(f"d must be one of {SUPPORTED_DISTANCES}, got {d}")
    if decoder not in decoders.KINDS:
        raise ValueError(f"unknown decoder {decoder!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation campaign: a code, a decoder, and sampling controls.

    The one check of every field, for every caller; a list of rates is
    stored as a tuple."""

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
        _check_code(self.d, self.decoder)
        _check_int("shots", self.shots, 1)
        _check_int("seed", self.seed, 0)
        for name in ("max_errors", "workers", "built_to_weight"):
            _check_int(name, getattr(self, name), 1, optional=True)
        if self.built_to_weight is not None:
            supports = enumeration_count(_code(self.d).n, self.built_to_weight)
            if supports > DEFAULT_BUDGET:
                raise ValueError(f"built_to_weight {self.built_to_weight} at d={self.d} needs "
                                 f"{supports} table supports, more than the {DEFAULT_BUDGET} "
                                 f"a table may hold; lower built_to_weight")
        if not isinstance(self.css_two_stage, bool):
            raise ValueError(f"css_two_stage must be a bool, got {self.css_two_stage!r}")
        if not (isinstance(self.p_values, (tuple, list))
                and all(_is_a(p, numbers.Real) for p in self.p_values)):
            raise ValueError(f"p_values must be a tuple or list of real numbers, "
                             f"got {self.p_values!r}")
        object.__setattr__(self, "p_values", tuple(self.p_values))
        for p in self.p_values:
            _check_rate(p)
        if self.css_two_stage and self.decoder == "shor":
            raise ValueError("two-stage mode applies to the strong or weak decoders")


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


def wilson_interval(errors: int, shots: int) -> tuple[float, float]:
    z = 1.959963984540054  # 95 percent
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


# one code per distance and one recovery table per (distance, weight) in a
# process: every context that asks for them shares them, whatever its
# decoder or mode, and so does a default weight asked for by number
_code = functools.cache(build_hex_color_code)


@functools.cache
def _table(d: int, weight: int) -> SyndromeTable:
    return build_table(_code(d), weight)


class _Context:
    def __init__(self, d: int, decoder: str, css_two_stage: bool, built_to_weight: int | None):
        self.kind = decoder
        self.t = (d - 1) // 2
        self.code = _code(d)
        weight = (
            built_to_weight
            if built_to_weight is not None
            else default_built_to_weight(self.code, self.t)
        )
        self.table = _table(d, weight)
        # per stage, its compiled schedule; its ``base`` places the stage's
        # reported bits in the full syndrome
        sectors = ("x", "z") if css_two_stage else ("all",)
        self.stages = [compile_schedule(self.code, NoiseModel(0.0), s) for s in sectors]
        # an X error flips logical Z, a Z error flips logical X
        self.x_logical = np.uint64(self.code.logical_z[0].z_bits)
        self.z_logical = np.uint64(self.code.logical_x[0].x_bits)
        self.policy = policy_table(self.kind, self.t)
        self.cap = self.policy.max_rounds * len(self.stages)
        # the noiseless path: a shot that meets no fault runs each stage at
        # budget t through the states path[0], path[1], ... and stops after
        # len(path) rounds, for the reason ``quiet_reason``
        path, state = [], self.policy.root[self.t]
        while not self.policy.stops[state]:
            path.append(state)
            state = self.policy.successor[2 * state]
        self.path = np.array(path)
        self.quiet_reason = int(self.policy.entries[0, state])
        # the cells a noiseless shot draws: its window
        self.window = len(path) * sum(s.n_locations for s in self.stages)

    def window_q(self, p: float) -> float:
        """The probability that a fault meets a shot in its window at rate p."""
        return 1.0 if p >= 1 else -math.expm1(self.window * math.log1p(-p))


@functools.cache
def _context(key: tuple) -> _Context:
    return _Context(*key)


def _run_policy(table: PolicyTable, next_round, budget: np.ndarray, path=(), order=None):
    """Drive one stopping policy over a batch of shots, all rounds in step.

    Shot i starts in ``table.root`` at its own fault ``budget[i]``; the
    shots run in ``order`` (by default, in index order).
    ``next_round(active, r)`` runs round r (1-based) on the running shots
    ``active`` (an index array in that order) and returns ``(syn, active,
    at)``: the running shots' reported syndromes, the running shots, and
    where in the old ``active`` the shots that joined, numbered on from
    the last, were inserted (as by ``np.insert``; ``()`` when none did).
    A shot that joins in round r has met no fault before it: it starts
    from the state ``path[r - 1]`` of the noiseless path with an all-zero
    history, and the loop runs at least ``len(path)`` rounds. Returns,
    per shot, the chosen syndrome (0 for no correction), the 1-based round
    it came from (0 for none), the rounds used, the stop-reason code (an
    index into ``REASONS``) and the minimum fault count of the final
    difference vector.
    """
    n = len(budget)
    history = np.zeros((table.max_rounds, n), np.uint64)
    final = np.zeros(n, np.int64)  # each shot's stop state
    rounds = np.zeros(n, np.int64)
    active = np.arange(n) if order is None else order
    prev = np.zeros(n, np.uint64)
    state = table.root[budget[active]]
    r = 0
    while active.size or r < len(path):
        syn, active, at = next_round(active, r + 1)
        if len(at):  # shots joined at the noiseless state
            prev, state = np.insert(prev, at, 0), np.insert(state, at, path[r])
            history, final, rounds = (
                np.concatenate((a, np.zeros((*a.shape[:-1], len(at)), a.dtype)), axis=-1)
                for a in (history, final, rounds))
        history[r, active] = syn
        r += 1
        state = table.successor[2 * state + (syn != prev)]
        prev = syn
        stop = table.stops[state]
        if not stop.any():
            continue
        # index arrays, so that no selection counts the mask again
        done, keep = np.flatnonzero(stop), np.flatnonzero(~stop)
        stopped = active[done]
        final[stopped] = state[done]
        rounds[stopped] = r
        active, prev, state = active[keep], prev[keep], state[keep]
    reason, chosen_round, faults = table.entries.take(final, axis=1)
    n = len(rounds)  # the joined shots included
    # a shot with no chosen round (0) reads the last row; it is zeroed below
    chosen = history.ravel().take((chosen_round - 1) * n + np.arange(n))
    chosen[chosen_round == 0] = 0
    return chosen, chosen_round, rounds, reason, faults


def _run_starts(values: np.ndarray) -> np.ndarray:
    """True at the first element of each run of equal ``values``."""
    first = np.zeros(len(values), bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first


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


def _run_shots(ctx: _Context, frames: FrameBatch, fold_round, path=(), order=None) -> tuple:
    """Every stage of a batch of shots, one per frame of ``frames``.

    ``fold_round(compiled, active, r, before)`` runs round r of the stage
    schedule ``compiled`` on the shots ``active``, whose earlier stages
    used ``before[active]`` rounds, and returns what ``_run_policy``'s
    ``next_round`` returns. Shots join only with a noiseless ``path``; the
    round source that adds them adds their zero words to ``frames``, and
    such a shot ran every earlier stage on that path. ``order()``, if
    given, lists the shots in the order each stage hands them to
    ``fold_round`` (by default, index order). Each stage after the first
    runs with budget t minus the faults evidenced by the previous stage's
    difference vector, as in ``run_shot_reference``. Returns each shot's
    chosen syndrome over all stages (0 for no correction), the rounds used
    and the last stage's stop-reason codes (indices into ``REASONS``).
    """
    n = len(frames.word)
    chosen = np.zeros(n, np.uint64)
    rounds = np.zeros(n, np.int64)
    budget = np.full(n, ctx.t, np.int64)
    for stage, compiled in enumerate(ctx.stages):
        # ``rounds`` holds the earlier stages' rounds until this stage ends
        def next_round(active, r, compiled=compiled):
            return fold_round(compiled, active, r, rounds)

        syn, _, used, reason, faults = _run_policy(ctx.policy, next_round, budget, path,
                                                   None if order is None else order())
        joined = len(used) - len(rounds)
        chosen = np.append(chosen, np.zeros(joined, np.uint64)) | syn << np.uint64(compiled.base)
        rounds = np.append(rounds, np.full(joined, stage * len(path))) + used
        budget = np.maximum(ctx.t - faults, 0)
    return chosen, rounds, reason


def _verdicts(ctx: _Context, frames: FrameBatch, chosen: np.ndarray) -> tuple:
    """Each shot's chosen correction, decoded from its ``chosen`` syndrome
    (from :func:`_run_shots`), then ideal EC; True where a logical error
    remains.

    A correction's syndrome is the syndrome it was decoded from, so ideal
    EC decodes the residual syndrome, the frame's XOR the chosen one, and
    both corrections are decoded in one call. Their logical parities are
    XORed onto the frame word's bits r and r + 1: a shot fails where one
    is set. Also returns the shots with a chosen correction and its x and
    z masks.
    """
    r = np.uint64(ctx.code.r)
    residual = (frames.word & (np.uint64(1) << r) - np.uint64(1)) ^ chosen
    hit, ideal = np.flatnonzero(chosen), np.flatnonzero(residual)
    cx, cz = decode_sector_masks(ctx.table, np.concatenate((chosen[hit], residual[ideal])))
    flips = np.bitwise_count(cx & ctx.x_logical) & np.uint8(1)
    flips |= (np.bitwise_count(cz & ctx.z_logical) & np.uint8(1)) << np.uint8(1)
    logical = frames.word >> r
    logical[hit] ^= flips[:len(hit)]
    logical[ideal] ^= flips[len(hit):]
    return logical != 0, hit, cx[:len(hit)], cz[:len(hit)]


def _simulate_group(ctx: _Context, p: float, sizes: list[int], rngs: list) -> np.ndarray:
    """Consecutive chunks of one point, of ``sizes`` shots, run as one
    batch at rate p; chunk i draws every round from ``rngs[i]``. Returns
    one count row per chunk: its logical errors, then its shots that used
    0..``ctx.cap`` rounds, then its shots per ``REASONS`` entry of their
    last stage's stop. Chunks aggregate by adding rows.

    In a group of more than one chunk every shot starts *quiet*: its frame
    is zero and it follows each stage's noiseless path (``ctx.path``), so
    it is only counted. A fault that meets a quiet shot makes it
    *explicit*: it joins at the noiseless state of that round. Only
    explicit shots are held in arrays. In a group of one chunk every shot
    starts explicit. Either way, each round chunk i draws its faults over
    exactly the shots of the chunk still running, in shot order and slice
    by slice (``CompiledSchedule.slices``), as one chunk of explicit shots
    alone does, so a chunk's row does not depend on its group.
    """
    quiet = len(sizes) > 1
    offsets = np.cumsum([0, *sizes])
    n = 0 if quiet else int(offsets[-1])
    frames = FrameBatch(n)
    sid = np.arange(n)  # each explicit shot's index in the group, in join order
    path = ctx.path if quiet else ()

    def fold_round(compiled, active, r, _):
        nonlocal sid
        if not quiet:
            syn = [_apply_faults(compiled, frames, *compiled.draw(p, len(part), rngs[0]),
                                 active[part.start:part.stop])
                   for part in compiled.slices(p, len(active))]
            return (syn[0] if len(syn) == 1 else np.concatenate(syn)), active, ()
        run = sid[active]  # the running explicit shots, in shot order
        # while quiet shots run, so does every shot but the explicit ones that stopped
        quiet_run = r <= len(path)
        if quiet_run:
            stopped = np.ones(len(sid), bool)
            stopped[active] = False
            gone = np.sort(sid[np.flatnonzero(stopped)])
        edges = np.searchsorted(gone if quiet_run else run, offsets)
        hit, row = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        for i, rng in enumerate(rngs):
            lo, hi = edges[i], edges[i + 1]
            # then running shot k of the chunk is shot k + (its stopped shots up to there)
            skip = gone[lo:hi] - offsets[i] - np.arange(hi - lo) if quiet_run else None
            for part in compiled.slices(p, sizes[i] - (hi - lo) if quiet_run else hi - lo):
                pos, rows = compiled.draw(p, len(part), rng)
                pos += part.start
                hit.append(offsets[i] + pos + np.searchsorted(skip, pos, side="right")
                           if quiet_run else run[lo + pos])
                row.append(rows)
        hit, row, at = np.concatenate(hit), np.concatenate(row), ()
        if quiet_run:
            # the quiet shots met now join, once each, in shot order (-1 is no shot)
            first = _run_starts(hit)
            first &= np.append(run, -1)[np.searchsorted(run, hit)] != hit
            new = hit[np.flatnonzero(first)]
            at = np.searchsorted(run, new)
            active = np.insert(active, at, np.arange(len(sid), len(sid) + len(new)))
            run = np.insert(run, at, new)
            sid = np.append(sid, new)
            frames.word = np.append(frames.word, np.zeros(len(new), np.uint64))
        return _apply_faults(compiled, frames, np.searchsorted(run, hit), row, active), active, at

    # a later stage starts with the explicit shots in shot order
    chosen, rounds, reason = _run_shots(ctx, frames, fold_round, path,
                                        (lambda: np.argsort(sid)) if quiet else None)
    errors = np.flatnonzero(_verdicts(ctx, frames, chosen)[0])
    chunk = np.searchsorted(offsets, sid, side="right") - 1 if quiet else np.zeros(n, np.intp)

    def per_chunk(values, width):
        """Each chunk's explicit shots per value 0..width-1."""
        return np.bincount(chunk * width + values, minlength=len(sizes) * width).reshape(-1, width)

    hist, stops = per_chunk(rounds, ctx.cap + 1), per_chunk(reason, len(REASONS))
    quiet_shots = np.diff(offsets) - hist.sum(1)
    hist[:, len(ctx.path) * len(ctx.stages)] += quiet_shots
    stops[:, ctx.quiet_reason] += quiet_shots
    return np.column_stack((np.bincount(chunk[errors], minlength=len(sizes)), hist, stops))


def _chunk_seed(seed: int, point_key: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(point_key, chunk_index))
    return np.random.Generator(np.random.Philox(ss))


def _run_chunk(args) -> np.ndarray:
    """One hand-off: the chunks ``chunks`` of a point as one group
    (:func:`_simulate_group`); one count row per chunk."""
    (ctx_key, p, shots, seed, point_key, chunks) = args
    return _simulate_group(_context(ctx_key), p,
                           [min(CHUNK_SHOTS, shots - i * CHUNK_SHOTS) for i in chunks],
                           [_chunk_seed(seed, point_key, i) for i in chunks])


def _group_size(q: float, n_chunks: int, workers: int) -> int:
    """Chunks per hand-off of a point with window fault probability q:
    2^ceil(log2(2/q)), so that a group simulates two to four chunks' worth
    of explicit shots, but at most each worker's share of the point. Above
    q = 1/2 it is one chunk, whose shots all start explicit: there a quiet
    group runs slower than explicit chunks."""
    if q > 0.5:
        return 1
    share = -(-n_chunks // workers)
    return share if q == 0 else min(share, 2 ** math.ceil(1 - math.log2(q)))


def _n_chunks(shots: int) -> int:
    return (shots + CHUNK_SHOTS - 1) // CHUNK_SHOTS


def _serve(conn, inherited: list) -> None:
    """A pool child's loop: run each list of hand-offs that arrives on
    ``conn`` and send back their row lists, or the exception one raised,
    until the caller closes its end. ``inherited`` holds the caller's ends
    of this child's pipe and of the earlier children's, which the fork
    copied; closed here, they leave the caller their one holder, so its
    close ends every child's loop."""
    for other in inherited:
        other.close()
    while True:
        try:
            jobs = conn.recv()
        except EOFError:
            return
        try:
            reply = [_run_chunk(job) for job in jobs]
        except Exception as exc:  # the caller re-raises it
            reply = exc
        try:
            conn.send(reply)
        except ConnectionError:  # the caller has closed its end: the campaign is over
            return


def _receive(conn) -> list:
    """A pool child's rows for its share of a deal; an exception it sent,
    or its death, is raised here."""
    try:
        reply = conn.recv()
    except (EOFError, ConnectionError):
        raise RuntimeError("a pool process died before returning its hand-offs") from None
    if isinstance(reply, Exception):
        raise reply
    return reply


class _Pool:
    """``workers`` processes that run hand-offs: this one and
    ``workers - 1`` children forked from it, each joined to it by one
    pipe. Forked, not spawned, so that the children inherit the engine
    context this process has built; no thread runs beside its share."""

    def __init__(self, workers: int):
        # imported here, so a process that starts no pool never loads multiprocessing;
        # numpy loads numpy.random on first use, so the children inherit it from here
        import multiprocessing
        import numpy.random  # noqa: F401

        fork = multiprocessing.get_context("fork")
        self.conns, self.procs = [], []
        try:
            for _ in range(workers - 1):
                mine, theirs = fork.Pipe()
                proc = fork.Process(target=_serve, args=(theirs, [*self.conns, mine]),
                                    daemon=True)
                proc.start()
                theirs.close()
                self.conns.append(mine)
                self.procs.append(proc)
        except BaseException:
            self.close()
            raise

    def deal(self, jobs: list) -> list:
        """Every hand-off's rows, in job order. Of W processes, process k
        runs jobs k, k + W, ...: each child gets its share in one message,
        and this process runs share 0 while they run theirs."""
        w = len(self.conns) + 1
        busy = self.conns[:len(jobs) - 1]
        for k, conn in enumerate(busy, 1):
            conn.send(jobs[k::w])
        shares = [[_run_chunk(job) for job in jobs[::w]], *map(_receive, busy)]
        return [shares[j % w][j // w] for j in range(len(jobs))]

    def close(self) -> None:
        """Close every pipe, which ends each child's loop, and join the
        children; one that has not exited within a second is terminated."""
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            proc.join(1.0)
            if proc.exitcode is None:
                proc.terminate()
                proc.join()


@contextlib.contextmanager
def _chunk_runner(config: ExperimentConfig):
    """One campaign's chunk runner: ``run(jobs)`` yields each hand-off's
    count rows in job order.

    One worker, or points of one chunk, run in this process. Otherwise the
    campaign's first hand-off starts one :class:`_Pool` of W = ``min(workers,
    chunks per point)`` processes, this one included, that serves every
    point. It forks after the caller has built the engine context and
    loaded ``numpy.random``, which every chunk's stream needs, so no child
    builds or loads either again. Without ``max_errors`` each point's
    hand-offs are dealt at once; with it, W at a time, and a deal's rows
    are all read before any is yielded, so past its cut a point runs at
    most W - 1 more hand-offs, each up to about four chunks' worth of
    simulated shots (:func:`_group_size`), and none runs into the next
    point. Every child is joined when the campaign returns or raises.
    """
    n_chunks = _n_chunks(config.shots)
    workers = min(config.workers or 1, n_chunks)
    if workers <= 1:
        yield lambda jobs: map(_run_chunk, jobs)
        return
    pool = None

    def run(jobs):
        nonlocal pool
        if pool is None:
            pool = _Pool(workers)
        step = len(jobs) if config.max_errors is None else workers
        for i in range(0, len(jobs), step):
            yield from pool.deal(jobs[i:i + step])

    try:
        yield run
    finally:
        if pool is not None:
            pool.close()


def run_point(config: ExperimentConfig, p: float) -> ExperimentStats:
    """Simulate one physical error rate and aggregate the shot outcomes."""
    with _chunk_runner(config) as run:
        return _run_point(config, p, 0, run)


def _run_point(config: ExperimentConfig, p: float, point_key: int, run) -> ExperimentStats:
    """:func:`run_point` on a campaign's chunk runner ``run``."""
    _check_rate(p)
    ctx_key = (config.d, config.decoder, config.css_two_stage, config.built_to_weight)
    ctx = _context(ctx_key)
    n_chunks = _n_chunks(config.shots)
    size = _group_size(ctx.window_q(p), n_chunks, config.workers or 1)
    jobs = [(ctx_key, p, config.shots, config.seed, point_key, range(i, min(i + size, n_chunks)))
            for i in range(0, n_chunks, size)]
    total = np.zeros(ctx.cap + 2 + len(REASONS), np.int64)
    # leaving the loop drops the runner's iterator, so a cut point deals no
    # more hand-offs; every row of its last deal has been read
    for counts in (row for rows in run(jobs) for row in rows):
        total += counts
        if config.max_errors is not None and total[0] >= config.max_errors:
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
    """Every rate of ``config.p_values``, all on one chunk runner."""
    with _chunk_runner(config) as run:
        return [_run_point(config, p, i, run) for i, p in enumerate(config.p_values)]


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

    if kind not in decoders.KINDS:
        raise ValueError(f"unknown decoder kind {kind!r}")
    _check_int("t", t, 0)
    if schedules is None:
        schedules = (compile_schedule(code, NoiseModel(0.0)),)
    if injected_faults is None and rng is None and any(s.noise.p > 0 for s in schedules):
        raise ValueError("rounds sampled at p > 0 need an rng")
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
            decision = policy_decision(kind, budget, history[0] != 0, delta)
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
_PAIR_KEY = 2_000_000  # the point key of sampled pairs' chunk streams


@dataclass
class FaultEnumReport:
    d: int
    decoder: str
    order: int
    cases: int
    skipped_unreached: int
    logical_failures: int
    weight_violations: int
    ok: bool = True  # no logical failure and no weight violation
    failures: list = field(default_factory=list)
    # order 2: landed[k] is the number of pairs of which k faults landed,
    # that is, came in a round the shot reached
    landed: list | None = None


def _run_injected(ctx: _Context, x: np.ndarray, z: np.ndarray, rnd: np.ndarray,
                  row: np.ndarray) -> tuple:
    """Injected cases through the engine, one case per shot.

    Shot i starts from the Pauli of X mask ``x[i]`` and Z mask ``z[i]``
    (an input error, or none) and samples no noise. ``rnd`` and ``row``
    are (shots, k) matrices: fault j of shot i, row ``row[i, j]`` of the
    fault table that every stage schedule shares, folds in round
    ``rnd[i, j]``, counted over all stages, if the shot is still running
    then. Round 0 means no fault, and a fault whose round the shot never
    reaches never folds. The engine's frames hold no x and z words, so the
    round source records each folded fault's deposits, read from the
    folding stage's schedule, in the fault's own cell, and they are XORed
    into the input error's words at the end. Returns, per shot, the
    logical verdict, the residual x and z words after the chosen
    correction and before ideal EC, the rounds used and the last stage's
    stop-reason code (an index into ``REASONS``).
    """
    frames = FrameBatch(len(x))
    given = np.flatnonzero(x | z)
    frames.word[given] = frame_words(ctx.code, x[given], z[given])
    k = rnd.shape[1]
    deposits = np.zeros((len(x) * k, 2), np.uint64)  # fault j of shot i at i * k + j

    def fold_round(compiled, active, r, before):
        pos, j = np.nonzero(rnd[active] == (before[active] + r)[:, None])
        shot = active[pos]
        rows = row[shot, j]
        deposits[shot * k + j] = np.take(compiled.deposits, rows, axis=0)
        return _apply_faults(compiled, frames, pos, rows, active), active, ()

    chosen, rounds, reason = _run_shots(ctx, frames, fold_round)
    errors, hit, cx, cz = _verdicts(ctx, frames, chosen)
    residual = np.stack((x, z), axis=1)
    for j in range(k):
        residual ^= deposits[j::k]
    residual[hit] ^= np.stack((cx, cz), axis=1)
    x, z = residual.T
    return errors, x, z, rounds, reason


def _tally(report: FaultEnumReport, ctx: _Context, result: tuple, weight_bad: np.ndarray,
           label) -> None:
    """Count one chunk of cases (``result`` of :func:`_run_injected`) into
    the report and record its first failures; ``label(i)`` names case i."""
    errors, x, z, rounds, reason = result
    report.cases += len(errors)
    report.logical_failures += int(errors.sum())
    report.weight_violations += int(weight_bad.sum())
    report.ok = not report.logical_failures and not report.weight_violations
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
    _check_code(d, decoder)
    ctx = _context((d, decoder, False, None))
    compiled = ctx.stages[0]
    rows = len(compiled.words)
    reached = len(ctx.path)
    report = FaultEnumReport(d, decoder, 1, 0, (ctx.cap - reached) * rows, 0, 0)
    # cases: X, Y and Z on each qubit, then every table row in each reached round
    inputs = 3 * ctx.code.n
    faults = [(lid, value) for lid, values in enumerate(compiled.values) for value in values]

    def label(case):
        if case < inputs:
            return f"input {'XYZ'[case % 3]}{case // 3}"
        rho, row = divmod(case - inputs, rows)
        lid, value = faults[row]
        return f"round {rho + 1} loc {lid} {value}"

    total = inputs + reached * rows
    for start in range(0, total, CHUNK_SHOTS):
        case = np.arange(start, min(start + CHUNK_SHOTS, total))
        x, z = np.zeros(len(case), np.uint64), np.zeros(len(case), np.uint64)
        q, letter = np.divmod(case[case < inputs], 3)
        k = len(q)
        x[:k] = (letter != 2).astype(np.uint64) << q.astype(np.uint64)
        z[:k] = (letter != 0).astype(np.uint64) << q.astype(np.uint64)
        rnd, row = np.divmod(case - inputs, rows)
        rnd = np.where(case < inputs, 0, rnd + 1)
        result = _run_injected(ctx, x, z, rnd[:, None], row[:, None])
        weight_bad = np.bitwise_count(result[1] | result[2]) > (rnd > 0)  # faults that landed
        _tally(report, ctx, result, weight_bad, lambda i: label(start + i))
    return report


def sample_fault_pairs(d: int, decoder: str, samples: int, seed: int = 0) -> FaultEnumReport:
    """Order-2 fault injection: uniformly sampled ordered pairs.

    Each fault's round is uniform over 1 to the policy's round cap, so a
    fault can come after the shot stops and never land; the pair counts
    as a case all the same, and ``landed`` counts the pairs by how many
    of their faults landed. A pair fails on a logical error. The pairs
    are drawn and run in chunks of ``CHUNK_SHOTS``: chunk i draws from the
    stream ``_chunk_seed(seed, _PAIR_KEY, i)`` every fault's round, then
    every fault's location, then every fault's value, pair by pair.
    """
    _check_int("samples", samples, 1)
    _check_int("seed", seed, 0)
    _check_code(d, decoder)
    ctx = _context((d, decoder, False, None))
    compiled = ctx.stages[0]
    n_values = compiled.n_choices.astype(np.int64)
    report = FaultEnumReport(d, decoder, 2, 0, 0, 0, 0)
    landed = np.zeros(3, np.int64)
    for index, start in enumerate(range(0, samples, CHUNK_SHOTS)):
        size = min(CHUNK_SHOTS, samples - start)
        rng = _chunk_seed(seed, _PAIR_KEY, index)
        rnd = rng.integers(1, ctx.cap + 1, size=(size, 2))  # fault j of pair i is [i, j]
        lid = rng.integers(compiled.n_locations, size=(size, 2))
        choice = rng.integers(0, n_values[lid])
        none = np.zeros(size, np.uint64)
        result = _run_injected(ctx, none, none, rnd, compiled.first_row[lid] + choice)
        landed += np.bincount((rnd <= result[3][:, None]).sum(1), minlength=3)

        def label(i):
            pair = zip(rnd[i].tolist(), lid[i].tolist(), choice[i].tolist())
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
    """The pseudothreshold bracket has no sign change; carries the curve,
    the ``(p, ExperimentStats)`` probes of ``PseudothresholdResult``."""

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
    confidence band lies on one side of the 2p/3 line. All probes run on
    one chunk runner.
    """
    if not (_is_a(p_lo, numbers.Real) and _is_a(p_hi, numbers.Real)):
        raise ValueError(f"p_lo and p_hi must be real numbers, got {p_lo!r} and {p_hi!r}")
    if not (0 < p_lo < p_hi <= 1):
        raise ValueError("need 0 < p_lo < p_hi <= 1")
    _check_int("shots_per_probe", shots_per_probe, 1)
    _check_int("iterations", iterations, 0)
    probes: list[tuple[float, ExperimentStats]] = []
    probe_cfg = dataclasses.replace(config, shots=shots_per_probe, max_errors=None)
    counter = 0

    def g(p: float) -> float:
        nonlocal counter
        counter += 1
        stats = _run_point(probe_cfg, p, 1_000_000 + counter, run)
        probes.append((p, stats))
        return stats.p_l_hat - 2.0 * p / 3.0

    with _chunk_runner(probe_cfg) as run:
        g_lo = g(p_lo)
        g_hi = g(p_hi)
        if not (g_lo < 0 < g_hi):
            raise BracketError(
                f"no crossing in bracket [{p_lo}, {p_hi}]: g({p_lo})={g_lo:.3g}, "
                f"g({p_hi})={g_hi:.3g}; sampled curve attached",
                probes,
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
