"""The benchmark's workloads, each run in a fresh child process of run.py.

    python3 perfbench/workloads.py setup <workload>
    python3 perfbench/workloads.py measure <workload> --seed N --seconds S --trace 0|1 --out DIR
                                       [--setups K]

``setup`` times, from before ``import ftecsim``, the builders that make
everything the workload needs (code, recovery table, compiled schedules,
decision tables). ``measure`` repeats a pass of the workload, each with
inputs drawn from the seed and the pass number, until the time is up,
checks every pass's outputs, and with ``--trace 1`` alternates untraced
and traced passes. Both print one JSON object as their last stdout line.

With ``--setups K``, ``measure`` pauses K times, spread over its measuring
time, between passes: it prints ``setup?`` and waits for a line on stdin,
while its parent times one fresh ``setup`` process. So the set-up samples
see the same machine as the passes, and they are not children of the
measuring process, whose largest child's peak memory is the largest pool
worker's.

A pass is split into parts (one per CLI command on ``verify_ft``, one
otherwise). Every part's time is kept raw and rescaled to the reference
machine's full speed (see "Machine speed" below).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

WORKLOADS = {
    "mc_d5_strong": {"kind": "mc", "d": 5, "decoder": "strong", "p": 1e-3,
                     "shots": 16384, "css_two_stage": False, "workers": 1},
    "mc_d9_2stage": {"kind": "mc", "d": 9, "decoder": "weak", "p": 1e-3,
                     "shots": 8192, "css_two_stage": True, "workers": 1},
    "verify_ft": {"kind": "verify", "d": 5, "samples": 5000, "workers": 1},
    "pth_d3_pool": {"kind": "pth", "d": 3, "decoder": "weak", "workers": 2,
                    "p_lo": 5e-5, "p_hi": 8e-3, "iterations": 9, "shots_per_probe": 131072},
}

VERIFY_PARTS = {
    "fault_enum_1": "fault-enum --d 5 --decoder all --order 1",
    "fault_enum_2": "fault-enum --d 5 --decoder strong --order 2 --samples {samples} --seed {seed}",
    "oracle_check": "oracle-check --max-len 10 --t-max 3",
    "verify_bounds": "verify-bounds --t-max 5 --json",
}

# d=3 weak, two chunks: the pool start-up probe of ``harness.pool_start_ms``.
POOL_PROBE = {"d": 3, "decoder": "weak", "shots": 8192, "p": 1e-3}


# ---------------------------------------------------------------------------
# Machine speed
#
# The speed of identical work on a shared two-core machine drifts by up to
# 2x, over periods from a second to longer than a whole run, and CPU time
# drifts with wall time. A short pure-Python loop, timed by a background
# thread every few milliseconds while a part runs, tracks that drift: the
# part's time multiplied by the loop's mean speed in the same interval
# (relative to its speed on the reference machine) repeats within a few
# percent where the raw time does not. The speed switches between a fast
# and a slow state, often within a part, so the mean of the speed, which
# is the work done per second, is used and not a median, which picks one
# state. The loop exercises what the engine does (integer bit operations,
# list and dict indexing, calls) and imports nothing, so a change to the
# program cannot move it. On the multi-worker workload the sampler runs in
# the parent, which waits on its pool: a sample wakes from sleep, so it is
# scheduled at once and times the core it lands on.

REF_ITERATION_S = 3.0e-7  # one loop iteration at full speed on the reference machine
SAMPLE_ITERATIONS = 500  # about 0.15 ms per sample
SAMPLE_INTERVAL_S = 0.01


def _cal_step(x: int, table: list) -> int:
    return table[x & 255] ^ (x >> 7).bit_count()


def calibrate(iterations: int) -> float:
    """Seconds per iteration of the fixed calibration loop, now."""
    table = list(range(256))
    seen: dict[int, int] = {}
    x = acc = 1
    t0 = time.perf_counter()
    for _ in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc ^= _cal_step(x, table)
        seen[x & 1023] = acc
    return (time.perf_counter() - t0) / iterations


class SpeedSampler:
    """Background thread timing the calibration loop every SAMPLE_INTERVAL_S.

    A sample holds the interpreter lock for about 0.15 ms, so it takes
    about 1.5% of a single-threaded part's time, the same on every commit.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self.samples.append((time.perf_counter(), calibrate(SAMPLE_ITERATIONS)))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scaled(self, t0: float, t1: float) -> float:
        """(t1 - t0) at reference speed: the work done in [t0, t1], as the
        mean of the loop's speed relative to the reference over the samples
        taken in that interval, widened by one interval on each side."""
        lo, hi = t0 - SAMPLE_INTERVAL_S, t1 + SAMPLE_INTERVAL_S
        per_iter = [c for t, c in list(self.samples) if lo <= t <= hi]
        if not per_iter:
            per_iter = [calibrate(SAMPLE_ITERATIONS)]
        return (t1 - t0) * statistics.mean(REF_ITERATION_S / c for c in per_iter)


# ---------------------------------------------------------------------------
# Set-up


def build_all(d: int, kinds: tuple, budgets: tuple, sectors: tuple) -> dict:
    """Call each set-up builder once; return its time and table sizes."""
    from ftecsim.colorcode import build_hex_color_code
    from ftecsim.decoders import decision_table
    from ftecsim.extraction import NoiseModel, compile_schedule
    from ftecsim.harness import default_built_to_weight
    from ftecsim.recovery import build_table

    out = {}
    t0 = time.perf_counter()
    code = build_hex_color_code(d)
    t1 = time.perf_counter()
    table = build_table(code, default_built_to_weight(code, (d - 1) // 2))
    t2 = time.perf_counter()
    for sector in sectors:
        compile_schedule(code, NoiseModel(0.0), sector)
    t3 = time.perf_counter()
    states = 0
    for kind in kinds:
        for budget in budgets:
            for s1_nonzero in (False, True):
                tables = decision_table(kind, budget, s1_nonzero)
                states += sum(e is not None for row in tables for e in row)
    t4 = time.perf_counter()
    out["colorcode.build_s"] = t1 - t0
    out["recovery.build_table_s"] = t2 - t1
    out["recovery.table_entries"] = len(table.x_corrections) + len(table.z_corrections)
    out["extraction.compile_s"] = t3 - t2
    out["decoders.decision_table_s"] = t4 - t3
    out["decoders.table_states"] = states
    return out


def setup_args(spec: dict) -> tuple:
    """build_all arguments covering what the workload's engine builds."""
    d = spec["d"]
    t = (d - 1) // 2
    if spec["kind"] == "verify":
        return d, (), (), ("all",)
    if spec.get("css_two_stage"):
        # stage 2 runs with any budget from 1 to t, and x/z schedules
        return d, (spec["decoder"],), tuple(range(1, t + 1)), ("all", "x", "z")
    return d, (spec["decoder"],), (t,), ("all",)


def run_setup(spec: dict, d: int | None = None) -> dict:
    """Fresh-process set-up: ``setup_s`` runs from before ``import ftecsim``.

    ``setup_s`` is rescaled to reference speed by the calibration loop
    sampled throughout the set-up; ``setup_raw_s`` is the wall time.
    """
    with SpeedSampler() as sampler:
        t0 = time.perf_counter()
        if spec.get("kind") == "verify":
            import ftecsim.cli  # noqa: F401  (the workload's entry point)
        else:
            import ftecsim.harness  # noqa: F401
        if d is None:
            out = build_all(*setup_args(spec))
        else:
            out = build_all(d, ("strong", "weak"), ((d - 1) // 2,), ("all",))
        t1 = time.perf_counter()
    out["setup_raw_s"] = t1 - t0
    out["setup_s"] = sampler.scaled(t0, t1)
    return out


# ---------------------------------------------------------------------------
# One pass


def _cli(argv: list[str], recorder) -> tuple[int, dict]:
    from ftecsim.cli import run_cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if recorder is None:
            rc = run_cli(argv)
        else:
            rc = recorder.span("cli.run_cli", run_cli, (argv,))
    return rc, json.loads(buf.getvalue())


def run_pass(spec: dict, seed: int, recorder=None, on_part=None) -> tuple[dict, dict]:
    """Run the workload once; return ({part: seconds}, {output name: output}).

    ``on_part(part, start, end)`` runs after each timed part, outside its timing.
    """
    times: dict[str, float] = {}
    outputs: dict[str, object] = {}
    if spec["kind"] == "verify":
        for part, template in VERIFY_PARTS.items():
            argv = template.format(samples=spec["samples"], seed=seed).split()
            t0 = time.perf_counter()
            outputs[part] = _cli(argv, recorder)
            t1 = time.perf_counter()
            times[part] = t1 - t0
            if on_part:
                on_part(part, t0, t1)
        return times, outputs

    from ftecsim.harness import ExperimentConfig, estimate_pseudothreshold, run_point

    if spec["kind"] == "mc":
        cfg = ExperimentConfig(d=spec["d"], decoder=spec["decoder"], shots=spec["shots"],
                               seed=seed, css_two_stage=spec["css_two_stage"],
                               workers=spec["workers"])
        t0 = time.perf_counter()
        stats = run_point(cfg, spec["p"])
        t1 = time.perf_counter()
        times["run_point"] = t1 - t0
        if on_part:
            on_part("run_point", t0, t1)
        outputs["run_point"] = stats.as_dict()
        return times, outputs

    cfg = ExperimentConfig(d=spec["d"], decoder=spec["decoder"], shots=1, seed=seed,
                           workers=spec["workers"])
    t0 = time.perf_counter()
    res = estimate_pseudothreshold(cfg, spec["p_lo"], spec["p_hi"],
                                   shots_per_probe=spec["shots_per_probe"],
                                   iterations=spec["iterations"])
    t1 = time.perf_counter()
    times["estimate_pseudothreshold"] = t1 - t0
    if on_part:
        on_part("estimate_pseudothreshold", t0, t1)
    outputs["estimate_pseudothreshold"] = {
        "estimate": res.estimate, "ci_low": res.ci_low, "ci_high": res.ci_high,
        "probes": [[p, s.p_l_hat] for p, s in res.probes],
        "probe_shots": [s.shots for _, s in res.probes],
        "rounds_histograms": [s.rounds_histogram for _, s in res.probes],
    }
    return times, outputs


def units(spec: dict, outputs: dict) -> dict:
    """Shots (protocol runs) and cases (checked units of work) in one pass."""
    if spec["kind"] == "mc":
        shots = outputs["run_point"]["shots"]
        return {"shots": shots, "cases": shots, "mc_rounds": _rounds(
            outputs["run_point"]["rounds_histogram"])}
    if spec["kind"] == "pth":
        est = outputs["estimate_pseudothreshold"]
        shots = sum(est["probe_shots"])
        return {"shots": shots, "cases": shots,
                "mc_rounds": sum(_rounds(h) for h in est["rounds_histograms"])}
    order1 = outputs["fault_enum_1"][1]["reports"]
    order2 = outputs["fault_enum_2"][1]["reports"]
    shots = sum(r["cases"] + r["skipped_unreached"] for r in order1 + order2)
    cases = (sum(r["cases"] for r in order1 + order2)
             + outputs["oracle_check"][1]["checked"]
             + len(outputs["verify_bounds"][1]["checks"]))
    return {"shots": shots, "cases": cases, "mc_rounds": 0}


def _rounds(histogram: dict) -> int:
    return sum(int(r) * c for r, c in histogram.items())


def check_outputs(spec: dict, outputs: dict, ref: dict) -> dict[str, list[str]]:
    """Failure messages per checked output of one pass."""
    import checks

    if spec["kind"] == "mc":
        return {"run_point": checks.check_mc(outputs["run_point"], spec["shots"], ref)}
    if spec["kind"] == "pth":
        return {"estimate": checks.check_pth(outputs["estimate_pseudothreshold"],
                                             spec["shots_per_probe"], ref)}
    return {part: checks.check_cli(part, rc, payload, ref, spec["samples"])
            for part, (rc, payload) in outputs.items()}


def pass_seed(seed: int, k: int) -> int:
    """Seed of pass k: every pass draws new inputs, all fixed by ``--seed``."""
    return seed * 10_000 + k


# ---------------------------------------------------------------------------
# The measuring loop


class Tally:
    """Checked outputs: each pass's, a repeat of pass 0, and the Monte Carlo
    passes pooled into one tighter statistical check."""

    def __init__(self, spec: dict, ref: dict):
        self.spec = spec
        self.ref = ref
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.pooled: dict | None = None

    def _record(self, verdicts: dict[str, list[str]]) -> None:
        self.attempted += len(verdicts)
        for name, bad in verdicts.items():
            if bad:
                self.failed += 1
                self.messages.extend(f"{name}: {m}" for m in bad[:3])

    def add(self, outputs: dict) -> None:
        self._record(check_outputs(self.spec, outputs, self.ref))
        if self.spec["kind"] == "mc":
            self.pooled = pool_stats(self.pooled, outputs["run_point"])

    def add_repeat(self, first: dict, again: dict) -> None:
        """The same seed must give byte-identical outputs."""
        same = json.dumps(first, sort_keys=True) == json.dumps(again, sort_keys=True)
        self._record({"repeat of pass 0": [] if same else ["outputs differ"]})

    def add_exception(self, exc: BaseException, n_outputs: int) -> None:
        self.attempted += n_outputs
        self.failed += n_outputs
        self.messages.append(f"exception: {exc!r}")

    def finish(self, passes: int) -> None:
        import checks

        if self.pooled is not None:
            self._record({"pooled passes": checks.check_mc(
                self.pooled, passes * self.spec["shots"], self.ref)})


def pool_stats(acc: dict | None, stats: dict) -> dict:
    """Sum two ``ExperimentStats.as_dict()`` results over disjoint shots."""
    if acc is None:
        return json.loads(json.dumps(stats))
    acc["shots"] += stats["shots"]
    acc["logical_errors"] += stats["logical_errors"]
    acc["p_l_hat"] = acc["logical_errors"] / acc["shots"]
    for key in ("rounds_histogram", "stopped_by"):
        for k, v in stats[key].items():
            acc[key][str(k)] = acc[key].get(str(k), 0) + v
    acc["max_rounds_seen"] = max(acc["max_rounds_seen"], stats["max_rounds_seen"])
    acc["avg_rounds"] = _rounds(acc["rounds_histogram"]) / acc["shots"]
    return acc


def median_sum(part_values: dict[str, list[float]]) -> float:
    return sum(statistics.median(v) for v in part_values.values())


class SpeedClock:
    """Raw and reference-speed times of every part, untraced and traced."""

    def __init__(self, sampler):
        self.sampler = sampler
        self.raw: dict[str, dict[str, list[float]]] = {"plain": {}, "traced": {}}
        self.scaled: dict[str, dict[str, list[float]]] = {"plain": {}, "traced": {}}
        self.mode = "plain"

    def on_part(self, part: str, t0: float, t1: float) -> None:
        self.raw[self.mode].setdefault(part, []).append(t1 - t0)
        self.scaled[self.mode].setdefault(part, []).append(self.sampler.scaled(t0, t1))


def request_setup() -> float:
    """Pause while the parent times one fresh set-up process; return the pause."""
    t0 = time.perf_counter()
    print("setup?", flush=True)
    sys.stdin.readline()
    return time.perf_counter() - t0


def measure(name: str, seed: int, seconds: float, trace: bool, out_dir: Path,
            setups: int = 0) -> dict:
    import checks

    spec = WORKLOADS[name]
    ref = checks.load_reference()[name]
    tally = Tally(spec, ref)
    n_outputs = len(VERIFY_PARTS) if spec["kind"] == "verify" else 1

    # Untimed, and repeated as pass 0: builds the engine context and lazy
    # tables, and grows the heap, which makes a first pass up to 2x slower.
    warm = run_pass(spec, pass_seed(seed, 0))[1]

    recorder = None
    if trace:
        import spans

        recorder = spans.Recorder(out_dir)
        install, uninstall = spans.installer(recorder)
    layer_counts = None
    per_pass_times: list[dict] = []
    last_spans: list = []
    unit = None
    with SpeedSampler() as sampler:
        clock = SpeedClock(sampler)
        deadline = time.perf_counter() + seconds
        n = done = 0
        while n < 4 or time.perf_counter() < deadline:
            # the k-th set-up after k/setups of the measuring time; pauses
            # extend the deadline
            if done < setups and seconds - (deadline - time.perf_counter()) >= done * seconds / setups:
                deadline += request_setup()
                done += 1
            tracing = trace and n % 2 == 1
            clock.mode = "traced" if tracing else "plain"
            if tracing:
                install()
            try:
                _, outputs = run_pass(spec, pass_seed(seed, n), recorder if tracing else None,
                                      clock.on_part)
            except Exception as exc:  # a failing program is a result, not a crash
                tally.add_exception(exc, n_outputs)
                break
            finally:
                if tracing:
                    uninstall()
            tally.add(outputs)
            if n == 0:
                tally.add_repeat(warm, outputs)
            n += 1
            pass_unit = units(spec, outputs)
            unit = unit or pass_unit
            if tracing:
                last_spans = recorder.take()
                totals = spans.layer_totals(last_spans)
                if layer_counts is None:
                    layer_counts = spans.pass_counts(totals, pass_unit["mc_rounds"],
                                                     pass_unit["shots"])
                per_pass_times.append(spans.pass_timings(totals))
    for _ in range(done, setups):
        request_setup()
    tally.finish(n)

    result = {
        "workload": name, "seed": seed, "trace": int(trace), "passes": n,
        "attempted": tally.attempted, "failed": tally.failed,
        "messages": tally.messages[:20], "units": unit,
        "part_times": clock.raw["plain"], "part_scaled": clock.scaled["plain"],
        "versions": versions(),
    }
    if not clock.raw["plain"]:
        return result
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = (usage_self + usage_children) / 1024.0
    if trace and layer_counts is not None:
        layer = dict(layer_counts)
        layer.update(spans.median_timings(per_pass_times))
        layer["trace.overhead_frac"] = (median_sum(clock.scaled["traced"])
                                        / median_sum(clock.scaled["plain"]) - 1.0)
        layer["harness.pool_start_ms"] = pool_start_ms(seed) if spec["workers"] > 1 else 0.0
        result["layer"] = layer
        result["traced_passes"] = len(per_pass_times)
        spans.write_spans(last_spans, out_dir / f"spans-{name}.tsv")
    return result


def pool_start_ms(seed: int, repeats: int = 5) -> float:
    """Two-chunk run_point at workers=2 minus the same at workers=1, fastest of each."""
    from ftecsim.harness import ExperimentConfig, run_point

    best = {1: float("inf"), 2: float("inf")}
    for _ in range(repeats):
        for workers in (1, 2):
            cfg = ExperimentConfig(d=POOL_PROBE["d"], decoder=POOL_PROBE["decoder"],
                                   shots=POOL_PROBE["shots"], seed=seed, workers=workers)
            t0 = time.perf_counter()
            run_point(cfg, POOL_PROBE["p"])
            best[workers] = min(best[workers], time.perf_counter() - t0)
    return 1000.0 * (best[2] - best[1])


def versions() -> dict:
    import ftecsim
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "ftecsim": ftecsim.__version__, "nproc": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("workload", help="a workload name, or d=<5|7|9> with setup")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--setups", type=int, default=0,
                        help="pauses for set-up processes timed by the parent")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        if args.workload.startswith("d="):
            result = run_setup({}, d=int(args.workload[2:]))
        else:
            result = run_setup(WORKLOADS[args.workload])
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.out,
                         args.setups)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
