"""ftecsim benchmark: one workload per call, metrics on the last stdout line.

    python3 perfbench/run.py --workload mc_d5_strong --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --report grid     # shots/s of the ROADMAP baseline table
    python3 perfbench/run.py --report setup    # set-up breakdown for d = 5, 7, 9

With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. The set-up is timed
in fresh processes spread over the time the workload is measured in one
more. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402  (imports no ftecsim)

OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 7

SETUP_LAYER = ("colorcode.build_s", "recovery.build_table_s", "recovery.table_entries",
               "extraction.compile_s", "decoders.decision_table_s", "decoders.table_states")

# The ROADMAP "State at this re-anchor" rows: (d, decoder, p).
GRID = ((3, "weak", 1e-3), (3, "shor", 1e-3), (5, "strong", 1e-3),
        (5, "strong", 1e-2), (7, "strong", 1e-3))


def _start(args: list[str], **kwargs) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.Popen([sys.executable, str(HERE / "workloads.py"), *args], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, **kwargs)


def _kill(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def child(args: list[str], timeout: float) -> dict:
    """Run workloads.py in a fresh process; return its last stdout line as JSON."""
    proc = _start(args)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill(proc)
        proc.communicate()
        raise RuntimeError(f"workloads.py {' '.join(args)} timed out after {timeout} s")
    if proc.returncode != 0:
        raise RuntimeError(f"workloads.py {' '.join(args)} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def measure_with_setups(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list]:
    """Run the measuring process, and a fresh set-up process each time it pauses.

    Returns the measuring process's result and the set-up results.
    """
    proc = _start(["measure", name, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(int(trace)), "--out", str(OUT_DIR),
                   "--setups", str(SETUP_REPEATS)], stdin=subprocess.PIPE)
    watchdog = threading.Timer(seconds + 150, _kill, (proc,))
    watchdog.start()
    setups, last = [], ""
    try:
        for line in proc.stdout:
            if line.strip() == "setup?":
                setups.append(child(["setup", name], 60))
                proc.stdin.write("\n")
                proc.stdin.flush()
            elif line.strip():
                last = line
        proc.wait()
    finally:
        watchdog.cancel()
        with contextlib.suppress(OSError):
            proc.stdin.close()
        if proc.poll() is None:
            _kill(proc)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"workloads.py measure {name} exited {proc.returncode}")
    return json.loads(last), setups


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(versions: dict, **fields) -> dict:
    return {**versions, "git_commit": git_commit(), **fields}


def emit(manifest_: dict, metrics: dict, correct: bool, attempted: int, failed: int,
         extra_lines=()) -> None:
    print("manifest " + json.dumps(manifest_, sort_keys=True))
    for line in extra_lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    res, setups = measure_with_setups(name, seed, seconds, trace)
    if not res["part_times"]:
        raise RuntimeError("no pass completed: " + "; ".join(res["messages"]))
    raw = res["part_times"]
    wall = sum(statistics.median(v) for v in res["part_scaled"].values())
    passes = [sum(t) for t in zip(*raw.values())]
    unit = res["units"]
    spec_fields = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                   "passes": res["passes"], "shots_per_pass": unit["shots"],
                   "cases_per_pass": unit["cases"], "workers": WORKLOADS[name]["workers"]}
    lines = [f"untraced passes {len(passes)}: raw wall median {statistics.median(passes):.4f} s, "
             f"p90 {sorted(passes)[math.ceil(0.9 * len(passes)) - 1]:.4f} s, "
             f"fastest {min(passes):.4f} s; at reference speed {wall:.4f} s",
             f"setup raw wall median {statistics.median(s['setup_raw_s'] for s in setups):.4f} s",
             f"failed_frac {res['failed'] / max(res['attempted'], 1):.6g} 1 "
             f"({res['failed']} of {res['attempted']} checked outputs)"]
    lines += ["FAILED " + msg for msg in res["messages"]]
    if trace:
        layer = dict(res["layer"])
        for key in SETUP_LAYER:
            layer[key] = statistics.median(s[key] for s in setups)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layer.items())}
        lines.append(f"traced passes {res['traced_passes']}; spans of the last one in "
                     f"{OUT_DIR.name}/spans-{name}.tsv")
        if "iterations" in WORKLOADS[name]:
            # one pool per probe: two bracket ends, then one per bisection step
            pools = 2 + WORKLOADS[name]["iterations"]
            pool_s = pools * layer["harness.pool_start_ms"] / 1000.0
            lines.append(f"pool start-up {pools} x {layer['harness.pool_start_ms']:.1f} ms = "
                         f"{pool_s / statistics.median(passes):.1%} of the raw untraced pass")
    else:
        metrics = {
            "shots_per_s": {"value": unit["shots"] / wall, "unit": "1/s"},
            "cases_per_s": {"value": unit["cases"] / wall, "unit": "1/s"},
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    emit(manifest(res["versions"], **spec_fields), metrics,
         res["failed"] == 0, res["attempted"], res["failed"], lines)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_frac") or name.endswith("_per_shot") or name.endswith("_round"):
        return "ratio"
    return "count"


def report_grid(seconds: float) -> None:
    """shots/s at workers=1 for the ROADMAP baseline rows: the fastest raw
    point, and the median point at reference speed."""
    from ftecsim.harness import ExperimentConfig, run_point
    from workloads import SpeedSampler, versions

    shots = 16384
    print("manifest " + json.dumps(manifest(versions(), report="grid", workers=1, seed=0,
                                            shots_per_point=shots), sort_keys=True))
    print("| d | decoder | p | shots/s, fastest raw | shots/s, reference speed |")
    print("|---|---------|---|---|---|")
    with SpeedSampler() as sampler:
        for d, decoder, p in GRID:
            cfg = ExperimentConfig(d=d, decoder=decoder, shots=shots, seed=0, workers=1)
            run_point(cfg, p)
            raw, scaled = [], []
            deadline = time.perf_counter() + seconds
            while not raw or time.perf_counter() < deadline:
                t0 = time.perf_counter()
                run_point(cfg, p)
                t1 = time.perf_counter()
                raw.append(t1 - t0)
                scaled.append(sampler.scaled(t0, t1))
            print(f"| {d} | {decoder} | {p:g} | {shots / min(raw) / 1000:.0f}k "
                  f"| {shots / statistics.median(scaled) / 1000:.0f}k |")


def report_setup() -> None:
    """Set-up breakdown for d = 5, 7, 9, median of three fresh processes."""
    from workloads import versions

    rows = {d: [child(["setup", f"d={d}"], 120) for _ in range(3)] for d in (5, 7, 9)}
    print("manifest " + json.dumps(manifest(versions(), report="setup", repeats=3),
                                   sort_keys=True))
    keys = ("setup_s", "setup_raw_s") + SETUP_LAYER
    print("| d | " + " | ".join(keys) + " |")
    print("|---" * (len(keys) + 1) + "|")
    for d, runs in rows.items():
        cells = [f"{statistics.median(r[k] for r in runs):.4g}" for k in keys]
        print(f"| {d} | " + " | ".join(cells) + " |")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", choices=("grid", "setup"))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "ftecsim" / "__init__.py").is_file():
        print(f"ftecsim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.report == "grid":
        report_grid(args.seconds / len(GRID))
    elif args.report == "setup":
        report_setup()
    elif args.workload:
        run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        parser.error("give --workload or --report")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
