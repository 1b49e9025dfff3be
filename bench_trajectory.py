"""Record one point of the perf trajectory: every benchmark workload and
both reports of ``perfbench/run.py``, in one committed JSON file.

    python3 bench_trajectory.py 31                          # writes BENCH_31.json
    python3 bench_trajectory.py 32 --against BENCH_31.json  # ...and prints ratios

Each workload that ``BENCHMARK.json`` lists runs as ``perfbench/run.py
--workload W --seed 1 --seconds 20 --trace 0``, and once more with
``--trace 1`` for its per-layer metrics; then ``--report grid`` and
``--report setup`` run. A pass takes about five minutes. ``BENCH_<n>.json``
holds the checkout it measured (``git rev-parse HEAD`` and whether the tree
had uncommitted changes) and, per run, the command, its manifest line, its
metric lines and (for a workload) its result line. The untraced runs are
under ``workloads``, the traced ones under ``traced``.
``--against`` then prints, for each workload and end-to-end metric in both
files (the ``workloads`` runs only), the new value over the old one. A ratio
means something only between files made on the same machine.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent
REPORTS = ("grid", "setup")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def run(args: list[str]) -> dict:
    """One ``perfbench/run.py`` call: its manifest, its other lines, and its
    result when the last line is the workload's JSON object."""
    command = [sys.executable, "perfbench/run.py", *args]
    out = subprocess.run(command, cwd=ROOT, check=True, stdout=subprocess.PIPE,
                         text=True).stdout.splitlines()
    record = {"command": " ".join(["python3", *command[1:]]), "manifest": None, "lines": []}
    for line in out:
        if line.startswith("manifest "):
            record["manifest"] = json.loads(line[len("manifest "):])
        elif line.startswith("{"):
            record["result"] = json.loads(line)
        elif line.strip():
            record["lines"].append(line)
    return record


def ratios(new: dict, old: dict) -> list[str]:
    """``workload metric new/old`` for every metric both files hold."""
    rows = []
    for workload, record in new["workloads"].items():
        before = old["workloads"].get(workload, {}).get("result", {}).get("metrics", {})
        for metric, value in record["result"]["metrics"].items():
            if metric in before:
                rows.append(f"{workload:14s} {metric:12s} {value['value']:12.6g} "
                            f"{before[metric]['value']:12.6g} "
                            f"{value['value'] / before[metric]['value']:7.3f}")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("n", type=int, help="the file to write is BENCH_<n>.json")
    parser.add_argument("--against", type=Path, help="an earlier BENCH_<m>.json to compare with")
    args = parser.parse_args(argv)
    old = json.loads(args.against.read_text()) if args.against else None
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    bench = {
        "checkout": {"head": git("rev-parse", "HEAD"),
                     "uncommitted_changes": bool(git("status", "--porcelain"))},
        "workloads": {w: run(["--workload", w, "--seed", "1", "--seconds", "20", "--trace", "0"])
                      for w in workloads},
        "traced": {w: run(["--workload", w, "--seed", "1", "--seconds", "20", "--trace", "1"])
                   for w in workloads},
        "reports": {r: run(["--report", r]) for r in REPORTS},
    }
    path = ROOT / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    if old is not None:
        print(f"{'workload':14s} {'metric':12s} {'new':>12s} {'old':>12s} {'new/old':>7s}")
        print("\n".join(ratios(bench, old)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
