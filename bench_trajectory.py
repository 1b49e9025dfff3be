"""Record one point of the perf trajectory: every benchmark workload and
both reports of ``perfbench/run.py``, in one committed JSON file.

    python3 bench_trajectory.py 31                          # writes BENCH_31.json
    python3 bench_trajectory.py 32 --against BENCH_31.json  # ...and prints ratios
    python3 bench_trajectory.py 38 --baseline 28858f2       # ...and measures 28858f2 too

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

``--baseline <commit>`` also runs each untraced workload once on that
commit's ``src/``, taken by ``git archive`` into a temporary directory with
this checkout's ``perfbench/`` and ``BENCHMARK.json``. Each baseline run
sits next to the same workload's run on this checkout, which side goes
first alternating from one workload to the next, so both see the machine
in the same state. The runs are stored under ``baseline`` with the full
commit hash, and the same-session new/old ratios are printed. One pair per
workload can read against the direction of a change on a noisy machine: a
claimed gain still needs ten interleaved pairs.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent
REPORTS = ("grid", "setup")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def run(args: list[str], root: Path = ROOT) -> dict:
    """One ``perfbench/run.py`` call in ``root``: its manifest, its other
    lines, and its result when the last line is the workload's JSON object."""
    command = [sys.executable, "perfbench/run.py", *args]
    out = subprocess.run(command, cwd=root, check=True, stdout=subprocess.PIPE,
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


def workload(name: str, trace: int, root: Path = ROOT) -> dict:
    return run(["--workload", name, "--seed", "1", "--seconds", "20", "--trace", str(trace)],
               root)


def baseline_tree(commit: str, dest: Path) -> str:
    """Fill ``dest`` with ``commit``'s ``src/`` and this checkout's
    ``perfbench/`` and ``BENCHMARK.json``; return the full commit hash."""
    head = git("rev-parse", "--verify", f"{commit}^{{commit}}")
    archive = subprocess.run(["git", "archive", head, "src"], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", dest)
    return head


def paired(names: list[str], baseline: Path) -> tuple[dict, dict]:
    """The untraced runs of every workload on this checkout and on the
    ``baseline`` tree, each pair back to back; the even workloads run this
    checkout first, the odd ones the baseline."""
    new, old = {}, {}
    for i, name in enumerate(names):
        sides = [(new, ROOT), (old, baseline)]
        for runs, root in sides[::-1] if i % 2 else sides:
            runs[name] = workload(name, 0, root)
    return new, old


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
    parser.add_argument("--baseline", metavar="COMMIT",
                        help="also run each untraced workload on this commit's src/")
    args = parser.parse_args(argv)
    old = json.loads(args.against.read_text()) if args.against else None
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    bench = {"checkout": {"head": git("rev-parse", "HEAD"),
                          "uncommitted_changes": bool(git("status", "--porcelain"))}}
    if args.baseline:
        with tempfile.TemporaryDirectory(prefix="bench-baseline-") as tree:
            commit = baseline_tree(args.baseline, Path(tree))
            bench["workloads"], runs = paired(names, Path(tree))
        bench["baseline"] = {"commit": commit, "workloads": runs}
    else:
        bench["workloads"] = {w: workload(w, 0) for w in names}
    bench["traced"] = {w: workload(w, 1) for w in names}
    bench["reports"] = {r: run(["--report", r]) for r in REPORTS}
    path = ROOT / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    header = f"{'workload':14s} {'metric':12s} {'new':>12s} {'old':>12s} {'new/old':>7s}"
    for label, before in ((f"against {args.against}", old),
                          (f"same session, baseline {args.baseline}", bench.get("baseline"))):
        if before is not None:
            print(label, header, *ratios(bench, before), sep="\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
