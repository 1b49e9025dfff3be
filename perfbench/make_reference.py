"""Regenerate perfbench/reference.json, the values the checks compare against.

    python3 perfbench/make_reference.py

Takes a few minutes on two cores. The Monte Carlo references are long
runs at seeds no benchmark run uses; the pseudothreshold interval is the
spread of this simulator's own estimates over many seeds. Rerun only when
the program's physics is meant to change, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import VERIFY_PARTS, WORKLOADS, run_pass  # noqa: E402

from ftecsim.decoders import PolicyConfig  # noqa: E402
from ftecsim.harness import ExperimentConfig, run_point  # noqa: E402

MC_REFERENCE_SHOTS = {"mc_d5_strong": 4_000_000, "mc_d9_2stage": 800_000}
# far from every seed a benchmark run derives (workloads.pass_seed)
REFERENCE_SEED = 2**40 + 1
PTH_SEEDS = range(2**40 + 100, 2**40 + 140)
# half-width of the pseudothreshold interval, in standard deviations of log(estimate)
PTH_Z = 6.0


def mc_reference(name: str) -> dict:
    spec = WORKLOADS[name]
    cfg = ExperimentConfig(d=spec["d"], decoder=spec["decoder"],
                           shots=MC_REFERENCE_SHOTS[name], seed=REFERENCE_SEED,
                           css_two_stage=spec["css_two_stage"], workers=2)
    stats = run_point(cfg, spec["p"])
    shots, mean, var = checks.rounds_moments(stats.rounds_histogram)
    cap = PolicyConfig(spec["decoder"], (spec["d"] - 1) // 2).max_rounds_cap()
    return {"shots": shots, "logical_errors": stats.logical_errors,
            "avg_rounds": mean, "rounds_var": var,
            "max_rounds_cap": 2 * cap if spec["css_two_stage"] else cap}


def verify_reference() -> dict:
    _, outputs = run_pass(WORKLOADS["verify_ft"], REFERENCE_SEED)
    assert set(outputs) == set(VERIFY_PARTS)
    return {
        "fault_enum_1": {r["decoder"]: [r["cases"], r["skipped_unreached"]]
                         for r in outputs["fault_enum_1"][1]["reports"]},
        "oracle_checked": outputs["oracle_check"][1]["checked"],
        "bound_checks": len(outputs["verify_bounds"][1]["checks"]),
    }


def pth_reference() -> dict:
    spec = WORKLOADS["pth_d3_pool"]
    logs = []
    probes = set()
    for seed in PTH_SEEDS:
        _, outputs = run_pass(spec, seed)
        est = outputs["estimate_pseudothreshold"]
        logs.append(math.log(est["estimate"]))
        probes.add(len(est["probes"]))
    mu, sd = statistics.fmean(logs), statistics.stdev(logs)
    return {"seeds": len(logs), "log_mean": mu, "log_sd": sd,
            "observed": [math.exp(min(logs)), math.exp(max(logs))],
            "interval": [math.exp(mu - PTH_Z * sd), math.exp(mu + PTH_Z * sd)],
            "probes": probes.pop() if len(probes) == 1 else sorted(probes)}


def main() -> None:
    ref = {name: mc_reference(name) for name in MC_REFERENCE_SHOTS}
    ref["verify_ft"] = verify_reference()
    ref["pth_d3_pool"] = pth_reference()
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(ref, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
