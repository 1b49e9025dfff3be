"""Correctness checks on each workload's outputs.

The Monte Carlo checks are statistical, so a correct engine whose random
draws differ still passes: the logical-error count must lie inside an
exact binomial band around the reference rate recorded in
``reference.json`` (from a long run at the commit that defined this
benchmark), and the mean round count inside a normal band. The
verification checks are exact. The pseudothreshold check compares with
the spread of this simulator's own estimates, never with the published
table, whose d=3 values this convention is known to miss.

Every check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Per-check false-rejection level of the binomial band, and the half-width
# in standard errors of the mean-rounds band and of the reference-rate
# interval. The benchmark makes a few thousand checks over its life, so
# these keep a false rejection far less likely than one in a thousand.
TAIL_ALPHA = 1e-7
Z_BAND = 6.0


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _log_pmf(i: int, n: int, p: float) -> float:
    return (math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
            + i * math.log(p) + (n - i) * math.log1p(-p))


def binom_le(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p)."""
    if k < 0:
        return 0.0
    if k >= n or p <= 0.0:
        return 1.0
    return min(1.0, sum(math.exp(_log_pmf(i, n, p)) for i in range(k + 1)))


def binom_ge(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p), summed until the terms vanish."""
    if k <= 0:
        return 1.0
    if p <= 0.0:
        return 0.0
    mean = n * p
    if k <= mean:
        return 1.0 - binom_le(k - 1, n, p)
    total = 0.0
    for i in range(k, n + 1):
        term = math.exp(_log_pmf(i, n, p))
        total += term
        if term < total * 1e-17:
            break
    return min(1.0, total)


def wilson(errors: int, shots: int, z: float) -> tuple[float, float]:
    phat = errors / shots
    denom = 1.0 + z * z / shots
    center = (phat + z * z / (2 * shots)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / shots + z * z / (4 * shots * shots))
    return max(0.0, center - half), min(1.0, center + half)


def rounds_moments(histogram: dict) -> tuple[int, float, float]:
    """(shots, mean, variance) of a {rounds: count} histogram."""
    shots = sum(histogram.values())
    mean = sum(int(r) * c for r, c in histogram.items()) / shots
    var = sum(c * (int(r) - mean) ** 2 for r, c in histogram.items()) / shots
    return shots, mean, var


def check_mc(stats: dict, requested_shots: int, ref: dict) -> list[str]:
    """One ``run_point`` result (``ExperimentStats.as_dict()``) against the reference."""
    bad = []
    shots = stats["shots"]
    if shots != requested_shots:
        bad.append(f"shots {shots} != requested {requested_shots}")
    hist = stats["rounds_histogram"]
    if sum(hist.values()) != shots or sum(stats["stopped_by"].values()) != shots:
        bad.append("rounds histogram or stop reasons do not sum to shots")
        return bad
    if stats["max_rounds_seen"] > ref["max_rounds_cap"]:
        bad.append(f"max_rounds_seen {stats['max_rounds_seen']} > cap {ref['max_rounds_cap']}")
    if stats["max_rounds_seen"] != max(int(r) for r in hist):
        bad.append("max_rounds_seen disagrees with the histogram")
    k = stats["logical_errors"]
    if abs(stats["p_l_hat"] - k / shots) > 1e-12:
        bad.append("p_l_hat != logical_errors / shots")
    p_lo, p_hi = wilson(ref["logical_errors"], ref["shots"], Z_BAND)
    if binom_ge(k, shots, p_hi) < TAIL_ALPHA or binom_le(k, shots, p_lo) < TAIL_ALPHA:
        bad.append(f"logical errors {k}/{shots} outside the binomial band of the "
                   f"reference rate [{p_lo:.4g}, {p_hi:.4g}]")
    _, mean, var = rounds_moments(hist)
    if abs(stats["avg_rounds"] - mean) > 1e-9:
        bad.append("avg_rounds disagrees with the histogram")
    half = Z_BAND * math.sqrt(var / shots + ref["rounds_var"] / ref["shots"])
    if abs(mean - ref["avg_rounds"]) > half:
        bad.append(f"avg_rounds {mean:.5f} outside {ref['avg_rounds']:.5f} +- {half:.5f}")
    return bad


def check_cli(part: str, rc: int, payload: dict, ref: dict, samples: int) -> list[str]:
    """One ``run_cli`` report of the verification workload, exactly."""
    bad = [] if rc == 0 else [f"{part}: exit code {rc}"]
    if part == "fault_enum_1":
        expected = ref["fault_enum_1"]
        got = {r["decoder"]: [r["cases"], r["skipped_unreached"]] for r in payload["reports"]}
        if got != expected:
            bad.append(f"{part}: case counts {got} != {expected}")
    elif part == "fault_enum_2":
        got = [r["cases"] for r in payload["reports"]]
        if got != [samples]:
            bad.append(f"{part}: case counts {got} != [{samples}]")
    elif part == "oracle_check":
        if payload["checked"] != ref["oracle_checked"]:
            bad.append(f"{part}: checked {payload['checked']} != {ref['oracle_checked']}")
        if payload["mismatches"]:
            bad.append(f"{part}: {len(payload['mismatches'])} oracle mismatches")
        return bad
    elif part == "verify_bounds":
        if len(payload["checks"]) != ref["bound_checks"]:
            bad.append(f"{part}: {len(payload['checks'])} checks != {ref['bound_checks']}")
        if not payload["ok"] or not all(c["ok"] for c in payload["checks"]):
            bad.append(f"{part}: a round bound failed")
        return bad
    else:
        raise ValueError(f"unknown verification part {part!r}")
    if not payload["ok"]:
        bad.append(f"{part}: report not ok")
    for r in payload["reports"]:
        if not r["ok"] or r["logical_failures"] or r["weight_violations"]:
            bad.append(f"{part}: {r['decoder']} has {r['logical_failures']} logical failures "
                       f"and {r['weight_violations']} weight violations")
    return bad


def check_pth(result: dict, shots_per_probe: int, ref: dict) -> list[str]:
    """One ``estimate_pseudothreshold`` result against this simulator's own spread."""
    bad = []
    lo, hi = ref["interval"]
    est = result["estimate"]
    if not lo <= est <= hi:
        bad.append(f"estimate {est:.4g} outside the reference interval [{lo:.4g}, {hi:.4g}]")
    if not result["ci_low"] <= est <= result["ci_high"]:
        bad.append("estimate outside its own confidence interval")
    if len(result["probes"]) != ref["probes"]:
        bad.append(f"{len(result['probes'])} probes != {ref['probes']}")
    if any(s != shots_per_probe for s in result["probe_shots"]):
        bad.append("a probe ran a different number of shots")
    return bad
