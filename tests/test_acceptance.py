"""Acceptance criteria, one test per criterion, tolerances pinned.

Each test records a PASS/FAIL line printed in the terminal summary. The
heavy Monte Carlo criteria use two worker processes and fixed seeds;
results are deterministic for a given seed regardless of worker count.
"""

import math
import time

from conftest import record_criterion, run_stream
from ftecsim.cli import run_cli
from ftecsim.diffvec import decompose, find_usable, operation_count
from ftecsim.harness import (
    ExperimentConfig,
    enumerate_single_faults,
    estimate_pseudothreshold,
    run_experiment,
    run_point,
    sample_fault_pairs,
    threshold_lower_bound,
)
from ftecsim.worstcase import (
    appendix_extremal_delta,
    oracle_unusable_runs,
    verify_round_bounds,
)

WORKERS = 2
PAPER_PSEUDOTHRESHOLDS = {
    (3, "shor"): 4.12e-4,
    (3, "strong"): 3.88e-4,
    (3, "weak"): 16.4e-4,
    (5, "shor"): 3.28e-4,
    (5, "strong"): 4.25e-4,
    (5, "weak"): 5.48e-4,
}


def test_criterion_01_round_bounds():
    """Theorems on worst-case rounds reproduce the published table exactly."""
    start = time.monotonic()
    report = verify_round_bounds(5)
    rows = {(c.kind, c.s1_branch): [] for c in report["checks"]}
    for c in sorted(report["checks"], key=lambda c: c.t):
        rows[(c.kind, c.s1_branch)].append(c.formula_rounds)
    expected = {
        ("strong", "n/a"): [3, 5, 8, 11, 15],
        ("weak", "nonzero"): [2, 4, 6, 9, 12],
        ("weak", "zero"): [1, 4, 7, 10, 14],
        ("shor", "n/a"): [4, 9, 16, 25, 36],
    }
    elapsed = time.monotonic() - start
    ok = report["ok"] and rows == expected and elapsed < 60
    cli_ok = run_cli(["verify-bounds", "--t-max", "5", "--out", "/dev/null"]) == 0
    ok = ok and cli_ok
    record_criterion(1, ok, f"max-rounds table t=1..5 exact, {elapsed:.1f}s (< 60s)")
    assert report["ok"]
    assert rows == expected
    assert cli_ok
    assert elapsed < 60


def test_criterion_02_search_matches_oracle():
    """Usable-substring search agrees with the brute-force oracle on every
    difference vector of length <= 10 for budgets t <= 3."""
    start = time.monotonic()
    checked = 0
    mismatches = []
    for length in range(1, 11):
        for bits in range(1 << length):
            delta = format(bits, f"0{length}b")
            runs = decompose(delta)
            if not runs:
                continue
            all_runs = {(r.start, r.end) for r in runs}
            for t in (1, 2, 3):
                checked += 1
                search = {(r.start, r.end) for r in find_usable(t, delta)}
                oracle = all_runs - oracle_unusable_runs(delta, t)
                if search != oracle:
                    mismatches.append((delta, t))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 300
    record_criterion(
        2, ok, f"{checked} (delta, t) cases agree with the oracle, {elapsed:.1f}s (< 300s)"
    )
    assert mismatches == []
    assert elapsed < 300


def test_criterion_03_worked_examples():
    empty = find_usable(3, "010010")
    middle = find_usable(3, "0100010")
    runs = decompose("1011000111101")
    three = [r for r in runs if r.gamma == 3]
    ok = (
        empty == []
        and len(middle) == 1
        and (middle[0].start, middle[0].end) == (3, 5)
        and len(three) == 1
        and (three[0].alpha, three[0].beta, three[0].gamma) == (2, 3, 3)
    )
    record_criterion(3, ok, "worked examples (010010, 0100010, 1011000111101) exact")
    assert ok


def test_criterion_04_single_fault_ft():
    """Every single fault on d=3 leaves no logical error and a residual of
    weight at most one, for all three decoders; the strong policy picks the
    tabulated syndrome in each three-round single-fault scenario."""
    start = time.monotonic()
    details = []
    all_ok = True
    for decoder in ("shor", "strong", "weak"):
        report = enumerate_single_faults(3, decoder)
        all_ok = all_ok and report.ok
        details.append(f"{decoder}:{report.cases}cases")
        assert report.logical_failures == 0, report.failures
        assert report.weight_violations == 0, report.failures

    # Table-2 conformance: seven scenario rows, strong policy, t=1
    a, b, c = 9, 5, 3
    rows = {
        "input": ([a, a, a], 1), "I(1)": ([a, b, b], 2), "I(2)": ([a, b, c], 3),
        "I(3)": ([a, a, b], 1), "II(1)": ([0, b, b], 2), "II(2)": ([a, a, b], 1),
        "II(3)": ([a, a, a], 1),
    }
    for name, (stream, expected_round) in rows.items():
        decision = run_stream("strong", 1, stream)
        table_ok = (
            decision.action == "stop_correct"
            and stream[decision.round_index - 1] == stream[expected_round - 1]
        )
        all_ok = all_ok and table_ok
        assert table_ok, name
    elapsed = time.monotonic() - start
    all_ok = all_ok and elapsed < 60
    record_criterion(
        4, all_ok,
        f"exhaustive single faults clean ({', '.join(details)}), "
        f"Table-2 rows conform, {elapsed:.1f}s (< 60s)",
    )
    assert elapsed < 60


def test_criterion_05_sampled_pair_ft():
    """1e5 uniformly sampled ordered fault pairs on d=5 cause zero logical
    errors for the strong and weak decoders. A pair counts even when a
    fault comes after the shot stops; the line reports how many pairs
    land 0, 1 and 2 faults."""
    start = time.monotonic()
    all_ok = True
    details = []
    for decoder in ("strong", "weak"):
        report = sample_fault_pairs(5, decoder, samples=100_000, seed=20240)
        all_ok = all_ok and report.ok
        details.append(f"{decoder}:{report.cases} pairs, {report.logical_failures} logical, "
                       f"{'/'.join(map(str, report.landed))} landing 0/1/2 faults")
        assert report.logical_failures == 0, report.failures
    elapsed = time.monotonic() - start
    all_ok = all_ok and elapsed < 900
    record_criterion(5, all_ok, f"{'; '.join(details)}, {elapsed:.0f}s (< 900s)")
    assert elapsed < 900


def _fit_loglog_slope(points):
    pts = [
        (math.log(p), math.log(s.p_l_hat), float(s.logical_errors))
        for p, s in points
        if s.logical_errors > 0
    ]
    assert len(pts) >= 3, "too few nonzero points for a slope fit"
    sw = sum(w for _, _, w in pts)
    xb = sum(w * x for x, _, w in pts) / sw
    yb = sum(w * y for _, y, w in pts) / sw
    sxx = sum(w * (x - xb) ** 2 for x, _, w in pts)
    sxy = sum(w * (x - xb) * (y - yb) for x, y, w in pts)
    return sxy / sxx


def test_criterion_06_distance_preservation():
    """log-log slope of p_L(p) over [1e-4, 3e-4] is t+1 within 0.3.

    At d=5 the slopes from 2M shots per point spread wider than the band:
    at seeds 1-5 four of the fifteen fall outside it (CHANGES.md), so any
    change to what the engine draws must wait for an estimator with a
    tighter spread (ROADMAP item 3)."""
    grids = {
        3: ([1e-4, 1.7321e-4, 3e-4], 10_000_000),
        5: ([1e-4, 1.3161e-4, 1.7321e-4, 2.2795e-4, 3e-4], 2_000_000),
    }
    all_ok = True
    details = []
    for d, (grid, shots) in grids.items():
        want = (d - 1) // 2 + 1
        for decoder in ("shor", "strong", "weak"):
            cfg = ExperimentConfig(d=d, decoder=decoder, p_values=tuple(grid), shots=shots,
                                   seed=606, workers=WORKERS)
            points = list(zip(grid, run_experiment(cfg)))
            slope = _fit_loglog_slope(points)
            ok = abs(slope - want) <= 0.3
            all_ok = all_ok and ok
            details.append(f"d={d} {decoder}: {slope:.2f}")
            assert ok, f"d={d} {decoder}: slope {slope:.3f} vs {want} +- 0.3"
    record_criterion(6, all_ok, "slopes " + ", ".join(details) + " (target t+1 +- 0.3)")


def test_criterion_07_high_noise_round_limits():
    """At p=1 the average round count is within 2 percent of (t+1)^2,
    2t+1, and 2t."""
    limits = {(3, "shor"): 4, (3, "strong"): 3, (3, "weak"): 2,
              (5, "shor"): 9, (5, "strong"): 5, (5, "weak"): 4}
    all_ok = True
    details = []
    start = time.monotonic()
    for (d, decoder), limit in limits.items():
        cfg = ExperimentConfig(d=d, decoder=decoder, shots=10_000, seed=707,
                               workers=WORKERS)
        stats = run_point(cfg, 1.0)
        rel = abs(stats.avg_rounds / limit - 1.0)
        ok = rel <= 0.02
        all_ok = all_ok and ok
        details.append(f"d={d} {decoder}: {stats.avg_rounds:.3f}/{limit}")
        assert ok, f"d={d} {decoder}: avg {stats.avg_rounds:.3f} vs {limit} +- 2%"
    record_criterion(
        7, all_ok, ", ".join(details) + f" ({time.monotonic() - start:.0f}s)"
    )


def test_criterion_08_average_round_spot_checks():
    """Convention-sensitive average-round anchors within 10 percent."""
    checks = [(3, "shor", 1e-2, 3.24), (5, "strong", 1e-3, 3.64),
              (3, "weak", 1e-4, 1.01)]
    all_ok = True
    details = []
    for d, decoder, p, anchor in checks:
        cfg = ExperimentConfig(d=d, decoder=decoder, shots=100_000, seed=808,
                               workers=WORKERS)
        stats = run_point(cfg, p)
        rel = abs(stats.avg_rounds / anchor - 1.0)
        ok = rel <= 0.10
        all_ok = all_ok and ok
        details.append(f"d={d} {decoder}@p={p:g}: {stats.avg_rounds:.3f} vs {anchor}")
        assert ok, details[-1]
    record_criterion(8, all_ok, ", ".join(details) + " (+- 10%)")


def test_criterion_09_pseudothresholds():
    """Pseudothreshold orderings are exact; values carry a factor-2
    tolerance against the published table.

    The d=3 value checks are expected to fail with this noise convention.
    At d=3 the minimum-weight decoder is provably unique, so no decoder
    choice can close the gap; the suspected cause is this package's
    circuit convention (cat-preparation faults propagate onto data through
    the controlled-Pauli gates). How much larger its second-order logical
    coefficient is than the one the published d=3 crossings imply is
    unverified until an exact coefficient is computed (ROADMAP open item
    1). See the Known red section of the README.
    """
    estimates = {}
    for (d, decoder), anchor in PAPER_PSEUDOTHRESHOLDS.items():
        bracket_hi = 8e-3 if (d, decoder) == (3, "weak") else 3e-3
        cfg = ExperimentConfig(d=d, decoder=decoder, shots=1, seed=909,
                               workers=WORKERS)
        result = estimate_pseudothreshold(
            cfg, 5e-5, bracket_hi, shots_per_probe=1_000_000, iterations=9
        )
        estimates[(d, decoder)] = result.estimate

    order_ok = (
        estimates[(3, "weak")] > estimates[(3, "strong")]
        and estimates[(3, "weak")] > estimates[(3, "shor")]
        and estimates[(5, "weak")] > estimates[(5, "strong")] > estimates[(5, "shor")]
    )
    value_checks = {
        key: 0.5 <= estimates[key] / anchor <= 2.0
        for key, anchor in PAPER_PSEUDOTHRESHOLDS.items()
    }
    all_ok = order_ok and all(value_checks.values())
    details = ", ".join(
        f"d={d} {dec}: {estimates[(d, dec)]:.2e}"
        f"{'' if value_checks[(d, dec)] else ' (outside factor 2 of ' + format(anchor, '.2e') + ')'}"
        for (d, dec), anchor in PAPER_PSEUDOTHRESHOLDS.items()
    )
    record_criterion(9, all_ok, f"ordering {'ok' if order_ok else 'BROKEN'}; " + details)
    assert order_ok, estimates
    bad = {k: v for k, v in value_checks.items() if not v}
    assert not bad, (
        f"pseudothreshold values outside factor 2 of the published ones: "
        f"{ {k: estimates[k] for k in bad} } vs {PAPER_PSEUDOTHRESHOLDS}; "
        "known convention gap, see the Known red section of the README"
    )


def test_criterion_10_threshold_bound_analysis():
    """The adaptive-vs-traditional threshold bound ratio inequality holds
    on a randomized sweep, and the large-t ratio approaches r1/r2."""
    import numpy as np

    rng = np.random.default_rng(1010)
    checked = 0
    while checked < 100:
        t = int(rng.integers(1, 11))
        L = int(rng.integers(2, 201))
        r2 = int(rng.integers(1, 51))
        r1 = r2 + int(rng.integers(0, 51))
        if r2 * L < t + 1:
            continue
        checked += 1
        p1 = threshold_lower_bound(L, t, r1)
        p2 = threshold_lower_bound(L, t, r2)
        bound = p1 * (r1 / r2) ** (1.0 + 1.0 / t)
        assert p2 >= bound * (1.0 - 1e-9), (L, t, r1, r2)

    t = 50
    r1 = (t + 1) ** 2
    r2 = (t + 2) * (t + 4) // 4 - 1  # strong-policy cap for even t
    ratio = threshold_lower_bound(1000, t, r2) / threshold_lower_bound(1000, t, r1)
    trend = abs(ratio / (r1 / r2) - 1.0)
    ok = trend <= 0.05
    record_criterion(
        10, ok,
        f"ratio inequality holds on 100 cases; t=50 trend ratio {ratio:.3f} "
        f"vs r1/r2={r1 / r2:.3f} ({trend:.1%} <= 5%)",
    )
    assert ok


def test_criterion_11_work_bound_scaling():
    """Instrumented search cost on the extremal family fits a cubic
    envelope: log-log slope at most 3.2 for t in [1, 15]."""
    ts = list(range(1, 16))
    ops = [operation_count(t, appendix_extremal_delta(t)) for t in ts]
    xs = [math.log(t) for t in ts]
    ys = [math.log(o) for o in ops]
    n = len(ts)
    xb = sum(xs) / n
    yb = sum(ys) / n
    slope = sum((x - xb) * (y - yb) for x, y in zip(xs, ys)) / sum(
        (x - xb) ** 2 for x in xs
    )
    ok = slope <= 3.2
    record_criterion(11, ok, f"operation-count log-log slope {slope:.2f} (<= 3.2)")
    assert ok, (slope, ops)
