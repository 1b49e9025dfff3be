"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest perfbench -q

Each check accepts a result computed at this commit and rejects a
deliberately wrong one.
"""

from __future__ import annotations

import copy
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Tally, pool_stats, run_pass, units  # noqa: E402

REF = checks.load_reference()


def _mc_stats(name: str, seed: int = 5) -> dict:
    _, outputs = run_pass(WORKLOADS[name], seed)
    return outputs["run_point"]


@pytest.fixture(scope="module")
def mc_stats():
    return _mc_stats("mc_d5_strong")


@pytest.fixture(scope="module")
def verify_outputs():
    return run_pass(WORKLOADS["verify_ft"], 5)[1]


@pytest.fixture(scope="module")
def pth_result():
    return run_pass(WORKLOADS["pth_d3_pool"], 5)[1]["estimate_pseudothreshold"]


def test_binomial_tails_match_direct_sums():
    n, p = 40, 0.07
    pmf = [math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(n + 1)]
    for k in (0, 1, 3, 10, 40):
        assert checks.binom_le(k, n, p) == pytest.approx(sum(pmf[: k + 1]), rel=1e-9)
        assert checks.binom_ge(k, n, p) == pytest.approx(sum(pmf[k:]), rel=1e-9, abs=1e-300)


@pytest.mark.parametrize("name", ["mc_d5_strong", "mc_d9_2stage"])
def test_mc_check_accepts_this_commit(name, mc_stats):
    stats = mc_stats if name == "mc_d5_strong" else _mc_stats(name)
    assert checks.check_mc(stats, WORKLOADS[name]["shots"], REF[name]) == []


def _scale_errors(stats: dict, factor: float) -> dict:
    wrong = copy.deepcopy(stats)
    wrong["logical_errors"] = int(stats["logical_errors"] * factor)
    wrong["p_l_hat"] = wrong["logical_errors"] / stats["shots"]
    return wrong


def _shift_rounds(stats: dict, by: int) -> dict:
    wrong = copy.deepcopy(stats)
    wrong["rounds_histogram"] = {r + by: c for r, c in stats["rounds_histogram"].items()}
    wrong["avg_rounds"] = stats["avg_rounds"] + by
    wrong["max_rounds_seen"] = stats["max_rounds_seen"] + by
    return wrong


def _drop_chunk(stats: dict) -> dict:
    wrong = copy.deepcopy(stats)
    wrong["shots"] -= 4096
    return wrong


@pytest.mark.parametrize("mutate, message", [
    (lambda s: _scale_errors(s, 2.5), "binomial band"),
    (lambda s: _scale_errors(s, 0.3), "binomial band"),
    (lambda s: _shift_rounds(s, 1), "avg_rounds"),
    (lambda s: _shift_rounds(s, 3), "cap"),
    (_drop_chunk, "requested"),
])
def test_mc_check_rejects_wrong_results(mc_stats, mutate, message):
    bad = checks.check_mc(mutate(mc_stats), WORKLOADS["mc_d5_strong"]["shots"],
                          REF["mc_d5_strong"])
    assert any(message in m for m in bad), bad


def test_pooled_passes_tighten_the_band():
    spec = WORKLOADS["mc_d5_strong"]
    pooled = None
    for k in range(8):
        pooled = pool_stats(pooled, run_pass(spec, 100 + k)[1]["run_point"])
    ref = REF["mc_d5_strong"]
    assert checks.check_mc(pooled, 8 * spec["shots"], ref) == []
    for factor in (1.4, 0.7):
        bad = checks.check_mc(_scale_errors(pooled, factor), 8 * spec["shots"], ref)
        assert any("binomial band" in m for m in bad), factor


def test_verify_checks_accept_this_commit(verify_outputs):
    samples = WORKLOADS["verify_ft"]["samples"]
    for part, (rc, payload) in verify_outputs.items():
        assert checks.check_cli(part, rc, payload, REF["verify_ft"], samples) == [], part


def _fewer_cases(o):
    o["fault_enum_1"][1]["reports"][2]["cases"] -= 1


def _logical_failure(o):
    o["fault_enum_2"][1]["reports"][0].update(ok=False, logical_failures=1)
    o["fault_enum_2"][1]["ok"] = False


def _mismatch(o):
    o["oracle_check"][1]["mismatches"].append({"delta": "0110", "t": 2})


def _bound_fails(o):
    o["verify_bounds"][1]["checks"][0]["ok"] = False


def _exit_code(o):
    o["oracle_check"] = (2, o["oracle_check"][1])


@pytest.mark.parametrize("mutate, part", [
    (_fewer_cases, "fault_enum_1"), (_logical_failure, "fault_enum_2"),
    (_mismatch, "oracle_check"), (_bound_fails, "verify_bounds"), (_exit_code, "oracle_check"),
])
def test_verify_checks_reject_wrong_results(verify_outputs, mutate, part):
    wrong = copy.deepcopy(verify_outputs)
    mutate(wrong)
    rc, payload = wrong[part]
    assert checks.check_cli(part, rc, payload, REF["verify_ft"],
                            WORKLOADS["verify_ft"]["samples"])


def test_pth_check_accepts_this_commit(pth_result):
    spp = WORKLOADS["pth_d3_pool"]["shots_per_probe"]
    assert checks.check_pth(pth_result, spp, REF["pth_d3_pool"]) == []


@pytest.mark.parametrize("factor", [3.0, 1 / 3.0])
def test_pth_check_rejects_a_moved_estimate(pth_result, factor):
    wrong = dict(pth_result, estimate=pth_result["estimate"] * factor,
                 ci_low=pth_result["ci_low"] * factor, ci_high=pth_result["ci_high"] * factor)
    spp = WORKLOADS["pth_d3_pool"]["shots_per_probe"]
    assert any("reference interval" in m
               for m in checks.check_pth(wrong, spp, REF["pth_d3_pool"]))


def test_pth_check_rejects_a_missing_probe(pth_result):
    wrong = dict(pth_result, probes=pth_result["probes"][:-1])
    spp = WORKLOADS["pth_d3_pool"]["shots_per_probe"]
    assert checks.check_pth(wrong, spp, REF["pth_d3_pool"])


def test_tally_fails_a_repeat_that_differs(mc_stats):
    tally = Tally(WORKLOADS["mc_d5_strong"], REF["mc_d5_strong"])
    tally.add_repeat({"run_point": mc_stats}, {"run_point": copy.deepcopy(mc_stats)})
    other = copy.deepcopy(mc_stats)
    other["stopped_by"]["usable_run"] -= 1
    other["stopped_by"]["pair_count"] += 1
    tally.add_repeat({"run_point": mc_stats}, {"run_point": other})
    assert (tally.attempted, tally.failed) == (2, 1)


@pytest.mark.parametrize("name, seed", [("mc_d5_strong", 3), ("pth_d3_pool", 3)])
def test_traced_counts_repeat_and_tracing_changes_no_output(tmp_path, name, seed):
    spec = dict(WORKLOADS[name])
    if spec["kind"] == "mc":
        spec["shots"] = 8192
    else:
        spec["iterations"] = 1
    _, plain = run_pass(spec, seed)
    recorder = spans.Recorder(tmp_path)
    install, uninstall = spans.installer(recorder)
    counts = []
    for _ in range(2):
        install()
        try:
            _, traced = run_pass(spec, seed, recorder)
        finally:
            uninstall()
        assert traced == plain
        unit = units(spec, traced)
        counts.append(spans.pass_counts(spans.layer_totals(recorder.take()),
                                        unit["mc_rounds"], unit["shots"]))
    assert counts[0] == counts[1]
    assert counts[0]["extraction.faulty_rounds"] > 0
    assert counts[0]["recovery.decode_calls"] > 0
    assert counts[0]["decoders.policy_decision_calls"] == 0
    assert not list(tmp_path.glob("worker-*.tsv"))  # worker files were merged
    import ftecsim.harness

    assert ftecsim.harness._run_chunk.__name__ == "_run_chunk"
    assert not hasattr(ftecsim.harness._run_chunk, "__wrapped__")


def test_self_time_subtracts_children():
    spans_ = [(1, 0, -1, "harness.chunk", 0, 100, 0),
              (1, 1, 0, "extraction.apply_faults", 10, 30, 2),
              (1, 2, 0, "recovery.decode", 40, 50, 1)]
    totals = spans.layer_totals(spans_)
    assert totals["layers"]["harness.chunk"]["self_s"] == pytest.approx(70e-9)
    counts = spans.pass_counts(totals, mc_rounds=4, shots=2)
    assert counts["extraction.faulty_rounds"] == 1
    assert counts["extraction.faults_per_faulty_round"] == 2
    assert counts["recovery.fallback_frac"] == 0.5
