import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from ftecsim import cli, harness
from ftecsim.cli import run_cli
from ftecsim.worstcase import oracle_unusable_runs

SRC = Path(__file__).resolve().parent.parent / "src"
# a fresh interpreter's environment, with this checkout's package first
FRESH_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def test_verify_bounds_ok(capsys):
    assert run_cli(["verify-bounds", "--t-max", "3"]) == 0
    out = capsys.readouterr().out
    assert "all bounds confirmed" in out
    assert "strong t=3" in out


def test_verify_bounds_json(tmp_path):
    out = tmp_path / "bounds.json"
    assert run_cli(["verify-bounds", "--t-max", "2", "--json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    assert len(payload["checks"]) == 8  # four searched (kind, branch) rows, t = 1..2


def test_simulate_csv_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["simulate", "--d", "3", "--decoder", "weak", "--p", "1e-3,1e-2",
            "--shots", "5000", "--seed", "9"]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--workers", "2", "--out", str(out2)]) == 0
    a = out1.read_text().splitlines()
    b = out2.read_text().splitlines()
    # identical apart from the workers field in the header comment
    assert a[1:] == b[1:]
    assert a[1] == ("d,decoder,p,shots,logical_errors,p_l,ci_low,ci_high,"
                    "avg_rounds,max_rounds_seen")
    assert a[0].startswith("# ftecsim") and "seed=9" in a[0]
    assert len(a) == 4


def test_simulate_json_and_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 3, "decoder": "shor", "p_values": [1e-3],
                               "shots": 2000, "seed": 3}))
    out = tmp_path / "r.json"
    assert run_cli(["simulate", "--config", str(cfg), "--format", "json",
                    "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["seed"] == 3
    assert payload["results"][0]["shots"] == 2000
    assert payload["results"][0]["max_rounds_seen"] <= 4


def test_simulate_flag_overrides_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 3, "decoder": "shor", "p_values": [1e-3],
                               "shots": 2000, "seed": 3}))
    out = tmp_path / "r.json"
    assert run_cli(["simulate", "--config", str(cfg), "--shots", "100",
                    "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["results"][0]["shots"] == 100
    # flags over file values, file values over the defaults
    assert payload["config"]["decoder"] == "shor" and payload["config"]["seed"] == 3
    assert payload["config"]["css_two_stage"] is False
    assert run_cli(["simulate", "--config", str(cfg), "--decoder", "weak", "--p", "0.01",
                    "--p", "0.02,0.03", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["decoder"] == "weak"
    assert payload["config"]["p_values"] == [0.01, 0.02, 0.03]
    assert payload["config"]["shots"] == 2000


def test_simulate_requires_rates(capsys):
    assert run_cli(["simulate", "--d", "3", "--decoder", "shor"]) == 1


def test_oversize_table_weight_exits_one(capsys):
    """A --built-to-weight past the table's enumeration budget is refused
    by the config check, which names the field the flag sets."""
    assert run_cli(["simulate", "--d", "9", "--p", "1e-3", "--built-to-weight", "6"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("ftecsim: error: built_to_weight 6 at d=9 needs 62034256 table supports, "
                   "more than the 2000000 a table may hold; lower built_to_weight\n")


def test_usage_errors_exit_one(tmp_path, capsys, monkeypatch):
    assert run_cli(["simulate", "--d", "3", "--decoder", "nonsense"]) == 1
    assert run_cli(["no-such-command"]) == 1
    assert run_cli(["simulate", "--d", "3", "--p", "1e-3", "--built-to-weight", "0"]) == 1
    assert run_cli(["simulate", "--d", "3", "--p", "1e-3", "--workers", "-5"]) == 1
    assert run_cli(["simulate", "--d", "3", "--p", "1e-3", "--max-errors", "0"]) == 1
    capsys.readouterr()
    # a negative seed is named before any context is built or stream made
    for argv in (["simulate", "--d", "3", "--p", "1e-3", "--seed", "-1"],
                 ["pseudothreshold", "--d", "3", "--decoder", "weak", "--seed", "-1"],
                 ["fault-enum", "--order", "2", "--seed", "-1"]):
        assert run_cli(argv) == 1, argv
        assert "seed must be >= 0, got -1" in capsys.readouterr().err, argv
    # verification commands that would check nothing
    for argv in (["fault-enum", "--order", "2", "--samples", "0"],
                 ["fault-enum", "--order", "2", "--samples", "-5"],
                 ["verify-bounds", "--t-max", "0"], ["verify-bounds", "--t-max", "-2"],
                 ["oracle-check", "--max-len", "0"], ["oracle-check", "--t-max", "0"]):
        assert run_cli(argv) == 1, argv
        assert "must be >= 1" in capsys.readouterr().err, argv
    # bounds past the exhaustive regime are refused before any oracle call
    calls = []
    monkeypatch.setattr(cli, "oracle_unusable_runs", lambda *a: calls.append(a))
    for argv in (["oracle-check", "--max-len", "16", "--t-max", "1"],
                 ["oracle-check", "--max-len", "2", "--t-max", "6"]):
        assert run_cli(argv) == 1, argv
        assert "must be <= 15 and <= 5" in capsys.readouterr().err, argv
    assert calls == []
    # a negative bisection count or an empty probe is refused before any probe
    monkeypatch.setattr(harness, "_run_point", lambda *a, **k: calls.append(a))
    assert run_cli(["pseudothreshold", "--d", "3", "--decoder", "weak",
                    "--iterations", "-3"]) == 1
    assert "iterations must be >= 0, got -3" in capsys.readouterr().err
    assert run_cli(["pseudothreshold", "--d", "3", "--decoder", "weak",
                    "--shots-per-probe", "0"]) == 1
    assert "shots_per_probe must be >= 1, got 0" in capsys.readouterr().err
    assert calls == []
    cfg = tmp_path / "cfg.json"
    # misspelled keys are named, not ignored
    cfg.write_text(json.dumps({"d": 3, "decoder": "weak", "p_values": [0.01],
                               "shot": 5, "sed": 4}))
    assert run_cli(["simulate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "unknown keys ['sed', 'shot']" in err
    cfg.write_text("[3]")
    assert run_cli(["simulate", "--config", str(cfg)]) == 1
    assert "must hold a JSON object" in capsys.readouterr().err
    # wrongly typed values are named, not a TypeError traceback
    for body, field in (({"p_values": 0.01}, "p_values"),
                        ({"p_values": [0.01], "shots": "5"}, "shots")):
        cfg.write_text(json.dumps(body))
        assert run_cli(["simulate", "--config", str(cfg)]) == 1
        assert f"{field} must be" in capsys.readouterr().err


def test_readme_commands_parse(capsys):
    """Every ``ftecsim ...`` line of the README's "Command line" block
    parses (no command runs), so a flag removed or renamed while the README
    still shows it fails here; the block shows every subcommand."""
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1].replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("ftecsim ")]
    parser = cli.build_parser()
    shown = {parser.parse_args(argv).command for argv in commands}
    assert shown == {"simulate", "pseudothreshold", "verify-bounds", "oracle-check",
                     "dump-code", "fault-enum"}
    assert run_cli(["simulate", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--workers" in out and "FTECSIM_WORKERS" not in out


def test_dump_code(tmp_path):
    out = tmp_path / "code.json"
    assert run_cli(["dump-code", "--d", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 7 and payload["k"] == 1 and payload["d"] == 3
    assert len(payload["generators"]) == 6
    assert all(set(g) <= set("IXYZ") and len(g) == 7 for g in payload["generators"])
    assert len(payload["logical_x"]) == 1


def test_out_file_matches_stdout(tmp_path, capsys):
    """``--out`` writes the bytes stdout gets, final newline included."""
    out = tmp_path / "out"
    for argv in (["dump-code", "--d", "3"],
                 ["simulate", "--d", "3", "--decoder", "shor", "--p", "1e-2",
                  "--shots", "200", "--seed", "1"]):
        assert run_cli(argv) == 0
        stdout = capsys.readouterr().out
        assert run_cli([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == stdout.encode() and stdout.endswith("\n"), argv


def test_dump_code_d5_parameters(tmp_path):
    out = tmp_path / "code5.json"
    assert run_cli(["dump-code", "--d", "5", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 19 and len(payload["generators"]) == 18


def test_oracle_check_modes(tmp_path):
    out = tmp_path / "oc.json"
    assert run_cli(["oracle-check", "--delta", "010010", "--t", "3",
                    "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    assert all(not row["search_usable"] for row in payload["runs"])
    assert run_cli(["oracle-check", "--max-len", "6", "--t-max", "2",
                    "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["checked"] > 0 and payload["mismatches"] == []


def test_oracle_check_calls_oracle_once_per_case(tmp_path, monkeypatch):
    # the sweep asks the oracle once per (delta, t); the bench's oracle span counts these calls
    calls = []

    def counting(delta, t):
        calls.append((delta, t))
        return oracle_unusable_runs(delta, t)

    monkeypatch.setattr(cli, "oracle_unusable_runs", counting)
    out = tmp_path / "oc.json"
    assert run_cli(["oracle-check", "--max-len", "6", "--t-max", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    # every vector of length 1..6 with at least one zero, at t = 1, 2
    assert payload["checked"] == len(calls) == 2 * sum((1 << n) - 1 for n in range(1, 7))
    assert len(set(calls)) == len(calls)


def test_oracle_check_reports_mismatches(monkeypatch, capsys):
    """A search that drops a run the oracle keeps is a mismatch: the sweep
    exits 2 and lists that (delta, t) with both run sets."""
    real = cli.find_usable

    def dropping(t, delta):
        runs = real(t, delta)
        return runs[1:] if (delta, t) == ("0100010", 2) else runs

    monkeypatch.setattr(cli, "find_usable", dropping)
    assert run_cli(["oracle-check", "--max-len", "7", "--t-max", "2"]) == 2
    payload = json.loads(capsys.readouterr().out)
    [mismatch] = payload["mismatches"]
    runs = [[r.start, r.end] for r in real(2, "0100010")]
    assert mismatch == {"delta": "0100010", "t": 2, "search": runs[1:], "oracle": runs}


def test_fault_enum_cli(tmp_path):
    out = tmp_path / "fe.json"
    assert run_cli(["fault-enum", "--d", "3", "--decoder", "weak",
                    "--order", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    assert payload["reports"][0]["logical_failures"] == 0
    assert "landed" not in payload["reports"][0]
    # the README's example: pairs landing 0, 1 and 2 of their faults
    readme = " ".join((SRC.parent / "README.md").read_text().split())
    claim = re.search(r"`fault-enum --d 5 --decoder strong --order 2 --samples 2000 --seed 0`"
                      r" gives (\d+)/(\d+)/(\d+)\.", readme)
    assert claim, "README's order-2 example sentence not found"
    assert run_cli(["fault-enum", "--d", "5", "--decoder", "strong", "--order", "2",
                    "--samples", "2000", "--seed", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["reports"][0]["landed"] == list(map(int, claim.groups()))


def test_fault_enum_refuses_unsupported_distance(monkeypatch, capsys):
    """Both orders refuse a distance that ``simulate`` refuses, with its
    message, before any code is built: d=4 is even and d=11 has too many
    qubits for the uint64 frame words."""
    built = []
    monkeypatch.setattr(harness, "build_hex_color_code", built.append)
    for d in ("4", "11"):
        for order in ("1", "2"):
            assert run_cli(["fault-enum", "--d", d, "--order", order, "--samples", "10"]) == 1
            err = capsys.readouterr().err
            assert f"d must be one of (3, 5, 7, 9), got {d}" in err, (d, order)
    assert built == []


def test_pseudothreshold_cli(tmp_path):
    out = tmp_path / "pt.json"
    code = run_cli([
        "pseudothreshold", "--d", "3", "--decoder", "weak",
        "--p-lo", "2e-4", "--p-hi", "5e-3", "--shots-per-probe", "20000",
        "--iterations", "4", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert 2e-4 < payload["pseudothreshold"] < 5e-3
    assert payload["ci_low"] <= payload["pseudothreshold"] <= payload["ci_high"]
    assert len(payload["probes"]) >= 6
    # what a rerun needs, beside seed, d, decoder and shots_per_probe
    assert {k: payload[k] for k in ("css_two_stage", "workers", "p_lo", "p_hi",
                                    "iterations")} == {
        "css_two_stage": False, "workers": 1, "p_lo": 2e-4, "p_hi": 5e-3, "iterations": 4}


def test_pseudothreshold_exits(monkeypatch, capsys):
    """No crossing in the bracket exits 2 with nothing on stdout and, on
    stderr, the error and one curve row per probe; a reversed bracket is a
    usage error."""
    probes = []
    real = harness._run_point
    monkeypatch.setattr(harness, "_run_point",
                        lambda cfg, p, *a: probes.append(p) or real(cfg, p, *a))
    assert run_cli(["pseudothreshold", "--d", "3", "--decoder", "weak", "--p-lo", "0.3",
                    "--p-hi", "0.5", "--shots-per-probe", "2000", "--iterations", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert "no crossing" in payload["error"]
    assert [row["p"] for row in payload["curve"]] == probes == [0.3, 0.5]
    assert run_cli(["pseudothreshold", "--d", "3", "--decoder", "weak",
                    "--p-lo", "5e-3", "--p-hi", "2e-4"]) == 1
    assert "need 0 < p_lo < p_hi <= 1" in capsys.readouterr().err


def test_pseudothreshold_json_tells_two_stage_runs_apart(tmp_path):
    """A two-stage estimate records its mode and worker count, so its JSON
    differs from the single-stage run's and says how to rerun it."""
    out = tmp_path / "pt.json"
    assert run_cli([
        "pseudothreshold", "--d", "3", "--decoder", "weak", "--css-two-stage",
        "--p-lo", "2e-4", "--p-hi", "5e-3", "--shots-per-probe", "20000",
        "--iterations", "0", "--seed", "1", "--workers", "2", "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert {k: payload[k] for k in ("css_two_stage", "workers", "p_lo", "p_hi",
                                    "iterations", "shots_per_probe")} == {
        "css_two_stage": True, "workers": 2, "p_lo": 2e-4, "p_hi": 5e-3, "iterations": 0,
        "shots_per_probe": 20000}
    assert len(payload["probes"]) == 2


def test_module_entry_point():
    """``python -m ftecsim.cli`` runs the command line and passes on its
    exit status."""

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "ftecsim.cli", *argv], env=FRESH_ENV,
                              capture_output=True, text=True, timeout=120)

    too_deep = cli("verify-bounds", "--t-max", "9")
    assert too_deep.returncode == 1 and "too large" in too_deep.stderr
    ok = cli("verify-bounds", "--t-max", "1")
    assert ok.returncode == 0 and "all bounds confirmed" in ok.stdout


def test_import_leaves_process_pool_unloaded():
    """Importing the command line and the harness loads no process-pool
    module; ``run_point`` imports it only when it starts a pool. A fresh
    interpreter, because other tests load those modules here."""
    probe = ("import sys, ftecsim.cli, ftecsim.harness; print(sorted(m for m in sys.modules"
             " if m in ('concurrent.futures.process', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", probe], env=FRESH_ENV, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.strip() == "[]"


def test_pool_workers_start_with_numpy_random_loaded():
    """A pool's children fork with ``numpy.random`` already loaded, so no
    child loads it again on its first hand-off: a 2-worker ``run_point``
    in a fresh interpreter, whose caller runs one share of the hand-offs,
    through a wrapped ``_run_chunk`` that reports on each process's first
    hand-off whether it ran in a child and whether ``numpy.random`` was
    loaded."""
    probe = """
import os, sys
from ftecsim import harness

caller, first = os.getpid(), []

def wrapped(args):
    if not first:
        first.append(True)
        where = "child" if os.getpid() != caller else "caller"
        # one write per line: the processes share the pipe, unbuffered
        # under PYTHONUNBUFFERED, where print's two writes can interleave
        sys.stdout.write(where + (" warm\\n" if "numpy.random" in sys.modules else " cold\\n"))
        sys.stdout.flush()
    return run_chunk(args)

run_chunk, harness._run_chunk = harness._run_chunk, wrapped
cfg = harness.ExperimentConfig(d=3, decoder="weak", shots=8 * harness.CHUNK_SHOTS, seed=1,
                               workers=2)
harness.run_point(cfg, 1e-3)
"""
    out = subprocess.run([sys.executable, "-c", probe], env=FRESH_ENV, capture_output=True,
                         text=True, timeout=120, check=True).stdout.splitlines()
    children = [line.split()[1] for line in out if line.startswith("child ")]
    assert children and set(children) == {"warm"}, out


def test_pool_child_death_raises_promptly():
    """A pool child that dies in a hand-off makes the campaign raise at
    once, not hang, and no child outlives it: ``_run_chunk`` calls
    ``os._exit`` in a child only (the fork copies the patch), in a fresh
    interpreter, with a timeout."""
    probe = """
import multiprocessing, os, time
from ftecsim import harness

caller, run_chunk = os.getpid(), harness._run_chunk

def dying(job):
    if os.getpid() != caller:
        os._exit(3)
    return run_chunk(job)

harness._run_chunk = dying
cfg = harness.ExperimentConfig(d=3, decoder="weak", shots=4 * harness.CHUNK_SHOTS, seed=1,
                               workers=2)
start = time.perf_counter()
try:
    harness.run_point(cfg, 1e-2)
except RuntimeError as exc:
    print(type(exc).__name__, time.perf_counter() - start < 10, multiprocessing.active_children())
"""
    out = subprocess.run([sys.executable, "-c", probe], env=FRESH_ENV, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.split() == ["RuntimeError", "True", "[]"], out


def test_version_flag(capsys):
    assert run_cli(["--version"]) == 0
    assert "ftecsim" in capsys.readouterr().out
