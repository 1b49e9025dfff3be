import json
import os
import subprocess
import sys
from pathlib import Path

from ftecsim import cli, harness
from ftecsim.cli import run_cli

SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_usage_errors_exit_one(tmp_path, capsys, monkeypatch):
    assert run_cli(["simulate", "--d", "3", "--decoder", "nonsense"]) == 1
    assert run_cli(["no-such-command"]) == 1
    assert run_cli(["simulate", "--d", "3", "--p", "1e-3", "--built-to-weight", "0"]) == 1
    assert run_cli(["simulate", "--d", "3", "--p", "1e-3", "--workers", "-5"]) == 1
    assert run_cli(["simulate", "--d", "3", "--p", "1e-3", "--max-errors", "0"]) == 1
    capsys.readouterr()
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
    # a negative bisection count is refused before any probe
    monkeypatch.setattr(harness, "run_point", lambda *a, **k: calls.append(a))
    assert run_cli(["pseudothreshold", "--d", "3", "--decoder", "weak",
                    "--iterations", "-3"]) == 1
    assert "iterations must be >= 0, got -3" in capsys.readouterr().err
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


def test_fault_enum_cli(tmp_path):
    out = tmp_path / "fe.json"
    assert run_cli(["fault-enum", "--d", "3", "--decoder", "weak",
                    "--order", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    assert payload["reports"][0]["logical_failures"] == 0
    assert "landed" not in payload["reports"][0]
    # the README's example: pairs landing 0, 1 and 2 of their faults
    assert run_cli(["fault-enum", "--d", "5", "--decoder", "strong", "--order", "2",
                    "--samples", "2000", "--seed", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["reports"][0]["landed"] == [312, 511, 1177]


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


def test_module_entry_point():
    """``python -m ftecsim.cli`` runs the command line and passes on its
    exit status."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "ftecsim.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    too_deep = cli("verify-bounds", "--t-max", "9")
    assert too_deep.returncode == 1 and "too large" in too_deep.stderr
    ok = cli("verify-bounds", "--t-max", "1")
    assert ok.returncode == 0 and "all bounds confirmed" in ok.stdout


def test_version_flag(capsys):
    assert run_cli(["--version"]) == 0
    assert "ftecsim" in capsys.readouterr().out
