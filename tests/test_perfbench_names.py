"""The benchmark reaches into ftecsim by name: its traced run wraps module
attributes (``perfbench/spans.py``, ``WRAPPED``), and its scripts import
names from the package. Every such name must exist, or the benchmark
fails on the first lookup instead of this test."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = _load("spans")
    assert spans.WRAPPED
    missing = [
        (module, attr) for module, attr, *_ in spans.WRAPPED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing


def test_traced_run_point_records_decodes(tmp_path):
    """One ``run_point`` with the traced wrappers installed: it returns what
    the untraced run returns, and its ``recovery.decode`` spans read the
    table's ``fallback_decodes`` through the wrapped calls' first argument.
    A weight-1 d=5 table at p = 1e-2 leaves syndromes to the GF(2) fallback."""
    from ftecsim.harness import ExperimentConfig, run_point

    spans = _load("spans")
    config = ExperimentConfig(d=5, decoder="strong", shots=4096, built_to_weight=1)
    plain = run_point(config, 1e-2)
    recorder = spans.Recorder(tmp_path)
    install, uninstall = spans.installer(recorder)
    install()
    try:
        traced = run_point(config, 1e-2)
    finally:
        uninstall()
    assert traced == plain
    decode = spans.layer_totals(recorder.take())["layers"]["recovery.decode"]
    assert decode["calls"] > 0 and decode["extra"] > 0


def test_imported_names_resolve():
    """Every ``from ftecsim... import name`` and ``import ftecsim...`` in
    ``perfbench/*.py``, read with ``ast`` so no script runs."""
    imported = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ftecsim"):
                imported += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                imported += [(path.name, alias.name, None) for alias in node.names
                             if alias.name.startswith("ftecsim")]
    assert imported
    names = {name for _, _, name in imported}
    assert {"decision_table", "compile_schedule", "default_built_to_weight", "build_table",
            "PolicyConfig"} <= names
    for script, module, name in imported:
        loaded = importlib.import_module(module)  # raises for a missing module
        assert name is None or hasattr(loaded, name), (script, module, name)


def test_setup_reads_table_entries():
    """``build_all`` measures the benchmark's set-up and reads the recovery
    table's attributes by name: the d=3 table holds 8 syndromes, counted
    once per sector. The two-stage shape that ``mc_d9_2stage`` times (x
    and z schedules, weak tables for budgets 1 and 2) builds too, at d=5:
    512 syndromes per sector and 22 reachable decision states."""
    workloads = _load("workloads")
    out = workloads.build_all(3, ("strong",), (1,), ("all",))
    assert out["recovery.table_entries"] == 16
    out = workloads.build_all(5, ("weak",), (1, 2), ("all", "x", "z"))
    assert out["recovery.table_entries"] == 1024
    assert out["decoders.table_states"] == 22
