"""The benchmark reaches into ftecsim by name: its traced run wraps module
attributes (``perfbench/spans.py``, ``WRAPPED``), and its scripts import
names from the package. Every such name must exist, or the benchmark
fails on the first lookup instead of this test."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    missing = [
        (module, attr) for module, attr, *_ in spans.WRAPPED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing


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
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = workloads.build_all(3, ("strong",), (1,), ("all",))
    assert out["recovery.table_entries"] == 16
    out = workloads.build_all(5, ("weak",), (1, 2), ("all", "x", "z"))
    assert out["recovery.table_entries"] == 1024
    assert out["decoders.table_states"] == 22
