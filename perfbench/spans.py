"""In-memory spans for the traced run, and the per-layer metrics they give.

The traced run replaces, from outside the package, the module attributes
through which one ftecsim module calls another (``WRAPPED``). Each call
through a replaced name records one span: (pid, id, parent, name, start,
end, extra). Nothing inside ``src/`` changes. Spans stay in memory; the
benchmark reduces each traced pass to per-layer totals and writes the
spans of the last traced pass out when the run ends.

Pool workers forked by ``run_point`` inherit the replaced names. A worker
appends its spans to ``worker-<pid>.tsv`` in the run's output directory
each time its outermost span (a chunk) ends, and the parent merges those
files after the pass.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from pathlib import Path

# (module, attribute, span name, extra) -- the attribute is the name the
# calling module looks up. ``extra`` selects what the span's extra field
# holds: "faults" = faults applied in the round, "fallbacks" = GF(2)
# fallback decodes the call added to the table it was given.
WRAPPED = (
    ("ftecsim.harness", "_run_chunk", "harness.chunk", None),
    ("ftecsim.harness", "_apply_faults", "extraction.apply_faults", "faults"),
    ("ftecsim.extraction", "_apply_faults", "extraction.apply_faults", "faults"),
    ("ftecsim.harness", "inject_round", "extraction.inject_round", None),
    ("ftecsim.harness", "decode_sector_masks", "recovery.decode", "fallbacks"),
    ("ftecsim.recovery", "decode_sector_masks", "recovery.decode", "fallbacks"),
    ("ftecsim.recovery", "final_verdict", "recovery.final_verdict", None),
    ("ftecsim.decoders", "policy_decision", "decoders.policy_decision", None),
    ("ftecsim.worstcase", "policy_decision", "decoders.policy_decision", None),
    ("ftecsim.decoders", "find_usable", "diffvec.find_usable", None),
    ("ftecsim.cli", "find_usable", "diffvec.find_usable", None),
    ("ftecsim.cli", "oracle_unusable_runs", "worstcase.oracle", None),
    ("ftecsim.cli", "verify_round_bounds", "worstcase.bounds", None),
    ("ftecsim.recovery", "syndrome_of", "stabilizer.syndrome_of", None),
    ("ftecsim.stabilizer", "syndrome_of", "stabilizer.syndrome_of", None),
)


class Recorder:
    """Span store for one process; forked workers flush to files."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.owner_pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.next_id = 0

    def span(self, name: str, fn, args=(), kwargs=None, extra=None):
        """Call ``fn`` inside a span; the benchmark's own spans use this too."""
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        before = args[0].fallback_decodes if extra == "fallbacks" else 0
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            t1 = time.perf_counter_ns()
            self.stack.pop()
            if extra == "faults":
                x = len(args[2])
            elif extra == "fallbacks":
                x = args[0].fallback_decodes - before
            else:
                x = 0
            self.spans.append((os.getpid(), sid, parent, name, t0, t1, x))
            if not self.stack and os.getpid() != self.owner_pid:
                self._flush_worker()

    def _flush_worker(self) -> None:
        pid = os.getpid()
        path = self.out_dir / f"worker-{pid}.tsv"
        with open(path, "a", encoding="utf-8") as fh:
            # the list forked from the parent holds the parent's spans too
            fh.writelines("\t".join(map(str, s)) + "\n" for s in self.spans if s[0] == pid)
        self.spans.clear()

    def take(self) -> list[tuple]:
        """Every span recorded since the last call, pool workers' included."""
        spans, self.spans = self.spans, []
        for path in sorted(self.out_dir.glob("worker-*.tsv")):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    pid, sid, parent, name, t0, t1, x = line.rstrip("\n").split("\t")
                    spans.append((int(pid), int(sid), int(parent), name,
                                  int(t0), int(t1), int(x)))
            path.unlink()
        return spans


def installer(recorder: Recorder):
    """(install, uninstall): swap every name in ``WRAPPED`` for a span-recording
    wrapper and back. Passes run with the wrappers installed are traced."""
    originals = []
    wrappers = []
    for module_name, attr, name, extra in WRAPPED:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, __fn=fn, __name=name, __extra=extra, **kwargs):
            return recorder.span(__name, __fn, args, kwargs, __extra)

        originals.append((module, attr, fn))
        wrappers.append((module, attr, wrapper))

    def install():
        for module, attr, fn in wrappers:
            setattr(module, attr, fn)

    def uninstall():
        for module, attr, fn in originals:
            setattr(module, attr, fn)

    return install, uninstall


def layer_totals(spans: list[tuple]) -> dict:
    """Per span name: calls, inclusive and self seconds, extra sum and count
    of spans with nonzero extra, plus every chunk's duration in ms."""
    child_ns: dict[tuple, int] = {}
    for pid, _sid, parent, _name, t0, t1, _x in spans:
        if parent >= 0:
            child_ns[(pid, parent)] = child_ns.get((pid, parent), 0) + (t1 - t0)
    totals: dict[str, dict] = {}
    chunk_ms = []
    for pid, sid, _parent, name, t0, t1, x in spans:
        t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                     "extra": 0, "nonzero": 0})
        dur = t1 - t0
        t["calls"] += 1
        t["s"] += dur / 1e9
        t["self_s"] += (dur - child_ns.get((pid, sid), 0)) / 1e9
        t["extra"] += x
        t["nonzero"] += x > 0
        if name == "harness.chunk":
            chunk_ms.append(dur / 1e6)
    return {"layers": totals, "chunk_ms": chunk_ms}


def _get(totals: dict, name: str, key: str):
    return totals["layers"].get(name, {}).get(key, 0)


def pass_counts(totals: dict, mc_rounds: int, shots: int) -> dict:
    """Exact per-pass counts; they must repeat for a given seed."""
    rounds = mc_rounds + _get(totals, "extraction.inject_round", "calls")
    decodes = _get(totals, "recovery.decode", "calls")
    faulty = _get(totals, "extraction.apply_faults", "nonzero")
    fallbacks = _get(totals, "recovery.decode", "extra")
    return {
        "harness.rounds_per_shot": rounds / shots if shots else 0.0,
        "extraction.rounds": rounds,
        "extraction.faulty_rounds": faulty,
        "extraction.faulty_round_frac": faulty / rounds if rounds else 0.0,
        "extraction.faults_per_faulty_round":
            _get(totals, "extraction.apply_faults", "extra") / faulty if faulty else 0.0,
        "recovery.decode_calls": decodes,
        "recovery.fallback_decodes": fallbacks,
        # each call decodes two sectors
        "recovery.fallback_frac": fallbacks / (2 * decodes) if decodes else 0.0,
        "decoders.policy_decision_calls": _get(totals, "decoders.policy_decision", "calls"),
        "diffvec.find_usable_calls": _get(totals, "diffvec.find_usable", "calls"),
        "worstcase.oracle_cases": _get(totals, "worstcase.oracle", "calls"),
        "stabilizer.syndrome_of_calls": _get(totals, "stabilizer.syndrome_of", "calls"),
    }


def pass_timings(totals: dict) -> dict:
    """Per-pass layer times in seconds (inclusive unless named self)."""
    apply_calls = _get(totals, "extraction.apply_faults", "calls")
    decodes = _get(totals, "recovery.decode", "calls")
    apply_s = _get(totals, "extraction.apply_faults", "s")
    decode_s = _get(totals, "recovery.decode", "s")
    chunks = sorted(totals["chunk_ms"])
    return {
        "harness.self_s": _get(totals, "harness.chunk", "self_s"),
        "harness.chunk_ms_p50": _percentile(chunks, 0.5),
        "harness.chunk_ms_p90": _percentile(chunks, 0.9),
        "extraction.apply_faults_s": apply_s,
        "extraction.apply_faults_us": 1e6 * apply_s / apply_calls if apply_calls else 0.0,
        "recovery.decode_s": decode_s,
        "recovery.decode_us": 1e6 * decode_s / decodes if decodes else 0.0,
        "recovery.final_verdict_s": _get(totals, "recovery.final_verdict", "s"),
        "decoders.policy_decision_s": _get(totals, "decoders.policy_decision", "s"),
        "diffvec.find_usable_s": _get(totals, "diffvec.find_usable", "s"),
        "worstcase.oracle_s": _get(totals, "worstcase.oracle", "s"),
        "worstcase.bounds_s": _get(totals, "worstcase.bounds", "s"),
        "stabilizer.syndrome_of_s": _get(totals, "stabilizer.syndrome_of", "s"),
        "cli.run_cli_s": _get(totals, "cli.run_cli", "s"),
    }


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def median_timings(per_pass: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def write_spans(spans: list[tuple], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pid\tid\tparent\tname\tstart_ns\tend_ns\textra\n")
        fh.writelines("\t".join(map(str, s)) + "\n" for s in spans)
