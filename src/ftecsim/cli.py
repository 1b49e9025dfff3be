"""The ftecsim command line.

Subcommands:

- ``simulate``: Monte Carlo logical-error-rate points, CSV or JSON out.
- ``pseudothreshold``: bisection estimate of the p_L(p) = 2p/3 crossing.
- ``verify-bounds``: exhaustive confirmation of the worst-case round
  counts (exit status 2 on any mismatch).
- ``oracle-check``: usable-substring search vs the brute-force oracle.
- ``dump-code``: hexagonal color code as JSON.
- ``fault-enum``: exhaustive single-fault or sampled two-fault injection.

Exit codes: 0 success, 1 usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import __version__
from .colorcode import build_hex_color_code
from .decoders import KINDS
from .diffvec import decompose, find_usable
from .harness import (
    BracketError,
    ExperimentConfig,
    enumerate_single_faults,
    estimate_pseudothreshold,
    run_experiment,
    sample_fault_pairs,
)
from .worstcase import (
    _EXHAUSTIVE_MAX_M,
    _EXHAUSTIVE_MAX_T,
    oracle_unusable_runs,
    usable_run_masks,
    verify_round_bounds,
)

CSV_HEADER = "d,decoder,p,shots,logical_errors,p_l,ci_low,ci_high,avg_rounds,max_rounds_seen"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(x: float) -> str:
    return format(x, ".10g")


def _parse_rates(chunk: str) -> list[float]:
    return [float(piece) for piece in chunk.split(",") if piece.strip()]


def _write_output(text: str, path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _config(args) -> ExperimentConfig:
    """Each field from its flag, else from the --config file (for a
    subcommand that has one), else the default; ``ExperimentConfig``
    checks the result."""
    fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
    from_file = {}
    path = getattr(args, "config", None)
    if path:
        with open(path, encoding="utf-8") as fh:
            from_file = json.load(fh)
        if not isinstance(from_file, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        unknown = sorted(set(from_file) - set(fields))
        if unknown:
            raise ValueError(f"config file {path}: unknown keys {unknown}, "
                             f"expected some of {fields}")
    merged = {"d": 3, "decoder": "strong"}
    for name in fields:
        if getattr(args, name, None) is not None:
            merged[name] = getattr(args, name)
        elif name in from_file:
            merged[name] = from_file[name]
    return ExperimentConfig(**merged)


def _cmd_simulate(args) -> int:
    config = _config(args)
    if not config.p_values:
        print("simulate: no physical error rates given (use --p)", file=sys.stderr)
        return 1
    results = run_experiment(config)
    workers = config.workers or 1
    if args.format == "json":
        payload = {
            "tool": f"ftecsim {__version__}",
            "seed": config.seed,
            "workers": workers,
            "config": dataclasses.asdict(config),
            "results": [s.as_dict() for s in results],
        }
        _write_output(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        lines = [
            f"# ftecsim {__version__} simulate seed={config.seed} d={config.d} "
            f"decoder={config.decoder} shots={config.shots} workers={workers} "
            f"css_two_stage={str(config.css_two_stage).lower()}"
        ]
        lines.append(CSV_HEADER)
        for s in results:
            lines.append(
                ",".join(
                    [
                        str(config.d),
                        config.decoder,
                        _fmt(s.p),
                        str(s.shots),
                        str(s.logical_errors),
                        _fmt(s.p_l_hat),
                        _fmt(s.ci_low),
                        _fmt(s.ci_high),
                        _fmt(s.avg_rounds),
                        str(s.max_rounds_seen),
                    ]
                )
            )
        _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _curve(probes) -> list[dict]:
    """The sampled p_L(p) curve of pseudothreshold probes, one dict per probe."""
    return [{"p": p, "p_l": s.p_l_hat, "ci_low": s.ci_low, "ci_high": s.ci_high}
            for p, s in probes]


def _cmd_pseudothreshold(args) -> int:
    config = _config(args)
    try:
        result = estimate_pseudothreshold(
            config,
            args.p_lo,
            args.p_hi,
            shots_per_probe=args.shots_per_probe,
            iterations=args.iterations,
        )
    except BracketError as exc:
        payload = {"error": str(exc), "curve": _curve(exc.probes)}
        print(json.dumps(payload, indent=2), file=sys.stderr)
        return 2
    payload = {
        "tool": f"ftecsim {__version__}",
        "seed": args.seed,
        "d": args.d,
        "decoder": args.decoder,
        "css_two_stage": config.css_two_stage,
        "workers": config.workers or 1,
        "p_lo": args.p_lo,
        "p_hi": args.p_hi,
        "iterations": args.iterations,
        "pseudothreshold": result.estimate,
        "ci_low": result.ci_low,
        "ci_high": result.ci_high,
        "shots_per_probe": result.shots_per_probe,
        "probes": _curve(result.probes),
    }
    _write_output(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


def _cmd_verify_bounds(args) -> int:
    report = verify_round_bounds(args.t_max)
    rows = [dataclasses.asdict(c) for c in report["checks"]]
    if args.json:
        _write_output(json.dumps({"t_max": report["t_max"], "ok": report["ok"],
                                  "checks": rows}, indent=2, sort_keys=True), args.out)
    else:
        lines = [f"round bound verification, t = 1..{report['t_max']}"]
        for row in rows:
            status = "ok" if row["ok"] else "MISMATCH"
            lines.append(
                f"  {row['kind']:6s} t={row['t']} branch={row['s1_branch']:7s} "
                f"rounds={row['formula_rounds']:3d} table={row['table_rounds']:3d} "
                f"search={row['implied_rounds']:3d} {status}"
            )
        lines.append("all bounds confirmed" if report["ok"] else "BOUND VERIFICATION FAILED")
        _write_output("\n".join(lines) + "\n", args.out)
    return 0 if report["ok"] else 2


def _mask_runs(mask: int, length: int) -> list[tuple[int, int]]:
    """The (start, end) runs of a ``usable_run_masks`` entry, left to right."""
    starts = [p + 1 for p in range(length) if mask >> p & 1]
    return list(zip(starts, [p + 1 for p in range(length) if mask >> p + length & 1]))


def _cmd_oracle_check(args) -> int:
    if args.delta is not None:
        runs = decompose(args.delta)
        usable = {(r.start, r.end) for r in find_usable(args.t, args.delta)}
        unusable = oracle_unusable_runs(args.delta, args.t)
        rows = [
            {
                "start": r.start, "end": r.end, "alpha": r.alpha, "beta": r.beta,
                "gamma": r.gamma,
                "search_usable": (r.start, r.end) in usable,
                "oracle_usable": (r.start, r.end) not in unusable,
            }
            for r in runs
        ]
        ok = all(row["search_usable"] == row["oracle_usable"] for row in rows)
        _write_output(json.dumps({"delta": args.delta, "t": args.t, "runs": rows,
                                  "ok": ok}, indent=2), args.out)
        return 0 if ok else 2
    if min(args.max_len, args.t_max) < 1:
        raise ValueError(f"--max-len and --t-max must be >= 1, got {args.max_len} "
                         f"and {args.t_max}")
    if args.max_len > _EXHAUSTIVE_MAX_M - 1 or args.t_max > _EXHAUSTIVE_MAX_T:
        raise ValueError(f"--max-len and --t-max must be <= {_EXHAUSTIVE_MAX_M - 1} and "
                         f"<= {_EXHAUSTIVE_MAX_T}, got {args.max_len} and {args.t_max}")
    checked = 0
    mismatches = []
    for length in range(1, args.max_len + 1):
        # each vector's usable runs as starts | ends << length, one table per t
        masks = [usable_run_masks(length, t) for t in range(1, args.t_max + 1)]
        for bits in range((1 << length) - 1):  # the all-ones vector has no run
            delta = format(bits, f"0{length}b")
            packed = int(delta[::-1], 2)
            for t in range(1, args.t_max + 1):
                checked += 1
                expected = masks[t - 1][packed]
                usable = find_usable(t, delta)
                # the fold names a set of runs only for ordered, disjoint, in-range runs
                found, last = 0, 0
                for _, start, end, _, _, _ in usable:  # ZeroSubstring fields
                    if not last < start <= end <= length:
                        found = -1
                        break
                    found |= 1 << start - 1 | 1 << end - 1 + length
                    last = end
                if found == expected:
                    continue
                search = sorted({(r.start, r.end) for r in usable})
                oracle = _mask_runs(expected, length)
                if search != oracle:
                    mismatches.append({"delta": delta, "t": t,
                                       "search": search, "oracle": oracle})
    payload = {"max_len": args.max_len, "t_max": args.t_max,
               "checked": checked, "mismatches": mismatches}
    _write_output(json.dumps(payload, indent=2), args.out)
    return 0 if not mismatches else 2


def _cmd_dump_code(args) -> int:
    code = build_hex_color_code(args.d)
    payload = {
        "n": code.n,
        "k": code.k,
        "d": code.distance,
        "generators": [g.to_string() for g in code.generators],
        "x_sector": list(code.x_sector),
        "z_sector": list(code.z_sector),
        "logical_x": [op.to_string() for op in code.logical_x],
        "logical_z": [op.to_string() for op in code.logical_z],
    }
    _write_output(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


def _cmd_fault_enum(args) -> int:
    decoders_to_run = KINDS if args.decoder == "all" else (args.decoder,)
    reports = []
    ok = True
    for dec in decoders_to_run:
        if args.order == 1:
            rep = enumerate_single_faults(args.d, dec)
        else:
            rep = sample_fault_pairs(args.d, dec, samples=args.samples, seed=args.seed)
        ok = ok and rep.ok
        reports.append({k: v for k, v in dataclasses.asdict(rep).items()
                        if k != "landed" or v is not None})
    _write_output(json.dumps({"ok": ok, "reports": reports}, indent=2), args.out)
    return 0 if ok else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="ftecsim", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"ftecsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte Carlo logical error rates")
    sim.add_argument("--d", type=int, default=None, help="code distance (3, 5, 7, 9)")
    sim.add_argument("--decoder", choices=KINDS, default=None)
    sim.add_argument("--p", dest="p_values", action="extend", type=_parse_rates,
                     metavar="P", help="physical error rate(s), repeatable or comma separated")
    sim.add_argument("--shots", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--max-errors", type=int, default=None,
                     help="stop a point after this many logical errors")
    sim.add_argument("--workers", type=int, default=None,
                     help="processes that run chunks, this one included (default 1)")
    sim.add_argument("--css-two-stage", action="store_true", default=None)
    sim.add_argument("--built-to-weight", type=int, default=None)
    sim.add_argument("--config", default=None, help="JSON file with ExperimentConfig fields")
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.add_argument("--out", default=None, help="output path (default stdout)")
    sim.set_defaults(func=_cmd_simulate)

    pt = sub.add_parser("pseudothreshold", help="estimate the p_L = 2p/3 crossing")
    pt.add_argument("--d", type=int, required=True)
    pt.add_argument("--decoder", choices=KINDS, required=True)
    pt.add_argument("--p-lo", type=float, default=5e-5)
    pt.add_argument("--p-hi", type=float, default=3e-3)
    pt.add_argument("--shots-per-probe", type=int, default=200_000)
    pt.add_argument("--iterations", type=int, default=9)
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--workers", type=int, default=None,
                    help="processes that run chunks, this one included (default 1)")
    pt.add_argument("--css-two-stage", action="store_true")
    pt.add_argument("--out", default=None)
    pt.set_defaults(func=_cmd_pseudothreshold)

    vb = sub.add_parser("verify-bounds", help="exhaustively confirm worst-case round counts")
    vb.add_argument("--t-max", type=int, default=5)
    vb.add_argument("--json", action="store_true")
    vb.add_argument("--out", default=None)
    vb.set_defaults(func=_cmd_verify_bounds)

    oc = sub.add_parser("oracle-check", help="usable-substring search vs brute-force oracle")
    oc.add_argument("--max-len", type=int, default=10)
    oc.add_argument("--t-max", type=int, default=3)
    oc.add_argument("--delta", default=None, help="check one difference vector instead")
    oc.add_argument("--t", type=int, default=1, help="fault budget for --delta mode")
    oc.add_argument("--out", default=None)
    oc.set_defaults(func=_cmd_oracle_check)

    dc = sub.add_parser("dump-code", help="emit a hexagonal color code as JSON")
    dc.add_argument("--d", type=int, required=True)
    dc.add_argument("--out", default=None)
    dc.set_defaults(func=_cmd_dump_code)

    fe = sub.add_parser("fault-enum", help="fault-injection verification")
    fe.add_argument("--d", type=int, default=3, help="code distance (3, 5, 7, 9)")
    fe.add_argument("--decoder", choices=KINDS + ("all",), default="all")
    fe.add_argument("--order", type=int, choices=(1, 2), default=1)
    fe.add_argument("--samples", type=int, default=100_000, help="pairs for --order 2")
    fe.add_argument("--seed", type=int, default=0)
    fe.add_argument("--out", default=None)
    fe.set_defaults(func=_cmd_fault_enum)

    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"ftecsim: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
