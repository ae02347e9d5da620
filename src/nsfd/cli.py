"""Command line interface.

Subcommands: simulate, equilibria, compare, convergence, ghosts.
Exit codes: 0 on success, 1 on runtime failures (bad model parameters,
a convergence reference that blows up or misses its error budget,
unwritable output), 2 on usage errors (argparse's own convention for
missing or malformed flags).
"""

import argparse
import functools
import json
import sys
from pathlib import Path

from .diagnostics import (ReferenceUnavailable, compare_schemes, detect_ghosts,
                          estimate_order)
from .equilibria import stability_report, find_equilibria
from .integrators import IDENTITY, SCHEME_KINDS, integrate, scheme_from_name, weight_from_name
from .systems import State, _float_tag, from_selector


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsfd",
        description="Positivity-preserving integrators and stability "
                    "diagnostics for planar split systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model(p):
        p.add_argument("--model", required=True,
                       help="model1, model2, or rma:A,B,C,D")

    def add_weight(p):
        p.add_argument("--weight", default="identity",
                       help="step weight: identity or exp:LAMBDA (ensfd only)")

    def add_state(p):
        p.add_argument("--x0", type=float, required=True)
        p.add_argument("--y0", type=float, required=True)
        p.add_argument("--t-end", type=float, required=True)

    p = sub.add_parser("simulate", help="integrate one orbit and write it as CSV")
    add_model(p)
    p.add_argument("--scheme", required=True, choices=SCHEME_KINDS)
    p.add_argument("--h", type=float, required=True)
    add_state(p)
    add_weight(p)
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("equilibria", help="equilibria with stability verdicts as JSON")
    add_model(p)
    p.add_argument("--h", default="",
                   help="comma-separated step sizes for discrete verdicts")
    p.add_argument("--box", default="", help="search box as X,Y (default model box)")
    add_weight(p)
    p.add_argument("--out", default="", help="directory to also write the JSON into")

    p = sub.add_parser("compare", help="run several schemes side by side")
    add_model(p)
    p.add_argument("--scheme", required=True,
                   help="comma-separated list from " + "/".join(SCHEME_KINDS))
    p.add_argument("--h", required=True, help="comma-separated step sizes")
    add_state(p)
    add_weight(p)
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("convergence", help="observed-order study against an rk4 reference")
    add_model(p)
    p.add_argument("--scheme", required=True, choices=SCHEME_KINDS)
    p.add_argument("--h", required=True,
                   help="comma-separated step sizes, descending, at least 4")
    add_state(p)
    add_weight(p)
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("ghosts", help="fixed points of one scheme's update map as JSON")
    add_model(p)
    p.add_argument("--scheme", required=True, choices=SCHEME_KINDS)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--box", default="", help="search box as X,Y (default model box)")
    add_weight(p)
    p.add_argument("--out", default="", help="directory to also write the JSON into")

    return parser


def _parse_floats(parser, text, flag):
    try:
        vals = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        parser.error(f"{flag} expects comma-separated numbers, got {text!r}")
    if not vals:
        parser.error(f"{flag} expects at least one value")
    return vals


def _parse_box(parser, text):
    if not text:
        return None
    vals = _parse_floats(parser, text, "--box")
    if len(vals) != 2:
        parser.error(f"--box expects X,Y, got {text!r}")
    return (vals[0], vals[1])


def _parse_weight(parser, text):
    try:
        return weight_from_name(text)
    except ValueError as exc:
        parser.error(str(exc))


def _build_scheme(parser, name, weight_text):
    weight = _parse_weight(parser, weight_text)
    try:
        return scheme_from_name(name, weight)
    except ValueError as exc:
        parser.error(str(exc))


def _weight_tag(weight) -> str:
    """What a file name carries of a step weight: "-exp2" for exp:2, ""
    for identity or none."""
    return "" if weight is None or weight is IDENTITY else "-" + weight.name.replace(":", "")


def _run_stem(system, scheme, h: "float | None" = None) -> str:
    """File stem naming one run: model, scheme (with its weight unless
    identity) and step size if given, each written so that distinct runs
    never share a name."""
    stem = f"{system.name}_{scheme.kind}{_weight_tag(scheme.weight)}"
    return stem if h is None else f"{stem}_h{_float_tag(h)}"


# main parses with one parser per process; building one costs ~10x a parse
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _shared_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(parser, args)
    except BrokenPipeError:
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(parser, args) -> int:
    system = from_selector(args.model)
    if args.command == "simulate":
        scheme = _build_scheme(parser, args.scheme, args.weight)
        traj = integrate(system, scheme, State(args.x0, args.y0), args.h, args.t_end)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{_run_stem(system, scheme, args.h)}.csv"
        traj.write_csv(path)
        fin = traj.final()
        print(path)
        status = f"halted at step {traj.halt_step} ({traj.halt_reason})" if traj.truncated \
            else f"{len(traj) - 1} steps"
        print(f"final t={_fmt(fin.t)} x={_fmt(fin.x)} y={_fmt(fin.y)} [{status}]")
        return 0

    if args.command == "equilibria":
        hs = tuple(_parse_floats(parser, args.h, "--h")) if args.h else ()
        weight = _parse_weight(parser, args.weight)
        weight = None if weight is IDENTITY else weight
        box = _parse_box(parser, args.box)
        eqs = find_equilibria(system, box)
        payload = {
            "model": system.name,
            "box": list(box) if box else [system.x_max, system.x_max],
            "degenerate_families": list(eqs.degenerate),
            "equilibria": [stability_report(system, p, hs, weight) for p in eqs],
        }
        text = json.dumps(payload, indent=2)
        print(text)
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{system.name}_equilibria{_weight_tag(weight)}.json").write_text(text + "\n")
        return 0

    if args.command == "compare":
        names = [s.strip() for s in args.scheme.split(",") if s.strip()]
        if not names:
            parser.error("--scheme expects at least one scheme name")
        for name in names:
            if name not in SCHEME_KINDS:
                parser.error(f"unknown scheme {name!r}")
        # the weight goes to the listed ensfd entries; it must have one to go to
        weight = _parse_weight(parser, args.weight)
        if weight is not IDENTITY and "ensfd" not in names:
            parser.error(f"--weight only applies to the ensfd scheme, which --scheme "
                         f"{args.scheme!r} does not list")
        schemes = [scheme_from_name(name, weight if name == "ensfd" else None)
                   for name in names]
        hs = _parse_floats(parser, args.h, "--h")
        table = compare_schemes(system, schemes, State(args.x0, args.y0), hs, args.t_end)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{system.name}_compare{_weight_tag(weight)}.csv"
        table.write_csv(path)
        print(path)
        return 0

    if args.command == "convergence":
        scheme = _build_scheme(parser, args.scheme, args.weight)
        hs = _parse_floats(parser, args.h, "--h")
        est = estimate_order(system, scheme, State(args.x0, args.y0), args.t_end, hs)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{_run_stem(system, scheme)}_convergence.csv"
        lines = ["scheme,h,sup_error,slope,residual"]
        for h, err in zip(est.steps, est.errors):
            lines.append(f"{est.scheme},{_fmt(h)},{_fmt(err)},{_fmt(est.slope)},{_fmt(est.residual)}")
        path.write_text("\n".join(lines) + "\n")
        print(path)
        print(f"slope {_fmt(est.slope)}")
        print(f"reference h={_fmt(est.reference_step)} error={_fmt(est.reference_error)}")
        return 0

    if args.command == "ghosts":
        scheme = _build_scheme(parser, args.scheme, args.weight)
        box = _parse_box(parser, args.box)
        report = detect_ghosts(system, scheme, args.h, box)
        payload = {
            "model": system.name,
            "scheme": report.scheme,
            "h": report.h,
            "box": list(report.box),
            "fixed_points": [
                {"x": fp.x, "y": fp.y, "residual": fp.residual, "genuine": fp.genuine}
                for fp in report.fixed_points
            ],
            "ghost_count": len(report.ghosts),
        }
        text = json.dumps(payload, indent=2)
        print(text)
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{_run_stem(system, scheme, args.h)}_ghosts.json").write_text(text + "\n")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
