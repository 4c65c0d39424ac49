"""Command-line front end.

Four subcommands share one input format (the JSON program document): `solve`
runs the full pipeline, `phase1` only searches for a strict interior point,
`reduce` dumps the min-max instance a stage would hand to the solver, and
`viz` draws a two-dimensional program and its dual as SVG.

Exit codes double as the classification: 0 solved or succeeded, 2 unbounded,
3 no feasible answer (infeasible program, empty interior, or a rejected
interior point), 4 unusable input, which includes an unreadable or non-UTF-8
`--input`, a malformed `--interior-point` and an unwritable `--output`.
Output is byte deterministic for a fixed seed.

Run it as the installed `minmaxlp` script, as `python -m minmaxlp`, or
in-process by `main(argv)` any number of times: the parsers are built once per
process and parse into fresh namespaces; a subcommand's parser takes its own
arguments; the top one answers only help, unknown commands and stray arguments.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .errors import LPError, ReductionError
from .figure import render_svg
from .minmax import PiecewiseMaxProblem
from .model import SolutionStatus, load_lp, save_solution, _dumps
from .reduction import PhaseOneStatus, SolveOptions, check_interior, phase1, prepare, solve

EXIT_OK = 0
EXIT_UNBOUNDED = 2
EXIT_INFEASIBLE = 3
EXIT_INPUT = 4

_STATUS_EXIT = {
    SolutionStatus.OPTIMAL: EXIT_OK,
    SolutionStatus.UNBOUNDED: EXIT_UNBOUNDED,
    SolutionStatus.INFEASIBLE: EXIT_INFEASIBLE,
    SolutionStatus.ORIGIN_NOT_INTERIOR: EXIT_INFEASIBLE,
    SolutionStatus.INPUT_ERROR: EXIT_INPUT,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which this tool reserves for
    # unbounded programs; usage problems are input problems
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(prog="minmaxlp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, blurb in (
        ("solve", "solve the program end to end"),
        ("phase1", "find a strict interior point"),
        ("reduce", "emit the min-max instance for a stage"),
        ("viz", "draw a two-dimensional program as SVG"),
    ):
        p = commands[name] = sub.add_parser(name, help=blurb)
        p.add_argument("--input", required=True, help="program JSON file")
        p.add_argument("--output", help="write here instead of stdout")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tolerance", type=float, default=1e-9)
        if name != "phase1":
            p.add_argument(
                "--interior-point",
                help='known strict interior point as "v1,v2,..."',
            )
        if name == "reduce":
            p.add_argument("--stage", choices=("phase1", "support"), default="support")
    return parser, commands


def _parse_point(text: str | None) -> np.ndarray | None:
    if text is None:
        return None
    try:
        return np.array([float(part) for part in text.split(",")], dtype=float)
    except ValueError as exc:
        raise LPError(f"bad --interior-point: {exc}") from None


def _unusable_point(status: SolutionStatus) -> tuple[int, bytes]:
    print(f"no usable interior point: {status.value}", file=sys.stderr)
    return _STATUS_EXIT[status], b""


def run(args: argparse.Namespace, text: bytes, options: SolveOptions) -> tuple[int, bytes]:
    """Execute one parsed command line against a program document; returns
    the exit code and the bytes destined for the output stream."""
    lp = load_lp(text)

    if args.command == "phase1":
        res = phase1(lp, options)
        code = EXIT_OK if res.status is PhaseOneStatus.STRICT_INTERIOR else EXIT_INFEASIBLE
        return code, _dumps({"status": res.status.value, "p0": [float(v) for v in res.p0],
                             "margin": float(res.margin)})

    point = _parse_point(args.interior_point)
    if args.command == "solve":
        sol = solve(lp, interior_hint=point, options=options)
        return _STATUS_EXIT[sol.status], save_solution(sol)

    if args.command == "reduce":
        if args.stage == "phase1":
            prob = PiecewiseMaxProblem(G=lp.A, h=-lp.b)
        else:
            p0 = check_interior(lp, point, options)
            if isinstance(p0, SolutionStatus):
                return _unusable_point(p0)
            prob = prepare(lp, p0)[0]
        return EXIT_OK, _dumps({"G": prob.G.tolist(), "h": prob.h.tolist(), "stage": args.stage})

    if args.command == "viz":
        if lp.dimension != 2:
            raise LPError("viz needs a two-dimensional program")
        sol = solve(lp, interior_hint=point, options=options)
        if sol.status is SolutionStatus.INPUT_ERROR:
            # a malformed hint; one that is merely not inside still draws
            return _unusable_point(sol.status)
        return EXIT_OK, render_svg(lp, sol)

    raise LPError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args, rest = None, True  # the top parser answers what a subcommand's parser leaves
    if argv and (sub := commands.get(argv[0])):
        args, rest = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    args = parser.parse_args(argv) if rest else args
    if args.command == "reduce" and args.stage == "phase1" and args.interior_point is not None:
        # that stage dumps the raw program, which no point changes
        parser.error("--interior-point does not apply to --stage phase1")
    try:
        options = SolveOptions(seed=args.seed, tolerance=args.tolerance)
    except ReductionError as exc:  # its message starts with the field's name, the flag's too
        print(f"--{exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        with open(args.input, "rb") as f:
            text = f.read()
        code, payload = run(args, text, options)
        if payload and args.output is not None:
            with open(args.output, "wb") as f:
                f.write(payload)
    except (OSError, LPError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT

    if payload and args.output is None:
        sys.stdout.write(payload.decode("utf-8"))
    return code


if __name__ == "__main__":
    sys.exit(main())
