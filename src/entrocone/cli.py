"""Command-line front end.

Thin adapters over the library pipelines: every subcommand parses its
inputs, calls one library function and serializes the result.  Output on
stdout is deterministic; timing goes to stderr under --verbose.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from pathlib import Path

from . import analysis, distributions as dist
from .causal import CausalStructure, structure_from_name
from .errors import InvalidModel, InvalidParameter, NodeGuardExceeded
from .polyhedra import HRep, VRep, enumerate_rays, facets_from_rays, rep_from_json, rep_to_json, rep_to_text


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit 2; errors exit 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache  # built on the first call to main, then reused
def _build_parser() -> _Parser:
    parser = _Parser(prog="entrocone",
                     description="entropy cones of causal structures: "
                                 "constraint systems, exact projection, witnesses")
    parser.add_argument("--format", choices=("json", "text"), default="text",
                        help="output serialization (default: text)")
    parser.add_argument("--engine", choices=("fm", "dd"), default="dd",
                        help="projection strategy (default: dd)")
    parser.add_argument("--max-nodes", type=int, default=analysis.NODE_GUARD,
                        help="marginalize refuses structures with more nodes, "
                             "observed and hidden (default: %(default)s)")
    parser.add_argument("--verbose", action="store_true",
                        help="print timing to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    outer = sub.add_parser("outer", help="observed-level outer cone of a structure")
    outer.add_argument("structure", help="pn:<n> | bell | ptilde:<k> | structure file")

    verify = sub.add_parser("verify", help="tightness certificate for a line structure")
    verify.add_argument("structure", help="pn:<n>")

    marg = sub.add_parser("marginalize",
                          help="project the all-node system onto the observed coordinates")
    marg.add_argument("structure", help="structure file or built-in name with hidden nodes")

    bccone = sub.add_parser("bc-cone", help="marginal cone of the post-selected line")
    bccone.add_argument("k", type=int, help="3 or 4")

    bceval = sub.add_parser("bc-eval",
                            help="chained conditional-entropy functional on four tables")
    bceval.add_argument("tables", help="JSON file with the setting-conditioned tables")

    entropy = sub.add_parser("entropy", help="entropy vector of a compiled model")
    entropy.add_argument("model", help="model JSON file")

    rays = sub.add_parser("rays", help="extremal rays of an H-representation file")
    rays.add_argument("cone", help="cone JSON file (hrep)")

    facets = sub.add_parser("facets", help="facets of a V-representation file")
    facets.add_argument("cone", help="cone JSON file (vrep)")

    return parser


def _read_text(path: str | Path) -> str:
    """Contents of an input file, which JSON requires to be UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidParameter(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None


def _load_structure(selector: str) -> CausalStructure:
    """A built-in structure, or a structure file named by its path as typed."""
    try:
        return structure_from_name(selector)
    except InvalidParameter as exc:
        reason = exc
    path = Path(selector)
    if not selector or not path.exists():  # Path('') is the current directory
        raise InvalidParameter(
            f"{selector!r} is neither a built-in structure name nor an existing file "
            f"({reason})")
    return dataclasses.replace(CausalStructure.from_json(_read_text(path)), name=selector)


def _emit_report(report: analysis.ConeReport, args: argparse.Namespace) -> None:
    print(analysis.report_to_json(report) if args.format == "json"
          else analysis.report_to_text(report))


def _emit_rep(rep: HRep | VRep, args: argparse.Namespace) -> None:
    print(rep_to_json(rep) if args.format == "json" else rep_to_text(rep))


def _line_size(selector: str) -> int:
    if selector.startswith("pn:"):
        return len(structure_from_name(selector).observed_ids())
    raise InvalidParameter(f"verify expects a line structure selector pn:<n>, not {selector!r}")


def _run(args: argparse.Namespace) -> int:
    if args.max_nodes < 1:
        raise InvalidParameter(f"--max-nodes must be at least 1, not {args.max_nodes}")
    if args.command == "outer":
        report = analysis.observed_outer_cone(_load_structure(args.structure))
        _emit_report(report, args)
        return 0
    if args.command == "verify":
        report = analysis.verify_line_tightness(_line_size(args.structure))
        _emit_report(report, args)
        return 0 if report.verdict == "tight" else 2
    if args.command == "marginalize":
        report = analysis.full_marginal_outer_cone(_load_structure(args.structure),
                                                   engine=args.engine,
                                                   max_nodes=args.max_nodes)
        _emit_report(report, args)
        return 0
    if args.command == "bc-cone":
        report = analysis.post_selected_marginal_cone(args.k, engine=args.engine)
        _emit_report(report, args)
        return 0
    if args.command == "bc-eval":
        tables = dist.tables_from_json(_read_text(args.tables))
        value = dist.bc_functional(tables)
        if args.format == "json":
            print(json.dumps({"value_bits": value}))
        else:
            print(f"{value:.12g}")
        return 0
    if args.command == "entropy":
        model = dist.model_from_json(_read_text(args.model))
        joint = dist.compile_model(model)
        vector = dist.entropy_vector(joint)
        if args.format == "json":
            print(json.dumps({label: value
                              for label, value in zip(vector.index.labels,
                                                      (float(v) for v in vector.values))},
                             indent=2))
        else:
            for label, value in zip(vector.index.labels, vector.values):
                print(f"{label} = {value:.12g}")
        return 0
    if args.command == "rays":
        rep = rep_from_json(_read_text(args.cone))
        if not isinstance(rep, HRep):
            raise InvalidParameter("the rays subcommand expects an hrep cone file")
        _emit_rep(enumerate_rays(rep), args)
        return 0
    if args.command == "facets":
        rep = rep_from_json(_read_text(args.cone))
        if not isinstance(rep, VRep):
            raise InvalidParameter("the facets subcommand expects a vrep cone file")
        _emit_rep(facets_from_rays(rep), args)
        return 0
    raise InvalidParameter(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors exit 1, --help exits 0
        return int(exc.code or 0)
    try:
        start = time.perf_counter()
        code = _run(args)
        sys.stdout.flush()  # a closed stdout then fails here, not in the exit flush
        if args.verbose:
            print(f"[timing] {time.perf_counter() - start:.3f}s", file=sys.stderr)
        return code
    except BrokenPipeError:
        # the reader has gone; silence the interpreter's final flush of stdout
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (NodeGuardExceeded, InvalidParameter, InvalidModel) as exc:
        print(f"entrocone: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        if exc.filename is None:  # not a file we were asked to read
            raise
        print(f"entrocone: cannot read {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
