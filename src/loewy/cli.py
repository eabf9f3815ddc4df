"""Command line front end.

Subcommands:

    show            print the radical or socle series of a module, one
                    semisimple layer per line, top of the module first
    table           print per-layer multiplicity tables of the projectives,
                    or the Cartan matrix
    verify          run the structural checkers and report pass/fail/unknown
    emit-nakayama   write the spec file of a truncated cyclic algebra

Every command is deterministic: the same inputs and seed produce byte
identical output.  Exit codes: 0 all checks passed, 1 some check failed,
2 bad input, 3 no failures but at least one check was inconclusive.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

import numpy as np

from .algebra import Algebra
from .modules import Module, injective, projective, regular_module, simple
from .nakayama import build_nakayama, nakayama_spec
from .series import layer_table
from .specfile import SpecFileError, dump_spec, load_spec, spec_text, spec_to_algebra
from .verify import ALL_CHECKS, _run_checks

__all__ = ["main", "entry", "build_parser"]

_EXIT_PASS = 0
_EXIT_FAIL = 1
_EXIT_INPUT = 2
_EXIT_UNKNOWN = 3

_MODULE_RE = re.compile(r"^(P|I|S)(\d+)$")


def _add_algebra_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--algebra", metavar="FILE", help="algebra spec file (JSON)")
    group.add_argument(
        "--nakayama",
        metavar="K,L",
        help="truncated cyclic algebra with K vertices and Loewy length L+1",
    )
    parser.add_argument("--p", type=int, default=5, help="field characteristic for --nakayama")


def _algebra_from_args(args) -> Algebra:
    if args.algebra is not None:
        return spec_to_algebra(load_spec(args.algebra))
    m = re.match(r"^(\d+),(\d+)$", args.nakayama)
    if not m:
        raise SpecFileError(f"--nakayama expects K,L (two integers), got {args.nakayama!r}")
    return build_nakayama(int(m.group(1)), int(m.group(2)), args.p)


def _module_from_selector(a: Algebra, selector: str) -> Module:
    if selector == "A":
        return regular_module(a)
    m = _MODULE_RE.match(selector)
    if not m:
        raise SpecFileError(
            f"bad module selector {selector!r}: expected P<i>, I<i>, S<i>, or A"
        )
    kind, i = m.group(1), int(m.group(2))
    if not (0 <= i < a.num_vertices):
        raise SpecFileError(f"vertex index {i} out of range for {a.num_vertices} vertices")
    if kind == "P":
        return projective(a, i)
    if kind == "I":
        return injective(a, i)
    return simple(a, i)


def _cmd_show(args) -> int:
    a = _algebra_from_args(args)
    v = _module_from_selector(a, args.module)
    layers = layer_table([v], args.series).table[0].T  # one row of multiplicities per layer
    if args.series == "socle":
        # print the socle series top of the module first, i.e. highest n first
        layers = layers[::-1]
    for counts in layers:
        if counts.any():
            print(" + ".join(f"S_{j}" for j, m in enumerate(counts) for _ in range(m)))
    return _EXIT_PASS


def _format_matrix(m: np.ndarray) -> str:
    return "\n".join(" ".join(str(int(x)) for x in row) for row in m)


def _cmd_table(args) -> int:
    a = _algebra_from_args(args)
    projectives = [projective(a, i) for i in range(a.num_vertices)]
    if args.kind == "cartan":
        print(_format_matrix(layer_table(projectives, "radical").cartan()))
        return _EXIT_PASS
    t = layer_table(projectives, args.kind)
    for n in range(1, t.loewy_length + 1):
        print(f"n={n}")
        print(_format_matrix(t.table[:, :, n - 1]))
    return _EXIT_PASS


def _cmd_verify(args) -> int:
    a = _algebra_from_args(args)
    names = list(ALL_CHECKS) if args.check == "all" else [args.check]
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("LOEWY_SEED", "0"))
    report = _run_checks(a, names, seed)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"algebra: {report.description}")
        print(f"loewy length: {report.loewy_length}")
        for c in report.checks:
            suffix = f" — {c.note}" if c.note else ""
            print(f"check {c.name}: {c.status}{suffix}")
        print(f"overall: {report.status}")
    if report.status == "fail":
        return _EXIT_FAIL
    if report.status == "unknown":
        return _EXIT_UNKNOWN
    return _EXIT_PASS


def _cmd_emit(args) -> int:
    spec = nakayama_spec(args.k, args.l, args.p)
    if args.out is None:
        sys.stdout.write(spec_text(spec))
    else:
        dump_spec(spec, args.out)
    return _EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loewy",
        description="Loewy series, dualities, and layer tables of finite dimensional "
        "quiver algebras over small prime fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser("show", help="print the layer series of one module")
    _add_algebra_source(show)
    show.add_argument(
        "--module",
        required=True,
        help="P<i> (projective), I<i> (injective), S<i> (simple), or A (regular)",
    )
    show.add_argument("--series", choices=["radical", "socle"], default="radical")
    show.set_defaults(fn=_cmd_show)

    table = sub.add_parser("table", help="print layer tables of the projectives")
    _add_algebra_source(table)
    table.add_argument("--kind", choices=["radical", "socle", "cartan"], default="radical")
    table.set_defaults(fn=_cmd_table)

    verify = sub.add_parser("verify", help="run structural checkers")
    _add_algebra_source(verify)
    verify.add_argument("--check", choices=list(ALL_CHECKS) + ["all"], default="all")
    verify.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed of the adjunction check's sampling "
        "(default: LOEWY_SEED environment variable, else 0)",
    )
    verify.add_argument("--format", choices=["text", "json"], default="text")
    verify.set_defaults(fn=_cmd_verify)

    emit = sub.add_parser("emit-nakayama", help="write a truncated cyclic algebra spec")
    emit.add_argument("--k", type=int, required=True, help="number of vertices")
    emit.add_argument("--l", type=int, required=True, help="Loewy length minus one")
    emit.add_argument("--p", type=int, default=5, help="field characteristic")
    emit.add_argument("--out", metavar="FILE", help="output path (default: stdout)")
    emit.set_defaults(fn=_cmd_emit)
    return parser


# main parses with one parser per process; build_parser returns a fresh one.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SpecFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
