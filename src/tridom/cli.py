"""Command-line interface.

Subcommands: generate, solve, census, family, verify, extremal.  Census and
verify exit nonzero when a reference-count mismatch or property violation is
found, so shell pipelines can gate on them.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
from contextlib import AbstractContextManager, nullcontext, redirect_stdout
from types import CodeType
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, Union

from . import census as census_mod
from .domination import exact_gamma, exact_gamma_c
from .families import FamilySpec, expected_family_value
from .generate import MAX_ORDER, MIN_ORDER, levels
from .graphs import Graph, bits, graph6_read, graph6_write
from .planar import (
    PLANAR_CODE_HEADER,
    Triangulation,
    canonical_code,
    planar_code_iter,
    planar_code_record,
    underlying_graph,
    verify_triangulation,
)


class UsageError(Exception):
    """Bad command-line input; reported by argparse with exit status 2."""


def _read_bytes(path: Optional[str]) -> bytes:
    if path is None or path == "-":
        return sys.stdin.buffer.read()
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc


class _Output(AbstractContextManager):
    """An output opened once, when made: stdout for None or "-", else the file
    at path (UTF-8 text, no newline translation; bytes pass under the text
    layer).  A failure to open, write or close it is a UsageError naming it."""

    def __init__(self, path: Optional[str], mode: str = "w"):
        self.path = "-" if path is None else path
        self.stream = sys.stdout if self.path == "-" else self._do(
            open, path, mode, encoding="utf-8", newline="")

    def empty(self) -> None:  # the truncation that mode "a" skips; not for a device or pipe
        if self.path != "-" and os.path.isfile(self.path):
            self._do(self.stream.truncate, 0)

    def _do(self, fn: Callable, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OSError as exc:
            raise UsageError(f"cannot write {self.path}: {exc.strerror}") from exc

    def write(self, data: Union[bytes, str]) -> None:
        try:  # not through _do: the census JSON calls this once per record
            (self.stream.buffer if isinstance(data, bytes) else self.stream).write(data)
        except OSError as exc:
            raise UsageError(f"cannot write {self.path}: {exc.strerror}") from exc

    def __exit__(self, *exc_info) -> None:
        if self.path != "-":
            self._do(self.stream.close)


def _serialised(pairs: Iterable[Tuple[bytes, Triangulation]], fmt: str) -> Iterator:
    """fmt's output for (canonical code, triangulation) pairs, a piece at a time."""
    if fmt == "planar_code":
        yield PLANAR_CODE_HEADER
        yield from (planar_code_record(t) for _, t in pairs)
    elif fmt == "graph6":
        yield from (graph6_write(underlying_graph(t)) + "\n" for _, t in pairs)
    else:  # json: rotation systems plus codes, one a line as in ``census.results_to_json``
        items = ({"n": t.n, "rotations": t.rot, "code": code.hex()} for code, t in pairs)
        yield "["
        yield from (("," if i else "") + "\n" + json.dumps(item) for i, item in enumerate(items))
        yield "\n]\n"


def _cmd_generate(args) -> int:
    if not MIN_ORDER <= args.n <= MAX_ORDER:
        raise UsageError(f"--n must be in {MIN_ORDER}..{MAX_ORDER}, got {args.n}")
    for _, level in levels(args.n):
        pass  # the last level yielded is order n
    with _Output(args.out) as out:
        for chunk in _serialised(level, args.format):
            out.write(chunk)
    if args.out not in (None, "-"):
        print(f"wrote {len(level)} triangulations of order {args.n} to {args.out}")
    return 0


def _read_input(path: Optional[str], fmt: str
                ) -> Iterator[Union[Triangulation, Graph, ValueError]]:
    """Input items in order; one that cannot be parsed comes as its error.

    A bad graph6 line costs only that line.  A bad planar_code record ends
    the stream, since the records after it cannot be located.
    """
    data = _read_bytes(path)
    if fmt == "planar_code":
        try:
            yield from planar_code_iter(data)
        except ValueError as exc:
            yield exc
        return
    for line in data.decode("ascii", errors="replace").splitlines():
        if line.strip():
            try:
                yield graph6_read(line)
            except ValueError as exc:
                yield exc


def _cmd_solve(args) -> int:
    """Print one JSON line per input item, in order; exit 1 if any failed.

    A planar_code record must be a triangulation; then it is solved as its
    underlying graph, so both formats take one route, ``exact_gamma_c``, and
    the planar_code and graph6 copies of a graph print the same line.  Two
    errors are per record: a ValueError (the item is malformed or not a
    triangulation) and an AssertionError (a solver's witness failed its
    re-check, see ``domination._checked``).  Either prints the item's index
    with the error and goes on to the next item: every answer is checked on
    its own, so one failed check says nothing against the others.  Any
    other exception is a fault of the program and propagates.
    """
    failures = 0
    for idx, item in enumerate(_read_input(args.input, args.format)):
        try:
            if isinstance(item, ValueError):
                raise item
            g = item
            if isinstance(item, Triangulation):
                report = verify_triangulation(item)
                if not report.ok:
                    raise ValueError(f"not a triangulation: {report.problem}")
                g = underlying_graph(item)
            cert = exact_gamma_c(g)
            rec = {"index": idx, "n": g.n, "gamma_c": cert.value,
                   "witness": sorted(bits(cert.witness)), "method": cert.method}
            if args.gamma:
                gcert = exact_gamma(g)
                rec["gamma"] = gcert.value
                rec["gamma_witness"] = sorted(bits(gcert.witness))
        except ValueError as exc:
            rec = {"index": idx, "error": str(exc)}
            failures += 1
        except AssertionError as exc:
            rec = {"index": idx, "error": f"internal check failed: {exc}"}
            failures += 1
        print(json.dumps(rec))
    return 1 if failures else 0


def _check_range(args, generating: bool = True) -> None:
    if args.n_min > args.n_max:
        raise UsageError(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    if generating and not MIN_ORDER <= args.n_max <= MAX_ORDER:
        raise UsageError(f"--n-max must be in {MIN_ORDER}..{MAX_ORDER} to generate,"
                         f" got {args.n_max}")
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")


def _cmd_census(args) -> int:
    ingested = None
    _check_range(args, generating=not args.input)
    if args.csv and args.json and os.path.realpath(args.csv) == os.path.realpath(args.json):
        raise UsageError(f"--csv and --json both name {args.csv}")
    if args.input:
        try:
            ingested = census_mod.levels_from_planar_code(_read_bytes(args.input))
        except ValueError as exc:
            raise UsageError(f"{args.input}: {exc}") from exc
        outside = [n for n, _ in ingested if not args.n_min <= n <= args.n_max]
        if outside:
            raise UsageError(f"{args.input} holds orders {outside} outside --n-min..--n-max"
                             f" ({args.n_min}..{args.n_max})")
    with (_Output(args.csv, "a") if args.csv else nullcontext() as csv_out,  # before the census
          _Output(args.json, "a") if args.json else nullcontext() as json_out,  # "-" keeps stdout
          redirect_stdout(sys.stderr) if "-" in (args.csv, args.json) else nullcontext()):
        for out in filter(None, (csv_out, json_out)):
            out.empty()  # only once both are open, so a path that fails empties neither
        stream = census_mod.classified(args.n_min, args.n_max, args.workers, ingested)
        rows = (census_mod.results_to_json(stream, json_out) if json_out
                else census_mod.census_rows(stream))
        columns = census_mod.gamma_c_columns(rows)
        print(f"{'n':>4} {'total':>9} " + " ".join(f"gc={v:<5}" for v in columns) + "  seconds")
        for row in rows:
            cells = " ".join(f"{row.count(v):>8}" for v in columns)
            print(f"{row.n:>4} {row.total:>9} {cells}  {row.wall_time:.2f}")
        if csv_out:
            census_mod.rows_to_csv(rows, csv_out)
        if not args.compare:
            return 0
        diff = census_mod.compare_reference(rows)
        for line in diff.mismatches:
            print(f"MISMATCH {line}")
        for line in diff.no_oracle:
            print(f"UNCHECKED {line}")
        print("reference check: " + ("ok" if diff.ok else f"{len(diff.mismatches)} mismatches"))
        return 0 if diff.ok else 1


def _cmd_family(args) -> int:
    try:
        spec = FamilySpec(args.which, args.k)
    except ValueError as exc:
        raise UsageError(f"--k {args.k}: {exc}") from exc
    t = spec.build()
    if args.out is not None or not args.values:  # --values keeps stdout for its JSON line
        try:
            # only json prints the canonical code, and codes stop below order 256
            code = canonical_code(t) if args.format == "json" else b""
            chunks = list(_serialised([(code, t)], args.format))  # so a failure leaves no file
        except ValueError as exc:
            raise UsageError(f"--format {args.format}: {exc}") from exc
        with _Output(args.out) as out:
            for chunk in chunks:
                out.write(chunk)
    if args.values:
        g = underlying_graph(t)
        info = {"kind": spec.kind, "k": spec.k, "n": t.n,
                "gamma_c": exact_gamma_c(g).value, "gamma": exact_gamma(g).value}
        print(json.dumps(info))
        if spec.kind != "chain":
            want = expected_family_value(spec.kind, spec.k)
            if info["gamma_c"] != want:
                print(f"family {spec.kind} at k={spec.k} has connected domination number"
                      f" {info['gamma_c']}, expected {want}", file=sys.stderr)
                return 1
    return 0


def _cmd_verify(args) -> int:
    _check_range(args)
    stream = census_mod.classified(args.n_min, args.n_max, args.workers)
    report = census_mod.verify_corpus((rec for _, level in stream for rec in level),
                                      cross_solver_max_n=args.cross_max_n)
    for line in report.violations:
        print(f"VIOLATION {line}")
    print(f"checked {report.graphs_checked} graphs, {report.checks_run} checks, "
          f"{len(report.violations)} violations")
    return 0 if report.ok else 1


_WHERE_NAMES = ("n", "gamma", "gamma_c", "Delta")
_WHERE_NODES = (ast.Expression, ast.Name, ast.Load, ast.Constant, ast.UnaryOp, ast.USub,
                ast.Not, ast.BoolOp, ast.And, ast.Or, ast.Compare, ast.Eq, ast.NotEq, ast.Lt,
                ast.LtE, ast.Gt, ast.GtE, ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.FloorDiv,
                ast.Mod)


def _where_code(text: str) -> CodeType:
    """Compile a --where expression once every node of it passes the whitelist."""
    try:
        tree = ast.parse(text, "<where>", mode="eval")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id not in _WHERE_NAMES:
                raise UsageError(f"unknown name {node.id!r} in --where"
                                 f" (use {', '.join(_WHERE_NAMES)})")
            if not isinstance(node, _WHERE_NODES) or (
                    isinstance(node, ast.Constant) and not isinstance(node.value, int)):
                raise UsageError("--where allows only the four names, int constants,"
                                 " comparisons, and/or/not, unary minus and + - * // %;"
                                 f" got {type(node).__name__}")
        return compile(tree, "<where>", "eval")
    except SyntaxError as exc:
        raise UsageError(f"--where is not an expression: {exc.msg}") from exc
    except (RecursionError, MemoryError) as exc:
        raise UsageError("--where is nested too deeply") from exc


def _cmd_extremal(args) -> int:
    code = _where_code(args.where)  # no nested scopes, so co_names holds every name
    _check_range(args)
    stream = census_mod.classified(args.n_min, args.n_max, args.workers)

    def predicate(rec) -> bool:
        env = {"n": rec.n, "gamma_c": rec.gamma_c, "Delta": rec.Delta}
        if "gamma" in code.co_names:
            env["gamma"] = rec.gamma
        try:
            return bool(eval(code, {"__builtins__": {}}, env))
        except ArithmeticError as exc:
            raise UsageError(f"--where fails at n={rec.n}: {exc}") from exc

    hits = [rec for _, level in stream for rec in level if predicate(rec)]  # by (n, code)
    for rec in hits:
        print(json.dumps(rec.to_dict()))
    print(f"{len(hits)} graphs match", file=sys.stderr)
    return 0


def _add_census_range(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-min", type=int, default=5)
    p.add_argument("--n-max", type=int, default=11, help="highest order (13: the paper's census)")
    p.add_argument("--workers", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tridom",
        description="Plane-triangulation generation and exact connected domination.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="enumerate all triangulations of one order")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--format", choices=["planar_code", "graph6", "json"], default="planar_code")
    g.add_argument("--out", default=None, help="output file (default stdout)")
    g.set_defaults(func=_cmd_generate)

    s = sub.add_parser("solve", help="solve connected domination for input graphs")
    s.add_argument("--format", choices=["planar_code", "graph6"], default="planar_code")
    s.add_argument("--input", default=None, help="input file (default stdin)")
    s.add_argument("--gamma", action="store_true", help="also compute plain domination")
    s.set_defaults(func=_cmd_solve)

    c = sub.add_parser("census", help="count triangulations by connected domination number")
    _add_census_range(c)
    c.add_argument("--compare", action="store_true", help="diff against the reference table")
    c.add_argument("--csv", default=None, help="write rows as CSV")
    c.add_argument("--json", default=None, help="write rows and records as JSON")
    c.add_argument("--input", default=None,
                   help="planar_code file to classify instead of native generation")
    c.set_defaults(func=_cmd_census)

    f = sub.add_parser("family", help="build an extremal family member")
    f.add_argument("--which", choices=["A", "B", "chain"], required=True)
    f.add_argument("--k", type=int, required=True)
    f.add_argument("--format", choices=["planar_code", "graph6", "json"], default="planar_code")
    f.add_argument("--out", default=None,
                   help="output file (default stdout; with --values, only when given)")
    f.add_argument("--values", action="store_true",
                   help="print exact domination values; exit 1 if A or B breaks its law")
    f.set_defaults(func=_cmd_family)

    v = sub.add_parser("verify", help="re-verify structural properties over the census")
    _add_census_range(v)
    v.add_argument("--cross-max-n", type=int, default=10,
                   help="cross-check stored values with the contraction solver up to this order")
    v.set_defaults(func=_cmd_verify)

    e = sub.add_parser("extremal", help="filter census graphs by a predicate")
    _add_census_range(e)
    e.add_argument("--where", required=True,
                   help="expression over n, gamma, gamma_c, Delta, e.g. 'gamma_c > gamma + 1'")
    e.set_defaults(func=_cmd_extremal)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
