"""Command-line entry point.

Thin shell over the library. Every way of stating a problem takes one
path: ``_problem`` gives the flags of ``solve``, ``sweep`` and ``reduce``
and a ``solve --problem`` JSON file as the same fields, and
``_minus_text`` alone maps the mode to Ω₋. A group problem becomes a
``ProblemSpec`` in ``_group_spec``; a torus problem goes with all its
fields to the library's ``solve_discretized`` or ``sweep``. Artifacts
are deterministic JSON/CSV.

Exit codes: 0 for a solved problem with a verified dual certificate (or
a completed check), 2 when the admissible class is empty, 1 for
malformed input, 3 when the solver fails or runs out of memory, 4 when a
solve, a sweep row or one of the solves of a reduction ends optimal but
its certificate fails verification.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

from .classes import SymmetricSet, containment_chain_check
from .discretize import TorusSpec
from .groups import FiniteAbelianGroup, parse_group
from .harmonic import GroupFunction, fejer_kernel, fmt_sig
from .realsets import (
    boundary,
    is_boundary_coherent,
    is_strictly_star_shaped,
    is_symmetric,
    parse_real_set,
)
from .reduction import reduce_and_compare
from .solver import (
    EXACT,
    FLOAT,
    FULL,
    MODES,
    SAME,
    ProblemSpec,
    SimplexError,
    Solution,
    solve,
    solve_discretized,
    sweep,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_CLASS_EMPTY = 2
EXIT_SOLVER_ERROR = 3
EXIT_UNCERTIFIED = 4

# Defaults of the problem flags, which a problem file shares.
_DEFAULTS = {"mode": "turan", "arithmetic": FLOAT, "tol": 1e-9}
_PROBLEM_FLAGS = ("group", "torus", "grid", "omega_plus", "omega_minus", *_DEFAULTS)


class InputError(ValueError):
    pass


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _set_member(token: str, text: str) -> int | tuple[int, ...]:
    """One member of the set literal ``text``: an integer or a tuple."""
    is_tuple = token.startswith("(")
    if is_tuple and not token.endswith(")"):
        raise InputError(f"unbalanced tuple in {text!r}")
    parts = token[1:-1].split(",") if is_tuple else [token]
    if not all(_INTEGER.fullmatch(p) for p in parts):
        raise InputError(
            f"member {token!r} of {text!r} is not an integer or a tuple of integers"
        )
    return tuple(map(int, parts)) if is_tuple else int(token)


_GRID_COUNT = re.compile(r"[0-9]+")


def _grid_count(flag: str, token: str, text: str | None = None) -> int:
    """One grid count of ``flag``: ASCII digits only, so '1_28', '+8' and
    ' 8' are input errors, not 128 and 8.  ``text`` is the whole list."""
    if not _GRID_COUNT.fullmatch(token):
        given = f"{token!r}" if text is None else f"{text!r}: {token!r}"
        raise InputError(f"{flag} {given} is not a decimal grid count")
    return int(token)


def parse_discrete_set(group: FiniteAbelianGroup, text: str) -> SymmetricSet:
    """Parse "{-1,0,1}" or "{(0,0),(1,0),(3,0)}" into a symmetric set."""
    body = text.strip().replace(" ", "")
    if body == FULL:
        return SymmetricSet.full(group)
    if not (body.startswith("{") and body.endswith("}")):
        raise InputError(f"discrete set literal must be brace-delimited: {text!r}")
    body = body[1:-1]
    if not body:
        return SymmetricSet.empty(group)
    members: list = []
    depth = 0
    token = ""
    for ch in body + ",":
        if ch == "," and depth == 0:
            if not token:
                raise InputError(f"empty member in set literal {text!r}")
            members.append(_set_member(token, text))
            token = ""
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                break
        token += ch
    if depth != 0:
        raise InputError(f"unbalanced parentheses in {text!r}")
    try:
        return SymmetricSet.from_signed(group, members)
    except ValueError as exc:
        raise InputError(f"{exc} in {text!r}") from None


def _write_json(path: Path, payload: dict) -> None:
    def clean(value):
        if isinstance(value, float):
            return float(fmt_sig(value))
        if isinstance(value, Fraction):
            return str(value)
        if isinstance(value, dict):
            return {k: clean(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [clean(v) for v in value]
        return value

    path.write_text(json.dumps(clean(payload), indent=2, sort_keys=True) + "\n")


def emit_figure_data(function: GroupFunction | None, path: str | Path) -> None:
    """CSV of (coordinate, value) for external plotting, ordered by
    signed coordinate; 1-D coordinates are scaled by the grid step."""
    if function is None:
        raise InputError("no function available to emit")
    group = function.group
    h = float(group.weight)
    rows = []
    for i, value in enumerate(function.values.tolist()):
        signed = group.signed_coords(i)
        coord = signed[0] * h if len(signed) == 1 else None
        rows.append((signed, coord, value))
    rows.sort(key=lambda r: r[0])
    with open(path, "w", newline="") as fh:
        fh.write("coordinate,value\n")
        for signed, coord, value in rows:
            label = fmt_sig(coord) if coord is not None else ";".join(map(str, signed))
            fh.write(f"{label},{fmt_sig(value)}\n")


def _emit_solution(sol: Solution, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "status": sol.status,
        "value": sol.value,
        "gap": sol.gap,
        "iterations": sol.stats.iterations,
    }
    if sol.value_exact is not None:
        payload["value_exact"] = sol.value_exact
    verdict = sol.certificate_verdict
    if verdict is not None and not verdict.ok:
        payload["certificate_violations"] = verdict.violations
    _write_json(out_dir / "result.json", payload)
    if sol.extremal_function is not None:
        sol.extremal_function.to_csv(out_dir / "function.csv")
        sol.extremal_function.spectrum().to_csv(out_dir / "spectrum.csv")
        emit_figure_data(sol.extremal_function, out_dir / "figure.csv")


def _uncertified_exit(violations) -> int:
    for violation in violations[:3]:
        print(f"uncertified: {violation}", file=sys.stderr)
    return EXIT_UNCERTIFIED if violations else EXIT_OK


# -- problem resolution --------------------------------------------------------


def _problem(args) -> argparse.Namespace:
    """The problem's fields under the flag names, from the flags or from
    the ``--problem`` JSON file with the flag defaults, checked alike.
    A file states the whole problem, so no problem flag may differ from
    its default next to it."""
    p = args
    if getattr(args, "problem", None):
        given = [k for k in _PROBLEM_FLAGS if getattr(args, k) != _DEFAULTS.get(k)]
        if given:
            flags = ", ".join("--" + k.replace("_", "-") for k in given)
            raise InputError(f"--problem states the whole problem; drop {flags}")
        p = _read_problem_file(Path(args.problem))
    elif getattr(args, "grid", None) is not None:
        p.grid = _grid_count("--grid", args.grid)
    if p.omega_plus is None:
        raise InputError("missing --omega-plus (problem field 'omega_plus')")
    if not 0 <= p.tol < math.inf:
        raise InputError(f"tolerance must be finite and nonnegative, got {p.tol}")
    return p


def _read_problem_file(path: Path) -> argparse.Namespace:
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise InputError(f"{path}: a problem file holds one JSON object")

    def field(source: dict, key: str, kinds, default=None):
        value = source.get(key, default)
        if value is None or (isinstance(value, kinds) and not isinstance(value, bool)):
            return value
        raise InputError(f"{path}: field {key!r} has the wrong type: {value!r}")

    torus = field(raw, "torus", dict) or {}
    if torus and not {"circumference", "grid"} <= torus.keys():
        raise InputError(f"{path}: field 'torus' needs 'circumference' and 'grid'")
    circumference = field(torus, "circumference", (int, float, str))
    return argparse.Namespace(
        group=field(raw, "group", str),
        torus=None if circumference is None else str(circumference),
        grid=field(torus, "grid", int),
        omega_plus=field(raw, "omega_plus", str),
        omega_minus=field(raw, "omega_minus", str),
        mode=raw.get("mode", _DEFAULTS["mode"]),
        arithmetic=raw.get("arithmetic", _DEFAULTS["arithmetic"]),
        tol=field(raw, "tolerance", (int, float), _DEFAULTS["tol"]),
    )


def _minus_text(p) -> str:
    """Ω₋ as a literal. The mode fixes it to Ω₊ (Turán) or to the whole
    group (Delsarte); a general problem takes its own, SAME by default."""
    if p.mode == "turan":
        return SAME
    if p.mode == "delsarte":
        return FULL
    return SAME if p.omega_minus is None else p.omega_minus


def _group_spec(p) -> ProblemSpec:
    if p.group is None:
        raise InputError("missing --group or --torus (problem field 'group' or 'torus')")
    group = parse_group(p.group)
    plus = parse_discrete_set(group, p.omega_plus)
    minus_text = _minus_text(p)
    minus = plus if minus_text == SAME else parse_discrete_set(group, minus_text)
    return ProblemSpec(
        group, plus, minus, mode=p.mode, arithmetic=p.arithmetic, tolerance=p.tol
    )


def _real_sets(p):
    """Ω₊ as a real set, and Ω₋ as a real set or SAME/FULL for the library."""
    minus_text = _minus_text(p)
    minus = minus_text if minus_text in (SAME, FULL) else parse_real_set(minus_text)
    return parse_real_set(p.omega_plus), minus


# -- commands ------------------------------------------------------------------


def _cmd_solve(args) -> int:
    p = _problem(args)
    if p.torus is None:
        sol, warning = solve(_group_spec(p)), None
    else:
        if p.group is not None:
            raise InputError("give a group or a torus, not both")
        if p.grid is None:
            raise InputError("torus problems need --grid")
        s_plus, s_minus = _real_sets(p)
        sol, warning = solve_discretized(
            s_plus, s_minus, TorusSpec(p.torus, p.grid),
            mode=p.mode, arithmetic=p.arithmetic, tolerance=p.tol,
        )
    _emit_solution(sol, Path(args.out))
    if warning:
        print(f"warning: {warning}", file=sys.stderr)
    print(fmt_sig(sol.value))
    if sol.status != "optimal":
        return EXIT_CLASS_EMPTY
    return _uncertified_exit(sol.certificate_verdict.violations)


def _cmd_sweep(args) -> int:
    p = _problem(args)
    s_plus, s_minus = _real_sets(p)
    if args.grid_list:
        grids = [_grid_count("--grid-list", g, args.grid_list)
                 for g in args.grid_list.split(",") if g]
    elif args.grid:
        grids = [args.grid]
    else:
        raise InputError("sweep needs --grid or --grid-list")
    table = sweep(
        s_plus, s_minus, p.torus, grids,
        mode=p.mode, arithmetic=p.arithmetic, tolerance=p.tol,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "sweep.csv").write_text("\n".join(table.csv_lines()) + "\n")
    rows, uncertified = [], []
    for r in table.rows:
        row = {"grid": r.grid, "step": r.step, "value": r.value, "gap": r.gap,
               "status": r.status, "warning": r.warning}
        verdict = r.certificate_verdict
        if verdict is not None and not verdict.ok:
            row["certificate_violations"] = verdict.violations
            uncertified += [f"grid {r.grid}: {v}" for v in verdict.violations]
        rows.append(row)
    _write_json(out_dir / "sweep.json", {"rows": rows})
    for line in table.lines():
        print(line)
    return _uncertified_exit(uncertified)


def _cmd_check_set(args) -> int:
    s = parse_real_set(args.set)
    print(f"set: {s.to_literal()}")
    symmetric = is_symmetric(s)
    print(f"symmetric: {str(symmetric).lower()}")
    verdict = is_boundary_coherent(s)
    if verdict.ok:
        print("boundary_coherent: true")
    else:
        print(f"boundary_coherent: false, witness: {verdict.witness}")
    points = boundary(s)
    print("boundary: {" + ",".join(map(str, points)) + "}")
    if symmetric and s.is_bounded:
        star = is_strictly_star_shaped(s)
        print(f"strictly_star_shaped: {str(star).lower()}")
    return EXIT_OK


def _cmd_classes(args) -> int:
    s_plus = parse_real_set(args.omega_plus)
    s_minus = parse_real_set(args.omega_minus) if args.omega_minus else s_plus
    torus = TorusSpec(args.torus, _grid_count("--grid", args.grid))
    group = FiniteAbelianGroup((torus.grid,), torus.step)
    samples: list[tuple[str, GroupFunction]] = [("delta", GroupFunction.delta(group))]
    for m in (1, 2, 4):
        if 2 * m + 1 <= group.size:
            samples.append((f"triangle_m{m}", fejer_kernel(group, m)))
    sol, _ = solve_discretized(s_plus, SAME, torus, mode="turan")
    if sol.status == "optimal":
        samples.append(("turan_extremal_closure", sol.extremal_function))
    report = containment_chain_check(s_plus, s_minus, torus, samples)
    for line in report.lines():
        print(line)
    print(f"violations: {len(report.violations)}")
    return EXIT_OK


def _cmd_reduce(args) -> int:
    report = reduce_and_compare(_group_spec(_problem(args)))
    for line in report.lines():
        print(line)
    uncertified, listed = [], []
    for where, sol in (("G", report.plus_generated.solution_group),
                       ("H=<plus>", report.plus_generated.solution_subgroup),
                       ("H=<both>", report.both_generated.solution_subgroup)):
        if any(sol is seen for seen in listed):
            continue  # the solution of an earlier solve, shared
        listed.append(sol)
        verdict = sol.certificate_verdict
        if verdict is not None and not verdict.ok:
            uncertified += [f"{where}: {v}" for v in verdict.violations]
    return _uncertified_exit(uncertified)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: each build leaves cyclic garbage (help formatters)."""
    parser = argparse.ArgumentParser(
        prog="delsarte",
        description="Extremal problems for positive definite functions "
        "on finite abelian groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_group=True, plus_required=True):
        if with_group:
            p.add_argument("--group", help='group literal, e.g. "Z8" or "Z4xZ3,weight=1/4"')
        p.add_argument("--omega-plus", required=plus_required, help="sign set literal")
        p.add_argument("--omega-minus", help="sign set literal, FULL or SAME")
        p.add_argument("--mode", default=_DEFAULTS["mode"], choices=MODES)
        p.add_argument("--arithmetic", default=_DEFAULTS["arithmetic"], choices=[FLOAT, EXACT])
        p.add_argument("--tol", type=float, default=_DEFAULTS["tol"])

    p_solve = sub.add_parser("solve", help="solve one extremal problem")
    p_solve.set_defaults(run=_cmd_solve)
    p_solve.add_argument("--problem", help="JSON problem file")
    add_common(p_solve, plus_required=False)
    p_solve.add_argument("--out", default=".", help="output directory")
    p_solve.add_argument("--torus", help="circumference for grid problems")
    p_solve.add_argument("--grid", help="grid count for torus problems")

    p_sweep = sub.add_parser("sweep", help="convergence table over grid counts")
    p_sweep.set_defaults(run=_cmd_sweep)
    add_common(p_sweep, with_group=False)
    p_sweep.add_argument("--out", default=".", help="output directory")
    p_sweep.add_argument("--torus", required=True, help="circumference")
    p_sweep.add_argument("--grid")
    p_sweep.add_argument("--grid-list", help="comma-separated grid counts")

    p_check = sub.add_parser("check-set", help="topology predicates for a real set")
    p_check.set_defaults(run=_cmd_check_set)
    p_check.add_argument("set", help='set literal, e.g. "(-2,-1)u(-1,1)u(1,2)"')

    p_classes = sub.add_parser("classes", help="class membership reports")
    p_classes.set_defaults(run=_cmd_classes)
    p_classes.add_argument("--omega-plus", required=True)
    p_classes.add_argument("--omega-minus")
    p_classes.add_argument("--torus", required=True)
    p_classes.add_argument("--grid", required=True)

    p_reduce = sub.add_parser("reduce", help="reduction to a generated subgroup")
    p_reduce.set_defaults(run=_cmd_reduce)
    add_common(p_reduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else 0
    # argparse reads "--flag=--" as an empty list, past its type and choices.
    for dest, value in vars(args).items():
        if value == []:
            print(f"error: argument --{dest.replace('_', '-')}: expected one argument",
                  file=sys.stderr)
            return EXIT_INPUT_ERROR
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        # Malformed literals and files, unreadable problem files and
        # unwritable output directories are all input errors.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except SimplexError as exc:
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR
    except MemoryError as exc:
        # numpy names the array it could not allocate; a bare MemoryError
        # says nothing.
        print(f"error: solver failed: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_SOLVER_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
