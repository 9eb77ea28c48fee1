"""Command-line entry point.

Thin shell over the library: parse literals and problem files, run
solves, sweeps and checks, and emit deterministic JSON/CSV artifacts.
Exit codes: 0 for a solved problem with a verified dual certificate (or
a completed check), 2 when the admissible class is empty, 1 for
malformed input, 3 when the solver fails, 4 when a solve ends optimal
but its certificate fails verification.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .classes import SymmetricSet, containment_chain_check
from .discretize import TorusSpec
from .groups import FiniteAbelianGroup, parse_group
from .harmonic import GroupFunction, fejer_kernel, fmt_sig
from .realsets import (
    RealSet1D,
    boundary,
    is_boundary_coherent,
    is_strictly_star_shaped,
    is_symmetric,
    parse_real_set,
)
from .reduction import reduce_and_compare
from .solver import (
    FULL,
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


class InputError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str
    args: argparse.Namespace
    out_dir: Path


def _fraction_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


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
            if token.startswith("("):
                if not token.endswith(")"):
                    raise InputError(f"unbalanced tuple in {text!r}")
                members.append(tuple(int(p) for p in token[1:-1].split(",")))
            else:
                members.append(int(token))
            token = ""
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        token += ch
    try:
        return SymmetricSet.from_signed(group, members)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _write_json(path: Path, payload: dict) -> None:
    def clean(value):
        if isinstance(value, float):
            return float(fmt_sig(value))
        if isinstance(value, Fraction):
            return _fraction_str(value)
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
    for i in range(group.size):
        signed = group.signed_coords(i) if hasattr(group, "signed_coords") else (i,)
        if len(signed) == 1:
            coord = signed[0] * h
            key: tuple = (signed[0],)
        else:
            coord = None
            key = signed
        rows.append((key, signed, coord, function(i)))
    rows.sort(key=lambda r: r[0])
    with open(path, "w", newline="") as fh:
        fh.write("coordinate,value\n")
        for _, signed, coord, value in rows:
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


def _omega_minus_text(args) -> str:
    if args.omega_minus is None:
        return SAME if args.mode != "delsarte" else FULL
    return args.omega_minus


def _cmd_solve(args) -> int:
    out_dir = Path(args.out)
    if args.problem:
        spec_or_pair = _load_problem_file(Path(args.problem))
    elif args.torus is not None:
        s_plus = parse_real_set(args.omega_plus)
        minus_text = _omega_minus_text(args)
        s_minus = minus_text if minus_text in (FULL, SAME) else parse_real_set(minus_text)
        spec_or_pair = (s_plus, s_minus, Fraction(args.torus), args.grid)
    else:
        if not args.group:
            raise InputError("solve needs --group, --torus or --problem")
        group = _parse_group_arg(args.group)
        omega_plus = parse_discrete_set(group, args.omega_plus)
        minus_text = _omega_minus_text(args)
        if args.mode == "turan" or minus_text == SAME:
            omega_minus = omega_plus
        elif args.mode == "delsarte" or minus_text == FULL:
            omega_minus = SymmetricSet.full(group)
        else:
            omega_minus = parse_discrete_set(group, minus_text)
        spec_or_pair = ProblemSpec(
            group, omega_plus, omega_minus,
            mode=args.mode, arithmetic=args.arithmetic, tolerance=args.tol,
        )

    if isinstance(spec_or_pair, ProblemSpec):
        sol = solve(spec_or_pair)
        warning = None
    else:
        s_plus, s_minus, circumference, grid = spec_or_pair
        if grid is None:
            raise InputError("torus problems need --grid")
        sol, warning = solve_discretized(
            s_plus, s_minus, TorusSpec(circumference, grid),
            mode=args.mode, arithmetic=args.arithmetic, tolerance=args.tol,
        )
    _emit_solution(sol, out_dir)
    if warning:
        print(f"warning: {warning}", file=sys.stderr)
    print(fmt_sig(sol.value))
    if sol.status != "optimal":
        return EXIT_CLASS_EMPTY
    if not sol.certificate_verdict.ok:
        for violation in sol.certificate_verdict.violations[:3]:
            print(f"uncertified: {violation}", file=sys.stderr)
        return EXIT_UNCERTIFIED
    return EXIT_OK


def _parse_group_arg(text: str) -> FiniteAbelianGroup:
    try:
        return parse_group(text)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _load_problem_file(path: Path):
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise InputError(f"problem file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    mode = raw.get("mode", "turan")
    arithmetic = raw.get("arithmetic", "float")
    tolerance = float(raw.get("tolerance", 1e-9))
    omega_plus = raw.get("omega_plus")
    if omega_plus is None:
        raise InputError(f"{path}: field 'omega_plus' is required")
    omega_minus = raw.get("omega_minus")
    if "group" in raw:
        group = _parse_group_arg(raw["group"])
        plus = parse_discrete_set(group, omega_plus)
        if mode == "turan" or omega_minus in (None, SAME):
            minus = plus
        elif mode == "delsarte" or omega_minus == FULL:
            minus = SymmetricSet.full(group)
        else:
            minus = parse_discrete_set(group, omega_minus)
        try:
            return ProblemSpec(
                group, plus, minus, mode=mode, arithmetic=arithmetic, tolerance=tolerance
            )
        except ValueError as exc:
            raise InputError(f"{path}: {exc}") from exc
    if "torus" in raw:
        torus = raw["torus"]
        try:
            circumference = Fraction(str(torus["circumference"]))
            grid = int(torus["grid"])
        except (KeyError, ValueError) as exc:
            raise InputError(
                f"{path}: field 'torus' needs 'circumference' and 'grid': {exc}"
            ) from exc
        s_plus = _parse_real_arg(omega_plus, path)
        if omega_minus in (None, SAME, FULL):
            s_minus = omega_minus or SAME
        else:
            s_minus = _parse_real_arg(omega_minus, path)
        return (s_plus, s_minus, circumference, grid)
    raise InputError(f"{path}: need a 'group' or 'torus' field")


def _parse_real_arg(text: str, origin="") -> RealSet1D:
    try:
        return parse_real_set(text)
    except ValueError as exc:
        prefix = f"{origin}: " if origin else ""
        raise InputError(f"{prefix}{exc}") from exc


def _cmd_sweep(args) -> int:
    s_plus = _parse_real_arg(args.omega_plus)
    minus_text = _omega_minus_text(args)
    s_minus = minus_text if minus_text in (FULL, SAME) else _parse_real_arg(minus_text)
    if args.grid_list:
        grids = [int(p) for p in args.grid_list.split(",") if p]
    elif args.grid:
        grids = [args.grid]
    else:
        raise InputError("sweep needs --grid or --grid-list")
    table = sweep(
        s_plus, s_minus, Fraction(args.torus), grids,
        mode=args.mode, arithmetic=args.arithmetic, tolerance=args.tol,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "sweep.csv").write_text("\n".join(table.csv_lines()) + "\n")
    _write_json(
        out_dir / "sweep.json",
        {
            "rows": [
                {
                    "grid": r.grid,
                    "step": r.step,
                    "value": r.value,
                    "gap": r.gap,
                    "status": r.status,
                    "warning": r.warning,
                }
                for r in table.rows
            ]
        },
    )
    for line in table.lines():
        print(line)
    return EXIT_OK


def _cmd_check_set(args) -> int:
    s = _parse_real_arg(args.set)
    print(f"set: {s.to_literal()}")
    symmetric = is_symmetric(s)
    print(f"symmetric: {str(symmetric).lower()}")
    verdict = is_boundary_coherent(s)
    if verdict.ok:
        print("boundary_coherent: true")
    else:
        print(f"boundary_coherent: false, witness: {_fraction_str(verdict.witness)}")
    points = boundary(s)
    print("boundary: {" + ",".join(_fraction_str(p) for p in points) + "}")
    if symmetric and s.is_bounded:
        star = is_strictly_star_shaped(s)
        print(f"strictly_star_shaped: {str(star).lower()}")
    return EXIT_OK


def _cmd_classes(args) -> int:
    if not args.check:
        raise InputError("classes currently supports only --check")
    s_plus = _parse_real_arg(args.omega_plus)
    s_minus = _parse_real_arg(args.omega_minus) if args.omega_minus else s_plus
    torus = TorusSpec(Fraction(args.torus), args.grid)
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
    group = _parse_group_arg(args.group)
    omega_plus = parse_discrete_set(group, args.omega_plus)
    minus_text = _omega_minus_text(args)
    if args.mode == "turan" or minus_text == SAME:
        omega_minus = omega_plus
    elif args.mode == "delsarte" or minus_text == FULL:
        omega_minus = SymmetricSet.full(group)
    else:
        omega_minus = parse_discrete_set(group, minus_text)
    try:
        spec = ProblemSpec(
            group, omega_plus, omega_minus,
            mode=args.mode, arithmetic=args.arithmetic, tolerance=args.tol,
        )
        report = reduce_and_compare(spec)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    for line in report.lines():
        print(line)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delsarte",
        description="Extremal problems for positive definite functions "
        "on finite abelian groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_group=True):
        if with_group:
            p.add_argument("--group", help='group literal, e.g. "Z8" or "Z4xZ3,weight=1/4"')
        p.add_argument("--omega-plus", required=True, help="sign set literal")
        p.add_argument("--omega-minus", help="sign set literal, FULL or SAME")
        p.add_argument("--mode", default="turan", choices=["general", "turan", "delsarte"])
        p.add_argument(
            "--arithmetic", default="float", choices=["float", "exact-rational"]
        )
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--out", default=".", help="output directory")

    p_solve = sub.add_parser("solve", help="solve one extremal problem")
    p_solve.add_argument("--problem", help="JSON problem file")
    p_solve.add_argument("--group", help="group literal")
    p_solve.add_argument("--omega-plus", help="sign set literal")
    p_solve.add_argument("--omega-minus", help="sign set literal, FULL or SAME")
    p_solve.add_argument("--mode", default="turan", choices=["general", "turan", "delsarte"])
    p_solve.add_argument("--arithmetic", default="float", choices=["float", "exact-rational"])
    p_solve.add_argument("--tol", type=float, default=1e-9)
    p_solve.add_argument("--out", default=".")
    p_solve.add_argument("--torus", help="circumference for grid problems")
    p_solve.add_argument("--grid", type=int, help="grid count for torus problems")

    p_sweep = sub.add_parser("sweep", help="convergence table over grid counts")
    add_common(p_sweep, with_group=False)
    p_sweep.add_argument("--torus", required=True, help="circumference")
    p_sweep.add_argument("--grid", type=int)
    p_sweep.add_argument("--grid-list", help="comma-separated grid counts")

    p_check = sub.add_parser("check-set", help="topology predicates for a real set")
    p_check.add_argument("set", help='set literal, e.g. "(-2,-1)u(-1,1)u(1,2)"')

    p_classes = sub.add_parser("classes", help="class membership reports")
    p_classes.add_argument("--check", action="store_true")
    p_classes.add_argument("--omega-plus", required=True)
    p_classes.add_argument("--omega-minus")
    p_classes.add_argument("--torus", required=True)
    p_classes.add_argument("--grid", type=int, required=True)

    p_reduce = sub.add_parser("reduce", help="reduction to a generated subgroup")
    p_reduce.add_argument("--compare", action="store_true")
    add_common(p_reduce)

    return parser


def make_config(args: argparse.Namespace) -> RunConfig:
    out_dir = Path(getattr(args, "out", "."))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"output directory {out_dir} is not writable: {exc}") from exc
    return RunConfig(command=args.command, args=args, out_dir=out_dir)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else 0
    handlers = {
        "solve": _cmd_solve,
        "sweep": _cmd_sweep,
        "check-set": _cmd_check_set,
        "classes": _cmd_classes,
        "reduce": _cmd_reduce,
    }
    try:
        config = make_config(args)
        return handlers[config.command](config.args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except SimplexError as exc:
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
