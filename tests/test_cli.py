import argparse
import contextlib
import io
import json
import random
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delsarte import cli, reduction
from delsarte.cli import emit_figure_data, main, parse_discrete_set
from delsarte.groups import FiniteAbelianGroup
from delsarte.harmonic import fejer_kernel
from delsarte.solver import CertificateVerdict, SimplexError

from _generators import random_group, random_symmetric_set


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_prints_value_and_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run_cli(
        capsys,
        "solve", "--group", "Z8", "--omega-plus", "{-1,0,1}",
        "--mode", "turan", "--out", str(out),
    )
    assert code == 0
    assert stdout.strip() == "2"
    payload = json.loads((out / "result.json").read_text())
    assert payload["status"] == "optimal"
    assert payload["value"] == 2.0
    assert set(payload) >= {"status", "value", "gap", "iterations"}
    assert (out / "function.csv").exists()
    assert (out / "spectrum.csv").exists()
    assert (out / "figure.csv").exists()


def test_result_json_keeps_its_layout(tmp_path, capsys):
    # Solve statistics other than the pivot count (runtime, phase-1
    # pivots, bound flips) stay out of the deterministic artifact.
    code, _, _ = run_cli(
        capsys,
        "solve", "--group", "Z5", "--omega-plus", "{-2,-1,0,1,2}",
        "--mode", "turan", "--out", str(tmp_path),
    )
    assert code == 0
    payload = json.loads((tmp_path / "result.json").read_text())
    assert set(payload) == {"status", "value", "gap", "iterations"}


def test_solve_class_empty_exit_code(tmp_path, capsys):
    code, stdout, _ = run_cli(
        capsys,
        "solve", "--group", "Z8", "--omega-plus", "{-1,1}",
        "--mode", "turan", "--out", str(tmp_path),
    )
    assert code == 2
    assert stdout.strip() == "0"


def test_solve_malformed_inputs_exit_one(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "solve", "--group", "Q8", "--omega-plus", "{0}", "--out", str(tmp_path),
    )
    assert code == 1 and "error" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "solve", "--problem", str(bad), "--out", str(tmp_path))
    assert code == 1
    assert "line 1" in err

    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"group": "Z8"}))
    code, _, err = run_cli(
        capsys, "solve", "--problem", str(incomplete), "--out", str(tmp_path)
    )
    assert code == 1
    assert "omega_plus" in err


def test_solve_solver_failure_exits_three(tmp_path, capsys, monkeypatch):
    def fail(spec, formulation="primal"):
        raise SimplexError("iteration limit exceeded")

    monkeypatch.setattr(cli, "solve", fail)
    code, stdout, err = run_cli(
        capsys,
        "solve", "--group", "Z8", "--omega-plus", "{-1,0,1}", "--out", str(tmp_path),
    )
    assert code == cli.EXIT_SOLVER_ERROR == 3
    assert stdout == ""
    assert err == "error: solver failed: iteration limit exceeded\n"
    assert not (tmp_path / "result.json").exists()


def test_solve_uncertified_exits_four(tmp_path, capsys, monkeypatch):
    violations = tuple(f"spectral[{k}]: primal row violated by 0.001" for k in range(4))
    real_solve = cli.solve

    def uncertified(spec, formulation="primal"):
        sol = real_solve(spec, formulation)
        return replace(sol, certificate_verdict=CertificateVerdict(False, violations))

    monkeypatch.setattr(cli, "solve", uncertified)
    code, stdout, err = run_cli(
        capsys,
        "solve", "--group", "Z8", "--omega-plus", "{-1,0,1}",
        "--mode", "turan", "--out", str(tmp_path),
    )
    assert code == cli.EXIT_UNCERTIFIED == 4
    assert stdout.strip() == "2"
    assert err == "".join(f"uncertified: {v}\n" for v in violations[:3])
    payload = json.loads((tmp_path / "result.json").read_text())
    assert payload["status"] == "optimal"
    assert payload["certificate_violations"] == list(violations)


def _write(directory, name, text):
    path = directory / name
    path.write_text(text)
    return str(path)


BAD_INPUTS = {
    "problem-file-is-a-list": lambda d: ["solve", "--problem", _write(d, "p.json", "[1, 2]")],
    "omega-plus-not-a-string": lambda d: [
        "solve", "--problem",
        _write(d, "p.json", json.dumps({"group": "Z8", "omega_plus": 5})),
    ],
    "torus-not-an-object": lambda d: [
        "solve", "--problem",
        _write(d, "p.json", json.dumps({"torus": 5, "omega_plus": "[-1,1]"})),
    ],
    "problem-is-a-directory": lambda d: ["solve", "--problem", str(d)],
    "torus-without-omega-plus": lambda d: ["solve", "--torus", "8", "--grid", "16"],
    "circumference-divides-by-zero": lambda d: [
        "solve", "--torus", "1/0", "--grid", "16", "--omega-plus", "[-1,1]",
    ],
    "group-weight-divides-by-zero": lambda d: [
        "solve", "--group", "Z8,weight=1/0", "--omega-plus", "{0}",
    ],
    "unbounded-omega-on-a-torus": lambda d: [
        "solve", "--torus", "8", "--grid", "16", "--omega-plus", "(-inf,-1]u[1,inf)",
    ],
    "unclosed-parenthesis-in-last-member": lambda d: [
        "solve", "--group", "Z8", "--omega-plus", "{0,(1}", "--mode", "turan",
    ],
    "unclosed-tuple-in-last-member": lambda d: [
        "solve", "--group", "Z4xZ3", "--omega-plus", "{(0,0),(1,0}", "--mode", "turan",
    ],
    "empty-grid-list": lambda d: [
        "sweep", "--torus", "8", "--omega-plus", "[-1,1]", "--grid-list", ",",
    ],
}

# Grid counts that int() reads but that are not decimal integers, and a
# list entry that is not a number; the error must quote the flag and the literal.
BAD_GRID_COUNTS = {
    "underscored-grid": ("solve", "--grid", "1_28", "'1_28'"),
    "underscored-sweep-grid": ("sweep", "--grid", "1_28", "'1_28'"),
    "underscored-grid-list-entry": ("sweep", "--grid-list", "16,1_28", "'16,1_28': '1_28'"),
    "signed-grid-list-entry": ("sweep", "--grid-list", "+16", "'+16': '+16'"),
    "spaced-grid": ("solve", "--grid", " 16", "' 16'"),
    "non-numeric-grid-list-entry": ("sweep", "--grid-list", "16,x", "'16,x': 'x'"),
}
BAD_INPUTS.update({
    case: lambda d, command=command, flag=flag, literal=literal: [
        command, "--torus", "8", "--omega-plus", "[-1,1]", flag, literal,
    ]
    for case, (command, flag, literal, _) in BAD_GRID_COUNTS.items()
})

# Set literals whose members do not parse; the error must quote the literal.
BAD_SET_LITERALS = {
    "non-integer-member": ("Z8", "{x,0}"),
    "fractional-member": ("Z8", "{0,1.5}"),
    "underscored-member": ("Z8", "{1_0,-10}"),
    "non-integer-coordinate": ("Z4xZ3", "{(1,y)}"),
    "empty-tuple": ("Z4xZ3", "{()}"),
    "too-many-coordinates": ("Z4xZ3", "{(0,0,0)}"),
    "integer-on-a-product-group": ("Z4xZ3", "{0}"),
}
BAD_INPUTS.update({
    case: lambda d, group=group, literal=literal: [
        "solve", "--group", group, "--omega-plus", literal, "--mode", "turan",
    ]
    for case, (group, literal) in BAD_SET_LITERALS.items()
})


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_one_without_traceback(tmp_path, capsys, case):
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, *BAD_INPUTS[case](tmp_path), "--out", str(out))
    assert code == cli.EXIT_INPUT_ERROR == 1
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(BAD_SET_LITERALS))
def test_bad_set_member_error_names_the_literal(tmp_path, capsys, case):
    _, literal = BAD_SET_LITERALS[case]
    code, _, err = run_cli(capsys, *BAD_INPUTS[case](tmp_path), "--out", str(tmp_path / "out"))
    assert code == cli.EXIT_INPUT_ERROR
    assert repr(literal) in err


@pytest.mark.parametrize("case", sorted(BAD_GRID_COUNTS))
def test_bad_grid_count_error_names_the_flag_and_literal(tmp_path, capsys, case):
    _, flag, _, quoted = BAD_GRID_COUNTS[case]
    code, _, err = run_cli(capsys, *BAD_INPUTS[case](tmp_path), "--out", str(tmp_path / "out"))
    assert code == cli.EXIT_INPUT_ERROR
    assert err == f"error: {flag} {quoted} is not a decimal grid count\n"


def test_classes_grid_is_a_decimal_count(capsys):
    argv = ["classes", "--torus", "8", "--omega-plus", "[-1,1]", "--grid"]
    code, stdout, err = run_cli(capsys, *argv, "1_28")
    assert (code, stdout) == (cli.EXIT_INPUT_ERROR, "")
    assert err == "error: --grid '1_28' is not a decimal grid count\n"
    assert run_cli(capsys, *argv, "16")[0] == cli.EXIT_OK


# argparse reads "--flag=--" as an empty list of values, past the flag's
# type and choices; each must exit 1 like a missing value.
DASH_DASH_VALUES = [
    ["solve", "--group=Z8", "--omega-plus=--"],
    ["solve", "--group=--", "--omega-plus={0}"],
    ["solve", "--group=Z8", "--omega-plus={0}", "--omega-minus=--"],
    ["solve", "--group=Z8", "--omega-plus={0}", "--tol=--"],
    ["sweep", "--torus=8", "--grid-list=16,32", "--omega-plus=--"],
    ["classes", "--torus=8", "--grid=16", "--omega-plus=--"],
    ["reduce", "--group=Z8", "--omega-plus=--"],
]


@pytest.mark.parametrize("argv", DASH_DASH_VALUES, ids="_".join)
def test_dash_dash_value_exits_one(tmp_path, capsys, argv):
    flag = next(a for a in argv if a.endswith("=--")).removesuffix("=--")
    out = [f"--out={tmp_path / 'out'}"] if argv[0] in ("solve", "sweep") else []
    code, stdout, err = run_cli(capsys, *argv, *out)
    assert (code, stdout) == (cli.EXIT_INPUT_ERROR, "")
    assert err == f"error: argument {flag}: expected one argument\n"
    assert not (tmp_path / "out").exists()


def test_torus_problem_file_matches_flags(tmp_path, capsys):
    problem = tmp_path / "torus.json"
    problem.write_text(
        json.dumps(
            {
                "torus": {"circumference": 8, "grid": 16},
                "omega_plus": "[-1,1]",
                "mode": "delsarte",
                "arithmetic": "exact-rational",
                "tolerance": 1e-7,
            }
        )
    )
    file_out, flag_out = tmp_path / "file", tmp_path / "flags"
    file_run = run_cli(capsys, "solve", "--problem", str(problem), "--out", str(file_out))
    flag_run = run_cli(
        capsys,
        "solve", "--torus", "8", "--grid", "16", "--omega-plus", "[-1,1]",
        "--mode", "delsarte", "--arithmetic", "exact-rational", "--tol", "1e-7",
        "--out", str(flag_out),
    )
    assert file_run == flag_run
    assert file_run[0] == 0
    for name in ("result.json", "function.csv", "spectrum.csv", "figure.csv"):
        assert (file_out / name).read_bytes() == (flag_out / name).read_bytes()
    assert "value_exact" in json.loads((file_out / "result.json").read_text())


def test_problem_file_rejects_problem_flags(tmp_path, capsys):
    problem = _write(tmp_path, "p.json", json.dumps({"group": "Z8", "omega_plus": "{-1,0,1}"}))
    out = tmp_path / "out"
    code, stdout, err = run_cli(
        capsys, "solve", "--problem", problem, "--mode", "delsarte",
        "--arithmetic", "exact-rational", "--out", str(out),
    )
    assert code == cli.EXIT_INPUT_ERROR
    assert stdout == "" and not out.exists()
    assert err == "error: --problem states the whole problem; drop --mode, --arithmetic\n"
    # A flag left at its default changes nothing, so it may stand next to a file.
    code, stdout, _ = run_cli(
        capsys, "solve", "--problem", problem, "--mode", "turan", "--out", str(out)
    )
    assert code == 0 and stdout.strip() == "2"


@pytest.mark.parametrize("argv", [
    ["solve", "--group", "Z999999999", "--omega-plus", "{0}"],
    ["sweep", "--torus", "8", "--grid-list", "16,1000000000", "--omega-plus", "[-1,1]"],
])
def test_huge_sizes_exit_one_fast(tmp_path, capsys, argv):
    start = time.perf_counter()
    code, stdout, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
    assert time.perf_counter() - start < 1.0
    assert code == cli.EXIT_INPUT_ERROR
    assert stdout == "" and "exceeds the limit 65536" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["reduce", "--group", "Z8", "--omega-plus", "{0}", "--out", "rdir"],
    ["reduce", "--compare", "--group", "Z8", "--omega-plus", "{0}"],
    ["classes", "--check", "--omega-plus", "[-1,1]", "--torus", "8", "--grid", "8"],
])
def test_removed_options_are_rejected(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_INPUT_ERROR
    assert "unrecognized arguments" in err


def test_solve_problem_file_round_trip(tmp_path, capsys):
    problem = tmp_path / "problem.json"
    problem.write_text(
        json.dumps(
            {
                "group": "Z12",
                "omega_plus": "{-2,-1,0,1,2}",
                "omega_minus": "SAME",
                "mode": "turan",
                "arithmetic": "exact-rational",
            }
        )
    )
    code, stdout, _ = run_cli(
        capsys, "solve", "--problem", str(problem), "--out", str(tmp_path / "o")
    )
    assert code == 0
    assert stdout.strip() == "3"
    payload = json.loads((tmp_path / "o" / "result.json").read_text())
    assert payload["value_exact"] == "3"


def test_solve_torus_problem(tmp_path, capsys):
    code, stdout, _ = run_cli(
        capsys,
        "solve", "--torus", "8", "--grid", "32", "--omega-plus", "(-1,1)",
        "--mode", "turan", "--out", str(tmp_path),
    )
    assert code == 0
    assert float(stdout.strip()) == pytest.approx(1.0, abs=1e-9)


def test_solve_is_deterministic_byte_for_byte(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, _, _ = run_cli(
            capsys,
            "solve", "--group", "Z12", "--omega-plus", "{-2,-1,0,1,2}",
            "--mode", "turan", "--out", str(out),
        )
        assert code == 0
        outs.append(
            tuple(
                (p.name, p.read_bytes())
                for p in sorted(out.iterdir())
            )
        )
    assert outs[0] == outs[1]


def test_check_set_flags_punctured_set(capsys):
    code, stdout, _ = run_cli(capsys, "check-set", "(-2,-1)u(-1,1)u(1,2)")
    assert code == 0
    assert "boundary_coherent: false, witness: 1" in stdout
    code, stdout, _ = run_cli(capsys, "check-set", "[-2,2]")
    assert code == 0
    assert "boundary_coherent: true" in stdout


def test_sweep_outputs_table(tmp_path, capsys):
    artifacts = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        code, stdout, _ = run_cli(
            capsys,
            "sweep", "--omega-plus", "[-1,1]", "--torus", "8",
            "--grid-list", "32,64", "--out", str(out),
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0].startswith("grid,step,value")
        assert len(lines) == 3
        artifacts.append(
            ((out / "sweep.csv").read_bytes(), (out / "sweep.json").read_bytes())
        )
    assert artifacts[0] == artifacts[1]  # wall clock stays out of artifacts
    sweep_csv = artifacts[0][0].decode().splitlines()
    assert sweep_csv[0] == "grid,step,value,gap,warning"
    assert sweep_csv[1].startswith("32,")
    payload = json.loads(artifacts[0][1])
    assert [row["grid"] for row in payload["rows"]] == [32, 64]


def test_sweep_uncertified_exits_four(tmp_path, capsys, monkeypatch):
    violations = tuple(f"spectral[{k}]: primal row violated by 0.001" for k in range(4))
    real_sweep = cli.sweep

    def uncertified(*args, **kwargs):
        table = real_sweep(*args, **kwargs)
        assert all(row.certificate_verdict.ok for row in table.rows)
        bad = replace(table.rows[1], certificate_verdict=CertificateVerdict(False, violations))
        return replace(table, rows=(table.rows[0], bad))

    monkeypatch.setattr(cli, "sweep", uncertified)
    code, stdout, err = run_cli(
        capsys,
        "sweep", "--omega-plus", "[-1,1]", "--torus", "8",
        "--grid-list", "16,32", "--out", str(tmp_path),
    )
    assert code == cli.EXIT_UNCERTIFIED == 4
    assert len(stdout.strip().splitlines()) == 3
    assert err == "".join(f"uncertified: grid 32: {v}\n" for v in violations[:3])
    rows = json.loads((tmp_path / "sweep.json").read_text())["rows"]
    assert "certificate_violations" not in rows[0]
    assert rows[1]["certificate_violations"] == list(violations)


def test_classes_check_reports_chain(capsys):
    code, stdout, _ = run_cli(
        capsys,
        "classes", "--omega-plus", "[-1,1]",
        "--torus", "8", "--grid", "32",
    )
    assert code == 0
    assert "violations: 0" in stdout
    assert "interior=" in stdout


def test_reduce_compare_reports_values(capsys):
    code, stdout, _ = run_cli(
        capsys,
        "reduce", "--group", "Z4xZ3",
        "--omega-plus", "{(0,0),(1,0),(3,0)}",
        "--arithmetic", "exact-rational",
    )
    assert code == 0
    assert "value_G=2" in stdout and "value_H=2" in stdout and "diff=0" in stdout


@pytest.mark.parametrize(
    "argv, solves",
    [
        (["--group", "Z4xZ3", "--omega-plus", "{(0,0),(1,0),(3,0)}"], ["G", "H=<plus>"]),
        (["--group", "Z4xZ3", "--omega-plus", "{(0,0),(1,0),(3,0)}", "--mode", "delsarte"],
         ["G", "H=<plus>"]),
        (["--group", "Z12", "--omega-plus", "{-1,0,1}"], ["G"]),
        (["--group", "Z12", "--omega-plus", "{-4,0,4}", "--mode", "general",
          "--omega-minus", "{6}"], ["G", "H=<plus>", "H=<both>"]),
    ],
    ids=["turan", "delsarte", "plus-generates-g", "general"],
)
def test_reduce_uncertified_exits_four(capsys, monkeypatch, argv, solves):
    # One violation per solve; a solution that two comparisons share is
    # listed once, under the first solve that made it.
    real_solve = reduction.solve
    made = []

    def uncertified(spec, formulation="auto"):
        sol = real_solve(spec, formulation)
        violations = (f"spectral[{len(made)}]: primal row violated by 0.001",)
        made.append(spec)
        return replace(sol, certificate_verdict=CertificateVerdict(False, violations))

    monkeypatch.setattr(reduction, "solve", uncertified)
    code, stdout, err = run_cli(capsys, "reduce", *argv)
    assert code == cli.EXIT_UNCERTIFIED == 4
    assert len(stdout.splitlines()) == 2
    assert err == "".join(
        f"uncertified: {where}: spectral[{k}]: primal row violated by 0.001\n"
        for k, where in enumerate(solves)
    )


def test_parse_discrete_set_tuples_and_full():
    g = FiniteAbelianGroup((4, 3))
    s = parse_discrete_set(g, "{(0,0),(1,0),(3,0)}")
    assert len(s) == 3
    assert parse_discrete_set(g, "FULL").is_full
    z8 = FiniteAbelianGroup((8,))
    assert parse_discrete_set(z8, "{-1,0,1}").sorted_indices() == (0, 1, 7)


@pytest.mark.parametrize("literal", ["{-1,0,1)}", "{)(0,0}", "{((0,0),(1,0)}"])
def test_parse_discrete_set_rejects_unbalanced_parentheses(literal):
    # A member inside an open or stray parenthesis must not be dropped silently.
    with pytest.raises(cli.InputError, match="unbalanced parentheses"):
        parse_discrete_set(FiniteAbelianGroup((4, 3)), literal)


def _set_literal(s) -> str:
    """The literal of a symmetric set in signed coordinates, as the CLI takes it."""
    group = s.group
    if group.dimension == 1:
        members = [str(group.signed_coords(i)[0]) for i in s.sorted_indices()]
    else:
        members = [
            "(" + ",".join(map(str, group.signed_coords(i))) + ")"
            for i in s.sorted_indices()
        ]
    return "{" + ",".join(members) + "}"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), density=st.floats(0.0, 1.0))
def test_parse_discrete_set_round_trips(seed, density):
    rng = random.Random(seed)
    group = random_group(rng)
    s = random_symmetric_set(group, rng, density)
    assert parse_discrete_set(group, _set_literal(s)) == s


def test_emit_figure_data_shapes(tmp_path):
    group = FiniteAbelianGroup((32,))
    tri = fejer_kernel(group, 4)
    path = tmp_path / "fig.csv"
    emit_figure_data(tri, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "coordinate,value"
    assert len(lines) == 33
    values = {
        float(line.split(",")[0]): float(line.split(",")[1]) for line in lines[1:]
    }
    assert values[0.0] == 1.0
    assert max(values) == 16.0 and min(values) == -15.0
    with pytest.raises(Exception):
        emit_figure_data(None, tmp_path / "missing.csv")


def test_emit_figure_data_extremal_profile(tmp_path):
    from fractions import Fraction

    from delsarte.discretize import TorusSpec
    from delsarte.realsets import parse_real_set
    from delsarte.solver import solve_discretized

    sol, _ = solve_discretized(
        parse_real_set("[-2,2]"), "SAME", TorusSpec(Fraction(8), 32), "turan"
    )
    path = tmp_path / "profile.csv"
    emit_figure_data(sol.extremal_function, path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    values = {float(a): float(b) for a, b in rows}
    assert values[0.0] == pytest.approx(1.0, abs=1e-9)
    assert max(values.values()) == pytest.approx(1.0, abs=1e-9)
    # support stays inside one grid step beyond the interval
    for x, v in values.items():
        if abs(x) > 2.0 + 0.25 + 1e-9:
            assert abs(v) < 1e-9
    # even profile
    for x, v in values.items():
        if -x in values:
            assert v == pytest.approx(values[-x], abs=1e-12)


# Values for each flag, by argparse dest: (well-formed, malformed).  Groups
# stay at order <= 16 and grids at <= 16, so an example runs in milliseconds.
SETS = st.sampled_from([
    "{-1,0,1}", "{-2,-1,0,1,2}", "{(0,0),(1,0),(3,0)}", "{}", "{0}", "FULL", "SAME",
    "[-1,1]", "(-2,-1)u(-1,1)u(1,2)", "[-3/2,3/2]", "(-2,2)", "[0,1]",
])
BAD_SETS = st.sampled_from([
    "{99}", "{(1,2)}", "[-100,100]", "{1,,2}", "{(1,2}", "{1)}", "{", "[1,-1]", "[-1/0,1]",
    "(-1,1)u", "",
]) | st.text("{}()[],-/u01x ", max_size=10)
FLAG_VALUES = {
    "group": (
        st.sampled_from(["Z8", "Z4xZ3", "Z16,weight=1/4", "Z2xZ2xZ2", "Z1", "Z12"]),
        st.sampled_from([
            "Z0", "Q8", "", "Z8x", "Z8,weight=1/0", "Z8,weight=-1", "Z8,weight=abc",
            "Z8,weight=1e-400", "Z8,weight=1e300", "Z8,scale=2",
        ]),
    ),
    "omega_plus": (SETS, BAD_SETS),
    "omega_minus": (SETS, BAD_SETS),
    "set": (SETS, BAD_SETS),
    "mode": (st.sampled_from(["general", "turan", "delsarte"]), st.just("bogus")),
    "arithmetic": (st.sampled_from(["float", "exact-rational"]), st.just("bogus")),
    "tol": (st.sampled_from(["1e-9", "1e-6", "0"]),
            st.sampled_from(["-1", "nan", "inf", "-inf", "abc"])),
    "torus": (st.sampled_from(["8", "4", "17/2"]),
              st.sampled_from(["1/0", "0", "-8", "abc", "1e400", "1e300", "1e-300"])),
    "grid": (st.sampled_from(["8", "16", "2", "5"]),
             st.sampled_from(["1", "0", "-4", "abc", "3.5"])),
    "grid_list": (st.sampled_from(["8,16", "2", "16,8", "4,"]),
                  st.sampled_from(["0", "a,b", ",", "8,1"])),
}


def _subcommand_actions():
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        for name, sub in subparsers.choices.items()
    }


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    problems = {
        "group.json": {"group": "Z12", "omega_plus": "{-2,-1,0,1,2}"},
        "torus.json": {"torus": {"circumference": 8, "grid": 16}, "omega_plus": "[-1,1]",
                       "mode": "delsarte", "arithmetic": "exact-rational"},
        "both.json": {"group": "Z8", "torus": {"circumference": 8, "grid": 8},
                      "omega_plus": "{0}"},
        "types.json": {"group": "Z8", "omega_plus": "{0}", "tolerance": "small"},
        "grid.json": {"torus": {"circumference": 8, "grid": 2.5}, "omega_plus": "[-1,1]"},
        "partial.json": {"torus": {"grid": 8}, "omega_plus": "[-1,1]"},
        "list.json": [1, 2],
    }
    for name, payload in problems.items():
        (d / name).write_text(json.dumps(payload))
    (d / "broken.json").write_text("{not json")
    (d / "a-file").write_text("")
    return d


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_main_never_raises_on_generated_argv(fuzz_dir, data):
    values = dict(FLAG_VALUES)
    values["problem"] = (
        st.sampled_from([str(fuzz_dir / "group.json"), str(fuzz_dir / "torus.json")]),
        st.sampled_from([str(fuzz_dir), *(str(fuzz_dir / n) for n in (
            "both.json", "types.json", "grid.json", "partial.json", "list.json",
            "broken.json", "missing.json",
        ))]),
    )
    values["out"] = (st.just(str(fuzz_dir / "out")), st.just(str(fuzz_dir / "a-file")))

    def value(dest):
        good, bad = values[dest]
        return data.draw(bad if data.draw(st.integers(0, 4)) == 0 else good)

    actions = _subcommand_actions()
    command = data.draw(st.sampled_from(sorted(actions)))
    argv = [command]
    for action in actions[command]:
        # A problem file rejects problem flags next to it, so they are rarer
        # there, and a third of the file examples reach the file reader.
        if (action.dest in cli._PROBLEM_FLAGS and any(a.startswith("--problem=") for a in argv)
                and data.draw(st.integers(0, 3))):
            continue
        # --out is always given, so no example writes into the working directory.
        if not action.required and action.dest != "out" and data.draw(st.booleans()):
            continue
        if not action.option_strings:
            argv.append(value(action.dest))
        elif action.nargs == 0:
            argv.append(action.option_strings[-1])
        else:
            argv.append(f"{action.option_strings[-1]}={value(action.dest)}")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in {0, 1, 2, 3, 4}, argv
