"""Direct contract tests for the simplex engine on handmade programs."""

import math
import random
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _generators import reference_bland
from delsarte.classes import SymmetricSet
from delsarte.discretize import TorusSpec, sample_set
from delsarte.groups import FiniteAbelianGroup
from delsarte.realsets import parse_real_set
from delsarte.solver import (
    EXACT,
    FLOAT,
    DualCertificate,
    LinearProgram,
    ProblemSpec,
    RawOptimum,
    SimplexError,
    Solution,
    SolveStats,
    build_primal,
    leave_bland,
    leave_bounded,
    leave_harris,
    polish_col,
    polish_row,
    price_bland,
    price_dantzig,
    simplex_solve,
    solve,
    solve_discretized,
    verify_certificate,
)


def make_lp(var_bounds, rows, objective, arithmetic=FLOAT, scale=Fraction(1)):
    """A program from rows of ({variable: coefficient}, sense, rhs)."""
    lift = Fraction if arithmetic == EXACT else float
    A = np.full((len(rows), len(var_bounds)), lift(0),
                dtype=object if arithmetic == EXACT else float)
    for i, (coeffs, _, _) in enumerate(rows):
        for j, a in coeffs.items():
            A[i, j] = lift(a)
    return LinearProgram(
        var_labels=tuple(range(len(var_bounds))),
        var_bounds=tuple((lift(lo), lift(hi)) for lo, hi in var_bounds),
        row_labels=tuple(("row", k) for k in range(len(rows))),
        A=A,
        senses=tuple(sense for _, sense, _ in rows),
        rhs=tuple(lift(rhs) for _, _, rhs in rows),
        objective=tuple(lift(c) for c in objective),
        objective_scale=scale,
        arithmetic=arithmetic,
    )


@pytest.mark.parametrize("arithmetic", [FLOAT, EXACT])
def test_small_inequality_program(arithmetic):
    # max x + y  s.t.  x + 2y <= 4,  3x + y <= 6,  0 <= x,y <= 5
    lp = make_lp(
        [(0, 5), (0, 5)],
        [({0: 1, 1: 2}, "<=", 4), ({0: 3, 1: 1}, "<=", 6)],
        [1, 1],
        arithmetic,
    )
    raw = simplex_solve(lp)
    assert float(raw.objective) == pytest.approx(2.8)
    assert [float(v) for v in raw.x] == pytest.approx([1.6, 1.2])
    # duals: both rows tight; y solves A^T y = c -> y = (2/5, 1/5)
    assert [float(v) for v in raw.row_duals] == pytest.approx([0.4, 0.2])


@pytest.mark.parametrize("arithmetic", [FLOAT, EXACT])
def test_program_with_equality_and_lower_bounded_row(arithmetic):
    # max 2x + y  s.t.  x + y = 3,  x - y >= -1,  x,y in [0, 3]
    lp = make_lp(
        [(0, 3), (0, 3)],
        [({0: 1, 1: 1}, "=", 3), ({0: 1, 1: -1}, ">=", -1)],
        [2, 1],
        arithmetic,
    )
    raw = simplex_solve(lp)
    assert float(raw.objective) == pytest.approx(6.0)  # x=3, y=0
    assert [float(v) for v in raw.x] == pytest.approx([3.0, 0.0])


@pytest.mark.parametrize("arithmetic", [FLOAT, EXACT])
def test_program_with_negative_lower_bounds(arithmetic):
    # max x  s.t.  x + y <= 1,  x - y <= 1,  x,y in [-1, 1]  -> x = 1
    lp = make_lp(
        [(-1, 1), (-1, 1)],
        [({0: 1, 1: 1}, "<=", 1), ({0: 1, 1: -1}, "<=", 1)],
        [1, 0],
        arithmetic,
    )
    raw = simplex_solve(lp)
    assert float(raw.objective) == pytest.approx(1.0)
    assert float(raw.x[0]) == pytest.approx(1.0)


def test_degenerate_program_terminates():
    # many redundant rows through the optimum, all tight at once
    rows = [({0: 1, 1: k}, "<=", 1) for k in range(12)]
    lp = make_lp([(0, 2), (0, 2)], rows, [1, 0])
    raw = simplex_solve(lp)
    assert float(raw.objective) == pytest.approx(1.0)


def highs(lp: LinearProgram):
    from scipy.optimize import linprog

    # >= rows enter as <= rows negated, in their places among the <= rows.
    A, b = lp.A.astype(float), np.array(lp.rhs, dtype=float)
    senses = np.array(lp.senses)
    eq = senses == "="
    sign = np.where(senses == ">=", -1.0, 1.0)
    a_ub, b_ub = (A * sign[:, None])[~eq], (b * sign)[~eq]
    return linprog(
        c=[-float(c) for c in lp.objective],
        A_ub=a_ub if a_ub.size else None,
        b_ub=b_ub if a_ub.size else None,
        A_eq=A[eq] if eq.any() else None,
        b_eq=b[eq] if eq.any() else None,
        bounds=[(float(lo), float(hi)) for lo, hi in lp.var_bounds],
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )


def scipy_value(lp: LinearProgram) -> float:
    res = highs(lp)
    assert res.success
    return -float(res.fun)


# Boxes around the origin, asymmetric ones included so that optima put
# variables at upper bounds other than 1 and at lower bounds other than -1.
BOXES = [(-1, 1), (-2, 1), (0, 3), (-1, 0)]


def random_program(rng: random.Random, arithmetic=FLOAT) -> LinearProgram:
    # Boxes that hold the origin and right sides that keep it feasible.
    n = rng.randint(2, 7)
    m = rng.randint(1, 9)
    rows = []
    for _ in range(m):
        coeffs = {
            j: rng.randint(-4, 4) for j in rng.sample(range(n), rng.randint(1, n))
        }
        sense = rng.choice(["<=", ">=", "="])
        if sense == "<=":
            rhs = rng.randint(0, 6)
        elif sense == ">=":
            rhs = -rng.randint(0, 6)
        else:
            rhs = 0
        rows.append((coeffs, sense, rhs))
    objective = [rng.randint(-3, 3) for _ in range(n)]
    bounds = [rng.choice(BOXES) for _ in range(n)]
    return make_lp(bounds, rows, objective, arithmetic)


def certificate_verdict(lp: LinearProgram, raw, tol: float):
    """verify_certificate on a bare program: the spec only lends its
    default tolerance to the float duality-gap check, and an exact
    program's value is the exact objective."""
    group = FiniteAbelianGroup((2,))
    spec = ProblemSpec.turan(group, SymmetricSet.from_indices(group, {0}))
    sol = Solution(
        spec=spec, status="optimal", value=float(raw.objective),
        value_exact=raw.objective if lp.arithmetic == EXACT else None,
        extremal_function=None, extremal_values_exact=None,
        dual_certificate=DualCertificate(
            rows=tuple(zip(lp.row_labels, raw.row_duals)),
            lower_bounds=raw.lower_duals, upper_bounds=raw.upper_duals,
            dual_objective=None,
        ),
        gap=0.0, stats=SolveStats(raw.iterations, raw.phase1_iterations, 0.0),
        formulation="primal", lp=lp, var_values=raw.x, class_verdict=None,
    )
    return verify_certificate(sol, tol=tol)


def test_randomized_programs_match_reference_solver():
    rng = random.Random(271828)
    for case in range(40):
        lp = random_program(rng)
        mine = simplex_solve(lp)
        assert float(mine.objective) == pytest.approx(scipy_value(lp), abs=1e-7), case
        verdict = certificate_verdict(lp, mine, 1e-9)
        assert verdict.ok, (case, verdict.violations)


def test_randomized_exact_programs_match_reference_solver():
    # Equality and >= rows leave degenerate artificials in the basis after
    # phase 1; driving them out may pivot on a negative entry, after which
    # every row denominator must still be positive.
    rng = random.Random(2)
    for case in range(200):
        lp = random_program(rng, EXACT)
        mine = simplex_solve(lp)
        assert float(mine.objective) == pytest.approx(scipy_value(lp), abs=1e-9), case
        verdict = certificate_verdict(lp, mine, 0.0)
        assert verdict.ok, (case, verdict.violations)


def near_degenerate_program(rng: random.Random) -> LinearProgram:
    # Rows through one vertex of the box, shifted by multiples of 1e-6:
    # less than the degeneracy-breaking perturbation, so once the true
    # right side returns, basic values lie just outside [0, u] on either
    # side and the dual polish must repair them.  Some are infeasible.
    n, m = rng.randint(2, 3), rng.randint(1, 3)
    bounds = [rng.choice([(0, 1), (-1, 1), (0, 2), (-1, 0)]) for _ in range(n)]
    vertex = [rng.choice(box) for box in bounds]
    rows = []
    for _ in range(m):
        coeffs = {j: rng.randint(-2, 2) for j in range(n)}
        activity = sum(a * v for a, v in zip(coeffs.values(), vertex))
        shift = rng.choice([0, 1, -1, 2, -2, 3]) * 1e-6
        rows.append((coeffs, rng.choice(["<=", ">="]), activity + shift))
    return make_lp(bounds, rows, [rng.randint(-2, 2) for _ in range(n)])


def test_near_degenerate_programs_match_reference_solver():
    rng = random.Random(5)
    for case in range(300):
        lp = near_degenerate_program(rng)
        res = highs(lp)
        if res.status == 2:
            with pytest.raises(SimplexError):
                simplex_solve(lp)
            continue
        mine = simplex_solve(lp)
        assert float(mine.objective) == pytest.approx(-res.fun, abs=1e-7), case
        verdict = certificate_verdict(lp, mine, 1e-9)
        assert verdict.ok, (case, verdict.violations)


def test_optimum_at_every_upper_bound_takes_no_pivot():
    # max x + 2y + z over x in [-1, 1], y in [0, 3], z in [-2, 0] with a
    # row that never binds: each variable flips to its upper bound.
    lp = make_lp(
        [(-1, 1), (0, 3), (-2, 0)], [({0: 1, 1: 1, 2: 1}, "<=", 10)], [1, 2, 1]
    )
    raw = simplex_solve(lp)
    assert float(raw.objective) == pytest.approx(7.0)
    assert (raw.iterations, raw.phase1_iterations, raw.bound_flips) == (0, 0, 3)
    hi = [b[1] for b in lp.var_bounds]
    assert list(raw.x) == hi
    assert [float(v) for v in raw.upper_duals] == pytest.approx([1.0, 2.0, 1.0])
    assert all(v == 0.0 for v in raw.lower_duals)
    assert all(mu == 0.0 or x == h for mu, x, h in zip(raw.upper_duals, raw.x, hi))
    assert certificate_verdict(lp, raw, 1e-12).ok


# max 2x + y  s.t.  x + y <= 2,  -x >= -3/2,  x, y in [0, 3]: the optimum
# (3/2, 1/2) of value 7/2 with row multipliers (1, -1) and bound
# multipliers 0, and one change per kind of violation.
CERTIFICATE_CASES = [
    ("le-row", {"x": (1.5, 0.75)},
     ("row[0]: primal row violated by 0.25",
      "row[0]: complementary slackness (y=1.0, slack=-0.25)")),
    ("ge-row", {"x": (1.75, 0.25)},
     ("row[1]: primal row violated by 0.25",
      "row[1]: complementary slackness (y=-1.0, slack=0.25)")),
    ("le-sign", {"row_duals": (-1.0, -1.0)},
     ("row[0]: multiplier sign (-1.0)", "variable[0]: dual stationarity residual 2.0",
      "variable[1]: dual stationarity residual 2.0", "duality gap 4.0")),
    ("ge-sign", {"row_duals": (1.0, 1.0)},
     ("row[1]: multiplier sign (1.0)", "variable[0]: dual stationarity residual 2.0",
      "duality gap 3.0")),
    ("row-slackness", {"x": (1.5, 0.25)},
     ("row[0]: complementary slackness (y=1.0, slack=0.25)",)),
    ("below-lower", {"x": (1.5, -0.25)},
     ("row[0]: complementary slackness (y=1.0, slack=0.75)",
      "variable[1]: below lower bound")),
    ("above-upper", {"x": (3.25, 0.5)},
     ("row[0]: primal row violated by 1.75",
      "row[0]: complementary slackness (y=1.0, slack=-1.75)",
      "row[1]: primal row violated by 1.75",
      "row[1]: complementary slackness (y=-1.0, slack=1.75)",
      "variable[0]: above upper bound")),
    ("lower-sign", {"lower_duals": (-1.0, 0.0)},
     ("variable[0]: lower multiplier sign (-1.0)",
      "variable[0]: lower-bound complementary slackness",
      "variable[0]: dual stationarity residual -1.0")),
    ("upper-sign", {"upper_duals": (0.0, -1.0)},
     ("variable[1]: upper multiplier sign (-1.0)",
      "variable[1]: upper-bound complementary slackness",
      "variable[1]: dual stationarity residual 1.0", "duality gap 3.0")),
    ("lower-slackness", {"lower_duals": (0.0, 1.0)},
     ("variable[1]: lower-bound complementary slackness",
      "variable[1]: dual stationarity residual 1.0")),
    ("upper-slackness", {"upper_duals": (1.0, 0.0)},
     ("variable[0]: upper-bound complementary slackness",
      "variable[0]: dual stationarity residual -1.0", "duality gap -3.0")),
    ("stationarity", {"row_duals": (1.0, -0.5)},
     ("variable[0]: dual stationarity residual 0.5", "duality gap 0.75")),
    ("gap", {"objective": 3.0}, ("duality gap -0.5",)),
]


@pytest.mark.parametrize("change, expected", [case[1:] for case in CERTIFICATE_CASES],
                         ids=[case[0] for case in CERTIFICATE_CASES])
def test_float_certificate_violations_are_reported_in_order(change, expected):
    lp = make_lp([(0, 3), (0, 3)], [({0: 1, 1: 1}, "<=", 2), ({0: -1}, ">=", -1.5)], [2, 1])
    raw = RawOptimum(x=(1.5, 0.5), objective=3.5, row_duals=(1.0, -1.0),
                     lower_duals=(0.0, 0.0), upper_duals=(0.0, 0.0),
                     iterations=0, phase1_iterations=0)
    assert certificate_verdict(lp, raw, 1e-9).violations == ()
    assert certificate_verdict(lp, replace(raw, **change), 1e-9).violations == expected


@pytest.mark.parametrize("change, expected", [case[1:] for case in CERTIFICATE_CASES],
                         ids=[case[0] for case in CERTIFICATE_CASES])
def test_exact_certificate_violations_are_reported_in_order(change, expected):
    # The same program and changes in Fractions, checked at zero tolerance.
    # The exact branch prints multipliers as Fractions ("y=1", "(-1)") and
    # every other number as a float, like the float branch.
    lp = make_lp([(0, 3), (0, 3)], [({0: 1, 1: 1}, "<=", 2), ({0: -1}, ">=", -1.5)], [2, 1],
                 arithmetic=EXACT)
    half = Fraction(1, 2)
    raw = RawOptimum(x=(3 * half, half), objective=7 * half, row_duals=(Fraction(1), Fraction(-1)),
                     lower_duals=(Fraction(0),) * 2, upper_duals=(Fraction(0),) * 2,
                     iterations=0, phase1_iterations=0)
    assert certificate_verdict(lp, raw, 0.0).violations == ()
    exact_change = {key: tuple(map(Fraction, v)) if isinstance(v, tuple) else Fraction(v)
                    for key, v in change.items()}
    expected = tuple(re.sub(r"(y=|\()(-?\d+)\.0\b", r"\1\2", v) for v in expected)
    assert certificate_verdict(lp, replace(raw, **exact_change), 0.0).violations == expected


@pytest.mark.parametrize("arithmetic", [FLOAT, EXACT])
def test_violated_equality_row_is_reported(arithmetic):
    # max x  s.t.  x + y = 1,  x, y in [0, 1]: x = (1, 1/2) breaks the row by
    # 1/2, while the dual side (row multiplier 0, upper multipliers (1, 0))
    # proves the value 1 and every other condition holds.
    lift = Fraction if arithmetic == EXACT else float
    lp = make_lp([(0, 1), (0, 1)], [({0: 1, 1: 1}, "=", 1)], [1, 0], arithmetic)
    raw = RawOptimum(x=(lift(1), lift(0)), objective=lift(1), row_duals=(lift(0),),
                     lower_duals=(lift(0),) * 2, upper_duals=(lift(1), lift(0)),
                     iterations=0, phase1_iterations=0)
    tol = 0.0 if arithmetic == EXACT else 1e-9
    assert certificate_verdict(lp, raw, tol).violations == ()
    verdict = certificate_verdict(lp, replace(raw, x=(lift(1), lift(Fraction(1, 2)))), tol)
    assert verdict.violations == ("row[0]: primal row violated by 0.5",)


# Multiples of 1/4 in [-3, 3], with zero drawn more often than the rest:
# every float sum and product of the checks below is exact on such data.
DYADIC = st.one_of(st.just(Fraction(0)), st.integers(-12, 12).map(lambda k: Fraction(k, 4)))


def as_float_multipliers(message: str) -> str:
    """An exact message with its multipliers printed as the float check
    prints them: "(1/2)" becomes "(0.5)", "y=-3" becomes "y=-3.0"."""
    return re.sub(r"(y=|\()(-?\d+(?:/\d+)?)(?=[,)])",
                  lambda m: m[1] + str(float(Fraction(m[2]))), message)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_float_and_exact_checks_agree_on_dyadic_programs(data):
    # A random program and a tampered certificate, checked at zero tolerance
    # in both arithmetics: the same conditions fail, in the same order.
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    dyadic = lambda count: [data.draw(DYADIC) for _ in range(count)]
    rows = [(dict(enumerate(dyadic(n))), data.draw(st.sampled_from(["<=", ">=", "="])),
             data.draw(DYADIC)) for _ in range(m)]
    bounds = [(lo, lo + Fraction(data.draw(st.integers(0, 8)), 4)) for lo in dyadic(n)]
    objective, x, y, nu, mu = dyadic(n), dyadic(n), dyadic(m), dyadic(n), dyadic(n)
    value = data.draw(DYADIC)

    def violations(arithmetic):
        lift = Fraction if arithmetic == EXACT else float
        lp = make_lp(bounds, rows, objective, arithmetic)
        raw = RawOptimum(x=tuple(map(lift, x)), objective=lift(value),
                         row_duals=tuple(map(lift, y)), lower_duals=tuple(map(lift, nu)),
                         upper_duals=tuple(map(lift, mu)), iterations=0, phase1_iterations=0)
        return certificate_verdict(lp, raw, 0.0).violations

    assert violations(FLOAT) == tuple(map(as_float_multipliers, violations(EXACT)))


@pytest.mark.parametrize("sense", ["=<", "<", "=="])
def test_unknown_row_sense_is_rejected(sense):
    # max -x - y s.t. x + y (sense) 4 on [0, 5]^2: an unknown sense used to
    # be read as an equality, and the solve returned -4 instead of 0.
    with pytest.raises(ValueError, match="unknown row sense"):
        make_lp([(0, 5), (0, 5)], [({0: 1, 1: 1}, sense, 4)], [-1, -1])


@pytest.mark.parametrize(
    "name", ["row_labels", "senses", "rhs", "var_labels", "var_bounds", "objective"]
)
def test_length_disagreeing_with_the_matrix_is_rejected(name):
    # A short objective used to end in a numpy broadcast error, a short
    # bound list in an IndexError inside the simplex.
    lp = make_lp([(0, 1), (0, 1)], [({0: 1}, "<=", 1), ({1: 1}, ">=", 0)], [1, 1])
    with pytest.raises(ValueError, match=f"{name} has 1 entries, A has shape 2 x 2"):
        replace(lp, **{name: getattr(lp, name)[:1]})


def test_program_matrix_is_read_only_and_programs_compare_by_identity():
    lp = make_lp([(0, 1)], [({0: 1}, "<=", 1)], [1])
    with pytest.raises(ValueError, match="read-only"):
        lp.A[0, 0] = 2.0
    group = FiniteAbelianGroup((8,))
    spec = ProblemSpec.turan(group, SymmetricSet.from_signed(group, [-1, 0, 1]))
    sol = solve(spec)
    twin = replace(sol, lp=build_primal(spec))
    assert sol.lp != twin.lp and sol.lp == sol.lp
    assert sol != twin  # compares field by field without raising


@pytest.mark.parametrize("rhs", [1, 0.5], ids=["bound-flip", "pivot"])
def test_endless_phase_hits_the_iteration_limit(monkeypatch, rhs):
    # Pricing that always offers column 1 never ends the phase: against
    # x1 <= 1 each step flips x1 between its bounds, and against x1 <= 0.5
    # x1 pivots in and then pivots on its own row.  One row, two
    # structural columns and one slack give the limit.
    import delsarte.solver as solver

    calls = []

    def endless(rc, allowed, eps):
        calls.append(1)
        return 1

    monkeypatch.setattr(solver, "price_dantzig", endless)
    lp = make_lp([(0, 1), (0, 1)], [({1: 1}, "<=", rhs)], [1, 1])
    with pytest.raises(SimplexError, match="iteration limit exceeded"):
        simplex_solve(lp)
    assert len(calls) == solver.PIVOTS_PER_COLUMN * (1 + 3) + 1


def test_torus_scale_battery_against_reference():
    for n_grid in (48, 96, 128):
        torus = TorusSpec(Fraction(8), n_grid)
        for literal, mode in (
            ("[-1,1]", "turan"),
            ("(-1,1)", "delsarte"),
            ("(-2,-1)u(-1,1)u(1,2)", "turan"),
        ):
            sol, _ = solve_discretized(
                parse_real_set(literal), "SAME", torus, mode
            )
            assert sol.certificate_verdict.ok, (n_grid, literal, mode)
            assert scipy_value(sol.lp) == pytest.approx(
                sol.value / float(torus.step), abs=1e-6
            ), (n_grid, literal, mode)


def test_general_mode_with_disjoint_sets_battery():
    rng = random.Random(1618)
    from _generators import random_group, random_symmetric_set

    for _ in range(15):
        group = random_group(rng, 40)
        plus = random_symmetric_set(group, rng, 0.4, ensure_zero=True)
        minus = random_symmetric_set(group, rng, 0.3)
        spec = ProblemSpec.general(group, plus, minus)
        sol = solve(spec)
        assert sol.certificate_verdict.ok
        assert scipy_value(sol.lp) == pytest.approx(
            sol.value / float(group.weight), abs=1e-7
        )


# -- selection rules against plain-loop references ---------------------------
#
# The references are plain per-index loops; the numpy rules must pick
# exactly the same index, including on exact ties.

PIVOT_TOL, HARRIS_SLACK, TINY = 1e-9, 1e-9, 1e-11

# Few distinct magnitudes so exact ratio ties are common; zeros, entries
# between TINY and PIVOT_TOL and the thresholds themselves exercise the
# fallbacks.  A right-hand side of 1e8 absorbs the Harris slack, so its
# true ratio equals the relaxed bound.
ENTRIES = st.sampled_from(
    [0.0, -0.0, 1.0, 2.0, 0.5, 4.0, -1.0, -2.0, -0.5, 1e-9, -1e-9, 5e-10,
     1e-10, -5e-10, 2e-12, 0.25]
)
RHS = st.sampled_from([0.0, 1.0, 2.0, 0.5, 3.0, 1e-10, 4.0, 1e8])
# Columns with no entry above PIVOT_TOL, which only the fallbacks can pivot on.
SMALL_ENTRIES = st.sampled_from([0.0, -1.0, 1e-9, 5e-10, 1e-10, 2e-12])


def ref_price_dantzig(rc, allowed, eps):
    enter, best = -1, -eps
    for j in range(len(rc)):
        if allowed[j] and rc[j] < best:
            best, enter = rc[j], j
    return enter


def ref_price_bland(rc, labels, allowed):
    # Scan the columns in variable order; the first that prices out enters.
    for q in sorted(range(len(rc)), key=lambda q: labels[q]):
        if allowed[labels[q]] and rc[q] < 0:
            return q
    return -1


def ref_leave_harris(col, rhs):
    theta = None
    for i in range(len(col)):
        if col[i] > PIVOT_TOL:
            bound = (rhs[i] + HARRIS_SLACK) / col[i]
            if theta is None or bound < theta:
                theta = bound
    leave = -1
    if theta is None:
        biggest = TINY
        for i in range(len(col)):
            if col[i] > biggest:
                biggest, leave = col[i], i
        return leave
    biggest = 0.0
    for i in range(len(col)):
        a = col[i]
        if a > PIVOT_TOL and rhs[i] / a <= theta and a > biggest:
            biggest, leave = a, i
    return leave


def ref_leave_bland(col, rhs, basis, tols):
    for tol in tols:
        leave, best = -1, None
        for i in range(len(col)):
            if col[i] > tol:
                ratio = rhs[i] / col[i]
                if best is None or ratio < best:
                    best, leave = ratio, i
                elif ratio == best and basis[i] < basis[leave]:
                    leave = i
        if leave >= 0:
            return leave
    return -1


def ref_polish_row(rhs, floor):
    leave, worst = -1, floor
    for i in range(len(rhs)):
        if rhs[i] < worst:
            worst, leave = rhs[i], i
    return leave


def ref_polish_col(row, rc, allowed):
    enter, best = -1, None
    for j in range(len(row)):
        a = row[j]
        if allowed[j] and a < -PIVOT_TOL:
            ratio = rc[j] / (-a)
            if best is None or ratio < best or (
                ratio == best and abs(a) > abs(row[enter])
            ):
                best, enter = ratio, j
    return enter


def vectors(draw, *elements):
    # Equal-length vectors, repeated whole half the time so that every
    # candidate has an identical twin and only the first-index rule decides.
    n = draw(st.integers(1, 8))
    reps = draw(st.integers(1, 2))
    return [np.tile(draw(st.lists(e, min_size=n, max_size=n)), reps) for e in elements]


@st.composite
def column_with_rhs(draw):
    col, rhs = vectors(draw, draw(st.sampled_from([ENTRIES, SMALL_ENTRIES])), RHS)
    basis = np.array(draw(st.permutations(range(3 * col.size)))[: col.size], dtype=np.intp)
    return col, rhs, basis


@st.composite
def priced_row(draw):
    rc_values = st.sampled_from([0.0, -0.0, -1.0, -2.0, 1.0, -5e-9, -1e-10, 0.5])
    return vectors(draw, rc_values, ENTRIES, st.booleans())


@settings(max_examples=300, deadline=None)
@given(priced_row(), st.data())
def test_pricing_rules_match_loops(data, draw):
    rc, _, allowed = data
    for eps in (1e-9, 0.0):
        assert price_dantzig(rc, allowed, eps) == ref_price_dantzig(rc, allowed, eps)
    # Bland's rule prices the exact path's condensed columns: integer
    # numerators over a positive denominator, each slot labelled by its
    # variable, with ``allowed`` indexed by label.
    labels = draw.draw(st.permutations(range(3 * rc.size)))[: rc.size]
    by_label = draw.draw(st.lists(st.booleans(), min_size=3 * rc.size,
                                  max_size=3 * rc.size))
    exact = [Fraction(v) for v in rc]
    den = math.lcm(*(v.denominator for v in exact))
    numerators = [int(v * den) for v in exact]
    expected = ref_price_bland(exact, labels, by_label)
    assert price_bland(numerators, labels, by_label) == expected
    assert price_bland(exact, labels, by_label) == expected


@settings(max_examples=300, deadline=None)
@given(column_with_rhs())
def test_ratio_tests_match_loops(data):
    col, rhs, _ = data
    assert leave_harris(col, rhs, PIVOT_TOL, HARRIS_SLACK, TINY) == ref_leave_harris(
        col, rhs
    )


def ref_leave_bounded(col, rhs, upper, bound):
    # Rows whose basic variable rises to a finite upper bound enter the
    # Harris loop as positive entries over the distance left.
    rises = [a < 0 and u < math.inf for a, u in zip(col, upper)]
    a = [-x if r else x for x, r in zip(col, rises)]
    b = [u - x if r else x for x, u, r in zip(rhs, upper, rises)]
    leave = ref_leave_harris(a, b)
    if leave < 0 or bound <= b[leave] / a[leave]:
        return -1, False
    return leave, rises[leave]


@settings(max_examples=300, deadline=None)
@given(column_with_rhs(), st.data())
def test_bounded_ratio_test_matches_loop(data, draw):
    col, rhs, _ = data
    upper = np.array(
        draw.draw(st.lists(st.sampled_from([math.inf, 1.0, 3.0, 4.0]),
                           min_size=col.size, max_size=col.size))
    )
    bound = draw.draw(st.sampled_from([math.inf, 0.5, 1.0, 2.0]))
    assert leave_bounded(
        col, rhs, upper, bound, PIVOT_TOL, HARRIS_SLACK, TINY
    ) == ref_leave_bounded(col, rhs, upper, bound)


@settings(max_examples=200, deadline=None)
@given(column_with_rhs(), st.lists(st.integers(1, 3), min_size=16, max_size=16))
def test_exact_bland_rule_matches_loop(data, scales):
    col, rhs, basis = data
    col, rhs, basis = [Fraction(v) for v in col], [Fraction(v) for v in rhs], basis.tolist()
    expected = ref_leave_bland(col, rhs, basis, (Fraction(0),))
    assert leave_bland(col, rhs, basis) == expected
    # The same rows as the exact path holds them: integer numerators over
    # positive row denominators, which the ratios must cancel.
    dens = [k * math.lcm(a.denominator, b.denominator) for k, a, b in zip(scales, col, rhs)]
    num_col = [int(a * d) for a, d in zip(col, dens)]
    num_rhs = [int(b * d) for b, d in zip(rhs, dens)]
    assert leave_bland(num_col, num_rhs, basis) == expected


def test_exact_bland_ratios_are_not_rounded():
    # 2**53 + 1 and 2**53 are the same float64; the smaller ratio must win.
    assert leave_bland([1, 1], [2**53 + 1, 2**53], [0, 1]) == 1


@settings(max_examples=300, deadline=None)
@given(priced_row(), st.lists(RHS | ENTRIES | st.just(-1e-11), min_size=1, max_size=12))
def test_dual_polish_rules_match_loops(data, rhs):
    rc, row, allowed = data
    rhs = np.array(rhs)
    assert polish_row(rhs, -1e-11) == ref_polish_row(rhs, -1e-11)
    assert polish_col(row, rc, allowed, PIVOT_TOL) == ref_polish_col(row, rc, allowed)


@pytest.mark.parametrize(
    "mode, formulation, iterations, phase1",
    [
        ("delsarte", "primal", 746, 278),
        ("turan", "fourier", 118, 64),
        ("delsarte", "fourier", 82, 13),
    ],
    ids=["delsarte-primal", "turan-fourier", "delsarte-fourier"],
)
def test_pivot_sequence_is_pinned(mode, formulation, iterations, phase1):
    # [-1,1] on torus 8, N = 128.  Any change to a selection rule or to
    # the pivot arithmetic moves these counts.
    dp = sample_set(parse_real_set("[-1,1]"), TorusSpec(Fraction(8), 128))
    plus = SymmetricSet.from_signed(dp.group, dp.signed_members)
    build = ProblemSpec.turan if mode == "turan" else ProblemSpec.delsarte
    sol = solve(build(dp.group, plus), formulation)
    assert sol.certificate_verdict.ok
    assert (sol.stats.iterations, sol.stats.phase1_iterations) == (iterations, phase1)


@pytest.mark.parametrize(
    "grid, mode, formulation, iterations, phase1",
    [
        (512, "turan", "primal", 261, 144),
        (256, "turan", "fourier", 252, 133),
        (256, "delsarte", "fourier", 207, 48),
        (1024, "turan", "primal", 563, 339),
    ],
    ids=["turan-primal-512", "turan-fourier-256", "delsarte-fourier-256",
         "turan-primal-1024"],
)
def test_large_grid_pivot_counts_are_pinned(grid, mode, formulation, iterations, phase1):
    # [-1,1] on torus 8.  Columns move between tableau positions as they
    # enter and leave the basis, so these counts guard the rule that every
    # tie goes to the lowest variable index at sizes where ties are common.
    dp = sample_set(parse_real_set("[-1,1]"), TorusSpec(Fraction(8), grid))
    plus = SymmetricSet.from_signed(dp.group, dp.signed_members)
    build = ProblemSpec.turan if mode == "turan" else ProblemSpec.delsarte
    sol = solve(build(dp.group, plus), formulation)
    assert sol.certificate_verdict.ok
    assert (sol.stats.iterations, sol.stats.phase1_iterations) == (iterations, phase1)


@pytest.mark.parametrize("formulation", ["primal", "fourier"])
@pytest.mark.parametrize("mode", ["turan", "delsarte"])
@pytest.mark.parametrize("grid", [128, 256, 512])
def test_interior_variables_have_zero_bound_multipliers(grid, mode, formulation):
    # A variable strictly inside its bounds is basic, and a basic
    # variable's reduced cost is 0, not the residue of a refactorization.
    dp = sample_set(parse_real_set("[-1,1]"), TorusSpec(Fraction(8), grid))
    plus = SymmetricSet.from_signed(dp.group, dp.signed_members)
    build = ProblemSpec.turan if mode == "turan" else ProblemSpec.delsarte
    sol = solve(build(dp.group, plus), formulation)
    cert = sol.dual_certificate
    interior = [
        j for j, (x, (lo, hi)) in enumerate(zip(sol.var_values, sol.lp.var_bounds))
        if lo < x < hi
    ]
    assert interior
    assert [(cert.lower_bounds[j], cert.upper_bounds[j]) for j in interior] == [
        (0.0, 0.0)
    ] * len(interior)


# -- the exact path, pinned ---------------------------------------------------
#
# Values, pivot counts, row multipliers and bound multipliers of three exact
# programs.  Bland's rule on exact data admits one pivot sequence, so a
# change to the exact tableau arithmetic or to the rules moves these.  The
# primal rows are the spectral rows alone; the multipliers of f(0) = 1 and
# of the sign conditions are those of the variable bounds.

GRID32_DEN = "272731358340920502802657740031018725777109034728816774886560709"


def z32_delsarte():
    group = FiniteAbelianGroup((32,))
    plus = SymmetricSet.from_signed(group, range(-3, 4))
    return ProblemSpec.delsarte(group, plus, arithmetic=EXACT)


def grid32_turan():
    dp = sample_set(parse_real_set("[-1,1]"), TorusSpec(Fraction(8), 32))
    plus = SymmetricSet.from_signed(dp.group, dp.signed_members)
    return ProblemSpec.turan(dp.group, plus, arithmetic=EXACT)


def z6xz6_reduction():
    # Criterion-6 style: the plus set lies in the subgroup generated by (1, 2).
    group = FiniteAbelianGroup((6, 6))
    plus = SymmetricSet.from_indices(group, {0, 16, 26})
    minus = SymmetricSet.from_indices(group, {1, 5, 7, 14, 28, 35})
    return ProblemSpec.general(group, plus, minus, arithmetic=EXACT)


@pytest.mark.parametrize(
    "build, value, counts, rows, duals, upper",
    [
        (z32_delsarte, "4", (20, 18), 17, {8: "-2", 16: "-1"},
         {0: "4", 4: "8", 8: "8", 12: "8", 16: "4"}),
        (grid32_turan,
         "1385895015227995076499288930506197655067433158737389153247138757"
         "/1090925433363682011210630960124074903108436138915267099546242836",
         (13, 7), 17,
         {6: f"-345086093385347776919082254713364466113612242616463820738002944/{GRID32_DEN}",
          7: f"-214283653242527437119816103720252149174042104920780996211638272/{GRID32_DEN}",
          12: f"-111512835477582670650041570344071494223458533706433908065697792/{GRID32_DEN}",
          13: f"-442281074781616689007691261697490819779211242764893653345239040/{GRID32_DEN}"},
         {0: f"1385895015227995076499288930506197655067433158737389153247138757/{GRID32_DEN}"}),
        (z6xz6_reduction, "3", (18, 13), 20, {1: "-2"}, {0: "3", 1: "4", 2: "4"}),
    ],
    ids=["z32-delsarte", "grid32-turan", "z6xz6-reduction"],
)
def test_exact_path_is_pinned(build, value, counts, rows, duals, upper):
    sol = solve(build())
    assert verify_certificate(sol, tol=0.0).ok
    assert sol.value_exact == Fraction(value)
    assert (sol.stats.iterations, sol.stats.phase1_iterations) == counts
    cert = sol.dual_certificate
    expected = tuple(Fraction(duals.get(i, 0)) for i in range(rows))
    assert tuple(y for _, y in cert.rows) == expected
    nv = sol.lp.num_vars
    assert cert.upper_bounds == tuple(Fraction(upper.get(j, 0)) for j in range(nv))
    assert cert.lower_bounds == (Fraction(0),) * nv


@st.composite
def small_exact_program(draw):
    """An exact program with rows through a point of its box, so it is
    feasible: <=, >= and = rows, right sides of either sign after the
    shift by the lower bounds, and many rows tight at that point, which
    gives exact ratio ties."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    halves = st.integers(-4, 4).map(lambda k: Fraction(k, 2))
    bounds = []
    for _ in range(n):
        lo = draw(halves)
        bounds.append((lo, lo + draw(st.sampled_from([0, 1, 2, Fraction(1, 2), 3]))))
    point = [draw(st.sampled_from([lo, hi, (lo + hi) / 2])) for lo, hi in bounds]
    rows = []
    for _ in range(m):
        coeffs = {j: draw(st.integers(-2, 2)) for j in range(n)}
        sense = draw(st.sampled_from(["<=", ">=", "="]))
        activity = sum(a * x for a, x in zip(coeffs.values(), point))
        slack = 0 if sense == "=" else draw(st.sampled_from([0, 0, 1, Fraction(1, 2)]))
        rows.append((coeffs, sense, activity + slack if sense == "<=" else activity - slack))
    objective = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return make_lp(bounds, rows, objective, EXACT)


@settings(max_examples=200, deadline=None)
@given(small_exact_program())
def test_exact_simplex_matches_textbook_bland(lp):
    raw = simplex_solve(lp)
    ref = reference_bland(lp)
    assert (raw.iterations, raw.phase1_iterations) == (
        ref["iterations"], ref["phase1_iterations"])
    assert raw.x == ref["x"]
    assert raw.row_duals == ref["row_duals"]
    assert (raw.lower_duals, raw.upper_duals) == (ref["lower_duals"], ref["upper_duals"])
