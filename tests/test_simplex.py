"""Direct contract tests for the simplex engine on handmade programs."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delsarte.classes import SymmetricSet
from delsarte.discretize import TorusSpec, sample_set
from delsarte.groups import FiniteAbelianGroup
from delsarte.realsets import parse_real_set
from delsarte.solver import (
    EXACT,
    FLOAT,
    DualCertificate,
    LinearProgram,
    LPRow,
    ProblemSpec,
    SimplexError,
    Solution,
    SolveStats,
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
    lift = Fraction if arithmetic == EXACT else float
    return LinearProgram(
        var_labels=tuple(range(len(var_bounds))),
        var_bounds=tuple((lift(lo), lift(hi)) for lo, hi in var_bounds),
        rows=tuple(
            LPRow(
                ("row", k),
                tuple((j, lift(a)) for j, a in coeffs.items()),
                sense,
                lift(rhs),
            )
            for k, (coeffs, sense, rhs) in enumerate(rows)
        ),
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

    n = lp.num_vars
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row in lp.rows:
        dense = [0.0] * n
        for j, a in row.coeffs:
            dense[j] = float(a)
        if row.sense == "<=":
            a_ub.append(dense)
            b_ub.append(float(row.rhs))
        elif row.sense == ">=":
            a_ub.append([-v for v in dense])
            b_ub.append(-float(row.rhs))
        else:
            a_eq.append(dense)
            b_eq.append(float(row.rhs))
    return linprog(
        c=[-float(c) for c in lp.objective],
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
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
    default tolerance to the duality-gap check."""
    group = FiniteAbelianGroup((2,))
    spec = ProblemSpec.turan(group, SymmetricSet.from_indices(group, {0}))
    sol = Solution(
        spec=spec, status="optimal", value=float(raw.objective), value_exact=None,
        extremal_function=None, extremal_values_exact=None,
        dual_certificate=DualCertificate(
            rows=tuple((r.label, y) for r, y in zip(lp.rows, raw.row_duals)),
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


def ref_price_bland(rc, allowed, eps):
    for j in range(len(rc)):
        if allowed[j] and rc[j] < -eps:
            return j
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
@given(priced_row())
def test_pricing_rules_match_loops(data):
    rc, _, allowed = data
    for eps in (1e-9, 0.0):
        assert price_dantzig(rc, allowed, eps) == ref_price_dantzig(rc, allowed, eps)
        assert price_bland(rc, allowed, eps) == ref_price_bland(rc, allowed, eps)
    # The exact path prices integer numerators over a positive denominator.
    exact = [Fraction(v) for v in rc]
    den = math.lcm(*(v.denominator for v in exact))
    numerators = np.array([int(v * den) for v in exact], dtype=object)
    assert price_bland(numerators, allowed, 0) == ref_price_bland(exact, allowed, 0)


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
    lift = np.vectorize(Fraction, otypes=[object])
    col, rhs = lift(col), lift(rhs)
    expected = ref_leave_bland(col, rhs, basis, (Fraction(0),))
    assert leave_bland(col, rhs, basis) == expected
    # The same rows as the exact path holds them: integer numerators over
    # positive row denominators, which the ratios must cancel.
    dens = [k * math.lcm(a.denominator, b.denominator) for k, a, b in zip(scales, col, rhs)]
    num_col = np.array([int(a * d) for a, d in zip(col, dens)], dtype=object)
    num_rhs = np.array([int(b * d) for b, d in zip(rhs, dens)], dtype=object)
    assert leave_bland(num_col, num_rhs, basis) == expected


def test_exact_bland_ratios_are_not_rounded():
    # 2**53 + 1 and 2**53 are the same float64; the smaller ratio must win.
    col = np.array([1, 1], dtype=object)
    rhs = np.array([2**53 + 1, 2**53], dtype=object)
    assert leave_bland(col, rhs, np.array([0, 1], dtype=np.intp)) == 1


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
