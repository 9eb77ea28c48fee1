import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _generators import (
    direct_transform,
    nice_random_group,
    random_group,
    random_symmetric_set,
    scipy_reference_value,
)
from delsarte import solver
from delsarte.classes import SymmetricSet, in_class
from delsarte.discretize import TorusSpec, sample_set
from delsarte.groups import FiniteAbelianGroup
from delsarte.harmonic import dft
from delsarte.realsets import parse_real_set
from delsarte.reduction import SubgroupView
from delsarte.solver import (
    EXACT,
    FLOAT,
    ClassEmptyProblem,
    LinearProgram,
    ProblemSpec,
    SimplexError,
    _default_forms,
    build_fourier_form,
    build_primal,
    simplex_solve,
    solve,
    solve_discretized,
    sweep,
    verify_certificate,
)

Z8 = FiniteAbelianGroup((8,))
OMEGA_Z8 = SymmetricSet.from_signed(Z8, [-1, 0, 1])


def test_build_primal_orbit_and_row_counts():
    # The rows are the five spectral rows alone; f(0) = 1 and the sign
    # conditions are the variables' bounds.
    lp = build_primal(ProblemSpec.turan(Z8, OMEGA_Z8))
    assert lp.var_labels == (0, 1)  # orbits {0} and {1,7}
    assert lp.row_labels == tuple(("spectral", k) for k in range(5))
    assert lp.senses == (">=",) * 5 and lp.rhs == (0,) * 5
    assert lp.var_bounds == ((1, 1), (-1, 1))
    assert lp.A.shape == (5, lp.num_vars)
    # Orbit 1 only in Ω₊, orbit 2 only in Ω₋, orbits 3 and 4 in neither.
    spec = ProblemSpec.general(
        Z8, OMEGA_Z8, SymmetricSet.from_signed(Z8, [-2, 2]), arithmetic=EXACT
    )
    lp = build_primal(spec)
    assert lp.var_labels == (0, 1, 2)
    assert lp.var_bounds == ((1, 1), (0, 1), (-1, 0))
    assert lp.row_labels == tuple(("spectral", k) for k in range(5))


def test_build_primal_single_point():
    spec = ProblemSpec.general(
        Z8, SymmetricSet.from_signed(Z8, [0]), SymmetricSet.empty(Z8)
    )
    lp = build_primal(spec)
    assert lp.var_labels == (0,)
    assert lp.objective == (1.0,)
    assert lp.objective_scale == 1
    sol = solve(spec)
    assert sol.value == pytest.approx(1.0)
    assert np.allclose(sol.extremal_function.values, [1] + [0] * 7)


def test_build_primal_class_empty_short_circuit():
    omega = SymmetricSet.from_signed(Z8, [-1, 1])
    with pytest.raises(ClassEmptyProblem):
        build_primal(ProblemSpec.turan(Z8, omega))
    sol = solve(ProblemSpec.turan(Z8, omega))
    assert sol.status == "class_empty"
    assert sol.value == 0.0
    assert sol.stats.attempts == ()  # no form was solved
    assert verify_certificate(sol).ok  # vacuous


def test_mode_invariants_enforced():
    with pytest.raises(ValueError, match="turan"):
        ProblemSpec(Z8, OMEGA_Z8, SymmetricSet.full(Z8), mode="turan")
    with pytest.raises(ValueError, match="delsarte"):
        ProblemSpec(Z8, OMEGA_Z8, OMEGA_Z8, mode="delsarte")


def test_simplex_trivial_and_full_problems():
    spec = ProblemSpec.general(
        Z8, SymmetricSet.from_signed(Z8, [0]), SymmetricSet.empty(Z8)
    )
    raw = simplex_solve(build_primal(spec))
    assert float(raw.objective) == pytest.approx(1.0)

    full = SymmetricSet.full(Z8)
    sol = solve(ProblemSpec.general(Z8, full, full))
    assert sol.value == pytest.approx(8.0)
    sol_f = solve(ProblemSpec.general(Z8, full, full), formulation="fourier")
    assert sol_f.value == pytest.approx(8.0)


def test_solve_turan_z8_triangle():
    sol = solve(ProblemSpec.turan(Z8, OMEGA_Z8))
    assert sol.value == pytest.approx(2.0, abs=1e-10)
    assert np.allclose(
        sol.extremal_function.values, [1, 0.5, 0, 0, 0, 0, 0, 0.5], atol=1e-10
    )
    assert sol.class_verdict.member
    assert verify_certificate(sol).ok
    assert sol.gap <= 1e-9 * max(1.0, sol.value)


def test_solve_turan_z8_exact_mode():
    sol = solve(ProblemSpec.turan(Z8, OMEGA_Z8, arithmetic=EXACT))
    assert sol.value_exact == 2
    assert sol.extremal_values_exact == (
        Fraction(1), Fraction(1, 2), 0, 0, 0, 0, 0, Fraction(1, 2),
    )
    assert verify_certificate(sol).ok
    assert sol.gap == 0.0


def test_delsarte_dominates_turan():
    turan = solve(ProblemSpec.turan(Z8, OMEGA_Z8))
    delsarte = solve(ProblemSpec.delsarte(Z8, OMEGA_Z8))
    assert delsarte.value >= 2.0 - 1e-10
    assert delsarte.value >= turan.value - 1e-10
    assert verify_certificate(delsarte).ok


def test_fourier_form_matches_primal_z12():
    g = FiniteAbelianGroup((12,))
    omega = SymmetricSet.from_signed(g, [-2, -1, 0, 1, 2])
    spec = ProblemSpec.turan(g, omega)
    a = solve(spec, formulation="primal")
    b = solve(spec, formulation="fourier")
    assert a.value == pytest.approx(3.0, abs=1e-9)
    assert abs(a.value - b.value) <= 1e-8 * max(1.0, abs(a.value))
    assert verify_certificate(b).ok


def test_fourier_single_point_value():
    spec = ProblemSpec.general(
        Z8, SymmetricSet.from_signed(Z8, [0]), SymmetricSet.empty(Z8)
    )
    sol = solve(spec, formulation="fourier")
    assert sol.value == pytest.approx(1.0, abs=1e-9)


def test_certificate_tamper_detection():
    sol = solve(ProblemSpec.turan(Z8, OMEGA_Z8))
    cert = sol.dual_certificate
    tampered_rows = []
    touched = None
    for label, y in cert.rows:
        if touched is None and label[0] == "spectral" and abs(float(y)) > 1e-6:
            tampered_rows.append((label, y * 2))
            touched = label
        else:
            tampered_rows.append((label, y))
    assert touched is not None
    from dataclasses import replace

    bad = replace(sol, dual_certificate=replace(cert, rows=tuple(tampered_rows)))
    verdict = verify_certificate(bad)
    assert not verdict.ok
    assert verdict.violations  # named rows/variables for the broken conditions
    assert any("stationarity" in v or "duality gap" in v for v in verdict.violations)


@pytest.mark.parametrize(
    "excess", [Fraction(1, 10**400), Fraction(1, 10**20), Fraction(1, 10**12)],
    ids=["1e-400", "1e-20", "1e-12"],
)
def test_zero_tolerance_exact_check_sees_any_excess(excess):
    # f(0) = 1 + excess breaks the bound f(0) <= 1 by less than a float can
    # show next to 1; an exact check at zero tolerance must still see it,
    # and likewise a value that exceeds the dual objective by ``excess``.
    sol = solve(ProblemSpec.turan(Z8, OMEGA_Z8, arithmetic=EXACT))
    assert verify_certificate(sol, tol=0.0).ok
    assert sol.lp.var_labels[0] == 0 and sol.var_values[0] == 1
    values = (sol.var_values[0] + excess, *sol.var_values[1:])
    verdict = verify_certificate(replace(sol, var_values=values), tol=0.0)
    assert not verdict.ok
    assert "variable[0]: above upper bound" in verdict.violations
    verdict = verify_certificate(replace(sol, value_exact=sol.value_exact + excess), tol=0.0)
    assert not verdict.ok
    assert any(v.startswith("duality gap") for v in verdict.violations)


def test_exact_solution_without_exact_value_fails():
    # Z5's exact value is not dyadic, so a check against its rounded float
    # would see a gap; without ``value_exact`` there is no exact value to
    # check, and the certificate is missing data.
    group = FiniteAbelianGroup((5,))
    sol = solve(ProblemSpec.turan(group, SymmetricSet.from_signed(group, [-1, 0, 1]),
                                  arithmetic=EXACT))
    assert verify_certificate(sol, tol=0.0).ok
    assert Fraction(sol.value) != sol.value_exact
    verdict = verify_certificate(replace(sol, value_exact=None))
    assert (verdict.ok, verdict.violations) == (False, ("missing certificate data",))


def test_solution_function_invariants():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.choice([5, 6, 8, 9, 12])
        group = FiniteAbelianGroup((n,), Fraction(rng.randint(1, 3), rng.randint(1, 3)))
        indices = {0}
        for i in range(1, n):
            if rng.random() < 0.6:
                indices |= {i, group.neg_index(i)}
        omega_p = SymmetricSet.from_indices(group, indices)
        minus_indices = {
            i for i in range(n) if rng.random() < 0.5
        }
        omega_m = SymmetricSet.from_indices(
            group, {0} | minus_indices | {group.neg_index(i) for i in minus_indices}
        )
        sol = solve(ProblemSpec.general(group, omega_p, omega_m))
        f = sol.extremal_function
        assert f(0) == pytest.approx(1.0, abs=1e-9)
        assert f.is_even(1e-12)
        assert dft(f).min_real >= -1e-9 * group.size
        assert sol.class_verdict.member
        assert verify_certificate(sol).ok
        # packing-style upper bounds
        h = float(group.weight)
        assert sol.value <= h * len(omega_p) + 1e-9
        assert sol.value <= h * group.size + 1e-9


def test_value_matches_integral_of_extremal():
    sol = solve(ProblemSpec.turan(Z8, OMEGA_Z8))
    assert sol.value == pytest.approx(sol.extremal_function.integral(), abs=1e-10)


def test_scipy_oracle_battery():
    rng = random.Random(11)
    checked = 0
    for _ in range(30):
        shape = rng.choice([(6,), (8,), (9,), (12,), (4, 3), (2, 8), (3, 5)])
        group = FiniteAbelianGroup(shape)
        n = group.size
        indices = {0}
        for i in range(1, n):
            if rng.random() < 0.5:
                indices |= {i, group.neg_index(i)}
        omega_p = SymmetricSet.from_indices(group, indices)
        mode = rng.choice(["turan", "delsarte", "general"])
        if mode == "turan":
            spec = ProblemSpec.turan(group, omega_p)
        elif mode == "delsarte":
            spec = ProblemSpec.delsarte(group, omega_p)
        else:
            m_indices = set()
            for i in range(n):
                if rng.random() < 0.5:
                    m_indices |= {i, group.neg_index(i)}
            spec = ProblemSpec.general(
                group, omega_p, SymmetricSet.from_indices(group, m_indices)
            )
        mine = solve(spec)
        reference = scipy_reference_value(spec)
        assert mine.value == pytest.approx(reference, abs=1e-7), (shape, mode)
        checked += 1
    assert checked == 30


def test_haar_scaling_linearity():
    for shape, members in [((8,), [-1, 0, 1]), ((12,), [-2, -1, 0, 1, 2])]:
        base = FiniteAbelianGroup(shape)
        weighted = FiniteAbelianGroup(shape, Fraction(3, 7))
        v1 = solve(
            ProblemSpec.turan(base, SymmetricSet.from_signed(base, members))
        ).value
        vh = solve(
            ProblemSpec.turan(weighted, SymmetricSet.from_signed(weighted, members))
        ).value
        assert abs(vh - float(Fraction(3, 7)) * v1) <= 1e-12 * max(1.0, abs(vh))


def test_omega_monotonicity_exact():
    group = FiniteAbelianGroup((10,))
    small = SymmetricSet.from_signed(group, [-1, 0, 1])
    large = SymmetricSet.from_signed(group, [-2, -1, 0, 1, 2])
    v_small = solve(ProblemSpec.turan(group, small, arithmetic=EXACT)).value_exact
    v_large = solve(ProblemSpec.turan(group, large, arithmetic=EXACT)).value_exact
    assert v_small <= v_large
    # growing the minus set only can only help
    v_gen = solve(
        ProblemSpec.general(group, small, large, arithmetic=EXACT)
    ).value_exact
    assert v_small <= v_gen <= solve(
        ProblemSpec.delsarte(group, small, arithmetic=EXACT)
    ).value_exact


def test_automorphism_equivariance():
    group = FiniteAbelianGroup((16,))
    omega = SymmetricSet.from_signed(group, [-2, -1, 0, 1, 2])
    spec = ProblemSpec.turan(group, omega)
    sol = solve(spec)
    for r in (3, 5, 7):
        auto = group.scaling_map(r)
        omega_r = omega.map(auto.apply_index)
        spec_r = ProblemSpec.turan(group, omega_r)
        sol_r = solve(spec_r)
        assert abs(sol.value - sol_r.value) <= 1e-10 * max(1.0, abs(sol.value))
        # the pushed-forward extremal function is extremal for the mapped set
        inverse = group.scaling_map(pow(r, -1, 16))
        pushed_values = [sol.extremal_function(inverse.apply_index(i)) for i in range(16)]
        from delsarte.harmonic import GroupFunction

        pushed = GroupFunction(group, pushed_values)
        assert in_class(pushed, spec_r.class_spec(), tol=1e-9).member
        assert pushed.integral() == pytest.approx(sol_r.value, abs=1e-9)


def test_exact_and_float_mode_agree():
    rng = random.Random(13)
    for _ in range(10):
        n = rng.choice([6, 8, 9, 12])
        group = FiniteAbelianGroup((n,))
        indices = {0}
        for i in range(1, n):
            if rng.random() < 0.5:
                indices |= {i, group.neg_index(i)}
        omega = SymmetricSet.from_indices(group, indices)
        spec_f = ProblemSpec.turan(group, omega)
        spec_e = ProblemSpec.turan(group, omega, arithmetic=EXACT)
        vf = solve(spec_f).value
        ve = solve(spec_e).value_exact
        assert isinstance(ve, Fraction)
        assert abs(vf - float(ve)) <= 1e-9 * max(1.0, abs(vf))


def test_sweep_interval_values_and_warning_column():
    s = parse_real_set("[-1,1]")
    table = sweep(s, "SAME", 8, [32, 64], mode="turan")
    assert [r.grid for r in table.rows] == [32, 64]
    # frozen from the exact-rational LP, cross-checked against HiGHS
    assert table.rows[0].value == pytest.approx(1.2703847328545863, abs=1e-9)
    assert table.rows[1].value == pytest.approx(1.1326678421964939, abs=1e-9)
    assert all(r.warning is None for r in table.rows)
    assert all(r.value >= (8 / n + 1) - 1e-9 for r, n in zip(table.rows, (32, 64)))

    punct = parse_real_set("(-2,-1)u(-1,1)u(1,2)")
    table_p = sweep(punct, "SAME", 8, [32], mode="turan")
    assert table_p.rows[0].warning is not None


def test_sweep_sandwich_exact_at_puncture_grid():
    torus = TorusSpec(Fraction(8), 32)
    open_sol, _ = solve_discretized(
        parse_real_set("(-1,1)"), "SAME", torus, "turan", EXACT
    )
    punct_sol, warning = solve_discretized(
        parse_real_set("(-2,-1)u(-1,1)u(1,2)"), "SAME", torus, "turan", EXACT
    )
    closed_sol, _ = solve_discretized(
        parse_real_set("[-2,2]"), "SAME", torus, "turan", EXACT
    )
    assert warning is not None
    assert open_sol.value_exact == 1
    assert punct_sol.value_exact == 1  # recorded from the exact LP
    assert closed_sol.value_exact > 2
    assert open_sol.value_exact <= punct_sol.value_exact <= closed_sol.value_exact
    assert punct_sol.value_exact >= 1 - 3 * Fraction(1, 4)


@pytest.mark.parametrize(
    "mode, formulation, half",
    [
        ("turan", "fourier", "15/16"),
        ("turan", "fourier", "17/16"),
        ("turan", "fourier", "9/8"),
        ("delsarte", "primal", "9/8"),
    ],
)
def test_degenerate_torus_programs_solve(mode, formulation, half):
    # Torus 8, N = 256: highly degenerate programs with long runs of
    # zero-step pivots.  Each must end with a verified certificate at the
    # HiGHS value.
    dp = sample_set(parse_real_set(f"[-{half},{half}]"), TorusSpec(Fraction(8), 256))
    plus = SymmetricSet.from_signed(dp.group, dp.signed_members)
    build = ProblemSpec.turan if mode == "turan" else ProblemSpec.delsarte
    spec = build(dp.group, plus)
    sol = solve(spec, formulation)
    assert sol.certificate_verdict.ok
    assert sol.value == pytest.approx(scipy_reference_value(spec), rel=1e-8)


def test_bound_flips_are_counted_in_solve_stats():
    # With the whole of Z5 as the Turan set the Fourier form's optimum puts
    # fhat(0) at its bound |G|: phase 1 pivots once and phase 2 flips once.
    group = FiniteAbelianGroup((5,))
    sol = solve(ProblemSpec.turan(group, SymmetricSet.full(group)), "fourier")
    assert sol.certificate_verdict.ok and sol.value == 5.0
    assert (sol.stats.iterations, sol.stats.bound_flips) == (1, 1)
    assert sol.var_values[0] == 5.0 and sol.dual_certificate.upper_bounds[0] > 0


def test_lp_rows_reference_valid_variables_and_finite_bounds():
    for build in (build_primal, build_fourier_form):
        lp = build(ProblemSpec.turan(Z8, OMEGA_Z8))
        assert lp.A.shape == (len(lp.row_labels), lp.num_vars)
        assert np.isfinite(lp.A).all()
        for lo, hi in lp.var_bounds:
            assert math.isfinite(float(lo)) and math.isfinite(float(hi))


@pytest.mark.parametrize(
    "mode, formulation", [("delsarte", "primal"), ("turan", "primal")],
    ids=["delsarte-fourier", "turan-primal"],
)
def test_default_n1024_solves_in_fewer_rows_form(mode, formulation):
    # Torus 8, N = 1024, through the default form.  Delsarte's fewer-rows
    # form is its Fourier LP (385 rows against the primal form's 513
    # variables), but its Turan restriction (129 variables) prices every
    # other orbit out, so the default keeps that primal solution; a Turan
    # interval leaves most orbits outside the set, so it stays primal (129
    # variables against 385 Fourier rows).
    sol, warning = solve_discretized(
        parse_real_set("[-1,1]"), None, TorusSpec(Fraction(8), 1024), mode=mode
    )
    assert warning is None
    assert sol.formulation == formulation
    assert sol.certificate_verdict.ok
    assert sol.value == pytest.approx(scipy_reference_value(sol.spec), abs=1e-8)


def test_default_formulation_has_fewer_rows():
    # The default, checked against both builders: a float problem solves
    # the Fourier form when it has fewer rows than the primal form has
    # variables, ties going to primal (both forms have one row or variable
    # per character orbit, so this is the smaller tableau), unless its
    # Turan restriction gives a primal solution whose certificate holds;
    # an exact one always solves the primal form.
    z6 = FiniteAbelianGroup((6,))
    tie = ProblemSpec.general(z6, SymmetricSet.from_signed(z6, [-1, 0, 1]),
                              SymmetricSet.from_signed(z6, [-2, -1, 1, 2]))
    assert build_primal(tie).num_vars == len(build_fourier_form(tie).rhs) == 3
    assert solve(tie).formulation == "primal"
    rng = random.Random(1107)
    chosen = {"primal": 0, "fourier": 0}
    for i in range(60):
        group = random_group(rng, 48)
        omega_plus = random_symmetric_set(group, rng, 0.5, ensure_zero=True)
        mode = ("turan", "delsarte", "general")[i % 3]
        if mode == "turan":
            spec = ProblemSpec.turan(group, omega_plus)
        elif mode == "delsarte":
            spec = ProblemSpec.delsarte(group, omega_plus)
        else:
            spec = ProblemSpec.general(
                group, omega_plus, random_symmetric_set(group, rng, 0.3)
            )
        primal_vars = build_primal(spec).num_vars
        fourier_rows = len(build_fourier_form(spec).rhs)
        sol = solve(spec)
        expected = "fourier" if fourier_rows < primal_vars else "primal"
        if sol.formulation != expected:  # the restriction's solution, kept
            held = [sol.var_values[j] for j in held_orbits(sol.lp)]
            assert sol.formulation == "primal" and held and not any(held)
            assert len(sol.var_values) - len(held) < fourier_rows
        assert sol.certificate_verdict.ok
        chosen[expected] += 1
        if fourier_rows < primal_vars and group.size <= 12:
            exact = solve(replace(spec, arithmetic=EXACT))
            assert exact.formulation == "primal"
    assert min(chosen.values()) > 0, chosen


def orbit_counts(spec) -> tuple[int, int, int, int, int]:
    """The nonzero element orbits in both sign sets (a), in Ω₊ only (b), in
    Ω₋ only (c) and in neither (d), and the number E of all orbits."""
    group = spec.group
    plus, minus = spec.omega_plus.indices, spec.omega_minus.indices
    orbits = {frozenset((g, group.neg_index(g))) for g in range(1, group.size)}
    reps = [min(o) for o in orbits]
    a = sum(g in plus and g in minus for g in reps)
    b = sum(g in plus and g not in minus for g in reps)
    c = sum(g in minus and g not in plus for g in reps)
    return a, b, c, len(reps) - a - b - c, 1 + len(reps)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["turan", "delsarte", "general"]))
def test_auto_formulation_keeps_the_row_count_rule(seed, mode):
    # The rule the default used when the Fourier form wrote each zero orbit
    # as a <= / >= pair: Fourier when its 1 + b + c + 2d rows are fewer than
    # the primal form's E rows.  Both that rule and the current one reduce
    # to d < a, so every default form stays as it was.
    rng = random.Random(seed)
    group = random_group(rng, 64)
    plus = random_symmetric_set(group, rng, rng.random(), ensure_zero=True)
    if mode == "turan":
        spec = ProblemSpec.turan(group, plus)
    elif mode == "delsarte":
        spec = ProblemSpec.delsarte(group, plus)
    else:
        spec = ProblemSpec.general(group, plus, random_symmetric_set(group, rng, rng.random()))
    a, b, c, d, e = orbit_counts(spec)
    assert _default_forms(spec)[-1] == ("fourier" if 1 + b + c + 2 * d < e else "primal")
    # The whole tuple: the Turan restriction first when some orbit lies in
    # exactly one set and its 1 + a variables are fewer than the Fourier
    # form's 1 + b + c + d rows; an exact problem tries the same
    # restriction and falls back to the primal form.
    first = ("restricted",) if b + c > 0 and 1 + a < 1 + b + c + d else ()
    assert _default_forms(spec) == first + ("fourier" if d < a else "primal",)
    assert _default_forms(replace(spec, arithmetic=EXACT)) == first + ("primal",)


def held_orbits(lp) -> list[int]:
    """The primal form's variables with 0 as a bound: the orbits in one
    sign set only, which the Turan restriction holds at 0."""
    return [j for j, (lo, hi) in enumerate(lp.var_bounds) if lo == 0 or hi == 0]


def test_default_delsarte_keeps_the_turan_restriction():
    # [-1,1] on torus 8, N = 256: the Turan program on the 33 orbits of
    # the interval prices out all 96 others, so the default returns its
    # optimum as a solution of the full primal form.
    dp = sample_set(parse_real_set("[-1,1]"), TorusSpec(Fraction(8), 256))
    spec = ProblemSpec.delsarte(dp.group, SymmetricSet.from_signed(dp.group, dp.signed_members))
    sol = solve(spec)
    assert sol.formulation == "primal" and sol.stats.attempts == ("restricted",)
    assert sol.lp.var_labels == build_primal(spec).var_labels and sol.lp.num_vars == 129
    held = held_orbits(sol.lp)
    assert len(held) == 96 and not any(sol.var_values[j] for j in held)
    assert all(sol.dual_certificate.upper_bounds[j] > 0 for j in held)
    assert sol.certificate_verdict.ok
    assert sol.value == pytest.approx(solve(spec, "fourier").value, abs=1e-9)
    assert sol.value == pytest.approx(scipy_reference_value(spec), abs=1e-8)


def test_default_general_keeps_a_held_nonnegative_orbit():
    # Z12 with orbit 6 in Ω₊ only ([0, 1], held at its lower bound), orbit
    # 3 in Ω₋ only ([-1, 0]), orbits 4 and 5 in both: the restriction on
    # orbits 0, 4 and 5 prices orbit 6 out with a positive lower
    # multiplier.
    z12 = FiniteAbelianGroup((12,))
    spec = ProblemSpec.general(z12, SymmetricSet.from_signed(z12, [-5, -4, 0, 4, 5, 6]),
                               SymmetricSet.from_signed(z12, [-5, -4, -3, 3, 4, 5]))
    sol = solve(spec)
    assert sol.formulation == "primal" and sol.certificate_verdict.ok
    assert sol.lp.var_labels == (0, 3, 4, 5, 6)
    assert sol.lp.var_bounds[1] == (-1.0, 0.0) and sol.lp.var_bounds[4] == (0.0, 1.0)
    assert sol.var_values[1] == sol.var_values[4] == 0.0
    assert sol.dual_certificate.lower_bounds[4] == pytest.approx(0.1547005383792515)
    restricted = simplex_solve(build_primal(ProblemSpec.turan(
        z12, SymmetricSet.from_signed(z12, [-5, -4, 0, 4, 5]))))
    assert sol.stats.iterations == restricted.iterations
    for form in ("primal", "fourier"):
        assert sol.value == pytest.approx(solve(spec, form).value, abs=1e-9)
    assert sol.value == pytest.approx(scipy_reference_value(spec), abs=1e-8)


def test_default_falls_back_when_a_held_orbit_prices_in():
    # Delsarte on Z10 with Ω₊ = {0, ±4}: the Turan optimum leaves orbit 5
    # with reduced cost 2 - sqrt 5 < 0 at its upper bound 0, so the
    # candidate fails verification and the default solves the Fourier form
    # (d = 0 < a = 1), as it would without the restriction.
    z10 = FiniteAbelianGroup((10,))
    spec = ProblemSpec.delsarte(z10, SymmetricSet.from_signed(z10, [-4, 0, 4]))
    lp = build_primal(spec)
    y = simplex_solve(build_primal(ProblemSpec.turan(z10, spec.omega_plus))).row_duals
    assert lp.objective[5] - np.dot(y, lp.A[:, 5]) == pytest.approx(2 - math.sqrt(5))
    sol = solve(spec)
    fourier = solve(spec, "fourier")
    assert _default_forms(spec)[-1] == sol.formulation == "fourier"
    assert sol.stats.attempts == ("restricted", "fourier")
    assert fourier.stats.attempts == ("fourier",)
    assert sol.value == fourier.value and sol.var_values == fourier.var_values
    assert sol.stats.iterations == fourier.stats.iterations
    assert sol.certificate_verdict.ok
    assert sol.value == pytest.approx(solve(spec, "primal").value, abs=1e-9)


def test_default_falls_back_when_the_restriction_fails(monkeypatch):
    # A restriction whose simplex raises has no certificate: the default
    # solves the form it would solve without one.
    spec = ProblemSpec.delsarte(Z8, OMEGA_Z8)
    full = build_primal(spec).num_vars
    assert solve(spec).formulation == "primal"

    def stalls_when_restricted(lp):
        if lp.num_vars < full:
            raise SimplexError("iteration limit exceeded")
        return simplex_solve(lp)

    monkeypatch.setattr(solver, "simplex_solve", stalls_when_restricted)
    sol = solve(spec)
    assert sol.formulation == "fourier" and sol.certificate_verdict.ok
    assert sol.var_values == solve(spec, "fourier").var_values


def test_default_primal_fallback_builds_the_primal_form_once(monkeypatch):
    # General on Z5 with orbit 1 in Ω₊ only and orbit 2 in Ω₋ only: the
    # restriction keeps orbit 0 alone, a held orbit prices in, and the
    # default form is primal (d = a = 0), so the fallback solves the
    # primal form the restriction was sliced from.
    z5 = FiniteAbelianGroup((5,))
    spec = ProblemSpec.general(z5, SymmetricSet.from_signed(z5, [-1, 0, 1]),
                               SymmetricSet.from_signed(z5, [-2, 2]))
    assert solver._solve_restricted(build_primal(spec)) is None
    builds = []
    monkeypatch.setattr(solver, "build_primal", lambda s: builds.append(s) or build_primal(s))
    sol = solve(spec)
    assert builds == [spec]
    assert sol.formulation == _default_forms(spec)[-1] == "primal"
    assert sol.stats.attempts == ("restricted", "primal")
    assert sol.certificate_verdict.ok
    assert sol.var_values == solve(spec, "primal").var_values


def test_default_solves_the_primal_form_when_the_sets_differ_at_the_identity_alone(
        monkeypatch):
    # [-1,1] on torus 8, N = 64, with Ω₋ = Ω₊ minus the identity: no
    # nonzero orbit lies in exactly one set, so there is nothing to hold
    # at 0 and no restriction to try.  With d > a the default is the
    # primal form, solved once, as the explicit primal solve does.
    dp = sample_set(parse_real_set("[-1,1]"), TorusSpec(Fraction(8), 64))
    plus = SymmetricSet.from_signed(dp.group, dp.signed_members)
    spec = ProblemSpec.general(dp.group, plus,
                               SymmetricSet.from_indices(dp.group, set(plus.indices) - {0}))
    a, b, c, d, _ = orbit_counts(spec)
    assert b == c == 0 and 0 < a < d
    assert _default_forms(spec) == ("primal",)
    explicit = solve(spec, "primal")
    solved = []
    monkeypatch.setattr(solver, "simplex_solve", lambda lp: solved.append(lp) or simplex_solve(lp))
    sol = solve(spec)
    assert len(solved) == 1 and solved[0] is sol.lp
    assert sol.formulation == "primal" and sol.certificate_verdict.ok
    assert sol.stats.iterations == explicit.stats.iterations > 0
    assert sol.stats.phase1_iterations == explicit.stats.phase1_iterations
    assert sol.var_values == explicit.var_values


def test_default_prices_held_orbits_whatever_the_tolerance():
    # Delsarte on Z31 with Ω₊ = {0, ±2, ±3, ±5, ±11, ±13}: the Turan
    # optimum leaves a held orbit with multiplier -0.00216, and its value
    # is 1.8e-4 below the problem's.  A loose tolerance lets that
    # candidate pass verify_certificate, so the restriction is priced to
    # the simplex's own tolerance instead: the default falls back to the
    # Fourier form, and its value does not depend on the tolerance.
    z31 = FiniteAbelianGroup((31,))
    plus = SymmetricSet.from_signed(z31, [0, 2, -2, 3, -3, 5, -5, 11, -11, 13, -13])
    tight = ProblemSpec.delsarte(z31, plus)
    lp = build_primal(ProblemSpec.turan(z31, plus))
    turan = float(lp.objective_scale) * simplex_solve(lp).objective
    assert solve(tight, "fourier").value - turan == pytest.approx(1.8391e-4, rel=1e-3)
    for tol in (1e-9, 1e-3, 1e-2):
        spec = ProblemSpec.delsarte(z31, plus, tolerance=tol)
        sol, fourier = solve(spec), solve(spec, "fourier")
        assert sol.formulation == "fourier" and sol.certificate_verdict.ok
        assert sol.value == fourier.value
        assert sol.value == pytest.approx(solve(spec, "primal").value, abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["delsarte", "general"]))
def test_default_solve_equals_both_forms(seed, mode):
    # Whichever path the default takes, its value is both explicit forms'
    # with a verified certificate.  The restriction is priced here by its
    # own rule: the Turan program on Ω₊ ∩ Ω₋ plus orbit 0, solved alone,
    # and each held column's reduced cost summed over the full primal
    # form.  When every held orbit prices out by a margin, the default
    # must be that program's optimum; when one prices in, the default form.
    rng = random.Random(seed)
    group = random_group(rng, 48)
    plus = random_symmetric_set(group, rng, rng.random(), ensure_zero=True)
    if mode == "delsarte":
        spec = ProblemSpec.delsarte(group, plus)
    else:
        spec = ProblemSpec.general(group, plus, random_symmetric_set(group, rng, rng.random()))
    sol = solve(spec)
    assert sol.certificate_verdict.ok
    for form in ("primal", "fourier"):
        assert sol.value == pytest.approx(solve(spec, form).value, abs=1e-9), form
    a, b, c, d, _ = orbit_counts(spec)
    if not (b + c > 0 and 1 + a < 1 + b + c + d):
        assert sol.formulation == _default_forms(spec)[-1]
        return
    lp = build_primal(spec)
    both = SymmetricSet.from_indices(
        group, {0} | (set(spec.omega_plus.indices) & set(spec.omega_minus.indices)))
    turan = simplex_solve(build_primal(ProblemSpec.turan(group, both)))
    priced = []  # > 0 where the held orbit prices out
    for j in held_orbits(lp):
        r = lp.objective[j] - sum(y * lp.A[i, j] for i, y in enumerate(turan.row_duals))
        priced.append(r if lp.var_bounds[j][1] == 0 else -r)
    if min(priced) > 1e-6:
        assert sol.formulation == "primal"
        assert sol.stats.iterations == turan.iterations
        assert sol.value == float(lp.objective_scale) * turan.objective
    elif min(priced) < -1e-6:
        assert sol.formulation == _default_forms(spec)[-1]


# Orders whose pairings take irrational cosines (lifted from float64 to
# Fraction) and products whose cosines are all rational.
EXACT_GROUPS = [(5,), (8,), (10,), (12,), (2, 5), (4,), (6,), (2, 6), (3, 3), (2, 2, 3)]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(EXACT_GROUPS), st.integers(0, 2**32 - 1),
       st.sampled_from(["delsarte", "general"]), st.integers(10, 16))
def test_exact_default_solve_equals_the_primal_form(orders, seed, mode, digits):
    # The default exact solve keeps the Turan restriction exactly when
    # every held orbit prices out, each reduced cost summed here in
    # Fractions from the Turan program's own row duals; otherwise it
    # solves the primal form.  Either way its value is the primal form's
    # and both certificates hold at zero tolerance.  A kept restriction is
    # then refused once one held orbit's cost is moved to give it the
    # multiplier -10^-digits, which no float tolerance would see.
    group = FiniteAbelianGroup(orders)
    rng = random.Random(seed)
    plus = random_symmetric_set(group, rng, rng.random(), ensure_zero=True)
    if mode == "delsarte":
        spec = ProblemSpec.delsarte(group, plus, arithmetic=EXACT)
    else:
        spec = ProblemSpec.general(group, plus, random_symmetric_set(group, rng, rng.random()),
                                   arithmetic=EXACT)
    sol, primal = solve(spec), solve(spec, "primal")
    assert sol.value_exact == primal.value_exact
    assert verify_certificate(sol, tol=0.0).ok and verify_certificate(primal, tol=0.0).ok
    if _default_forms(spec) == ("primal",):
        assert sol.stats.attempts == ("primal",)
        return
    lp = build_primal(spec)
    both = SymmetricSet.from_indices(
        group, {0} | (set(spec.omega_plus.indices) & set(spec.omega_minus.indices)))
    turan = simplex_solve(build_primal(ProblemSpec.turan(group, both, arithmetic=EXACT)))
    held = held_orbits(lp)
    priced = []  # >= 0 where the held orbit prices out
    for j in held:
        r = lp.objective[j] - sum(y * lp.A[i, j] for i, y in enumerate(turan.row_duals))
        priced.append(r if lp.var_bounds[j][1] == 0 else -r)
    kept = solver._solve_restricted(lp)
    assert (kept is not None) == (min(priced) >= 0)
    if kept is None:
        assert sol.stats.attempts == ("restricted", "primal")
        assert sol.var_values == primal.var_values
        return
    assert sol.stats.attempts == ("restricted",)
    assert sol.stats.iterations == turan.iterations
    assert sol.value_exact == lp.objective_scale * turan.objective
    # Held costs do not enter the restriction, so its row duals stay.
    k = rng.randrange(len(held))
    shift = priced[k] + Fraction(1, 10**digits)
    cost = list(lp.objective)
    cost[held[k]] -= shift if lp.var_bounds[held[k]][1] == 0 else -shift
    assert solver._solve_restricted(replace(lp, objective=tuple(cost))) is None


def test_exact_restriction_rejects_a_multiplier_below_zero_by_a_hair():
    # max x0 + (1 - 1e-12) x1 + x2 with x0 = 1, x1 in [-1, 0] held and x2 in
    # [-1, 1], under 2 x2 - x0 + 2 x1 <= 0.  The restriction (x1 = 0) has
    # x2 = 1/2 and row dual 1/2, so x1's upper multiplier is
    # (1 - 1e-12) - 2 / 2 = -1e-12: above the float pricing tolerance, but
    # below 0, and lowering x1 does raise the value.
    hair = Fraction(1, 10**12)
    lp = LinearProgram(
        var_labels=(0, 1, 2),
        var_bounds=((Fraction(1), Fraction(1)), (Fraction(-1), Fraction(0)),
                    (Fraction(-1), Fraction(1))),
        row_labels=(("row", 0),),
        A=np.array([[Fraction(-1), Fraction(2), Fraction(2)]], dtype=object),
        senses=("<=",),
        rhs=(Fraction(0),),
        objective=(Fraction(1), 1 - hair, Fraction(1)),
        objective_scale=Fraction(1),
        arithmetic=EXACT,
    )
    restricted = simplex_solve(replace(
        lp, var_labels=(0, 2), var_bounds=(lp.var_bounds[0], lp.var_bounds[2]),
        A=lp.A[:, [0, 2]], objective=(lp.objective[0], lp.objective[2])))
    assert restricted.x == (1, Fraction(1, 2)) and restricted.row_duals == (Fraction(1, 2),)
    assert lp.objective[1] - restricted.row_duals[0] * lp.A[0, 1] == -hair
    assert simplex_solve(lp).objective > restricted.objective
    assert solver._solve_restricted(lp) is None


@pytest.mark.parametrize("mode", ["turan", "general"])
def test_fourier_form_has_one_equality_row_per_zero_orbit(mode):
    # Each nonzero orbit outside both sign sets is one = row, f(g) = 0;
    # an orbit outside one set is one sign row.
    rng = random.Random(24)
    for _ in range(30):
        group = random_group(rng, 64)
        plus = random_symmetric_set(group, rng, 0.4, ensure_zero=True)
        spec = (ProblemSpec.turan(group, plus) if mode == "turan" else ProblemSpec.general(
            group, plus, random_symmetric_set(group, rng, 0.4)))
        lp = build_fourier_form(spec)
        a, b, c, d, e = orbit_counts(spec)
        assert len(lp.rhs) == 1 + b + c + d == e - a
        zero = [(label, sense, rhs) for label, sense, rhs in zip(lp.row_labels, lp.senses, lp.rhs)
                if label[0] == "zero"]
        plus, minus = spec.omega_plus.indices, spec.omega_minus.indices
        assert [label[1] for label, _, _ in zero] == [
            g for g in sorted({min(g, group.neg_index(g)) for g in range(1, group.size)})
            if g not in plus and g not in minus
        ]
        assert all(sense == "=" and rhs == 0 for _, sense, rhs in zero)
        assert lp.senses.count("=") == 1 + d  # the normalization row and the zero rows


def spectrum_of_variables(sol) -> np.ndarray:
    """The LP's h-free spectrum variables spread over every character and
    scaled by the Haar weight."""
    group = sol.spec.group
    out = np.zeros(group.size)
    for (_, k), u in zip(sol.lp.var_labels, sol.var_values):
        out[k] = out[group.char_neg_index(k)] = u
    return out * float(group.weight)


def fourier_cases():
    cases = []
    for orders, weight in (((12,), 1), ((4, 6), Fraction(1, 3)), ((3, 5, 2), Fraction(5, 2))):
        group = FiniteAbelianGroup(orders, weight)
        plus = SymmetricSet.from_signed(group, [(0,) * len(orders), (1,) * len(orders),
                                                (-1,) * len(orders)])
        cases.append(ProblemSpec.delsarte(group, plus))
    parent = FiniteAbelianGroup((6, 6), Fraction(1, 4))
    view = SubgroupView(parent.subgroup_generated([parent.index_of((1, 2))]))
    cases.append(ProblemSpec.delsarte(view, SymmetricSet.from_indices(view, {0, 1, 5})))
    cases.append(ProblemSpec.turan(view, SymmetricSet.from_indices(view, {0, 1, 5})))
    return cases


@pytest.mark.parametrize("spec", fourier_cases(),
                         ids=["z12", "z4xz6", "z3xz5xz2", "view-delsarte", "view-turan"])
def test_fourier_reconstruction_matches_reference_transform(spec):
    # The FFT inverse transform of the spectrum variables, transformed back
    # by the quadratic direct sum over integer phases.
    sol = solve(spec, "fourier")
    assert sol.certificate_verdict.ok
    reference = direct_transform(sol.extremal_function)
    assert np.abs(reference - spectrum_of_variables(sol)).max() <= 1e-12


def test_unknown_formulation_is_a_value_error():
    with pytest.raises(ValueError, match="dual.*primal, fourier or auto"):
        solve(ProblemSpec.turan(Z8, OMEGA_Z8), "dual")


@pytest.mark.parametrize("mode", ["turan", "delsarte", "general"])
def test_exact_fourier_form_matches_exact_primal(mode):
    # On groups whose pairing cosines are all rational both forms hold the
    # same exact data, so their optima agree exactly and both certificates
    # verify with zero tolerance.
    rng = random.Random({"turan": 31, "delsarte": 37, "general": 41}[mode])
    for _ in range(6):
        group = nice_random_group(rng, 24)
        plus = random_symmetric_set(group, rng, 0.4, ensure_zero=True)
        if mode == "turan":
            spec = ProblemSpec.turan(group, plus, arithmetic=EXACT)
        elif mode == "delsarte":
            spec = ProblemSpec.delsarte(group, plus, arithmetic=EXACT)
        else:
            spec = ProblemSpec.general(
                group, plus, random_symmetric_set(group, rng, 0.4), arithmetic=EXACT
            )
        primal, fourier = solve(spec, "primal"), solve(spec, "fourier")
        assert isinstance(primal.value_exact, Fraction)
        assert primal.value_exact == fourier.value_exact, (group, mode)
        assert verify_certificate(primal, tol=0.0).ok
        assert verify_certificate(fourier, tol=0.0).ok


def test_float_solves_read_the_cosine_table(monkeypatch):
    # LP data in both arithmetics comes from the group's cosine table at
    # integer phase matrices: no solve asks for a scalar phase, on product
    # groups and on subgroup views, in both forms.  The groups are built
    # first, since a view finds its dual from scalar phases.
    def per_entry(*args):
        raise AssertionError("scalar phase on a solve path")

    z = FiniteAbelianGroup((40,))
    view = SubgroupView(FiniteAbelianGroup((80,)).subgroup_generated([2]))
    monkeypatch.setattr(FiniteAbelianGroup, "phase_index", per_entry)
    monkeypatch.setattr(SubgroupView, "phase_index", per_entry)
    for group in (z, view):
        omega = SymmetricSet.from_indices(group, {0, 1, 2, group.neg_index(1), group.neg_index(2)})
        for arithmetic in (FLOAT, EXACT):
            for spec in (
                ProblemSpec.turan(group, omega, arithmetic=arithmetic),
                ProblemSpec.delsarte(group, omega, arithmetic=arithmetic),
            ):
                for formulation in ("primal", "fourier"):
                    sol = solve(spec, formulation)
                    assert sol.certificate_verdict.ok, (group, spec.mode, arithmetic, formulation)
                    if arithmetic == EXACT:
                        assert verify_certificate(sol, tol=0.0).ok


@pytest.mark.parametrize("arithmetic", [FLOAT, EXACT])
@pytest.mark.parametrize("build", [build_primal, build_fourier_form])
def test_rows_view_reads_the_arrays(build, arithmetic):
    # The LPRow view outside readers take: row i is (label, every (j, A_ij)
    # in column order, sense, rhs), entries of the matrix's own type, and
    # a new tuple on every access.  The Fourier LP has rows of each sense.
    spec = ProblemSpec.general(
        Z8, OMEGA_Z8, SymmetricSet.from_signed(Z8, [-2, 2]), arithmetic=arithmetic
    )
    lp = build(spec)
    expected = tuple(
        (lp.row_labels[i], tuple(enumerate(lp.A[i].tolist())), lp.senses[i], lp.rhs[i])
        for i in range(len(lp.rhs))
    )
    view = lp.rows
    assert repr(tuple((r.label, r.coeffs, r.sense, r.rhs) for r in view)) == repr(expected)
    assert view == lp.rows and view is not lp.rows


def test_solver_reads_no_rows_view(monkeypatch):
    # The simplex, the certificate check and the dual objective read the
    # arrays of a LinearProgram, never its LPRow view, in both forms and
    # both arithmetics.
    def rows(self):
        raise AssertionError("solver code read LinearProgram.rows")

    monkeypatch.setattr(LinearProgram, "rows", property(rows))
    omega = SymmetricSet.from_signed(Z8, [-1, 0, 1])
    for arithmetic in (FLOAT, EXACT):
        for spec in (ProblemSpec.turan(Z8, omega, arithmetic=arithmetic),
                     ProblemSpec.delsarte(Z8, omega, arithmetic=arithmetic)):
            for formulation in ("primal", "fourier"):
                sol = solve(spec, formulation)
                assert sol.certificate_verdict.ok, (arithmetic, spec.mode, formulation)
                assert verify_certificate(sol).ok


@st.composite
def float_problem(draw, max_order: int = 48):
    """A random float problem on a product group: mode, Ω₊ (with 0) and Ω₋."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    group = random_group(rng, max_order)
    plus = random_symmetric_set(group, rng, draw(st.floats(0.0, 1.0)), ensure_zero=True)
    mode = draw(st.sampled_from(["turan", "delsarte", "general"]))
    if mode == "turan":
        return ProblemSpec.turan(group, plus)
    if mode == "delsarte":
        return ProblemSpec.delsarte(group, plus)
    return ProblemSpec.general(group, plus, random_symmetric_set(group, rng, 0.4))


def _regroup(spec, group):
    """The same problem on ``group``, which has the same orders as spec's."""
    def move(s):
        return SymmetricSet.from_indices(group, s.indices)

    return ProblemSpec(group, move(spec.omega_plus), move(spec.omega_minus), mode=spec.mode)


@settings(max_examples=40, deadline=None)
@given(float_problem())
def test_primal_and_fourier_values_agree(spec):
    primal, fourier = solve(spec, "primal"), solve(spec, "fourier")
    assert primal.certificate_verdict.ok and fourier.certificate_verdict.ok
    assert primal.value == pytest.approx(fourier.value, rel=1e-9, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(float_problem(), st.fractions(Fraction(1, 64), 64))
def test_value_scales_linearly_in_the_haar_weight(spec, weight):
    weighted = _regroup(spec, FiniteAbelianGroup(spec.group.orders, weight))
    assert solve(weighted).value == pytest.approx(float(weight) * solve(spec).value, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(float_problem(), st.integers(0, 2**32 - 1))
def test_value_does_not_fall_when_omega_plus_grows(spec, seed):
    group = spec.group
    grown = spec.omega_plus.indices | random_symmetric_set(group, random.Random(seed), 0.3).indices
    plus = SymmetricSet.from_indices(group, grown)
    if spec.mode == "turan":
        larger = ProblemSpec.turan(group, plus)
    elif spec.mode == "delsarte":
        larger = ProblemSpec.delsarte(group, plus)
    else:
        larger = ProblemSpec.general(group, plus, spec.omega_minus)
    assert solve(larger).value >= solve(spec).value - 1e-9
