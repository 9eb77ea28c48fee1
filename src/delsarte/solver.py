"""Extremal linear programs on finite groups with dual certificates.

The problems maximize the Haar integral of an even function f with
f(0) = 1, a nonnegative spectrum, and sign constraints outside two
symmetric sets.  Restricting to even functions loses nothing: averaging
f with its reflection preserves the spectrum sign, the normalization,
the sign constraints and the objective, and it makes every spectral row
real.  One variable per negation orbit, one spectral row per character
orbit; f(0) = 1 and the sign constraints are bounds on the variables,
so the spectral rows are the primal form's only rows.

Two formulations are built from the same pairing data: the primal form
in function values and an independent Fourier-side form in spectrum
values; their agreement is the standing cross-check.  By default ``solve``
picks the form from its input: a float problem gets the Fourier form when
it has fewer LP rows (in Delsarte mode unless Ω₊ = {0}), an exact one gets
the primal form, so that a group and its subgroups solve LPs whose
irrational cosines are lifted the same way.  A dense two-phase
simplex is the single solving engine; it pivots either in float64 on a
tableau of the nonbasic columns only (bounded variables, Dantzig pricing,
Harris ratio test) or in exact arithmetic on a fraction-free integer
tableau (Bland's rule, used by the exact path only).  Both builders and
the exact Fourier reconstruction read one orbit matrix: the group's
cosine table (``groups``: L values, one per integer phase p / L) indexed
by the integer phase matrix of the element and character orbit
representatives, times the orbit sizes.
The primal form takes its character rows, the Fourier form its element
rows.  The float table is float64; the exact one is exact where the
phase admits a rational cosine (reduced denominators 1, 2, 3, 4, 6) and
the float value lifted to a ``Fraction`` otherwise, so "exact" means
exact pivoting on exactly represented row data.  An exact certificate
check compares exact numbers: its row activities and stationarity
residuals are integer dot products over common denominators, so at zero
tolerance it passes only a certificate that holds exactly.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .classes import ClassSpec, ClassVerdict, SymmetricSet, in_class
from .discretize import TorusSpec, sample_set
from .harmonic import GroupFunction, Spectrum, idft
from .realsets import RealSet1D

FLOAT = "float"
EXACT = "exact-rational"
MODES = ("general", "turan", "delsarte")

FULL = "FULL"
SAME = "SAME"

# Steps (pivots and bound flips) per phase, times m + ncols, before a
# solve gives up.  The most measured over the test suite and one pass of
# every benchmark workload is 3.1 (float, torus 8, N = 256, Delsarte
# primal); an exact Z72 Delsarte solve takes 5.4 in its phase 1.
PIVOTS_PER_COLUMN = 100

# The float simplex drops the artificial columns of >= rows after phase 1
# only when they hold at least this many tableau entries (rows times
# columns).  The copy and a dozen numpy calls cost the benchmark programs
# of under 40 rows 2-3% of their simplex time; on those above the gate
# (97 rows and up) the narrower rank-1 updates saved 3-24%.
DROP_MIN_ENTRIES = 1024


class ClassEmptyProblem(Exception):
    """The admissible class is empty (the identity is not a plus point)."""


class SimplexError(Exception):
    pass


@dataclass(frozen=True)
class ProblemSpec:
    """An extremal problem instance.

    Turan mode forces the minus set to equal the plus set; Delsarte mode
    forces the minus set to be the whole group.
    """

    group: object
    omega_plus: SymmetricSet
    omega_minus: SymmetricSet
    mode: str = "general"
    arithmetic: str = FLOAT
    tolerance: float = 1e-9

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.arithmetic not in (FLOAT, EXACT):
            raise ValueError(f"unknown arithmetic {self.arithmetic!r}")
        if self.omega_plus.group != self.group or self.omega_minus.group != self.group:
            raise ValueError("sign sets must live on the problem group")
        if self.mode == "turan" and self.omega_minus.indices != self.omega_plus.indices:
            raise ValueError("turan mode requires equal plus and minus sets")
        if self.mode == "delsarte" and not self.omega_minus.is_full:
            raise ValueError("delsarte mode requires the minus set to be the group")

    @staticmethod
    def turan(group, omega: SymmetricSet, **kw) -> "ProblemSpec":
        return ProblemSpec(group, omega, omega, mode="turan", **kw)

    @staticmethod
    def delsarte(group, omega_plus: SymmetricSet, **kw) -> "ProblemSpec":
        return ProblemSpec(
            group, omega_plus, SymmetricSet.full(group), mode="delsarte", **kw
        )

    @staticmethod
    def general(group, omega_plus: SymmetricSet, omega_minus: SymmetricSet, **kw) -> "ProblemSpec":
        return ProblemSpec(group, omega_plus, omega_minus, mode="general", **kw)

    def class_spec(self) -> ClassSpec:
        return ClassSpec(self.omega_plus, self.omega_minus)


@dataclass(frozen=True)
class LPRow:
    label: tuple
    coeffs: tuple[tuple[int, object], ...]  # (variable position, coefficient)
    sense: str  # "<=", ">=", "="
    rhs: object


@dataclass(frozen=True)
class LinearProgram:
    """Dense-ready LP over bounded variables (lo <= x <= hi, both finite),
    maximization sense.

    The objective is stored h-free with the Haar weight as a separate
    exact scale, so the value scales linearly in the weight by
    construction.
    """

    var_labels: tuple
    var_bounds: tuple[tuple[object, object], ...]
    rows: tuple[LPRow, ...]
    objective: tuple
    objective_scale: Fraction
    arithmetic: str
    maximize: bool = True

    @property
    def num_vars(self) -> int:
        return len(self.var_labels)


def _orbits(size: int, neg) -> tuple[list[int], dict[int, int]]:
    """Orbits of the involution ``neg`` on 0..size-1 (negation of elements
    or of characters): representatives (smallest index) and orbit sizes."""
    reps, sizes = [], {}
    for i in range(size):
        j = neg(i)
        if i <= j:
            reps.append(i)
            sizes[i] = 1 if i == j else 2
    return reps, sizes


def _cosine_matrix(group, elements: Sequence[int], characters: Sequence[int],
                   exact: bool) -> np.ndarray:
    """cos of the pairing of every element with every character, read from
    the group's cosine table at the integer phases: float64, or an object
    array of ``Fraction`` in exact arithmetic."""
    table = np.array(group.exact_cosines, dtype=object) if exact else group.float_cosines
    return table[group.phases(elements, characters)]


# Every tuple a solve builds is made from a list, never from a generator:
# tuple() of a generator allocates for a guess of 10 items and resizes,
# which moves a tuple from CPython's size-10 free list onto the free list
# of the final size.  Over thousands of solves the lists of sizes 2 to 20
# filled to their cap of 2,000 tuples each, about 2.6 MB of dead tuples
# held until the next full garbage collection.


def build_primal(spec: ProblemSpec) -> LinearProgram:
    """LP in function values on negation-orbit representatives.

    The rows are one nonnegative-spectrum row per character orbit.  f(0) = 1
    and the sign conditions are variable bounds: orbit 0 lies in [1, 1],
    any other in [-1 if in Ω₋ else 0, 1 if in Ω₊ else 0], and orbits
    outside both sign sets would lie in [0, 0], so they are dropped.
    """
    group = spec.group
    if 0 not in spec.omega_plus:
        raise ClassEmptyProblem("the identity is not in the plus set")
    exact = spec.arithmetic == EXACT
    one = Fraction(1) if exact else 1.0
    zero = Fraction(0) if exact else 0.0
    plus, minus = spec.omega_plus.indices, spec.omega_minus.indices

    reps, rep_size = _orbits(group.size, group.neg_index)
    var_reps = [r for r in reps if r == 0 or r in plus or r in minus]
    bounds = tuple([
        (one, one) if r == 0
        else (-one if r in minus else zero, one if r in plus else zero)
        for r in var_reps
    ])
    chi_reps = _orbits(group.size, group.char_neg_index)[0]
    sizes = np.array([rep_size[r] for r in var_reps], dtype=object if exact else float)
    spectral = (_cosine_matrix(group, var_reps, chi_reps, exact) * sizes[:, None]).T
    rows = [
        LPRow(("spectral", k), tuple(list(enumerate(coeffs))), ">=", zero)
        for k, coeffs in zip(chi_reps, spectral.tolist())
    ]
    objective = tuple([
        (Fraction(rep_size[r]) if exact else float(rep_size[r])) for r in var_reps
    ])
    return LinearProgram(
        var_labels=tuple(var_reps),
        var_bounds=bounds,
        rows=tuple(rows),
        objective=objective,
        objective_scale=Fraction(group.weight),
        arithmetic=spec.arithmetic,
    )


def build_fourier_form(spec: ProblemSpec) -> LinearProgram:
    """Independent reformulation in spectrum values on character orbits.

    Variables are the h-free transform values, nonnegative by positive
    definiteness; the normalization row encodes f(0) = 1 and the sign
    rows constrain the reconstructed function outside the sign sets.
    Equivalence with the primal form follows from the inversion formula.
    """
    group = spec.group
    if 0 not in spec.omega_plus:
        raise ClassEmptyProblem("the identity is not in the plus set")
    exact = spec.arithmetic == EXACT
    one = Fraction(1) if exact else 1.0
    zero = Fraction(0) if exact else 0.0
    n = group.size
    plus, minus = spec.omega_plus.indices, spec.omega_minus.indices

    chi_reps, chi_size = _orbits(group.size, group.char_neg_index)
    big = Fraction(n) if exact else float(n)
    bounds = tuple([(zero, big) for _ in chi_reps])

    rows: list[LPRow] = [
        LPRow(
            ("normalization",),
            tuple([(j, chi_size[k] * one) for j, k in enumerate(chi_reps)]),
            "=",
            big,
        )
    ]
    sign_reps = [
        g for g in _orbits(group.size, group.neg_index)[0]
        if g != 0 and not (g in plus and g in minus)
    ]
    sizes = np.array([chi_size[k] for k in chi_reps], dtype=object if exact else float)
    sign_rows = _cosine_matrix(group, sign_reps, chi_reps, exact) * sizes
    for g, coeffs in zip(sign_reps, sign_rows.tolist()):
        in_plus, in_minus = g in plus, g in minus
        coeffs = tuple(list(enumerate(coeffs)))
        if not in_plus:
            rows.append(LPRow(("sign_plus", g), coeffs, "<=", zero))
        if not in_minus:
            rows.append(LPRow(("sign_minus", g), coeffs, ">=", zero))

    objective = tuple([one if k == 0 else zero for k in chi_reps])
    return LinearProgram(
        var_labels=tuple([("fhat", k) for k in chi_reps]),
        var_bounds=bounds,
        rows=tuple(rows),
        objective=objective,
        objective_scale=Fraction(group.weight),
        arithmetic=spec.arithmetic,
    )


# -- simplex engine -----------------------------------------------------------


@dataclass(frozen=True)
class RawOptimum:
    """Optimal basic solution of a LinearProgram with dual multipliers.

    Row multipliers follow the convention: nonnegative on <= rows,
    nonpositive on >= rows, free on equalities; bound multipliers are
    nonnegative.  Stationarity: c_j = sum_i y_i A_ij + upper_j - lower_j.
    """

    x: tuple
    objective: object
    row_duals: tuple
    lower_duals: tuple
    upper_duals: tuple
    iterations: int
    phase1_iterations: int
    bound_flips: int = 0


def price_dantzig(rc: np.ndarray, allowed: np.ndarray, eps: float) -> int:
    """Steepest reduced cost below -eps among allowed columns, first on
    ties; -1 when none prices out."""
    masked = np.where(allowed, rc, np.inf)
    j = int(masked.argmin())
    return j if masked[j] < -eps else -1


def price_bland(rc: np.ndarray, allowed: np.ndarray, eps) -> int:
    """First allowed column with reduced cost below -eps, or -1."""
    hits = np.flatnonzero(allowed & (rc < -eps))
    return int(hits[0]) if hits.size else -1


def leave_harris(col: np.ndarray, rhs: np.ndarray, pivot_tol: float,
                 slack: float, tiny: float) -> int:
    """Harris two-pass ratio test.

    Pass one takes the smallest ratio relaxed by ``slack`` over entries
    above ``pivot_tol``; pass two takes, among the rows whose true ratio
    is within that bound, the first with the largest entry.  When only
    entries of at most ``pivot_tol`` remain, the first largest entry
    above ``tiny`` is taken.  Returns -1 when no entry exceeds ``tiny``.
    """
    rows = (col > pivot_tol).nonzero()[0]
    if rows.size == 0:
        rows = (col > tiny).nonzero()[0]
        return int(rows[col[rows].argmax()]) if rows.size else -1
    a, b = col[rows], rhs[rows]
    theta = ((b + slack) / a).min()
    return int(rows[np.where(b / a <= theta, a, 0.0).argmax()])


def leave_bland(col: np.ndarray, rhs: np.ndarray, basis: np.ndarray) -> int:
    """Bland's leaving rule over the positive entries: the strict minimum
    ratio, ties broken by the lowest basic variable index; -1 when no
    entry is positive.  Entries are exact (``Fraction`` or ``int``), and
    ratios are compared by cross-multiplying the positive entries, so
    integer numerators over positive row denominators give the same
    choice as the rationals they encode, with no division."""
    rows = np.flatnonzero(col > 0)
    if rows.size == 0:
        return -1
    best = rows[0]
    for i in rows[1:]:
        here, there = rhs[i] * col[best], rhs[best] * col[i]
        if here < there or (here == there and basis[i] < basis[best]):
            best = i
    return int(best)


def polish_row(rhs: np.ndarray, floor: float) -> int:
    """Dual simplex leaving row: the first most negative right-hand side
    below ``floor``, or -1 when the basis is primal feasible."""
    i = int(rhs.argmin())
    return i if rhs[i] < floor else -1


def polish_col(row: np.ndarray, rc: np.ndarray, allowed: np.ndarray,
               pivot_tol: float) -> int:
    """Dual ratio test on a leaving row: among allowed entries below
    -pivot_tol, the smallest rc / |a|, ties broken by the first largest
    |a|.  Returns -1 when the row proves the program infeasible."""
    cols = (allowed & (row < -pivot_tol)).nonzero()[0]
    if cols.size == 0:
        return -1
    ratios = rc[cols] / -row[cols]
    ties = cols[ratios == ratios.min()]
    return int(ties[np.abs(row[ties]).argmax()])


def leave_bounded(col: np.ndarray, rhs: np.ndarray, upper: np.ndarray,
                  bound: float, pivot_tol: float, slack: float,
                  tiny: float) -> tuple[int, bool]:
    """Harris's test for a column entering from 0 towards ``bound``, with
    basic variable i in [0, upper[i]].

    A positive entry drives its basic variable down to 0 and a negative
    one drives it up to a finite ``upper``; both become one Harris column
    of positive entries over the distance left.  Returns the leaving row
    and whether its variable leaves at its upper bound, or (-1, False)
    when the entering variable reaches its own bound first (a bound flip)
    or nothing blocks it.
    """
    rises = (col < 0) & (upper < np.inf)
    a = np.where(rises, -col, col)
    b = np.where(rises, upper - rhs, rhs)
    row = leave_harris(a, b, pivot_tol, slack, tiny)
    if row < 0 or bound <= b[row] / a[row]:
        return -1, False
    return row, bool(rises[row])


def simplex_solve(lp: LinearProgram) -> RawOptimum:
    """Dense two-phase tableau simplex; bounded-variable in float.

    The float path works on x = lo + xt, 0 <= xt <= u = hi - lo, with no
    box rows: a nonbasic column sits at either bound, and one at its upper
    bound is complemented (xt = u - xt': its column negated in the tableau
    and in the data, the right-hand side shifted by u times it), so
    pricing, pivots and refactorization never see the bounds.  The Harris
    ratio test also stops basic variables at their upper bounds, and an
    entering variable that reaches its own bound first flips there with
    no pivot.  Every inequality is relaxed outward by a distinct
    deterministic epsilon (breaking degenerate ties without losing
    feasibility), and pricing is by steepest reduced cost.

    The tableau is condensed: it keeps only the nonbasic columns and the
    right-hand side, since the basic columns are unit vectors, and its
    last row holds the reduced costs.  ``nonbasic`` names the variable of
    each column and ``basis`` that of each row.  Each pivot is one
    in-place rank-1 update of these columns, after which the leaving
    variable's column stands where the entering one stood.  After phase 1
    the nonbasic artificial of each >= row, the negated surplus column, is
    dropped.  At the end the tableau is rebuilt from the true data, a
    short dual-simplex pass repairs the perturbation-sized infeasibility
    on either bound, and one primal pass and a second rebuild (skipped
    when nothing moved since the first) re-certify optimality; a basis
    that still fails raises.  Every selection rule takes the lowest
    variable index among equal candidates, so the pivots are those the
    full tableau takes.  Exact-rational programs go to ``_exact_simplex``
    (Bland's rule on a fraction-free integer tableau with explicit box
    rows).

    Finite variable bounds guarantee boundedness; the admissible problems
    are never infeasible (the point mass at the identity is feasible), so
    both failure modes raise rather than return.
    """
    if lp.arithmetic == EXACT:
        return _exact_simplex(lp)
    rows, upper = _shifted_rows(lp)
    nv, m = lp.num_vars, len(rows)
    flipped, surplus_col, unit_col, artificial, ncols = _standard_form(rows, nv)
    # The true [A | b] by variable index, which refactor() rebuilds from.
    # The unit columns come last and are the start basis.
    k = ncols - m  # nonbasic columns
    data = np.zeros((m, ncols + 1))
    data[:, :nv] = [dense for dense, _, _ in rows]
    for i, j in surplus_col.items():
        data[i, j] = -1.0
    np.fill_diagonal(data[:, k:], 1.0)
    data[:, ncols] = [rhs for _, _, rhs in rows]
    # Tableau column q is data column nonbasic[q]: a nonbasic variable, or
    # for q = k the right-hand side.  Row m holds the reduced costs.
    nonbasic = np.arange(k + 1)
    nonbasic[k] = ncols
    basis = np.arange(k, ncols)
    T = np.empty((m + 1, k + 1))
    T[:m, :k] = data[:, :k]
    up = np.array(upper + [np.inf] * (ncols - nv))  # bound of each variable
    sign = np.ones(ncols + 1)  # -1 on complemented variables
    not_art = np.ones(ncols + 1, dtype=bool)
    not_art[artificial] = False
    up_basic = up[k:].copy()  # the bound of each basic variable, kept current,
    free = not_art[:k].copy()  # and whether each column may be priced in phase 2
    iterations = bound_flips = 0

    # Deterministic degeneracy-breaking perturbation: relax every
    # inequality outward by a distinct tiny amount.  The admissible point
    # mass stays feasible, exact ratio ties disappear, and the true
    # right-hand side is restored before the final polish.
    b = data[:, ncols]  # nonnegative after _standard_form
    delta = 1e-5 * (1.0 + float(b.max())) * np.arange(1, m + 1) / m
    ge = np.array([sense == ">=" for _, sense, _ in rows])
    T[:m, k] = b
    np.add(b, delta, out=T[:m, k], where=not_art[k:ncols])  # <= rows: a slack
    np.subtract(b, delta, out=T[:m, k], where=ge & (b > delta))
    update = np.empty_like(T)  # rank-1 update buffer, reused by every pivot
    spread = np.zeros(data.shape)  # set_objective's tableau by variable index

    def pivot(leave: int, q: int) -> None:
        # Column q first becomes the leaving variable's unit column; the
        # update then gives it 1/p on the pivot row and -col/p elsewhere.
        col = T[:, q].copy()
        p = col[leave]
        col[leave] = 0.0
        T[:, q] = 0.0
        T[leave, q] = 1.0
        T[leave] /= p
        np.multiply.outer(col, T[leave], out=update)
        np.subtract(T, update, out=T)
        enter = nonbasic[q]
        nonbasic[q] = basis[leave]
        basis[leave] = enter
        up_basic[leave] = up[enter]
        free[q] = not_art[nonbasic[q]]

    def complement(q: int = -1, row: int = -1) -> None:
        # Substitute xt_j = u_j - xt'_j in the tableau and in the true
        # data, for the variable of column q or the basic one of ``row``,
        # whose row is negated back to a unit row.
        j = nonbasic[q] if row < 0 else basis[row]
        data[:, ncols] -= up[j] * data[:, j]
        data[:, j] *= -1.0
        if row < 0:
            T[:, k] -= up[j] * T[:, q]
            T[:, q] *= -1.0
        else:
            T[row, k] -= up[j]
            T[row] *= -1.0
        sign[j] = -sign[j]

    def set_objective(cost: np.ndarray) -> None:
        # c_B B^-1 [A | b] - [c | 0], with the product taken over columns
        # by variable index: BLAS rounds an entry by its position, so this
        # keeps the reduced costs independent of the column order.
        c = cost * sign
        spread[:, nonbasic] = T[:m]
        np.subtract((c[basis] @ spread)[nonbasic], c[nonbasic], out=T[m])

    def refactor() -> None:
        # Rebuild T = B^-1 [A_N | b] and its phase-2 reduced costs from the
        # true data under the current basis.  This runs only where the data
        # change (the true right-hand side replaces the perturbed one) and
        # before the final optimality check.  A numerically singular basis
        # (forced tiny pivot) keeps the running tableau; the certificate
        # check downstream guards the result.
        try:
            T[:m] = np.linalg.solve(data[:, basis], data[:, nonbasic])
        except np.linalg.LinAlgError:
            pass
        set_objective(cost2)

    def lowest(candidates: np.ndarray) -> int:
        return int(candidates[nonbasic[candidates].argmin()])

    limit = PIVOTS_PER_COLUMN * (m + ncols)  # steps per phase
    pivot_tol = 1e-9  # never pivot on anything smaller
    harris_slack = 1e-9
    tiny = 1e-11  # Harris falls back to entries above this, never below

    def run_phase(cost: np.ndarray | None, allowed: np.ndarray) -> int:
        # cost None: the reduced-cost row is already that of this phase.
        nonlocal iterations, bound_flips
        if cost is not None:
            set_objective(cost)
        rc, values = T[m, :k], T[:m, k]
        steps = pivots = 0
        while True:
            q = price_dantzig(rc, allowed, 1e-9)
            if q < 0:
                return pivots
            if np.count_nonzero(rc == rc[q]) > 1:
                q = lowest((allowed & (rc == rc[q])).nonzero()[0])
            bound = up[nonbasic[q]]
            leave, at_upper = leave_bounded(
                T[:m, q], values, up_basic, bound, pivot_tol, harris_slack, tiny,
            )
            if leave >= 0:
                if at_upper:
                    complement(row=leave)
                pivot(leave, q)
                pivots += 1
                iterations += 1
            elif bound < np.inf:
                complement(q)
                bound_flips += 1
            else:
                raise SimplexError("unbounded direction in a bounded program")
            steps += 1
            if steps > limit:
                raise SimplexError("iteration limit exceeded")

    phase1_iterations = 0
    twins = None  # the artificials dropped after phase 1
    if artificial:
        cost1 = np.where(not_art, 0.0, -1.0)
        phase1_iterations = run_phase(cost1, np.ones(k, dtype=bool))
        stuck = (~not_art[basis]).nonzero()[0]
        infeas = float(T[stuck, k].sum())
        if infeas > 1e-7:
            raise SimplexError(f"infeasible program (residual {infeas})")
        # Drive leftover degenerate artificials out of the basis so phase 2
        # cannot move them; an all-zero row is redundant and stays put.  A
        # real pivot threshold keeps elimination residue (~1e-16) from
        # being picked as a pivot and corrupting the tableau.
        for i in stuck:
            hits = (free & (np.abs(T[i, :k]) > 1e-7)).nonzero()[0]
            if hits.size:
                pivot(i, lowest(hits))
        # A nonbasic artificial of a >= row is the negated surplus column
        # of its row and is never priced again: drop it, and read its
        # reduced cost, the row's dual, from the surplus column at the end.
        twin = np.zeros(ncols + 1, dtype=bool)
        twin[k:ncols] = ge
        dropped = twin[nonbasic]
        if m * np.count_nonzero(dropped) >= DROP_MIN_ENTRIES:
            twins, keep = nonbasic[dropped], ~dropped
            T, nonbasic, free = T[:, keep], nonbasic[keep], free[keep[:k]]
            k = nonbasic.size - 1
            update = np.empty_like(T)

    cost2 = np.array(_phase2_cost(lp, ncols + 1, 0.0))
    run_phase(cost2, free)

    # Restore the true right-hand side.  The perturbed optimum basis is
    # dual feasible for the true data; a short dual-simplex pass repairs
    # the (at most perturbation-sized) primal infeasibility, a basic
    # value below 0 or above its bound, then one primal pass and a
    # refactorization re-certify optimality.
    refactor()
    refactored_at = iterations + bound_flips
    polish_limit = 4 * m + 50
    polish = 0
    while True:
        rhs = T[:m, k]
        over = up_basic - rhs
        leave = polish_row(np.minimum(rhs, over), -1e-11)
        if leave < 0:
            break
        if over[leave] < rhs[leave]:
            complement(row=leave)
        order = nonbasic[:k].argsort()  # the rule's first: the lowest index
        q = polish_col(T[leave, order], T[m, order], free[order], pivot_tol)
        if q < 0:
            raise SimplexError("dual polish found an infeasible row")
        pivot(leave, int(order[q]))
        iterations += 1
        polish += 1
        if polish > polish_limit:
            raise SimplexError("dual polish did not converge")
    # While no step has been taken since refactor(), the tableau is the
    # one a new refactor() would give, bit for bit.
    run_phase(cost2 if polish else None, free)
    if iterations + bound_flips > refactored_at:
        refactor()
    rhs = T[:m, k]
    optimal = price_dantzig(T[m, :k], free, 1e-8) < 0
    if not (optimal and (rhs >= -1e-9).all() and (rhs <= up_basic + 1e-9).all()):
        raise SimplexError("optimality not reached on the restored data")

    # Reduced costs by variable index, 0 on the basic ones.  A
    # complemented variable's reduced cost is its upper-bound multiplier.
    rc = np.zeros(ncols + 1)
    rc[nonbasic] = T[m]
    if twins is not None:
        rc[twins] = 0.0 - rc[[surplus_col[i] for i in (twins - unit_col[0]).tolist()]]
    value = np.zeros(ncols)
    value[basis] = rhs
    comp = sign[:nv] < 0
    xt = np.where(comp, up[:nv] - value[:nv], value[:nv])
    return _optimum(  # Python floats: the certificate check is scalar code
        lp, xt.tolist(), _row_duals(rc.tolist(), unit_col, flipped),
        np.where(comp, 0.0, rc[:nv]).tolist(), np.where(comp, rc[:nv], 0.0).tolist(),
        0.0, iterations, phase1_iterations, bound_flips,
    )


def _exact_simplex(lp: LinearProgram) -> RawOptimum:
    """Two-phase simplex under Bland's rule in exact arithmetic.

    The tableau is fraction-free: row i holds Python-int numerators
    ``M[i]`` over one positive denominator ``den[i]``, reduced by their
    gcd, and row ``m`` is the reduced-cost row.  A pivot on (r, s) sets
    ``M[i] <- M[r,s] M[i] - M[i,s] M[r]`` and ``den[i] <- den[i] M[r,s]``
    on every other row with a nonzero entry in column s, then
    ``den[r] <- M[r,s]``.  Signs and ratios do not depend on the row
    denominators, so every choice is the one the rational tableau makes;
    values become ``Fraction``s only at extraction.  No tolerances, no
    perturbation.

    Each row over xt = x - lo enters as integer numerators over the lcm of
    its denominators (which leaves them with gcd 1), followed by one box
    row xt_j <= hi_j - lo_j per variable.
    """
    nv = lp.num_vars
    lo_num, lo_den = _over_common([b[0] for b in lp.var_bounds])
    rows, dens = [], []
    for r in lp.rows:
        dense, d = _integer_row(r, nv)
        rhs = r.rhs - Fraction(_dot(dense, lo_num), d * lo_den)
        common = math.lcm(d, rhs.denominator)
        if common != d:
            dense = [a * (common // d) for a in dense]
        rows.append((dense, r.sense, rhs.numerator * (common // rhs.denominator)))
        dens.append(common)
    for j, (lo, hi) in enumerate(lp.var_bounds):
        u = hi - lo
        dense = [0] * nv
        dense[j] = u.denominator
        rows.append((dense, "<=", u.numerator))
        dens.append(u.denominator)
    flipped, surplus_col, unit_col, artificial, ncols = _standard_form(rows, nv)
    m = len(rows)
    M = np.zeros((m + 1, ncols + 1), dtype=object)
    den = np.ones(m + 1, dtype=object)
    basis = np.zeros(m, dtype=np.intp)
    for i, (dense, _, rhs) in enumerate(rows):
        d = dens[i]
        M[i, :nv] = dense
        if i in surplus_col:
            M[i, surplus_col[i]] = -d
        M[i, unit_col[i]] = d
        M[i, ncols] = rhs
        den[i] = d
        basis[i] = unit_col[i]

    art_set = frozenset(artificial)
    not_art = np.ones(ncols, dtype=bool)
    not_art[artificial] = False
    limit = PIVOTS_PER_COLUMN * (m + ncols)  # steps per phase

    def reduce(i: int) -> None:
        g = math.gcd(den[i], *M[i])
        if den[i] < 0:
            g = -g
        if g != 1:
            M[i] //= g
            den[i] //= g

    def pivot(r: int, s: int) -> None:
        p = M[r, s]
        for i in np.flatnonzero(M[:, s]):
            if i != r:
                M[i] = p * M[i] - M[i, s] * M[r]
                den[i] *= p
                reduce(i)
        den[r] = p
        reduce(r)
        basis[r] = s

    def set_objective(cost: list) -> None:
        # Reduced costs c_B B^-1 [A | b] - [c | 0] over one common
        # denominator, from integer costs C / cd.
        cd = math.lcm(*(c.denominator for c in cost))
        C = [c.numerator * (cd // c.denominator) for c in cost]
        basic = [i for i in range(m) if C[basis[i]]]
        d = math.lcm(*(den[i] for i in basic))
        M[m, :ncols] = [-c * d for c in C]
        M[m, ncols] = 0
        for i in basic:
            M[m] += C[basis[i]] * (d // den[i]) * M[i]
        den[m] = cd * d
        reduce(m)

    def run_phase(cost: list, allowed: np.ndarray) -> int:
        set_objective(cost)
        steps = 0
        while True:
            enter = price_bland(M[m, :ncols], allowed, 0)
            if enter < 0:
                return steps
            leave = leave_bland(M[:m, enter], M[:m, ncols], basis)
            if leave < 0:
                raise SimplexError("unbounded direction in a bounded program")
            pivot(leave, enter)
            steps += 1
            if steps > limit:
                raise SimplexError("iteration limit exceeded")

    phase1_iterations = 0
    if artificial:
        cost1 = [-1 if j in art_set else 0 for j in range(ncols)]
        phase1_iterations = run_phase(cost1, np.ones(ncols, dtype=bool))
        infeas = sum(
            (Fraction(M[i, ncols], den[i]) for i in range(m) if basis[i] in art_set),
            Fraction(0),
        )
        if infeas > 0:
            raise SimplexError(f"infeasible program (residual {infeas})")
        # Drive leftover degenerate artificials out of the basis so phase 2
        # cannot move them; an all-zero row is redundant and stays put.
        for i in range(m):
            if basis[i] in art_set:
                hits = np.flatnonzero(not_art & (M[i, :ncols] != 0))
                if hits.size:
                    pivot(i, int(hits[0]))

    iterations = phase1_iterations + run_phase(_phase2_cost(lp, ncols, 0), not_art)

    xt = [Fraction(0)] * nv
    for i in range(m):
        if basis[i] < nv:
            xt[basis[i]] = Fraction(M[i, ncols], den[i])
    obj = [Fraction(a, den[m]) for a in M[m]]
    y = _row_duals(obj, unit_col, flipped)
    return _optimum(
        lp, xt, y, obj[:nv], y[len(lp.rows):], Fraction(0), iterations,
        phase1_iterations,
    )


def _shifted_rows(lp: LinearProgram):
    """The rows of a float program over xt = x - lo as (dense coefficients,
    sense, rhs), and the upper bounds hi - lo of xt."""
    nv = lp.num_vars
    lo = [b[0] for b in lp.var_bounds]
    rows = []
    for r in lp.rows:
        dense = [0.0] * nv
        shift = 0.0
        for j, a in r.coeffs:
            dense[j] = a
            shift += a * lo[j]
        rows.append((dense, r.sense, r.rhs - shift))
    return rows, [hi - lo for lo, hi in lp.var_bounds]


def _standard_form(rows: list, nv: int):
    """Negate, in place, every row whose right side is negative, and lay
    out the columns: the structural variables, then a -e_i surplus column
    per >= row (``surplus_col``), then one +e_i column per row
    (``unit_col``: slack for <=, artificial for >= and =).  Variable
    bounds are not rows here; the float simplex handles them in its ratio
    test and the exact one appends box rows before calling this.

    Returns which rows were negated and the layout.
    """
    flipped = [False] * len(rows)
    for i, (dense, sense, rhs) in enumerate(rows):
        if rhs < 0:
            rows[i] = ([-a for a in dense], _flip(sense), -rhs)
            flipped[i] = True

    surplus_col: dict[int, int] = {}
    ncols = nv
    for i, (_, sense, _) in enumerate(rows):
        if sense == ">=":
            surplus_col[i] = ncols
            ncols += 1
    unit_col, artificial = [], []
    for _, sense, _ in rows:
        if sense != "<=":
            artificial.append(ncols)
        unit_col.append(ncols)
        ncols += 1
    return flipped, surplus_col, unit_col, artificial, ncols


def _over_common(values) -> tuple[list[int], int]:
    """Exact rationals as integer numerators over their least common
    denominator."""
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def _integer_row(row: LPRow, nv: int) -> tuple[list[int], int]:
    """An exact row's coefficients as dense integer numerators over their
    least common denominator."""
    nums, d = _over_common([a for _, a in row.coeffs])
    dense = [0] * nv
    for (j, _), a in zip(row.coeffs, nums):
        dense[j] = a
    return dense, d


def _dot(a, b) -> int:
    return sum(map(operator.mul, a, b))


def _exact_dot(a, b) -> Fraction:
    """sum a_k b_k of exact rationals as one Fraction."""
    na, da = _over_common(a)
    nb, db = _over_common(b)
    return Fraction(_dot(na, nb), da * db)


def _phase2_cost(lp: LinearProgram, ncols: int, zero) -> list:
    cost = [c if lp.maximize else -c for c in lp.objective]
    return cost + [zero] * (ncols - lp.num_vars)


def _row_duals(obj, unit_col, flipped) -> list:
    """y_i is the reduced cost of the +e_i column, sign-corrected for rows
    that were negated to make the right side nonnegative."""
    return [-obj[c] if f else obj[c] for c, f in zip(unit_col, flipped)]


def _optimum(lp, xt, y, lower, upper, zero, iterations, phase1_iterations,
             bound_flips=0):
    """RawOptimum from the values ``xt`` of the shifted variables, the
    row duals ``y`` (box rows, if any, after the program's rows) and the
    bound multipliers."""
    nv = lp.num_vars
    x = tuple([lp.var_bounds[j][0] + xt[j] for j in range(nv)])
    objective = sum((lp.objective[j] * x[j] for j in range(nv)), zero)
    return RawOptimum(
        x=x,
        objective=objective,
        row_duals=tuple(y[: len(lp.rows)]),
        lower_duals=tuple(lower),
        upper_duals=tuple(upper),
        iterations=iterations,
        phase1_iterations=phase1_iterations,
        bound_flips=bound_flips,
    )


def _flip(sense: str) -> str:
    return {"<=": ">=", ">=": "<=", "=": "="}[sense]


# -- certificates and solutions ----------------------------------------------


@dataclass(frozen=True)
class DualCertificate:
    """Named multipliers proving optimality by weak duality."""

    rows: tuple[tuple[tuple, object], ...]  # (row label, multiplier)
    lower_bounds: tuple
    upper_bounds: tuple
    dual_objective: object


@dataclass(frozen=True)
class SolveStats:
    iterations: int  # pivots, including the dual polish
    phase1_iterations: int
    runtime: float
    bound_flips: int = 0  # ratio-test steps that flipped a variable's bound


@dataclass(frozen=True)
class Solution:
    """Solved extremal problem: status, value in Haar units, extremal
    function, dual certificate and solve statistics."""

    spec: ProblemSpec
    status: str  # "optimal" | "class_empty"
    value: float
    value_exact: Fraction | None
    extremal_function: GroupFunction | None
    extremal_values_exact: tuple[Fraction, ...] | None
    dual_certificate: DualCertificate | None
    gap: float
    stats: SolveStats
    formulation: str
    lp: LinearProgram | None
    var_values: tuple | None
    class_verdict: ClassVerdict | None
    certificate_verdict: "CertificateVerdict | None" = None

    def __post_init__(self) -> None:
        if self.status == "class_empty" and self.value != 0.0:
            raise ValueError("empty classes have extremal value 0 by convention")


def _reconstruct(spec: ProblemSpec, lp: LinearProgram, x: Sequence, formulation: str) -> list:
    """f on the whole group from its values on negation-orbit
    representatives: the primal variables themselves, or the Fourier
    inversion of the spectrum variables.  In float the inversion is
    ``harmonic.idft`` of the orbit values spread over the full spectrum
    (times h, since the variables are h-free), one inverse FFT on a
    product group and on a subgroup view alike; in exact arithmetic it is
    one product of the orbit matrix (exact cosines times character-orbit
    sizes, rows per element orbit) with the spectrum variables, over |G|:
    one value per orbit, because g and -g pair with every character at
    phases p and L - p, which have the same cosine."""
    group = spec.group
    exact = spec.arithmetic == EXACT
    zero = Fraction(0) if exact else 0.0
    reps, orbit_values = lp.var_labels, x
    if formulation == "fourier":
        chi_reps = [label[1] for label in lp.var_labels]
        reps = _orbits(group.size, group.neg_index)[0]
        if exact:
            _, chi_size = _orbits(group.size, group.char_neg_index)
            sizes = np.array([chi_size[k] for k in chi_reps], dtype=object)
            inverse = _cosine_matrix(group, reps, chi_reps, True) * sizes
            orbit_values = (inverse @ np.array(x, dtype=object) / group.size).tolist()
        else:
            spectrum = np.zeros(group.size)
            spectrum[chi_reps] = x
            spectrum[[group.char_neg_index(k) for k in chi_reps]] = x
            f = idft(Spectrum(group, spectrum * float(lp.objective_scale)))
            orbit_values = f.values[reps].tolist()
    values = [zero] * group.size
    for rep, value in zip(reps, orbit_values):
        values[rep] = values[group.neg_index(rep)] = value
    return values


def _auto_formulation(spec: ProblemSpec) -> str:
    """The form ``solve`` takes by default: the one with fewer LP rows for a
    float problem, ties going to primal, and primal for an exact problem.

    The primal form has one row per character orbit, and the Fourier form
    1 + (nonzero element orbits outside Ω₊) + (nonzero element orbits
    outside Ω₋), so the count needs neither LP.  Exact problems stay
    primal because a group and a subgroup solved in different forms lift
    different irrational cosines to ``Fraction``, and the reduction
    identity would then lose exact equality.
    """
    if spec.arithmetic == EXACT:
        return "primal"
    group = spec.group
    plus, minus = spec.omega_plus.indices, spec.omega_minus.indices
    reps = _orbits(group.size, group.neg_index)[0]
    fourier_rows = 1 + sum((g not in plus) + (g not in minus) for g in reps if g != 0)
    if fourier_rows < len(_orbits(group.size, group.char_neg_index)[0]):
        return "fourier"
    return "primal"


def solve(spec: ProblemSpec, formulation: str = "auto") -> Solution:
    """Build, solve and validate one extremal problem.

    ``formulation`` is "primal", "fourier" or "auto" (``_auto_formulation``):
    a float problem solves the form with fewer LP rows, ties going to
    primal, and an exact problem always solves the primal form.  A float
    Delsarte problem gets the Fourier form unless Ω₊ = {0}; a Turan
    problem gets it only when Ω₊ covers more than half of the nonzero
    negation orbits, so Turan intervals on a torus grid stay primal.
    ``Solution.formulation`` records the form solved.

    Class emptiness is a status, not an error: if the identity is not an
    admissible plus point the value is 0 by convention.
    """
    start = time.perf_counter()
    if formulation == "auto":
        formulation = _auto_formulation(spec)
    builder = {"primal": build_primal, "fourier": build_fourier_form}.get(formulation)
    if builder is None:
        raise ValueError(f"unknown formulation {formulation!r}: primal, fourier or auto")
    try:
        lp = builder(spec)
    except ClassEmptyProblem:
        return Solution(
            spec=spec,
            status="class_empty",
            value=0.0,
            value_exact=Fraction(0) if spec.arithmetic == EXACT else None,
            extremal_function=None,
            extremal_values_exact=None,
            dual_certificate=None,
            gap=0.0,
            stats=SolveStats(0, 0, time.perf_counter() - start),
            formulation=formulation,
            lp=None,
            var_values=None,
            class_verdict=None,
        )
    raw = simplex_solve(lp)
    exact = spec.arithmetic == EXACT
    h = lp.objective_scale

    values = _reconstruct(spec, lp, raw.x, formulation)
    function = GroupFunction(spec.group, [float(v) for v in values])

    certificate = DualCertificate(
        rows=tuple([(r.label, y) for r, y in zip(lp.rows, raw.row_duals)]),
        lower_bounds=raw.lower_duals,
        upper_bounds=raw.upper_duals,
        dual_objective=_dual_objective(
            lp, raw.row_duals, raw.upper_duals, raw.lower_duals
        ),
    )

    gap_raw = raw.objective - certificate.dual_objective
    gap = abs(float(h) * float(gap_raw))
    value_exact = h * raw.objective if exact else None
    verdict = in_class(function, spec.class_spec(), tol=max(spec.tolerance, 1e-9))
    sol = Solution(
        spec=spec,
        status="optimal",
        value=float(h) * float(raw.objective),
        value_exact=value_exact,
        extremal_function=function,
        extremal_values_exact=tuple(values) if exact else None,
        dual_certificate=certificate,
        gap=gap,
        stats=SolveStats(
            raw.iterations, raw.phase1_iterations, time.perf_counter() - start,
            raw.bound_flips,
        ),
        formulation=formulation,
        lp=lp,
        var_values=tuple(raw.x),
        class_verdict=verdict,
    )
    return replace(sol, certificate_verdict=verify_certificate(sol))


def _dual_objective(lp: LinearProgram, row_duals, upper_duals, lower_duals):
    """b . y + hi . mu - lo . nu, by integer dot products when exact."""
    if lp.arithmetic == EXACT:
        lo, hi = zip(*lp.var_bounds)
        rhs = [r.rhs for r in lp.rows]
        return (_exact_dot([*row_duals, *upper_duals], [*rhs, *hi])
                - _exact_dot(lower_duals, lo))
    acc = 0.0
    for row, y in zip(lp.rows, row_duals):
        acc += y * row.rhs
    for j, mu in enumerate(upper_duals):
        acc += mu * lp.var_bounds[j][1]
    for j, nu in enumerate(lower_duals):
        acc -= nu * lp.var_bounds[j][0]
    return acc


@dataclass(frozen=True)
class CertificateVerdict:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def _float_residuals(lp: LinearProgram, x, y, upper, lower):
    """Row slacks rhs - a . x and stationarity residuals
    c_j - sum_i y_i a_ij - mu_j + nu_j of a float program."""
    row_maps = [dict(row.coeffs) for row in lp.rows]
    slacks = [
        row.rhs - sum((a * x[j] for j, a in coeffs.items()), 0.0)
        for row, coeffs in zip(lp.rows, row_maps)
    ]
    residuals = []
    for j in range(lp.num_vars):
        stat = lp.objective[j]
        for coeffs, y_i in zip(row_maps, y):
            coeff = coeffs.get(j)
            if coeff is not None:
                stat = stat - y_i * coeff
        residuals.append(stat - upper[j] + lower[j])
    return slacks, residuals


def _exact_residuals(lp: LinearProgram, x, y, upper, lower):
    """The same slacks and residuals of an exact program, each one
    Fraction built from an integer dot product over a common denominator."""
    nv = lp.num_vars
    X, dx = _over_common(x)
    rows = [_integer_row(row, nv) for row in lp.rows]
    slacks = []
    for row, (A, d) in zip(lp.rows, rows):
        den = d * dx
        slacks.append(Fraction(
            row.rhs.numerator * den - row.rhs.denominator * _dot(A, X),
            row.rhs.denominator * den,
        ))
    # y_i a_ij = y_i.numerator A_ij / (y_i.denominator d_i); one denominator
    # D takes these terms and every c_j, mu_j and nu_j.
    D = math.lcm(
        *(y_i.denominator * d for y_i, (_, d) in zip(y, rows) if y_i),
        *(v.denominator for v in (*lp.objective, *upper, *lower)),
    )

    def scaled(v) -> int:
        return v.numerator * (D // v.denominator)

    acc = [scaled(c) - scaled(mu) + scaled(nu) for c, mu, nu in zip(lp.objective, upper, lower)]
    for y_i, (A, d) in zip(y, rows):
        if y_i:
            w = y_i.numerator * (D // (y_i.denominator * d))
            acc = [r - w * a for r, a in zip(acc, A)]
    return slacks, [Fraction(r, D) for r in acc]


def _negligible(a, b, eps) -> bool:
    """|a b| <= eps max(1, |a|): a complementary-slackness product."""
    return not a or not b or abs(a * b) <= eps * max(1, abs(a))


def verify_certificate(sol: Solution, tol: float | None = None) -> CertificateVerdict:
    """Dual feasibility, complementary slackness and the weak-duality gap.

    Empty-class solutions pass vacuously.  Any violated condition is
    reported with the offending row or bound label.  Exact programs are
    checked on exact numbers (the tolerance too is taken as the exact
    value of its float), so ``tol=0`` passes only an exact certificate;
    floats appear only in the messages.
    """
    if sol.status == "class_empty":
        return CertificateVerdict(True, ())
    lp, cert = sol.lp, sol.dual_certificate
    if lp is None or cert is None or sol.var_values is None:
        return CertificateVerdict(False, ("missing certificate data",))
    exact = lp.arithmetic == EXACT
    if tol is None:
        tol = 0.0 if exact else max(sol.spec.tolerance, 1e-9)
    x = sol.var_values
    y = [y_i for _, y_i in cert.rows]
    violations: list[str] = []

    def check(condition: bool, message) -> None:
        # ``message`` is a callable, so passing checks format nothing.
        if not condition:
            violations.append(message())

    eps = tol * max(1.0, abs(float(sol.value)))
    if exact:
        eps = Fraction(eps)
    floor, stat_eps = -eps, eps * 10
    residual_fn = _exact_residuals if exact else _float_residuals
    slacks, residuals = residual_fn(lp, x, y, cert.upper_bounds, cert.lower_bounds)
    for row, slack, (label, y_i) in zip(lp.rows, slacks, cert.rows):
        name = _row_name(label)
        if row.sense == "<=":
            check(slack >= floor, lambda: f"{name}: primal row violated by {float(-slack)}")
            check(y_i >= floor, lambda: f"{name}: multiplier sign ({y_i})")
        elif row.sense == ">=":
            check(slack <= eps, lambda: f"{name}: primal row violated by {float(slack)}")
            check(y_i <= eps, lambda: f"{name}: multiplier sign ({y_i})")
        check(
            _negligible(y_i, slack, eps),
            lambda: f"{name}: complementary slackness (y={y_i}, slack={float(slack)})",
        )
    for j, residual in enumerate(residuals):
        lo_j, hi_j = lp.var_bounds[j]
        nu = cert.lower_bounds[j]
        mu = cert.upper_bounds[j]
        above_lo, below_hi = x[j] - lo_j, hi_j - x[j]
        name = f"variable[{lp.var_labels[j]}]"
        check(above_lo >= floor, lambda: f"{name}: below lower bound")
        check(below_hi >= floor, lambda: f"{name}: above upper bound")
        check(nu >= floor, lambda: f"{name}: lower multiplier sign ({nu})")
        check(mu >= floor, lambda: f"{name}: upper multiplier sign ({mu})")
        check(_negligible(nu, above_lo, eps),
              lambda: f"{name}: lower-bound complementary slackness")
        check(_negligible(mu, below_hi, eps),
              lambda: f"{name}: upper-bound complementary slackness")
        check(
            -stat_eps <= residual <= stat_eps,
            lambda: f"{name}: dual stationarity residual {float(residual)}",
        )
    # Recompute the dual objective from the multipliers themselves; the
    # certificate is the multipliers, not a claimed gap.
    dual_obj = _dual_objective(lp, y, cert.upper_bounds, cert.lower_bounds)
    if exact:
        value = Fraction(sol.value) if sol.value_exact is None else sol.value_exact
        gap = value - lp.objective_scale * dual_obj
    else:
        gap = float(sol.value) - float(lp.objective_scale) * float(dual_obj)
    check(
        abs(gap) <= max(tol, sol.spec.tolerance) * max(1.0, abs(float(sol.value))),
        lambda: f"duality gap {float(gap)}",
    )
    return CertificateVerdict(not violations, tuple(violations))


def _row_name(label: tuple) -> str:
    return label[0] + "".join(f"[{part}]" for part in label[1:])


# -- sweeps -------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    grid: int
    step: float
    value: float
    gap: float
    runtime: float
    status: str
    warning: str | None
    value_exact: Fraction | None = None
    certificate_verdict: CertificateVerdict | None = None


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple[SweepRow, ...]

    def values(self) -> list[float]:
        return [r.value for r in self.rows]

    def lines(self) -> list[str]:
        out = ["grid,step,value,gap,runtime,warning"]
        for r in self.rows:
            warn = r.warning or ""
            out.append(
                f"{r.grid},{r.step:.12g},{r.value:.12g},{r.gap:.3g},"
                f"{r.runtime:.3f},{warn}"
            )
        return out

    def csv_lines(self) -> list[str]:
        # Byte-stable artifact: no wall-clock column.
        out = ["grid,step,value,gap,warning"]
        for r in self.rows:
            warn = r.warning or ""
            out.append(
                f"{r.grid},{r.step:.12g},{r.value:.12g},{r.gap:.3g},{warn}"
            )
        return out


def _discretize_pair(
    s_plus: RealSet1D,
    s_minus: RealSet1D | str | None,
    torus: TorusSpec,
    mode: str,
):
    dp = sample_set(s_plus, torus)
    group = dp.group
    omega_plus = SymmetricSet.from_signed(group, dp.signed_members)
    if mode == "turan":
        return dp, omega_plus, omega_plus
    if mode == "delsarte":
        return dp, omega_plus, SymmetricSet.full(group)
    if s_minus == SAME or s_minus is None:
        return dp, omega_plus, omega_plus
    if s_minus == FULL:
        return dp, omega_plus, SymmetricSet.full(group)
    dm = sample_set(s_minus, torus)
    return dp, omega_plus, SymmetricSet.from_signed(group, dm.signed_members)


def solve_discretized(
    s_plus: RealSet1D,
    s_minus: RealSet1D | str | None,
    torus: TorusSpec,
    mode: str = "turan",
    arithmetic: str = FLOAT,
    tolerance: float = 1e-9,
) -> tuple[Solution, str | None]:
    """Discretize a real-line problem on the torus grid and solve it."""
    dp, omega_plus, omega_minus = _discretize_pair(s_plus, s_minus, torus, mode)
    spec = ProblemSpec(
        dp.group, omega_plus, omega_minus,
        mode=mode, arithmetic=arithmetic, tolerance=tolerance,
    )
    return solve(spec), dp.warning


def sweep(
    s_plus: RealSet1D,
    s_minus: RealSet1D | str | None,
    circumference,
    grids: Iterable[int],
    mode: str = "turan",
    arithmetic: str = FLOAT,
    tolerance: float = 1e-9,
) -> ConvergenceTable:
    """One solve per grid count, in the order given; every grid count is
    checked before the first solve, and there must be at least one."""

    def run(torus: TorusSpec) -> SweepRow:
        start = time.perf_counter()
        sol, warning = solve_discretized(
            s_plus, s_minus, torus, mode, arithmetic, tolerance
        )
        return SweepRow(
            grid=torus.grid,
            step=float(torus.step),
            value=sol.value,
            gap=sol.gap,
            runtime=time.perf_counter() - start,
            status=sol.status,
            warning=warning,
            value_exact=sol.value_exact,
            certificate_verdict=sol.certificate_verdict,
        )

    tori = [TorusSpec(circumference, n) for n in grids]
    if not tori:
        raise ValueError("a sweep needs at least one grid count")
    return ConvergenceTable(tuple(run(torus) for torus in tori))
