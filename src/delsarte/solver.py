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
picks the forms from its input (``_default_forms``).  A problem with
orbits in exactly one sign set first tries the primal form restricted to
the orbits in both sets (the Turán program on Ω₊ ∩ Ω₋, whose class lies
inside the problem's), kept only when every orbit it leaves out prices
out (to the float pricing tolerance, or exactly in exact arithmetic) and
its certificate holds on the full primal form.  Otherwise a float
problem gets the Fourier form when it has fewer rows than the primal
form has variables (in Delsarte mode unless Ω₊ = {0}), and an exact one
gets the primal form.  The restriction is a column subset of the primal
form, so every exact solve of a group or a subgroup reads the primal
form's matrix, and their irrational cosines are lifted the same way.
A dense two-phase simplex is the single solving engine; it pivots either
in float64 on a tableau of the nonbasic columns only (bounded variables,
Dantzig pricing, Harris ratio test) or in exact arithmetic on a
fraction-free integer tableau (Bland's rule, used by the exact path
only).  Both builders and
the exact Fourier reconstruction read one orbit matrix: the group's
cosine table (``groups``: L values, one per integer phase p / L) indexed
by the integer phase matrix of the element and character orbit
representatives, times the orbit sizes.
The primal form takes its character rows, the Fourier form its element
rows (element 0 giving the normalization row), and a ``LinearProgram``
holds that matrix as its constraint matrix ``A`` beside the row senses
and right-hand sides; the simplex, the certificate check and the dual
objective read those arrays.  The float table is float64; the exact one is exact where the
phase admits a rational cosine (reduced denominators 1, 2, 3, 4, 6) and
the float value lifted to a ``Fraction`` otherwise, so "exact" means
exact pivoting on exactly represented row data.  Float and exact
certificates are checked by one table of conditions (an ``=`` row needs
|slack| <= eps); an exact check's row activities and stationarity
residuals are integer dot products over common denominators, so at zero
tolerance it passes only a certificate that holds exactly, and an exact
solution without ``value_exact`` fails.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
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
# solve gives up.  One pass of every benchmark workload takes at most 0.59
# (float) and 0.35 (exact) in a phase, and an exact Z72 Delsarte solve
# 0.28.  The stalls of the explicit primal Delsarte form of [-1,1] on
# torus 8 take far more in phase 2: 8.0 at N = 256 and 26.1 at N = 512,
# the most in the test suite, and 70.5 at N = 1024; at N = 2048 that solve
# passes the limit.
PIVOTS_PER_COLUMN = 100

# The float simplex drops the artificial columns of >= rows after phase 1
# only when they hold at least this many tableau entries (rows times
# columns).  On the seed-1 float programs of the benchmark (sums of
# per-program simplex minima over 7 and 11 alternating rounds, one BLAS
# thread), dropping always made group-battery's 1,200 small programs
# 4.1-4.2% slower (437 -> 455 ms), and never dropping made torus-grid's 14
# programs, most of them above the gate, 2.6-3.6% slower (56 -> 57-58 ms).
# Pivots and values do not depend on the gate; a row dual read from the
# kept column instead of the surplus column can move in the last bit.
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


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Dense LP over bounded variables (lo <= x <= hi, both finite),
    maximization sense: row i reads A[i] . x (senses[i]) rhs[i].

    ``A`` is a read-only rows x vars array, float64 or, in exact
    arithmetic, an object array of ``Fraction``.  Programs compare by
    identity.  The objective is stored h-free with the Haar weight as a
    separate exact scale, so the value scales linearly in the weight by
    construction.
    """

    var_labels: tuple
    var_bounds: tuple[tuple[object, object], ...]
    row_labels: tuple
    A: np.ndarray
    senses: tuple[str, ...]
    rhs: tuple
    objective: tuple
    objective_scale: Fraction
    arithmetic: str
    maximize: bool = True

    def __post_init__(self) -> None:
        for sense in self.senses:
            if sense not in ("<=", ">=", "="):
                raise ValueError(f"unknown row sense {sense!r}: <=, >= or =")
        m, n = self.A.shape
        for name, want in (("row_labels", m), ("senses", m), ("rhs", m),
                           ("var_labels", n), ("var_bounds", n), ("objective", n)):
            if len(getattr(self, name)) != want:
                raise ValueError(
                    f"{name} has {len(getattr(self, name))} entries, A has shape {m} x {n}")
        self.A.flags.writeable = False

    @property
    def num_vars(self) -> int:
        return len(self.var_labels)

    @cached_property
    def condensed(self) -> list[tuple[list[int], int]]:
        """The rows of an exact program as integer numerators over the lcm
        of their denominators (``_over_common``), made once for the exact
        simplex and the certificate check to share."""
        return [_over_common(a) for a in self.A.tolist()]

    @property
    def rows(self) -> tuple[LPRow, ...]:
        """The rows as ``LPRow``s, dense, built on every access; the
        solver reads the arrays, and this view serves outside readers."""
        return tuple([
            LPRow(label, tuple(list(enumerate(coeffs))), sense, rhs)
            for label, coeffs, sense, rhs
            in zip(self.row_labels, self.A.tolist(), self.senses, self.rhs)
        ])


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


def _orbit_split(spec: ProblemSpec) -> tuple[list[int], list[int], list[int], dict[int, int]]:
    """The nonzero element orbit representatives in both sign sets, in
    exactly one and in neither, each in increasing order, and the sizes of
    all element orbits.  The primal form has a variable for orbit 0 and
    each orbit in a sign set, the Fourier form a row for orbit 0 and each
    orbit not in both."""
    plus, minus = spec.omega_plus.indices, spec.omega_minus.indices
    reps, rep_size = _orbits(spec.group.size, spec.group.neg_index)
    both, single, neither = split = ([], [], [])
    for r in reps[1:]:
        split[2 - (r in plus) - (r in minus)].append(r)
    return both, single, neither, rep_size


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

    both, single, _, rep_size = _orbit_split(spec)
    var_reps = [0] + sorted(both + single)
    bounds = tuple([
        (one, one) if r == 0
        else (-one if r in minus else zero, one if r in plus else zero)
        for r in var_reps
    ])
    chi_reps = _orbits(group.size, group.char_neg_index)[0]
    sizes = np.array([rep_size[r] for r in var_reps], dtype=object if exact else float)
    objective = tuple([
        (Fraction(rep_size[r]) if exact else float(rep_size[r])) for r in var_reps
    ])
    return LinearProgram(
        var_labels=tuple(var_reps),
        var_bounds=bounds,
        row_labels=tuple([("spectral", k) for k in chi_reps]),
        A=(_cosine_matrix(group, var_reps, chi_reps, exact) * sizes[:, None]).T,
        senses=(">=",) * len(chi_reps),
        rhs=(zero,) * len(chi_reps),
        objective=objective,
        objective_scale=Fraction(group.weight),
        arithmetic=spec.arithmetic,
    )


def build_fourier_form(spec: ProblemSpec) -> LinearProgram:
    """Independent reformulation in spectrum values on character orbits.

    Variables are the h-free transform values, nonnegative by positive
    definiteness.  The rows are |G| f(g) on element 0 and on each nonzero
    orbit outside Ω₊ ∩ Ω₋: the normalization row encodes f(0) = 1, the
    sign rows (``<=`` outside Ω₊, ``>=`` outside Ω₋) constrain the
    reconstructed function outside one sign set and the zero rows (right
    side 0, sense ``=``) set it to 0 outside both.
    Equivalence with the primal form follows from the inversion formula.
    """
    group = spec.group
    if 0 not in spec.omega_plus:
        raise ClassEmptyProblem("the identity is not in the plus set")
    exact = spec.arithmetic == EXACT
    one = Fraction(1) if exact else 1.0
    zero = Fraction(0) if exact else 0.0
    n = group.size

    chi_reps, chi_size = _orbits(group.size, group.char_neg_index)
    big = Fraction(n) if exact else float(n)
    bounds = tuple([(zero, big) for _ in chi_reps])

    _, single, neither, _ = _orbit_split(spec)
    reps = [0] + sorted(single + neither)
    plus, minus = spec.omega_plus.indices, spec.omega_minus.indices
    labels, senses = zip(*[(("normalization",), "=")] + [
        (("sign_plus", g), "<=") if g in minus
        else (("sign_minus", g), ">=") if g in plus
        else (("zero", g), "=")
        for g in reps[1:]
    ])
    sizes = np.array([chi_size[k] for k in chi_reps], dtype=object if exact else float)

    objective = tuple([one if k == 0 else zero for k in chi_reps])
    return LinearProgram(
        var_labels=tuple([("fhat", k) for k in chi_reps]),
        var_bounds=bounds,
        row_labels=labels,
        A=_cosine_matrix(group, reps, chi_reps, exact) * sizes,
        senses=senses,
        rhs=(big,) + (zero,) * (len(reps) - 1),
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


def price_dantzig(rc: np.ndarray, allowed: np.ndarray, labels: np.ndarray,
                  eps: float) -> int:
    """Steepest reduced cost below -eps among allowed columns, the lowest
    label on ties; -1 when none prices out."""
    masked = np.where(allowed, rc, np.inf)
    j = int(masked.argmin())
    if not masked[j] < -eps:
        return -1
    ties = (masked == masked[j]).nonzero()[0]
    return j if ties.size == 1 else int(ties[labels[ties].argmin()])


def price_bland(rc: list, labels: list, allowed) -> int:
    """Bland's entering rule: the slot of the lowest label whose reduced
    cost is negative and which ``allowed`` (by label) may price; -1 when
    none prices out."""
    best, lowest = -1, None
    for q, (c, j) in enumerate(zip(rc, labels)):
        if c < 0 and allowed[j] and (best < 0 or j < lowest):
            best, lowest = q, j
    return best


def leave_bland(col: list, rhs: list, basis: list) -> int:
    """Bland's leaving rule over the positive entries: the strict minimum
    ratio, ties broken by the lowest basic variable label; -1 when no
    entry is positive.  Entries are exact (``Fraction`` or ``int``), and
    ratios are compared by cross-multiplying the positive entries, so
    integer numerators over positive row denominators give the same
    choice as the rationals they encode, with no division."""
    best = -1
    for i, a in enumerate(col):
        if a > 0:
            if best < 0:
                best = i
                continue
            here, there = rhs[i] * col[best], rhs[best] * a
            if here < there or (here == there and basis[i] < basis[best]):
                best = i
    return best


def polish_row(rhs: np.ndarray, floor: float) -> int:
    """Dual simplex leaving row: the first most negative right-hand side
    below ``floor``, or -1 when the basis is primal feasible."""
    i = int(rhs.argmin())
    return i if rhs[i] < floor else -1


def polish_col(row: np.ndarray, rc: np.ndarray, allowed: np.ndarray,
               labels: np.ndarray, pivot_tol: float) -> int:
    """Dual ratio test on a leaving row: among allowed entries below
    -pivot_tol, the smallest rc / |a|, ties broken by the largest |a| and
    then by the lowest label.  Returns -1 when the row proves the program
    infeasible."""
    cols = (allowed & (row < -pivot_tol)).nonzero()[0]
    if cols.size == 0:
        return -1
    ratios = rc[cols] / -row[cols]
    ties = cols[ratios == ratios.min()]
    size = np.abs(row[ties])
    ties = ties[size == size.max()]
    return int(ties[labels[ties].argmin()])


def leave_bounded(col: np.ndarray, rhs: np.ndarray, upper: np.ndarray,
                  bound: float, pivot_tol: float, slack: float,
                  tiny: float) -> tuple[int, bool]:
    """Harris's two-pass ratio test for a column entering from 0 towards
    ``bound``, with basic variable i in [0, upper[i]].

    A positive entry drives its basic variable down to 0 and a negative
    one up to ``upper``: either is the entry's size a over the distance b
    left, which is infinite on a rising row with no upper bound.  Pass
    one takes the smallest (b + slack) / a over entries above
    ``pivot_tol``, pass two the first largest entry among the rows with
    b / a within it; when pass one finds no finite ratio, the first
    largest entry above ``tiny`` with a finite b leaves.  Returns the
    leaving row and whether it leaves at its upper bound, or (-1, False)
    when the entering variable reaches ``bound`` first (a bound flip) or
    nothing blocks it.
    """
    a = np.abs(col)
    b = np.where(col < 0, upper - rhs, rhs)
    rows = (a > pivot_tol).nonzero()[0]
    ar, br = a[rows], b[rows]
    theta = ((br + slack) / ar).min(initial=np.inf)
    if theta < np.inf:
        row = int(rows[np.where(br / ar <= theta, ar, 0.0).argmax()])
    else:
        rows = ((a > tiny) & (b < np.inf)).nonzero()[0]
        if rows.size == 0:
            return -1, False
        row = int(rows[a[rows].argmax()])
    if bound <= b[row] / a[row]:
        return -1, False
    return row, bool(col[row] < 0)


def simplex_solve(lp: LinearProgram) -> RawOptimum:
    """Dense two-phase tableau simplex; bounded-variable in float.

    The float path works on x = lo + xt, 0 <= xt <= u = hi - lo, with no
    box rows.  Only a row that the start xt = 0 violates gets an
    artificial: a <= row, and any row whose shifted right side is 0,
    takes a slack (such a >= row is negated to a <= row; such an = row
    takes a slack fixed at 0, which is never priced or perturbed and
    whose row dual is read with its sign, since it can end complemented).
    A nonbasic column sits at either bound, and one at its upper bound is
    complemented (xt = u - xt': its column negated in the tableau and in
    the data, the right-hand side shifted by u times it), so pricing,
    pivots and refactorization never see the bounds.  The Harris
    ratio test also stops basic variables at their upper bounds, and an
    entering variable that reaches its own bound first flips there with
    no pivot.  Every inequality is relaxed outward by a distinct
    deterministic epsilon (breaking degenerate ties without losing
    feasibility), and pricing is by steepest reduced cost.

    The tableau is condensed: it keeps only the nonbasic columns and the
    right-hand side, since the basic columns are unit vectors, and its
    last row holds the reduced costs.  ``nonbasic`` names the variable of
    each column and ``basis`` that of each row.  Each pivot is one
    in-place rank-1 update of these columns (the outer product by
    ``np.einsum`` into a buffer, one product per entry as
    ``np.multiply.outer`` forms it but several times faster on tableaus
    of a few hundred rows, then one subtraction), after which the leaving
    variable's column stands where the entering one stood.  An artificial
    is never priced, and after phase 1 its upper bound is 0, so the ratio
    test holds one left basic on a redundant row at 0; the nonbasic
    artificial of each >= row, the negated surplus column, is dropped.
    At the end the tableau is rebuilt from the true data, a short
    dual-simplex pass repairs the perturbation-sized infeasibility on
    either bound, and one primal pass and a second rebuild (skipped when
    nothing moved since the first) re-certify optimality; a basis that
    still fails raises.  Each selection rule takes the lowest variable
    label among equal candidates, so the pivots are those the full
    tableau takes.  Exact-rational programs go to ``_exact_simplex``
    (Bland's rule on a fraction-free integer tableau with explicit box
    rows).

    Finite variable bounds guarantee boundedness; the admissible problems
    are never infeasible (the point mass at the identity is feasible), so
    both failure modes raise rather than return.
    """
    if lp.arithmetic == EXACT:
        return _exact_simplex(lp)
    nv, m = lp.num_vars, len(lp.rhs)
    lo, hi = np.array(lp.var_bounds).T
    # The true [A | b] over xt = x - lo by variable index, which refactor()
    # rebuilds from; the shift A . lo is summed left to right, as the
    # pivots were pinned with.  The unit columns come last and are the
    # start basis.
    shifted = np.array(lp.rhs) - np.cumsum(lp.A * lo, axis=1)[:, -1]
    data, flipped, ge, artificial, fixed = _standard_form(
        lp.A, lp.senses, shifted, np.ones(m), zero_slack=True)
    ncols = data.shape[1] - 1
    k = unit = ncols - m  # nonbasic columns
    # Tableau column q is data column nonbasic[q]: a nonbasic variable, or
    # for q = k the right-hand side.  Row m holds the reduced costs.
    nonbasic = np.arange(k + 1)
    nonbasic[k] = ncols
    basis = np.arange(k, ncols)
    T = np.empty((m + 1, k + 1))
    T[:m, :k] = data[:, :k]
    up = np.concatenate([hi - lo, np.full(ncols - nv, np.inf)])  # bound of each variable
    up[fixed] = 0.0
    sign = np.ones(ncols + 1)  # -1 on complemented variables
    not_art = np.ones(ncols + 1, dtype=bool)
    not_art[artificial] = False
    # What pricing may pick: never a slack fixed at 0, which cannot move,
    # and never an artificial, which once out of the basis stays out.
    priced = not_art.copy()
    priced[fixed] = False
    up_basic = up[k:].copy()  # the bound of each basic variable, kept current,
    free = priced[:k].copy()  # and whether each column may be priced
    iterations = bound_flips = 0

    # Deterministic degeneracy-breaking perturbation: relax every
    # inequality outward by a distinct tiny amount.  The admissible point
    # mass stays feasible, exact ratio ties disappear, and the true
    # right-hand side is restored before the final polish.
    b = data[:, ncols]  # nonnegative after _standard_form
    delta = 1e-5 * (1.0 + float(b.max())) * np.arange(1, m + 1) / m
    T[:m, k] = b
    np.add(b, delta, out=T[:m, k], where=priced[k:ncols])  # a slack not fixed at 0
    np.subtract(b, delta, out=T[:m, k], where=ge & (b > delta))
    update = np.empty_like(T)  # rank-1 update buffer, reused by every pivot
    spread = np.zeros(data.shape)  # set_objective's tableau by variable index

    def pivot(leave: int, q: int, col: np.ndarray) -> None:
        # ``col`` is a copy of column q, taken before any complement() of
        # the leaving row, so the pivot is read from the tableau.  Column q
        # first becomes the leaving variable's unit column; the update then
        # gives it 1/p on the pivot row and -col/p elsewhere.
        p = T[leave, q]
        col[leave] = 0.0
        T[:, q] = 0.0
        T[leave, q] = 1.0
        T[leave] /= p
        np.einsum("i,j->ij", col, T[leave], out=update)
        np.subtract(T, update, out=T)
        enter = nonbasic[q]
        nonbasic[q] = basis[leave]
        basis[leave] = enter
        up_basic[leave] = up[enter]
        free[q] = priced[nonbasic[q]]

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

    limit = PIVOTS_PER_COLUMN * (m + ncols)  # steps per phase
    pivot_tol = 1e-9  # never pivot on anything smaller
    harris_slack = 1e-9
    tiny = 1e-11  # Harris falls back to entries above this, never below

    def run_phase(cost: np.ndarray | None) -> int:
        # cost None: the reduced-cost row is already that of this phase.
        nonlocal iterations, bound_flips
        if cost is not None:
            set_objective(cost)
        rc, values, labels = T[m, :k], T[:m, k], nonbasic[:k]
        steps = pivots = 0
        while True:
            q = price_dantzig(rc, free, labels, 1e-9)
            if q < 0:
                return pivots
            bound = up[nonbasic[q]]
            col = T[:, q].copy()
            leave, at_upper = leave_bounded(
                col[:m], values, up_basic, bound, pivot_tol, harris_slack, tiny,
            )
            if leave >= 0:
                if at_upper:
                    complement(row=leave)
                pivot(leave, q, col)
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
        phase1_iterations = run_phase(cost1)
        stuck = (~not_art[basis]).nonzero()[0]
        infeas = float(T[stuck, k].sum())
        if infeas > 1e-7:
            raise SimplexError(f"infeasible program (residual {infeas})")
        # Every artificial is now bounded by 0, so the ratio test keeps a
        # leftover basic one at 0 through phase 2.
        up[artificial] = 0.0
        up_basic[stuck] = 0.0
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
    run_phase(cost2)

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
        q = polish_col(T[leave, :k], T[m, :k], free, nonbasic[:k], pivot_tol)
        if q < 0:
            raise SimplexError("dual polish found an infeasible row")
        pivot(leave, q, T[:, q].copy())
        iterations += 1
        polish += 1
        if polish > polish_limit:
            raise SimplexError("dual polish did not converge")
    # While no step has been taken since refactor(), the tableau is the
    # one a new refactor() would give, bit for bit.
    run_phase(cost2 if polish else None)
    if iterations + bound_flips > refactored_at:
        refactor()
    rhs = T[:m, k]
    optimal = price_dantzig(T[m, :k], free, nonbasic[:k], 1e-8) < 0
    if not (optimal and (rhs >= -1e-9).all() and (rhs <= up_basic + 1e-9).all()):
        raise SimplexError("optimality not reached on the restored data")

    # Reduced costs by variable index, 0 on the basic ones.  A
    # complemented variable's reduced cost is its upper-bound multiplier.
    rc = np.zeros(ncols + 1)
    rc[nonbasic] = T[m]
    if twins is not None:
        rc[twins] = 0.0 - rc[nv - 1 + np.cumsum(ge)[twins - unit]]  # surplus columns
    value = np.zeros(ncols)
    value[basis] = rhs
    comp = sign[:nv] < 0
    xt = np.where(comp, up[:nv] - value[:nv], value[:nv])
    return _optimum(  # Python floats: no numpy scalar leaves the engine
        lp, xt.tolist(), _row_duals((rc * sign).tolist(), unit, flipped),
        np.where(comp, 0.0, rc[:nv]).tolist(), np.where(comp, rc[:nv], 0.0).tolist(),
        0.0, iterations, phase1_iterations, bound_flips,
    )


def _exact_simplex(lp: LinearProgram) -> RawOptimum:
    """Two-phase simplex under Bland's rule in exact arithmetic.

    The tableau is fraction-free and condensed, as in the float engine:
    it keeps only the nonbasic columns and the right-hand side, since a
    basic column holds its row's denominator in its own row and 0 in
    every other.  Row i is a list of Python-int numerators ``M[i]`` over
    one positive denominator ``den[i]``, reduced by their gcd, and row
    ``m`` holds the reduced costs.  Slot q holds variable ``nonbasic[q]``
    and slot k the right-hand side.  A pivot on (r, q) with p = M[r][q]
    sets ``M[i] <- p M[i] - M[i][q] M[r]`` and ``den[i] <- den[i] p`` on
    every other row with a nonzero entry in slot q, then ``den[r] <- p``;
    slot q then holds the leaving variable's column, ``-M[i][q] den[r]``
    in row i and the old ``den[r]`` in row r.  The omitted basic entries
    change no gcd, so every integer is the one the full tableau holds.
    Signs and ratios do not depend on the row denominators, so every
    choice is the one the rational tableau makes; values become
    ``Fraction``s only at extraction.  No tolerances, no perturbation.

    Each row over xt = x - lo enters as integer numerators over the lcm of
    its denominators (which leaves them with gcd 1), followed by one box
    row xt_j <= hi_j - lo_j per variable.
    """
    nv = lp.num_vars
    lo_num, lo_den = _over_common([b[0] for b in lp.var_bounds])
    rows, b, den = [], [], []  # integer numerators over den
    for (nums, d), rhs in zip(lp.condensed, lp.rhs):
        rhs = rhs - Fraction(_dot(nums, lo_num), d * lo_den)
        common = math.lcm(d, rhs.denominator)
        rows.append([v * (common // d) for v in nums])
        b.append(rhs.numerator * (common // rhs.denominator))
        den.append(common)
    for j, (lo, hi) in enumerate(lp.var_bounds):
        u = hi - lo
        rows.append([0] * j + [u.denominator] + [0] * (nv - 1 - j))
        b.append(u.numerator)
        den.append(u.denominator)
    m = len(rows)
    data, flipped, _, artificial, _ = _standard_form(
        np.array(rows, dtype=object), lp.senses + ("<=",) * nv,
        np.array(b, dtype=object), np.array(den, dtype=object))
    ncols = data.shape[1] - 1
    k = ncols - m  # nonbasic columns; the unit columns are the start basis
    M = [row[:k] + row[ncols:] for row in data.tolist()]
    M.append([0] * (k + 1))  # row m: reduced costs
    den.append(1)
    nonbasic = list(range(k))
    basis = list(range(k, ncols))
    not_art = [True] * ncols
    for j in artificial:
        not_art[j] = False
    limit = PIVOTS_PER_COLUMN * (m + ncols)  # steps per phase

    def reduce(i: int) -> None:
        g = math.gcd(den[i], *M[i])
        if den[i] < 0:
            g = -g
        if g != 1:
            M[i] = [a // g for a in M[i]]
            den[i] //= g

    def pivot(r: int, q: int) -> None:
        R = M[r]
        p, d = R[q], den[r]
        for i, row in enumerate(M):
            f = row[q]
            if f and i != r:
                row = M[i] = [p * a - f * c for a, c in zip(row, R)]
                row[q] = -f * d
                den[i] *= p
                reduce(i)
        R[q] = d
        den[r] = p
        reduce(r)
        nonbasic[q], basis[r] = basis[r], nonbasic[q]

    def set_objective(cost: list) -> None:
        # Reduced costs c_B B^-1 [A_N | b] - [c_N | 0] over one common
        # denominator, from integer costs C / cd.
        cd = math.lcm(*(c.denominator for c in cost))
        C = [c.numerator * (cd // c.denominator) for c in cost]
        basic = [i for i in range(m) if C[basis[i]]]
        d = math.lcm(*(den[i] for i in basic))
        rc = [-C[j] * d for j in nonbasic] + [0]
        for i in basic:
            w = C[basis[i]] * (d // den[i])
            rc = [a + w * c for a, c in zip(rc, M[i])]
        M[m] = rc
        den[m] = cd * d
        reduce(m)

    def run_phase(cost: list, allowed: list) -> int:
        set_objective(cost)
        steps = 0
        while True:
            q = price_bland(M[m], nonbasic, allowed)
            if q < 0:
                return steps
            leave = leave_bland([M[i][q] for i in range(m)],
                                [M[i][k] for i in range(m)], basis)
            if leave < 0:
                raise SimplexError("unbounded direction in a bounded program")
            pivot(leave, q)
            steps += 1
            if steps > limit:
                raise SimplexError("iteration limit exceeded")

    phase1_iterations = 0
    if artificial:
        cost1 = [0 if free else -1 for free in not_art]
        phase1_iterations = run_phase(cost1, [True] * ncols)
        infeas = sum(
            (Fraction(M[i][k], den[i]) for i in range(m) if not not_art[basis[i]]),
            Fraction(0),
        )
        if infeas > 0:
            raise SimplexError(f"infeasible program (residual {infeas})")
        # Drive leftover degenerate artificials out of the basis so phase 2
        # cannot move them; an all-zero row is redundant and stays put.
        for i in range(m):
            if not not_art[basis[i]]:
                hits = [j for j, a in zip(nonbasic, M[i]) if a and not_art[j]]
                if hits:
                    pivot(i, nonbasic.index(min(hits)))

    iterations = phase1_iterations + run_phase(_phase2_cost(lp, ncols, 0), not_art)

    xt = [Fraction(0)] * nv
    for i, j in enumerate(basis):
        if j < nv:
            xt[j] = Fraction(M[i][k], den[i])
    obj = [Fraction(0)] * ncols  # reduced costs by variable, 0 on the basic ones
    for q, j in enumerate(nonbasic):
        obj[j] = Fraction(M[m][q], den[m])
    y = _row_duals(obj, k, flipped)
    return _optimum(
        lp, xt, y, obj[:nv], y[m - nv:], Fraction(0), iterations,
        phase1_iterations,
    )


def _standard_form(A: np.ndarray, senses: Sequence[str], b: np.ndarray,
                   den: np.ndarray, zero_slack: bool = False):
    """The rows [A | b] laid out for the tableau: every row whose right
    side is negative negated, then the structural columns, a -den_i e_i
    surplus column per >= row, one +den_i e_i column per row (slack for
    <=, artificial for >= and =) and b.  ``den`` holds the row
    denominators of the fraction-free exact rows, ones in float.
    Variable bounds are not rows here; the float simplex handles them in
    its ratio test and the exact one appends box rows before calling this.

    With ``zero_slack`` (the float layout) a row whose right side is 0 is
    satisfied at the start and takes a slack: a >= row is negated to a <=
    row, and an = row's slack is to be fixed at 0 by the caller.

    Returns the laid-out rows, which rows were negated, which are >= rows
    after that, the artificial columns and the slack columns of = rows.
    """
    m, nv = A.shape
    senses = np.array(senses)
    le, ge = senses == "<=", senses == ">="
    zero = (b == 0) & zero_slack
    flipped = (b < 0) | (zero & ge)
    fixed = zero & ~(le | ge)
    slack = np.where(flipped, ge, le) | fixed
    ge = np.where(flipped, le, ge)
    surplus = ge.nonzero()[0]
    unit = nv + surplus.size
    data = np.zeros((m, unit + m + 1), dtype=A.dtype)
    data[:, :nv] = np.where(flipped[:, None], -A, A)
    data[surplus, np.arange(nv, unit)] = -den[surplus]
    np.fill_diagonal(data[:, unit:], den)
    data[:, -1] = np.where(flipped, -b, b)
    return (data, flipped, ge, (unit + (~slack).nonzero()[0]).tolist(),
            unit + fixed.nonzero()[0])


def _over_common(values) -> tuple[list[int], int]:
    """Exact rationals as integer numerators over their least common
    denominator."""
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


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


def _row_duals(obj: list, unit: int, flipped: np.ndarray) -> list:
    """y_i is the reduced cost of the +e_i column, unit + i, sign-corrected
    for rows that were negated to make the right side nonnegative."""
    return [-r if f else r for r, f in zip(obj[unit:], flipped.tolist())]


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
        row_duals=tuple(y[: len(lp.rhs)]),
        lower_duals=tuple(lower),
        upper_duals=tuple(upper),
        iterations=iterations,
        phase1_iterations=phase1_iterations,
        bound_flips=bound_flips,
    )


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
    # The forms ``solve`` tried, in order: ("restricted",) when the Turán
    # restriction was kept, ("restricted", "primal") on a fallback,
    # ("fourier",) for a form solved alone; () for an empty class.
    attempts: tuple[str, ...] = ()


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


def _default_forms(spec: ProblemSpec) -> tuple[str, ...]:
    """The forms the default ``solve`` tries, in order: it solves the last
    one unless it keeps "restricted" (``_solve_restricted``) first.

    With a, b + c and d the nonzero element orbits in both sign sets, in
    exactly one and in neither, the primal form has 1 + a + b + c
    variables and the Fourier form 1 + b + c + d rows, and each has one
    row or variable per character orbit.  Both arithmetics first try the
    Turán restriction's 1 + a variables when b + c > 0 and a < b + c + d.
    A float problem falls back to the smaller tableau, Fourier when d < a;
    an exact one always falls back to the primal form.  The restriction is
    a column subset of the primal form, so an exact group and its subgroup
    lift the same irrational cosines to ``Fraction`` whichever of the two
    each keeps, and the reduction identity keeps exact equality; a
    Fourier solve of one of them would lift other cosines.
    """
    both, single, neither, _ = _orbit_split(spec)
    exact = spec.arithmetic == EXACT
    fallback = "fourier" if not exact and len(neither) < len(both) else "primal"
    if single and len(both) < len(single) + len(neither):
        return ("restricted", fallback)
    return (fallback,)


def _solve_restricted(lp: LinearProgram) -> RawOptimum | None:
    """Solve the primal form ``lp`` with every orbit in one sign set only
    held at 0, and return the result as an optimum of ``lp`` when every
    held orbit prices out; None when one prices in or the solve fails.

    Each held variable has 0 as a bound ([-1, 0] or [0, 1]), so the
    restriction is ``lp``'s columns of orbit 0 and of the orbits in both
    sets: the Turán program on Ω₊ ∩ Ω₋.  Its optimum is extended by zeros,
    and each held column's reduced cost r = c_j - y . A_j under the
    restriction's row duals y becomes that column's bound multiplier:
    the upper one for a [-1, 0] orbit, the lower one, -r, for a [0, 1]
    orbit.  Stationarity then holds on every held column by
    construction, so the extension is optimal exactly when these
    multipliers are nonnegative.  A float program holds them to the
    simplex's own pricing tolerance, 1e-9, not to the problem's
    ``tolerance``, so the value kept never depends on the tolerance a
    certificate is checked to.  An exact program computes r from its
    integer rows over one common denominator (``_exact_stationarity``)
    and holds every multiplier to >= 0 exactly.
    """
    exact = lp.arithmetic == EXACT
    zero = Fraction(0) if exact else 0.0
    lo, hi = np.array(lp.var_bounds).T
    keep = ((lo != 0) & (hi != 0)).nonzero()[0]
    try:
        raw = simplex_solve(replace(
            lp,
            var_labels=tuple([lp.var_labels[j] for j in keep]),
            var_bounds=tuple([lp.var_bounds[j] for j in keep]),
            A=lp.A[:, keep],
            objective=tuple([lp.objective[j] for j in keep]),
        ))
    except SimplexError:
        return None
    if exact:
        zeros = (zero,) * lp.num_vars
        rc = np.array(_exact_stationarity(lp, raw.row_duals, zeros, zeros), dtype=object)
    else:
        rc = np.array(lp.objective) - np.array(raw.row_duals) @ lp.A
    lower, upper = np.where(lo == 0, zero - rc, zero), np.where(hi == 0, rc, zero)
    if min(lower.min(), upper.min()) < (zero if exact else -1e-9):  # 0 on the kept columns
        return None
    x = np.full(lp.num_vars, zero, dtype=rc.dtype)
    x[keep], lower[keep], upper[keep] = raw.x, raw.lower_duals, raw.upper_duals
    return replace(raw, x=tuple(x.tolist()), lower_duals=tuple(lower.tolist()),
                   upper_duals=tuple(upper.tolist()))


def solve(spec: ProblemSpec, formulation: str = "auto") -> Solution:
    """Build, solve and validate one extremal problem.

    ``formulation`` is "primal", "fourier" or "auto".  An explicit form is
    solved alone; "auto" walks ``_default_forms``.  The Turán restriction
    is kept, as a "primal" solution of the full primal form, only when
    every held orbit prices out (to the simplex's pricing tolerance in
    float, exactly in exact arithmetic) and ``verify_certificate`` then
    passes on that form.  Otherwise (a ``SimplexError`` in it included)
    the last form is solved, reusing the primal form already built.
    ``Solution.formulation`` records the form solved, and
    ``SolveStats.attempts`` the forms tried.

    Class emptiness is a status, not an error: if the identity is not an
    admissible plus point the value is 0 by convention.  A ``MemoryError``
    is raised again with the shape of the LP its form builds.
    """
    start = time.perf_counter()
    if formulation not in ("primal", "fourier", "auto"):
        raise ValueError(f"unknown formulation {formulation!r}: primal, fourier or auto")
    forms = _default_forms(spec) if formulation == "auto" else (formulation,)
    formulation, lp, attempts = forms[-1], None, []
    try:
        for form in forms:
            attempts.append(form)
            if form == "fourier":
                lp = build_fourier_form(spec)
            elif lp is None:
                lp = build_primal(spec)
            if form == "restricted":
                raw = _solve_restricted(lp)
                if raw is not None:
                    sol = _solution(spec, lp, raw, "primal", start, tuple(attempts))
                    if sol.certificate_verdict:
                        return sol
        return _solution(spec, lp, simplex_solve(lp), formulation, start, tuple(attempts))
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
    except MemoryError as exc:
        # The shape of the form being built (the restriction's is the
        # primal form), from the orbit counts: each form has one row or
        # variable per character orbit, as many as element orbits.
        both, single, neither, _ = _orbit_split(spec)
        orbits = 1 + len(both) + len(single) + len(neither)
        if attempts[-1] == "fourier":
            form, rows, cols = "fourier", 1 + len(single) + len(neither), orbits
        else:
            form, rows, cols = "primal", orbits, 1 + len(both) + len(single)
        raise MemoryError(f"{str(exc) or 'out of memory'} "
                          f"({form} LP, {rows} rows x {cols} variables)") from exc


def _solution(spec: ProblemSpec, lp: LinearProgram, raw: RawOptimum,
              formulation: str, start: float, attempts: tuple[str, ...]) -> Solution:
    """The ``Solution`` of an optimum ``raw`` of ``lp``, with its extremal
    function, certificate, class verdict and certificate verdict."""
    exact = spec.arithmetic == EXACT
    h = lp.objective_scale

    values = _reconstruct(spec, lp, raw.x, formulation)
    function = GroupFunction(spec.group, [float(v) for v in values])

    certificate = DualCertificate(
        rows=tuple([(label, y) for label, y in zip(lp.row_labels, raw.row_duals)]),
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
            raw.bound_flips, attempts,
        ),
        formulation=formulation,
        lp=lp,
        var_values=tuple(raw.x),
        class_verdict=verdict,
    )
    return replace(sol, certificate_verdict=verify_certificate(sol))


def _dual_objective(lp: LinearProgram, row_duals, upper_duals, lower_duals):
    """b . y + hi . mu - lo . nu, by integer dot products when exact."""
    lo, hi = zip(*lp.var_bounds)
    if lp.arithmetic == EXACT:
        return (_exact_dot([*row_duals, *upper_duals], [*lp.rhs, *hi])
                - _exact_dot(lower_duals, lo))
    acc = 0.0  # summed in this order: the gap of every artifact reads it
    for y, b in zip([*row_duals, *upper_duals], [*lp.rhs, *hi]):
        acc += y * b
    for nu, b in zip(lower_duals, lo):
        acc -= nu * b
    return acc


@dataclass(frozen=True)
class CertificateVerdict:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def _violations(lp: LinearProgram, x, y, cert, eps) -> list[str]:
    """The row and variable conditions of a certificate, each one a mask
    over all rows or all variables: float64 arrays for a float program,
    object arrays of ``Fraction`` and an exact ``eps`` for an exact one.
    Messages are formatted only for the failing entries, by row, then by
    variable, each in the order of its conditions."""
    exact = lp.arithmetic == EXACT
    dtype = object if exact else None
    X, Y = np.array(x, dtype), np.array(y, dtype)
    nu, mu = np.array(cert.lower_bounds, dtype), np.array(cert.upper_bounds, dtype)
    lo, hi = (np.array(v, dtype) for v in zip(*lp.var_bounds))
    senses, floor = np.array(lp.senses), -eps
    le, ge = senses == "<=", senses == ">="
    m, n = len(senses), X.size
    # NaN and inf entries fail their conditions; they raise no warning.
    with np.errstate(invalid="ignore", over="ignore"):
        if exact:
            slacks, residuals = (np.array(v, object) for v in _exact_residuals(
                lp, x, y, cert.upper_bounds, cert.lower_bounds))
        else:
            slacks = np.array(lp.rhs) - lp.A @ X
            residuals = np.array(lp.objective) - Y @ lp.A - mu + nu
        # A <= row needs slack and y >= -eps, a >= row both <= eps, an = row
        # -eps <= slack <= eps with y free.
        rows = np.array([slacks, Y])
        row_ok = ((rows >= floor) | ge) & ((rows <= eps) | le)
        row_ok[1] |= ~(le | ge)
        # Complementary pairs a_k b_k: (y_i, slack_i), (nu_j, x_j - lo_j) and
        # (mu_j, hi_j - x_j), negligible when |a b| <= eps max(1, |a|); the
        # product is formed only where both sides are nonzero.  The distances
        # to the bounds must be >= -eps too.
        a = np.concatenate([Y, nu, mu])
        b = np.concatenate([slacks, X - lo, hi - X])
        small = (a == 0) | (b == 0)
        both = ~small
        small[both] = np.abs(a[both] * b[both]) <= eps * np.maximum(1, np.abs(a[both]))
        var_fails = ~np.concatenate([
            np.concatenate([b[m:], a[m:]]) >= floor, small[m:], np.abs(residuals) <= eps * 10,
        ]).reshape(7, n).T
    row_fails = ~np.array([*row_ok, small[:m]]).T
    violations = []
    for i, kind in zip(*row_fails.nonzero()):
        name, slack, y_i = _row_name(lp.row_labels[i]), float(slacks[i]), y[i]
        violations.append(
            f"{name}: primal row violated by {abs(slack)}" if kind == 0
            else f"{name}: multiplier sign ({y_i})" if kind == 1
            else f"{name}: complementary slackness (y={y_i}, slack={slack})"
        )
    for j, kind in zip(*var_fails.nonzero()):
        violations.append(f"variable[{lp.var_labels[j]}]: " + (
            "below lower bound", "above upper bound",
            f"lower multiplier sign ({cert.lower_bounds[j]})",
            f"upper multiplier sign ({cert.upper_bounds[j]})",
            "lower-bound complementary slackness", "upper-bound complementary slackness",
            f"dual stationarity residual {float(residuals[j])}",
        )[kind])
    return violations


def _exact_residuals(lp: LinearProgram, x, y, upper, lower):
    """The slacks and stationarity residuals of an exact program, each one
    Fraction built from an integer dot product over a common denominator."""
    X, dx = _over_common(x)
    slacks = []
    for rhs, (A, d) in zip(lp.rhs, lp.condensed):
        den = d * dx
        slacks.append(Fraction(
            rhs.numerator * den - rhs.denominator * _dot(A, X),
            rhs.denominator * den,
        ))
    return slacks, _exact_stationarity(lp, y, upper, lower)


def _exact_stationarity(lp: LinearProgram, y, upper, lower) -> list[Fraction]:
    """c_j - y . A_j - mu_j + nu_j for every variable j of an exact
    program, from its integer rows (``condensed``) over one common
    denominator."""
    rows = lp.condensed
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
    return [Fraction(r, D) for r in acc]


def verify_certificate(sol: Solution, tol: float | None = None) -> CertificateVerdict:
    """Primal and dual feasibility, complementary slackness and the
    weak-duality gap, by one table of conditions for both arithmetics
    (``_violations``; an ``=`` row needs |slack| <= eps).

    Empty-class solutions pass vacuously.  Any violated condition is
    reported with the offending row or bound label.  Exact programs are
    checked on exact numbers (the tolerance too is taken as the exact
    value of its float), so ``tol=0`` passes only an exact certificate
    with a duality gap of exactly zero; an exact solution without
    ``value_exact`` is missing certificate data.  Float programs allow a
    gap of the larger of ``tol`` and the spec's tolerance.
    """
    if sol.status == "class_empty":
        return CertificateVerdict(True, ())
    lp, cert = sol.lp, sol.dual_certificate
    exact = lp is not None and lp.arithmetic == EXACT
    if (lp is None or cert is None or sol.var_values is None
            or exact and sol.value_exact is None):
        return CertificateVerdict(False, ("missing certificate data",))
    if tol is None:
        tol = 0.0 if exact else max(sol.spec.tolerance, 1e-9)
    y = [y_i for _, y_i in cert.rows]
    eps = (Fraction if exact else float)(tol * max(1.0, abs(float(sol.value))))
    violations = _violations(lp, sol.var_values, y, cert, eps)
    # Recompute the dual objective from the multipliers themselves; the
    # certificate is the multipliers, not a claimed gap.
    dual_obj = _dual_objective(lp, y, cert.upper_bounds, cert.lower_bounds)
    if exact:
        gap, gap_eps = sol.value_exact - lp.objective_scale * dual_obj, eps
    else:
        gap = float(sol.value) - float(lp.objective_scale) * float(dual_obj)
        gap_eps = max(tol, sol.spec.tolerance) * max(1.0, abs(float(sol.value)))
    if not abs(gap) <= gap_eps:
        violations.append(f"duality gap {float(gap)}")
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
