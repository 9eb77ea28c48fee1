"""Shared randomized-instance generators and the independent LP oracle
for the test suite."""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import numpy as np

from delsarte.classes import SymmetricSet
from delsarte.groups import FiniteAbelianGroup
from delsarte.realsets import RealSet1D
from delsarte.solver import ProblemSpec


def random_symmetric_realset(
    rng: random.Random, denominator: int = 8, span: int = 8
) -> RealSet1D:
    """Symmetric union of up to three interval pairs on a rational grid."""
    pieces = RealSet1D.empty()
    for _ in range(rng.randint(1, 3)):
        a = Fraction(rng.randint(0, span * denominator - 2), denominator)
        b = Fraction(
            rng.randint(int(a * denominator) + 1, span * denominator), denominator
        )
        flags = rng.random() < 0.5, rng.random() < 0.5
        piece = RealSet1D.interval(a, b, *flags)
        pieces = pieces.union(piece).union(piece.negate())
    if rng.random() < 0.5:
        b = Fraction(rng.randint(1, span * denominator), denominator)
        flag = rng.random() < 0.5
        pieces = pieces.union(RealSet1D.interval(-b, b, flag, flag))
    return pieces


def grid_members_by_point(s: RealSet1D, torus) -> tuple[int, ...]:
    """The indices j in (-N/2, N/2] with j * step in S, by one exact
    membership test per grid point: the reference for ``sample_set``."""
    n, h = torus.grid, torus.step
    return tuple([j for j in range(-((n - 1) // 2), n // 2 + 1) if s.contains(j * h)])


def random_group(rng: random.Random, max_order: int = 64) -> FiniteAbelianGroup:
    """Random product of cyclic factors with bounded total order."""
    orders = []
    size = 1
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(2, 16)
        if size * n > max_order:
            break
        orders.append(n)
        size *= n
    if not orders:
        orders = [rng.randint(2, max_order)]
    return FiniteAbelianGroup(tuple(orders))


def nice_random_group(rng: random.Random, max_order: int = 72) -> FiniteAbelianGroup:
    """Product groups whose pairing phases all have rational cosines
    (cyclic factors from {2,4} or {2,3,6}), suitable for exact runs."""
    family = rng.choice((["2", "4"], ["2", "3", "6"]))
    orders = []
    size = 1
    for _ in range(rng.randint(1, 3)):
        n = int(rng.choice(family))
        if size * n > max_order:
            break
        orders.append(n)
        size *= n
    if not orders:
        orders = [int(family[0])]
    return FiniteAbelianGroup(tuple(orders))


def random_symmetric_indices(
    group, rng: random.Random, density: float, ensure_zero: bool = False
) -> set[int]:
    indices: set[int] = {0} if ensure_zero else set()
    for i in range(group.size):
        if rng.random() < density:
            indices |= {i, group.neg_index(i)}
    return indices


def random_symmetric_set(
    group, rng: random.Random, density: float, ensure_zero: bool = False
) -> SymmetricSet:
    return SymmetricSet.from_indices(
        group, random_symmetric_indices(group, rng, density, ensure_zero)
    )


def fraction_phase(group: FiniteAbelianGroup, g_index: int, chi_index: int) -> Fraction:
    """The pairing phase of g and chi_k in turns, folded into [0, 1), as a
    sum of one Fraction per cyclic factor: the definition that the integer
    phase index p / L must agree with."""
    t = sum(
        (
            Fraction(a * b, n)
            for a, b, n in zip(
                group.coords_of(g_index), group.coords_of(chi_index), group.orders
            )
        ),
        Fraction(0),
    )
    return t - math.floor(t)


# cos(2*pi*t) is rational exactly when the reduced denominator of t is
# 1, 2, 3, 4 or 6 (Niven).  A copy of its own, so that the references below
# do not read the table that the group's cosine tables are built from.
_NIVEN_COS = {
    Fraction(0): Fraction(1),
    Fraction(1, 2): Fraction(-1),
    Fraction(1, 3): Fraction(-1, 2),
    Fraction(2, 3): Fraction(-1, 2),
    Fraction(1, 4): Fraction(0),
    Fraction(3, 4): Fraction(0),
    Fraction(1, 6): Fraction(1, 2),
    Fraction(5, 6): Fraction(1, 2),
}


def cos_turn_exact(t: Fraction) -> Fraction | None:
    """Exact rational value of cos(2*pi*t), or None if irrational."""
    return _NIVEN_COS.get(t - math.floor(t))


def cos_turn(t: Fraction) -> float:
    """cos(2*pi*t), folded as a Fraction into [0, 1/4] for accuracy."""
    exact = cos_turn_exact(t)
    if exact is not None:
        return float(exact)
    t -= math.floor(t)
    if t > Fraction(1, 2):
        t = 1 - t
    if t > Fraction(1, 4):
        return -math.cos(2.0 * math.pi * float(Fraction(1, 2) - t))
    return math.cos(2.0 * math.pi * float(t))


def fraction_cosines(modulus: int) -> tuple[list[float], list[Fraction]]:
    """The float and exact cosines of every phase p / L, built per phase from
    a Fraction: ``cos_turn``, and ``cos_turn_exact`` where rational or the
    float lifted to a Fraction otherwise.  The references that a group's
    ``float_cosines`` and ``exact_cosines`` tables must equal."""
    floats, exact = [], []
    for p in range(modulus):
        t = Fraction(p, modulus)
        value, rational = cos_turn(t), cos_turn_exact(t)
        floats.append(value)
        exact.append(Fraction(value) if rational is None else rational)
    return floats, exact


def fraction_dual(subgroup) -> tuple[list[tuple[Fraction, ...]], list[int]]:
    """The dual of a subgroup in the order ``SubgroupView`` enumerates it,
    from Fraction signatures: the restrictions of the parent's characters
    to the members, deduplicated in order of first appearance, and for each
    one the position of its negation."""
    group = subgroup.group
    seen: dict[tuple[Fraction, ...], int] = {}
    signatures: list[tuple[Fraction, ...]] = []
    for chi in range(group.size):
        signature = tuple(fraction_phase(group, g, chi) for g in subgroup.members)
        if signature not in seen:
            seen[signature] = len(signatures)
            signatures.append(signature)
    negation = [seen[tuple(-t % 1 for t in signature)] for signature in signatures]
    return signatures, negation


def direct_transform(f) -> np.ndarray:
    """h * sum_g f(g) exp(-2*pi*i * p(g, chi_k) / L) for every character k,
    by the quadratic direct sum over the integer phases ``phase_index``
    with library trigonometry, no FFT; on a product group or a subgroup
    view alike."""
    group = f.group
    n = group.size
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        acc = 0j
        for g in range(n):
            turn = group.phase_index(g, k) / group.phase_modulus
            acc += f.values[g] * cmath.exp(-2j * math.pi * turn)
        out[k] = float(group.weight) * acc
    return out


def direct_convolution(f, g) -> np.ndarray:
    """(f * g)(x) = h * sum_y f(y) g(x - y) by the double sum over the
    group's own addition and negation, with no transform."""
    group = f.group
    n = group.size
    out = np.zeros(n)
    for x in range(n):
        acc = 0.0
        for y in range(n):
            acc += f.values[y] * g.values[group.add_index(x, group.neg_index(y))]
        out[x] = float(group.weight) * acc
    return out


def scipy_reference_value(spec: ProblemSpec) -> float:
    """Independent full-size LP: one variable per element, no evenness or
    orbit reduction, characters materialized directly, solved by HiGHS.

    The pairing of g and chi_k is a whole number p of 1/L turns, with
    L = lcm of the cyclic orders, so the cosine matrix comes from one
    integer matrix product reduced mod L."""
    from scipy.optimize import linprog

    group = spec.group
    n = group.size
    plus, minus = spec.omega_plus.indices, spec.omega_minus.indices
    bounds = [(1.0, 1.0)]
    for g in range(1, n):
        bounds.append((-1.0 if g in minus else 0.0, 1.0 if g in plus else 0.0))
    turns = math.lcm(*group.orders)
    coords = np.array([group.coords_of(g) for g in range(n)], dtype=np.int64)
    per_turn = np.array([turns // order for order in group.orders], dtype=np.int64)
    phases = (coords * per_turn) @ coords.T % turns
    res = linprog(
        c=[-1.0] * n,
        A_ub=-np.cos(2 * math.pi * (phases / turns)),
        b_ub=np.zeros(n),
        bounds=bounds,
        method="highs",
    )
    assert res.success
    return float(group.weight) * float(-res.fun)


def reference_bland(lp) -> dict:
    """Textbook two-phase simplex under Bland's rule on a full ``Fraction``
    tableau, with the exact engine's layout and tie rules.

    Over xt = x - lo the program's rows come first, then one box row
    xt_j <= hi_j - lo_j per variable.  A row with a negative right side is
    negated; the columns are the structural ones, a -1 surplus column per
    >= row, one +1 column per row (slack for <=, artificial otherwise) and
    the right side, and the +1 columns are the first basis.  Phase 1
    maximizes minus the sum of the artificials over every column; then the
    artificials left basic are pivoted out on the lowest other column with
    a nonzero entry, and phase 2 prices every column but the artificials.
    The entering column is the lowest with a negative reduced cost, the
    leaving row the strict minimum ratio, ties to the lowest basic column.
    Returns the pivot counts, x and the multipliers as ``Fraction``s.
    """
    nv = lp.num_vars
    lo = [b[0] for b in lp.var_bounds]
    rows = [([Fraction(a) for a in row], sense,
             Fraction(rhs) - sum(Fraction(a) * l for a, l in zip(row, lo)))
            for row, sense, rhs in zip(lp.A.tolist(), lp.senses, lp.rhs)]
    for j, (l, h) in enumerate(lp.var_bounds):
        rows.append(([Fraction(int(k == j)) for k in range(nv)], "<=", Fraction(h - l)))
    m = len(rows)
    flipped = [rhs < 0 for _, _, rhs in rows]
    senses = []
    for (a, sense, rhs), flip in zip(rows, flipped):
        senses.append({"<=": ">=", ">=": "<=", "=": "="}[sense] if flip else sense)
    surplus = [i for i in range(m) if senses[i] == ">="]
    unit = nv + len(surplus)
    ncols = unit + m
    T = []
    for i, ((a, _, rhs), flip) in enumerate(zip(rows, flipped)):
        sign = -1 if flip else 1
        row = [sign * v for v in a] + [Fraction(0)] * (ncols - nv) + [sign * rhs]
        if i in surplus:
            row[nv + surplus.index(i)] = Fraction(-1)
        row[unit + i] = Fraction(1)
        T.append(row)
    artificial = {unit + i for i in range(m) if senses[i] != "<="}
    basis = list(range(unit, ncols))

    def pivot(r, s):
        p = T[r][s]
        T[r] = [v / p for v in T[r]]
        for i in range(m):
            if i != r and T[i][s]:
                f = T[i][s]
                T[i] = [a - f * b for a, b in zip(T[i], T[r])]
        basis[r] = s

    def reduced_costs(cost):
        return [sum(cost[basis[i]] * T[i][j] for i in range(m)) - cost[j]
                for j in range(ncols)]

    def run_phase(cost, allowed):
        pivots = 0
        while True:
            rc = reduced_costs(cost)
            enter = next((j for j in range(ncols) if allowed(j) and rc[j] < 0), None)
            if enter is None:
                return pivots, rc
            leave = None
            for i in range(m):
                if T[i][enter] > 0:
                    ratio = T[i][ncols] / T[i][enter]
                    if (leave is None or ratio < best
                            or ratio == best and basis[i] < basis[leave]):
                        leave, best = i, ratio
            pivot(leave, enter)
            pivots += 1

    phase1 = 0
    if artificial:
        cost1 = [Fraction(-1 if j in artificial else 0) for j in range(ncols)]
        phase1, _ = run_phase(cost1, lambda j: True)
        if any(T[i][ncols] for i in range(m) if basis[i] in artificial):
            raise ValueError("infeasible program")
        for i in range(m):
            if basis[i] in artificial:
                hits = [j for j in range(ncols) if j not in artificial and T[i][j]]
                if hits:
                    pivot(i, hits[0])
    cost2 = [Fraction(c if lp.maximize else -c) for c in lp.objective]
    cost2 += [Fraction(0)] * (ncols - nv)
    phase2, rc = run_phase(cost2, lambda j: j not in artificial)
    xt = [Fraction(0)] * nv
    for i, j in enumerate(basis):
        if j < nv:
            xt[j] = T[i][ncols]
    y = [-rc[unit + i] if flipped[i] else rc[unit + i] for i in range(m)]
    return {
        "iterations": phase1 + phase2,
        "phase1_iterations": phase1,
        "x": tuple(l + v for l, v in zip(lo, xt)),
        "row_duals": tuple(y[: len(lp.rhs)]),
        "lower_duals": tuple(rc[:nv]),
        "upper_duals": tuple(y[m - nv:]),
    }
