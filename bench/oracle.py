"""Independent references and the correctness gate.

The reference LP is the full-size one: one variable per group element,
no evenness or orbit reduction, every character materialized as a dense
cosine row from the element and character coordinates, solved by HiGHS.
It shares no LP code with ``delsarte.solver``.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

REL_TOL = 1e-8
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10}


def _coordinates(group) -> np.ndarray:
    return np.array([group.coords_of(i) for i in range(group.size)], dtype=np.int64)


def reference_value(spec) -> float:
    """C(Omega+, Omega-) of ``spec`` from the full-size LP, in Haar units."""
    group = spec.group
    n = group.size
    coords = _coordinates(group)
    orders = np.array(group.orders, dtype=np.int64)
    # phase of chi_k(g) in turns: sum_i g_i k_i / n_i, reduced mod 1 exactly
    # in integers over the common denominator before going to float
    common = int(np.lcm.reduce(orders))
    scale = common // orders
    numer = (coords * scale) @ coords.T % common
    cos = np.cos(2 * np.pi * numer / common)
    plus, minus = spec.omega_plus.indices, spec.omega_minus.indices
    bounds = [(1.0, 1.0)] + [
        (-1.0 if g in minus else 0.0, 1.0 if g in plus else 0.0) for g in range(1, n)
    ]
    res = linprog(c=-np.ones(n), A_ub=-cos, b_ub=np.zeros(n), bounds=bounds,
                  method="highs", options=HIGHS_OPTIONS)
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(group.weight) * float(-res.fun)


def spec_key(spec) -> tuple:
    group = spec.group
    return (group.orders, group.weight, tuple(sorted(spec.omega_plus.indices)),
            tuple(sorted(spec.omega_minus.indices)))


def references(ops) -> dict[str, list[float]]:
    """Reference values for every op, in the order of ``op.specs()``."""
    cache: dict[tuple, float] = {}
    out = {}
    for op in ops:
        values = []
        for spec in op.specs():
            key = spec_key(spec)
            if key not in cache:
                cache[key] = reference_value(spec)
            values.append(cache[key])
        out[op.op_id] = values
    return out


def gate(executions, refs: dict[str, list[float]]) -> list[tuple[str, str]]:
    """(op id, reason) for every execution that failed.

    An execution fails if the op raised, reported a failure of its own
    (exit code, certificate, reduction identity), or missed a reference
    value by more than REL_TOL relative.  Each execution fails at most
    once, with all its reasons joined.
    """
    failed = []
    for ex in executions:
        reasons = []
        if ex.error is not None:
            reasons.append(ex.error)
        else:
            reasons.extend(ex.outcome.failures)
            expected = refs[ex.op.op_id]
            got = ex.outcome.values
            if not reasons and len(got) != len(expected):
                reasons.append(f"{len(got)} values for {len(expected)} problems")
            for i, (value, ref) in enumerate(zip(got, expected)):
                if abs(value - ref) > REL_TOL * max(1.0, abs(ref)):
                    reasons.append(f"problem {i}: value {value!r} != reference {ref!r}")
        if reasons:
            failed.append((ex.op.op_id, "; ".join(reasons)))
    return failed


def lp_arrays(lp):
    """A ``delsarte.solver.LinearProgram`` as ``linprog`` arguments."""
    nv = lp.num_vars
    ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
    for row in lp.rows:
        dense = np.zeros(nv)
        for j, a in row.coeffs:
            dense[j] = float(a)
        rhs = float(row.rhs)
        if row.sense == "=":
            eq_rows.append(dense)
            eq_rhs.append(rhs)
        elif row.sense == "<=":
            ub_rows.append(dense)
            ub_rhs.append(rhs)
        else:
            ub_rows.append(-dense)
            ub_rhs.append(-rhs)
    sign = -1.0 if lp.maximize else 1.0
    return dict(
        c=sign * np.array([float(c) for c in lp.objective]),
        A_ub=np.array(ub_rows) if ub_rows else None,
        b_ub=np.array(ub_rhs) if ub_rows else None,
        A_eq=np.array(eq_rows) if eq_rows else None,
        b_eq=np.array(eq_rhs) if eq_rows else None,
        bounds=[(float(lo), float(hi)) for lo, hi in lp.var_bounds],
    )


def highs_solve(arrays) -> None:
    """The ROADMAP bar: HiGHS on the op's own LP, default options."""
    res = linprog(method="highs", **arrays)
    if not res.success:
        raise RuntimeError(f"HiGHS failed on the op's LP: {res.message}")
