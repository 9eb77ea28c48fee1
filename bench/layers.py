"""Per-layer metrics for the traced run.

Nothing inside ``delsarte`` is instrumented.  After each op of a traced
pass, the benchmark calls the public functions of each layer again on
the op's own inputs and records a span around every call.  A span has a
name, start, end, parent span and op id; spans stay in memory and are
written out when the run ends.  ``solver.other_s`` is derived, not
measured: an op's ``solve`` span minus the build, simplex, verify and
class-check spans re-timed on the same inputs, which leaves
reconstruction and assembly.
"""

from __future__ import annotations

import tempfile
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from delsarte import (
    FiniteAbelianGroup,
    SubgroupView,
    build_fourier_form,
    build_primal,
    dft,
    in_class,
    parse_group,
    parse_real_set,
    sample_set,
    simplex_solve,
    solve,
    solve_discretized,
    verify_certificate,
)
from delsarte.cli import emit_figure_data
from delsarte.solver import EXACT, ProblemSpec, SimplexError

import oracle
from workloads import TorusCli

# Per-layer metric -> the end-to-end metrics (on named workloads) it should
# move.  The names and units are the ``per_layer`` list of BENCHMARK.json.
INTERACTIONS = {
    "realsets.parse_s": "controls, should not move: wall_s on torus-grid",
    "discretize.sample_s": "controls, should not move: wall_s on torus-grid",
    "groups.build_s": "setup_s and op_p50_ms on group-battery and exact-certify",
    "harmonic.dft_s": "op_p50_ms on group-battery",
    "harmonic.dft_calls": "op_p50_ms on group-battery",
    "classes.in_class_s": "op_p50_ms on group-battery",
    "solver.verify_s": "op_p50_ms on group-battery",
    "solver.build_s": "op_p50_ms on group-battery; wall_s on torus-grid",
    "solver.lp_rows": "op_p50_ms on group-battery; wall_s on torus-grid",
    "solver.lp_vars": "op_p50_ms on group-battery; wall_s on torus-grid",
    "solver.lp_nonzeros": "op_p50_ms on group-battery; wall_s on torus-grid",
    "solver.simplex_float_s": "wall_s on torus-grid",
    "solver.simplex_exact_s": "wall_s and peak_rss_mb on exact-certify",
    "solver.iterations": "wall_s on torus-grid",
    "solver.phase1_iterations": "wall_s on torus-grid",
    "solver.ms_per_iteration": "wall_s on torus-grid",
    "solver.other_s": "wall_s on torus-grid (fourier ops); op_p50_ms on group-battery",
    "solver.sweep_parallel_gain": "wall_s on torus-grid",
    "oracle.highs_s": "the bar for wall_s on torus-grid and group-battery",
    "solver.highs_ratio": "the bar for wall_s on torus-grid and group-battery",
    "solver.simplex_errors": "failed ops on every workload",
    "solver.uncertified": "failed ops on every workload",
    "reduction.reduce_s": "wall_s on exact-certify",
    "reduction.subgroup_share": "wall_s on exact-certify",
    "cli.main_s": "wall_s on torus-grid",
    "cli.emit_s": "wall_s on torus-grid",
    "cli.bytes_written": "wall_s on torus-grid",
    "trace.overhead_s": "none: the cost of this traced run",
}


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self, work: Path) -> None:
        self.work = work  # scratch directory for re-timed artifact writes
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: str):
        index = len(self.spans)
        span = {"id": index, "name": name, "op": op,
                "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        self._stack.append(index)
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, op: str, fn, *args, **kwargs):
        with self.span(name, op):
            return fn(*args, **kwargs)

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def last(self, name: str) -> float:
        for s in reversed(self.spans):
            if s["name"] == name:
                return s["end"] - s["start"]
        return 0.0

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def op_seconds(self, kind: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == "op" and s["kind"] == kind)


def retime_solve(tr: Tracer, op: str, spec: ProblemSpec, formulation: str,
                 sol, solve_s: float | None) -> float:
    """Re-time each stage of one solve; returns build + simplex seconds."""
    builder = build_primal if formulation == "primal" else build_fourier_form
    lp = tr.call("solver.build", op, builder, spec)
    tr.counts["lp_rows"] += len(lp.rows)
    tr.counts["lp_vars"] += lp.num_vars
    tr.counts["lp_nonzeros"] += sum(
        1 for row in lp.rows for _, a in row.coeffs if a != 0)
    stages = tr.last("solver.build")
    kind = "solver.simplex_exact" if spec.arithmetic == EXACT else "solver.simplex_float"
    try:
        raw = tr.call(kind, op, simplex_solve, lp)
        tr.counts["iterations"] += raw.iterations
        tr.counts["phase1_iterations"] += raw.phase1_iterations
    except SimplexError:
        tr.counts["simplex_errors"] += 1
    stages += tr.last(kind)
    build_and_simplex = stages
    tr.call("solver.verify", op, verify_certificate, sol)
    stages += tr.last("solver.verify")
    tr.call("classes.in_class", op, in_class, sol.extremal_function,
            spec.class_spec(), max(spec.tolerance, 1e-9))
    stages += tr.last("classes.in_class")
    tr.call("harmonic.dft", op, dft, sol.extremal_function)
    arrays = oracle.lp_arrays(lp)
    tr.call("oracle.highs", op, oracle.highs_solve, arrays)
    if sol.certificate_verdict is None or not sol.certificate_verdict.ok:
        tr.counts["uncertified"] += 1
    if solve_s is not None:
        tr.counts["other_s"] += solve_s - stages
    return build_and_simplex


def retime_emit(tr: Tracer, op: str, sol) -> None:
    """The public artifact writers of ``delsarte solve``."""
    f = sol.extremal_function
    with tempfile.TemporaryDirectory(dir=tr.work) as tmp:
        with tr.span("cli.emit", op):
            f.to_csv(Path(tmp) / "function.csv")
            f.spectrum().to_csv(Path(tmp) / "spectrum.csv")
            emit_figure_data(f, Path(tmp) / "figure.csv")


def retime(tr: Tracer, op, result, op_s: float) -> None:
    """Re-time the layers under one op, given what the op returned."""
    if op.kind == "solve":
        group = op.spec.group
        tr.call("groups.build", op.op_id, FiniteAbelianGroup, group.orders, group.weight)
        retime_solve(tr, op.op_id, op.spec, op.formulation, result, op_s)
        return
    if op.kind == "reduce":
        retime_reduction(tr, op, result)
        return
    tr.counts["bytes_written"] += sum(
        p.stat().st_size for p in op.out_dir.iterdir() if p.is_file())
    if isinstance(op, TorusCli):
        s = tr.call("realsets.parse", op.op_id, parse_real_set, op.omega_plus)
        serial = 0.0
        for n, spec in zip(op.grids, op.specs()):
            tr.call("discretize.sample", op.op_id, sample_set, s, op.torus(n))
            sol, _ = tr.call("solver.solve_discretized", op.op_id, solve_discretized,
                             s, None, op.torus(n), op.mode, op.arithmetic)
            serial += tr.last("solver.solve_discretized")
            retime_solve(tr, op.op_id, spec, "primal", sol, None)
            if op.command == "solve":
                retime_emit(tr, op.op_id, sol)
        if op.command == "sweep":
            tr.counts["sweep_serial_s"] += serial
            tr.counts["sweep_wall_s"] += op_s
        return
    tr.call("groups.build", op.op_id, parse_group, op.group)
    (spec,) = op.specs()
    sol = tr.call("solver.solve", op.op_id, solve, spec)
    retime_solve(tr, op.op_id, spec, "primal", sol, None)
    retime_emit(tr, op.op_id, sol)


def retime_reduction(tr: Tracer, op, report) -> None:
    spec = op.spec
    group_side = retime_solve(tr, op.op_id, spec, "primal",
                              report.plus_generated.solution_group, None)
    tr.call("groups.build", op.op_id, FiniteAbelianGroup, spec.group.orders,
            spec.group.weight)
    plus, minus = spec.omega_plus.indices, spec.omega_minus.indices
    sub_side = 0.0
    for generators, comp in ((plus, report.plus_generated),
                             (plus | minus, report.both_generated)):
        subgroup = tr.call("groups.build", op.op_id, spec.group.subgroup_generated,
                           generators)
        tr.call("reduction.view", op.op_id, SubgroupView, subgroup)
        sub_side += tr.last("reduction.view")
        sub_side += retime_solve(tr, op.op_id, comp.solution_subgroup.spec, "primal",
                                 comp.solution_subgroup, None)
    tr.counts["reduction_group_side_s"] += group_side
    tr.counts["reduction_subgroup_side_s"] += sub_side


def per_layer_metrics(tr: Tracer, op_spans: float, pass_wall: float) -> dict:
    c = tr.counts
    simplex_float = tr.seconds("solver.simplex_float")
    simplex_exact = tr.seconds("solver.simplex_exact")
    highs = tr.seconds("oracle.highs")
    sides = c["reduction_group_side_s"] + c["reduction_subgroup_side_s"]
    return {
        "realsets.parse_s": tr.seconds("realsets.parse"),
        "discretize.sample_s": tr.seconds("discretize.sample"),
        "groups.build_s": tr.seconds("groups.build"),
        "harmonic.dft_s": tr.seconds("harmonic.dft"),
        "harmonic.dft_calls": tr.calls("harmonic.dft"),
        "classes.in_class_s": tr.seconds("classes.in_class"),
        "solver.verify_s": tr.seconds("solver.verify"),
        "solver.build_s": tr.seconds("solver.build"),
        "solver.lp_rows": c["lp_rows"],
        "solver.lp_vars": c["lp_vars"],
        "solver.lp_nonzeros": c["lp_nonzeros"],
        "solver.simplex_float_s": simplex_float,
        "solver.simplex_exact_s": simplex_exact,
        "solver.iterations": c["iterations"],
        "solver.phase1_iterations": c["phase1_iterations"],
        "solver.ms_per_iteration": (1000 * (simplex_float + simplex_exact)
                                    / c["iterations"] if c["iterations"] else 0.0),
        "solver.other_s": c["other_s"],
        "solver.sweep_parallel_gain": (c["sweep_serial_s"] / c["sweep_wall_s"]
                                       if c["sweep_wall_s"] else 0.0),
        "oracle.highs_s": highs,
        "solver.highs_ratio": (simplex_float + simplex_exact) / highs if highs else 0.0,
        "solver.simplex_errors": c["simplex_errors"],
        "solver.uncertified": c["uncertified"],
        "reduction.reduce_s": tr.op_seconds("reduce"),
        "reduction.subgroup_share": (c["reduction_subgroup_side_s"] / sides
                                     if sides else 0.0),
        "cli.main_s": tr.op_seconds("cli"),
        "cli.emit_s": tr.seconds("cli.emit"),
        "cli.bytes_written": c["bytes_written"],
        "trace.overhead_s": pass_wall - op_spans,
    }
