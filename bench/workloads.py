"""Workload definitions: the seeded op lists and how each op runs.

An op is one call to a public entry point of ``delsarte``: ``cli.main``
in-process, ``solve`` or ``reduce_and_compare``.  ``run`` is the timed
call; ``outcome`` turns its result into values and self-check failures
outside the timed region; ``specs`` rebuilds the op's problems through
the library so the oracle and the traced run can use the same inputs.

Why these workloads (see also BENCHMARK.json):

* torus-grid: large dense float LPs from real-line problems on torus 8;
  most time is the float simplex on tableaux of 100-500 rows, the sweep
  thread pool and the N=512 artifact writing.
* group-battery: many small LPs on random product groups; fixed per-op
  cost (LP build, reconstruction, verification) dominates.
* exact-certify: exact-rational Bland pivoting, subgroup views and the
  reduction layer.

Seeds.  Every seed must cost about the same, because the benchmark's
spread is taken across seeds.  So the seed draws only what the cost is
insensitive to: the sign sets of the batteries (their groups and modes
come from a fixed stratification stream, giving every seed the same mix
of group sizes), and, on torus-grid, a half-width shift smaller than the
finest grid step, so the torus LPs are the same for every seed.  Shifts
by whole grid steps more than double a pass's time (half-width 17/16)
or make float solves fail: half-width 15/16 raises SimplexError in the
N=256 Fourier-form Turan solve, 9/8 hits the iteration limit in the
N=256 primal Delsarte solve.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from delsarte import (
    FiniteAbelianGroup,
    ProblemSpec,
    SymmetricSet,
    TorusSpec,
    parse_group,
    parse_real_set,
    reduce_and_compare,
    sample_set,
    solve,
    verify_certificate,
)
from delsarte import cli

EXACT = "exact-rational"
STRATA_SEED = 0x5EED  # fixed stream for battery groups and modes
MODES = ("turan", "delsarte", "general")
CIRCUMFERENCE = 8  # torus length for every real-line problem


@dataclass
class Outcome:
    """What an op returned: values to compare with the oracle, in the
    order of ``Op.specs()``, and failures it shows on its own."""

    values: list[float]
    failures: list[str]


def make_spec(group, plus: SymmetricSet, mode: str, arithmetic: str,
              minus: SymmetricSet | None = None) -> ProblemSpec:
    if mode == "turan":
        return ProblemSpec.turan(group, plus, arithmetic=arithmetic)
    if mode == "delsarte":
        return ProblemSpec.delsarte(group, plus, arithmetic=arithmetic)
    return ProblemSpec.general(group, plus, minus, arithmetic=arithmetic)


# -- ops ------------------------------------------------------------------------


@dataclass
class TorusCli:
    """``delsarte solve|sweep`` of a real-line problem on torus grids."""

    op_id: str
    command: str  # "solve" or "sweep"
    omega_plus: str
    mode: str
    grids: tuple[int, ...]
    out_dir: Path
    arithmetic: str = "float"
    kind = "cli"

    def argv(self) -> list[str]:
        grid = (["--grid", str(self.grids[0])] if self.command == "solve"
                else ["--grid-list", ",".join(map(str, self.grids))])
        return [self.command, "--torus", str(CIRCUMFERENCE), *grid,
                "--omega-plus", self.omega_plus, "--mode", self.mode,
                "--arithmetic", self.arithmetic, "--out", str(self.out_dir)]

    def run(self) -> int:
        return run_cli(self.argv())

    def torus(self, grid: int) -> TorusSpec:
        return TorusSpec(Fraction(CIRCUMFERENCE), grid)

    def specs(self) -> list[ProblemSpec]:
        s = parse_real_set(self.omega_plus)
        out = []
        for n in self.grids:
            dp = sample_set(s, self.torus(n))
            plus = SymmetricSet.from_signed(dp.group, dp.signed_members)
            out.append(make_spec(dp.group, plus, self.mode, self.arithmetic))
        return out

    def outcome(self, code: int) -> Outcome:
        return cli_outcome(self.out_dir, self.command, code)


@dataclass
class GroupCli:
    """``delsarte solve`` of a problem on an explicit group."""

    op_id: str
    group: str
    omega_plus: str
    mode: str
    out_dir: Path
    arithmetic: str = EXACT
    kind = "cli"

    def argv(self) -> list[str]:
        return ["solve", "--group", self.group, "--omega-plus", self.omega_plus,
                "--mode", self.mode, "--arithmetic", self.arithmetic,
                "--out", str(self.out_dir)]

    def run(self) -> int:
        return run_cli(self.argv())

    def specs(self) -> list[ProblemSpec]:
        group = parse_group(self.group)
        plus = cli.parse_discrete_set(group, self.omega_plus)
        return [make_spec(group, plus, self.mode, self.arithmetic)]

    def outcome(self, code: int) -> Outcome:
        return cli_outcome(self.out_dir, "solve", code)


@dataclass
class LibrarySolve:
    """``solve(spec, formulation)`` in the library."""

    op_id: str
    spec: ProblemSpec
    formulation: str
    kind = "solve"

    def run(self):
        return solve(self.spec, formulation=self.formulation)

    def specs(self) -> list[ProblemSpec]:
        return [self.spec]

    def outcome(self, sol) -> Outcome:
        failures = []
        if sol.status != "optimal":
            failures.append(f"status {sol.status}")
        verdict = sol.certificate_verdict
        if verdict is None or not verdict.ok:
            failures.append("certificate not verified: "
                            + "; ".join(verdict.violations[:3] if verdict else ()))
        return Outcome([sol.value], failures)


@dataclass
class Reduction:
    """``reduce_and_compare(spec)`` on an exact problem."""

    op_id: str
    spec: ProblemSpec
    kind = "reduce"

    def run(self):
        return reduce_and_compare(self.spec)

    def specs(self) -> list[ProblemSpec]:
        return [self.spec]

    def outcome(self, report) -> Outcome:
        failures = []
        for name, comp in (("plus", report.plus_generated),
                           ("both", report.both_generated)):
            if comp.exact_equal is not True:
                failures.append(f"reduction identity H=<{name}> not exact_equal")
        sols = (report.plus_generated.solution_group,
                report.plus_generated.solution_subgroup,
                report.both_generated.solution_subgroup)
        for where, sol in zip(("G", "H=<plus>", "H=<both>"), sols):
            verdict = verify_certificate(sol, tol=0.0)
            if not verdict.ok:
                failures.append(f"{where}: zero-tolerance certificate failed: "
                                + "; ".join(verdict.violations[:3]))
        return Outcome([float(report.plus_generated.value_group_exact)], failures)


def run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def cli_outcome(out_dir: Path, command: str, code: int) -> Outcome:
    if code != 0:
        return Outcome([], [f"exit code {code}"])
    if command == "sweep":
        rows = json.loads((out_dir / "sweep.json").read_text())["rows"]
        failures = [f"grid {r['grid']}: status {r['status']}"
                    for r in rows if r["status"] != "optimal"]
        return Outcome([float(r["value"]) for r in rows], failures)
    result = json.loads((out_dir / "result.json").read_text())
    failures = [] if result["status"] == "optimal" else [f"status {result['status']}"]
    value = result.get("value_exact", result["value"])
    return Outcome([float(Fraction(str(value)))], failures)


# -- op lists -------------------------------------------------------------------


def torus_grid_ops(seed: int, small: bool, work: Path) -> list:
    # The shift stays below the finest grid step (1/64 at N=512 on torus 8),
    # so the sampled index sets are the same for every seed.
    half = 1 + Fraction(seed % 8, 4096)
    interval = f"[-{half},{half}]"
    sweep_grids = (16, 32) if small else (64, 128, 256)
    big = 64 if small else 512
    fourier_grids = (32, 64) if small else (128, 256)
    ops: list = [
        TorusCli("sweep-turan", "sweep", interval, "turan", sweep_grids,
                 work / "sweep-turan"),
        TorusCli("sweep-delsarte", "sweep", interval, "delsarte", sweep_grids,
                 work / "sweep-delsarte"),
        TorusCli("sweep-punctured", "sweep", "(-2,-1)u(-1,1)u(1,2)", "turan",
                 sweep_grids, work / "sweep-punctured"),
        TorusCli(f"solve-turan-{big}", "solve", interval, "turan", (big,),
                 work / f"solve-{big}"),
    ]
    s = parse_real_set(interval)
    for mode in ("turan", "delsarte"):
        for n in fourier_grids:
            dp = sample_set(s, TorusSpec(Fraction(CIRCUMFERENCE), n))
            plus = SymmetricSet.from_signed(dp.group, dp.signed_members)
            ops.append(LibrarySolve(f"fourier-{mode}-{n}",
                                    make_spec(dp.group, plus, mode, "float"),
                                    "fourier"))
    return ops


def random_orders(rng: random.Random, max_order: int) -> tuple[int, ...]:
    """Orders of 1-3 cyclic factors with product at most max_order."""
    orders: list[int] = []
    size = 1
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(2, 16)
        if size * n > max_order:
            break
        orders.append(n)
        size *= n
    return tuple(orders) or (rng.randint(2, max_order),)


def nice_orders(rng: random.Random, max_order: int) -> tuple[int, ...]:
    """Orders from {2,4} or {2,3,6}: every pairing cosine is rational."""
    family = rng.choice(((2, 4), (2, 3, 6)))
    orders: list[int] = []
    size = 1
    for _ in range(rng.randint(1, 3)):
        n = rng.choice(family)
        if size * n > max_order:
            break
        orders.append(n)
        size *= n
    return tuple(orders) or (family[0],)


def symmetric_indices(group, rng: random.Random, density: float,
                      within=None) -> set[int]:
    indices: set[int] = set()
    for i in (range(group.size) if within is None else within):
        if rng.random() < density:
            indices |= {i, group.neg_index(i)}
    return indices


def group_battery_ops(seed: int, small: bool) -> list:
    strata, rng = random.Random(STRATA_SEED), random.Random(seed)
    ops: list = []
    for i in range(20 if small else 600):
        group = FiniteAbelianGroup(random_orders(strata, 64))
        mode = MODES[i % 3]
        plus = SymmetricSet.from_indices(
            group, {0} | symmetric_indices(group, rng, 0.5))
        minus = SymmetricSet.from_indices(group, symmetric_indices(group, rng, 0.5))
        spec = make_spec(group, plus, mode, "float", minus)
        for form in ("primal", "fourier"):
            ops.append(LibrarySolve(f"battery-{i}-{form}", spec, form))
    return ops


def exact_certify_ops(seed: int, small: bool, work: Path) -> list:
    strata, rng = random.Random(STRATA_SEED + 1), random.Random(seed)
    ops: list = []
    count = 4 if small else 48
    while len(ops) < count:
        group = FiniteAbelianGroup(nice_orders(strata, 48))
        mode = MODES[len(ops) % 3]
        if group.size < 4:
            continue
        # Criterion-6 style: the plus set lives in a proper cyclic subgroup.
        candidates = [g for g in range(1, group.size)
                      if group.subgroup_generated([g]).is_proper()]
        if not candidates:
            continue
        subgroup = group.subgroup_generated([rng.choice(candidates)])
        plus = SymmetricSet.from_indices(
            group, {0} | symmetric_indices(group, rng, 0.5, subgroup.members))
        minus = SymmetricSet.from_indices(group, symmetric_indices(group, rng, 0.4))
        ops.append(Reduction(f"reduce-{len(ops)}",
                             make_spec(group, plus, mode, EXACT, minus)))
    z = 8 if small else 32
    ops.append(GroupCli(f"cli-exact-delsarte-z{z}", f"Z{z}", "{-3,-2,-1,0,1,2,3}",
                        "delsarte", work / "exact-z"))
    grid = 16 if small else 32
    ops.append(TorusCli(f"cli-exact-turan-grid{grid}", "solve", "[-1,1]", "turan",
                        (grid,), work / "exact-grid", arithmetic=EXACT))
    return ops


def build_ops(workload: str, seed: int, small: bool, work: Path) -> list:
    if workload == "torus-grid":
        return torus_grid_ops(seed, small, work)
    if workload == "group-battery":
        return group_battery_ops(seed, small)
    if workload == "exact-certify":
        return exact_certify_ops(seed, small, work)
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(workload: str) -> None:
    """One small solve of the workload's kind, so lazy set-up is paid
    before timing."""
    if workload == "torus-grid":
        dp = sample_set(parse_real_set("[-1,1]"), TorusSpec(Fraction(CIRCUMFERENCE), 32))
        plus = SymmetricSet.from_signed(dp.group, dp.signed_members)
        solve(ProblemSpec.turan(dp.group, plus))
        return
    group = FiniteAbelianGroup((8,))
    plus = SymmetricSet.from_signed(group, [-1, 0, 1])
    arithmetic = EXACT if workload == "exact-certify" else "float"
    solve(ProblemSpec.turan(group, plus, arithmetic=arithmetic))


def setup(workload: str, seed: int, small: bool, work: Path) -> list:
    """Input generation and one warm-up solve; returns the op list."""
    ops = build_ops(workload, seed, small, work)
    warm_up(workload)
    return ops
