"""Bridge from real-line extremal problems to cyclic-group problems.

A torus of rational circumference L is sampled on an N-point grid anchored
at 0, so sets containing a neighbourhood of 0 always discretize to sets
containing 0.  Grid membership is decided exactly on rational points,
honoring endpoint openness, which is what distinguishes the closed, open
and punctured variants of the same interval.

The grid problem constrains the spectrum on Z_N only; it has no continuity
constraint.  For sets that are not boundary-coherent this models the
integral relaxation of positive definiteness rather than the real-line
problem, and every such discretization carries a warning flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .groups import MAX_ORDER, FiniteAbelianGroup
from .realsets import Interval, RealSet1D, closure, is_boundary_coherent, is_symmetric

RELAXATION_WARNING = (
    "set is not boundary-coherent: the grid problem models the integral "
    "relaxation, not the real-line constant"
)


@dataclass(frozen=True)
class TorusSpec:
    """Circle of circumference L sampled on N grid points of step L/N."""

    circumference: Fraction
    grid: int

    def __post_init__(self) -> None:
        try:
            circumference = Fraction(self.circumference)
        except ZeroDivisionError as exc:
            raise ValueError(f"circumference {self.circumference!r} divides by zero") from exc
        object.__setattr__(self, "circumference", circumference)
        if self.circumference <= 0:
            raise ValueError(f"circumference must be positive, got {self.circumference}")
        if self.grid < 2:
            raise ValueError(f"grid count must be at least 2, got {self.grid}")
        if self.grid > MAX_ORDER:
            raise ValueError(f"grid count {self.grid} exceeds the limit {MAX_ORDER}")

    @property
    def step(self) -> Fraction:
        return self.circumference / self.grid


@dataclass(frozen=True)
class DiscreteProblemSet:
    """Symmetric index set on Z_N with Haar weight equal to the grid step."""

    torus: TorusSpec
    group: FiniteAbelianGroup
    signed_members: tuple[int, ...]
    boundary_coherent: bool
    warning: str | None

    def __len__(self) -> int:
        return len(self.signed_members)


def _index_range(piece: Interval, step: Fraction) -> range:
    """The indices j with j * step in a bounded interval: the ceiling of
    its left end over the step to the floor of its right end, each moved
    inward by one where an open end lies on the grid."""
    left, right = piece.left / step, piece.right / step
    first = math.ceil(left) + (not piece.left_closed and left.denominator == 1)
    last = math.floor(right) - (not piece.right_closed and right.denominator == 1)
    return range(first, last + 1)


def sample_set(s: RealSet1D, torus: TorusSpec) -> DiscreteProblemSet:
    """Indices j in (-N/2, N/2] with j * step in S, decided exactly, one
    index range per interval of S (the wraparound check keeps every
    range inside the window)."""
    if not is_symmetric(s):
        raise ValueError("discretization requires a symmetric set")
    if not s.is_bounded:
        raise ValueError(f"discretization requires a bounded set, got {s.to_literal()}")
    half = torus.circumference / 2
    if not s.is_empty and closure(s).sup_abs() >= half:
        raise ValueError(
            f"set reaches {closure(s).sup_abs()} but the torus window is "
            f"(-{half}, {half}): circumference too small (wraparound)"
        )
    members = [j for piece in s.intervals for j in _index_range(piece, torus.step)]
    verdict = is_boundary_coherent(s)
    return DiscreteProblemSet(
        torus=torus,
        group=FiniteAbelianGroup((torus.grid,), torus.step),
        signed_members=tuple(members),
        boundary_coherent=verdict.ok,
        warning=None if verdict.ok else RELAXATION_WARNING,
    )
