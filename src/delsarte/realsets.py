"""Exact point-set topology for finite unions of intervals on the real line.

Endpoints are exact rationals and all predicates are decided without
floating point: boundary coherence is a knife-edge property (a set can
differ from a boundary-coherent one by finitely many points), so any
rounding would change verdicts.

Normal form merges touching intervals whose union is an interval, e.g.
(a,b] u (b,c) becomes (a,c), but never merges across an excluded shared
endpoint: (-1,1) u (1,2) stays two pieces, and that puncture at 1 is
exactly what the boundary-coherence predicate must see.

Unbounded pieces (from complements and exteriors, or literals such as
"(-inf,-1]u[1,inf)") carry ``None`` endpoints.  The extremal problems need
bounded sets; a torus rejects an unbounded one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Rational = Fraction | int


@dataclass(frozen=True)
class Interval:
    """Single interval with openness flags; ``None`` means an infinite end."""

    left: Fraction | None
    right: Fraction | None
    left_closed: bool
    right_closed: bool

    def __post_init__(self) -> None:
        if self.left is not None and self.right is not None and self.left >= self.right:
            raise ValueError(
                f"interval needs left < right, got [{self.left}, {self.right}]"
            )
        if self.left is None and self.left_closed:
            raise ValueError("an infinite left end cannot be closed")
        if self.right is None and self.right_closed:
            raise ValueError("an infinite right end cannot be closed")

    def contains(self, x: Fraction) -> bool:
        if self.left is not None:
            if x < self.left or (x == self.left and not self.left_closed):
                return False
        if self.right is not None:
            if x > self.right or (x == self.right and not self.right_closed):
                return False
        return True

    @property
    def bounded(self) -> bool:
        return self.left is not None and self.right is not None


def _sort_key(piece: Interval) -> tuple:
    if piece.left is None:
        return (0, Fraction(0), False)
    return (1, piece.left, not piece.left_closed)


class RealSet1D:
    """Finite union of intervals in normal form (sorted, maximally merged)."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[Interval] = ()):
        object.__setattr__(self, "intervals", _normalize(tuple(intervals)))

    def __setattr__(self, name, value):  # immutable value type
        raise AttributeError("RealSet1D is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty() -> "RealSet1D":
        return RealSet1D(())

    @staticmethod
    def interval(
        left: Rational,
        right: Rational,
        left_closed: bool = True,
        right_closed: bool = True,
    ) -> "RealSet1D":
        return RealSet1D(
            (Interval(Fraction(left), Fraction(right), left_closed, right_closed),)
        )

    @staticmethod
    def open_interval(left: Rational, right: Rational) -> "RealSet1D":
        return RealSet1D.interval(left, right, False, False)

    @staticmethod
    def real_line() -> "RealSet1D":
        return RealSet1D((Interval(None, None, False, False),))

    # -- basic structure ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RealSet1D) and self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __bool__(self) -> bool:
        return bool(self.intervals)

    def __repr__(self) -> str:
        return f"RealSet1D({self.to_literal()!r})"

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def is_bounded(self) -> bool:
        return all(p.bounded for p in self.intervals)

    def contains(self, x: Rational) -> bool:
        x = Fraction(x)
        return any(p.contains(x) for p in self.intervals)

    def endpoints(self) -> list[Fraction]:
        points: set[Fraction] = set()
        for p in self.intervals:
            if p.left is not None:
                points.add(p.left)
            if p.right is not None:
                points.add(p.right)
        return sorted(points)

    def measure(self) -> Fraction:
        if not self.is_bounded:
            raise ValueError("measure of an unbounded set")
        return sum((p.right - p.left for p in self.intervals), Fraction(0))

    def sup_abs(self) -> Fraction:
        """sup{|x| : x in closure(S)}; 0 for the empty set."""
        if not self.is_bounded:
            raise ValueError("sup_abs of an unbounded set")
        best = Fraction(0)
        for p in self.intervals:
            best = max(best, abs(p.left), abs(p.right))
        return best

    # -- boolean algebra ---------------------------------------------------

    def union(self, other: "RealSet1D") -> "RealSet1D":
        return RealSet1D(self.intervals + other.intervals)

    def complement(self) -> "RealSet1D":
        """Set complement; defined when no gap degenerates to a point.

        The complement of a punctured union such as (-1,1)u(1,2) contains
        the isolated point 1, which this representation cannot carry;
        containment questions go through is_subset_of instead, which never
        materializes a complement.
        """
        if not self.intervals:
            return RealSet1D.real_line()
        gaps: list[Interval] = []
        first = self.intervals[0]
        if first.left is not None:
            gaps.append(Interval(None, first.left, False, not first.left_closed))
        for a, b in zip(self.intervals, self.intervals[1:]):
            if a.right == b.left:
                if not a.right_closed and not b.left_closed:
                    raise ValueError(
                        f"complement has an isolated point at {a.right}, "
                        "not representable as an interval union"
                    )
                continue  # shared point covered by one side: empty gap
            gaps.append(
                Interval(a.right, b.left, not a.right_closed, not b.left_closed)
            )
        last = self.intervals[-1]
        if last.right is not None:
            gaps.append(Interval(last.right, None, not last.right_closed, False))
        return RealSet1D(gaps)

    def intersection(self, other: "RealSet1D") -> "RealSet1D":
        pieces: list[Interval] = []
        for a in self.intervals:
            for b in other.intervals:
                piece = _intersect(a, b)
                if piece is not None:
                    pieces.append(piece)
        return RealSet1D(pieces)

    def is_subset_of(self, other: "RealSet1D") -> bool:
        """Exact containment via breakpoints.

        Membership in either set is constant between consecutive endpoint
        values, so it suffices to test the endpoints themselves and one
        rational midpoint per consecutive pair (with one probe beyond each
        unbounded end).
        """
        for piece in self.intervals:
            points: set[Fraction] = set()
            for source in (self, other):
                for q in source.intervals:
                    for x in (q.left, q.right):
                        if x is not None and piece.contains(x):
                            points.add(x)
            if piece.left is not None:
                points.add(piece.left)
            if piece.right is not None:
                points.add(piece.right)
            ordered = sorted(points)
            probes: list[Fraction] = []
            for x in ordered:
                probes.append(x)
            for a, b in zip(ordered, ordered[1:]):
                probes.append((a + b) / 2)
            if piece.left is None:
                anchor = ordered[0] if ordered else Fraction(0)
                probes.append(anchor - 1)
            if piece.right is None:
                anchor = ordered[-1] if ordered else Fraction(0)
                probes.append(anchor + 1)
            if not ordered and piece.left is None and piece.right is None:
                probes.append(Fraction(0))
            for x in probes:
                if piece.contains(x) and not other.contains(x):
                    return False
        return True

    def negate(self) -> "RealSet1D":
        return RealSet1D(
            Interval(
                None if p.right is None else -p.right,
                None if p.left is None else -p.left,
                p.right_closed,
                p.left_closed,
            )
            for p in self.intervals
        )

    def to_literal(self) -> str:
        if not self.intervals:
            return "{}"

        parts = []
        for p in self.intervals:
            left = "-inf" if p.left is None else str(p.left)
            right = "inf" if p.right is None else str(p.right)
            parts.append(
                ("[" if p.left_closed else "(")
                + left
                + ","
                + right
                + ("]" if p.right_closed else ")")
            )
        return "u".join(parts)


def _normalize(pieces: Sequence[Interval]) -> tuple[Interval, ...]:
    items = sorted(pieces, key=_sort_key)
    out: list[Interval] = []
    for piece in items:
        if not out:
            out.append(piece)
            continue
        prev = out[-1]
        if _can_merge(prev, piece):
            out[-1] = _merge(prev, piece)
        else:
            out.append(piece)
    return tuple(out)


def _can_merge(a: Interval, b: Interval) -> bool:
    # Sorted so a.left <= b.left.  Merge on overlap, or on touching ends
    # provided at least one side includes the shared point.
    if a.right is None:
        return True
    if b.left is None:
        return True
    if b.left < a.right:
        return True
    if b.left == a.right and (a.right_closed or b.left_closed):
        return True
    return False


def _merge(a: Interval, b: Interval) -> Interval:
    if a.left is None or b.left is None:
        left, left_closed = None, False
    elif a.left < b.left:
        left, left_closed = a.left, a.left_closed
    elif b.left < a.left:
        left, left_closed = b.left, b.left_closed
    else:
        left, left_closed = a.left, a.left_closed or b.left_closed
    if a.right is None or b.right is None:
        right, right_closed = None, False
    elif a.right > b.right:
        right, right_closed = a.right, a.right_closed
    elif b.right > a.right:
        right, right_closed = b.right, b.right_closed
    else:
        right, right_closed = a.right, a.right_closed or b.right_closed
    return Interval(left, right, left_closed, right_closed)


def _intersect(a: Interval, b: Interval) -> Interval | None:
    if a.left is None:
        left, left_closed = b.left, b.left_closed
    elif b.left is None or a.left > b.left:
        left, left_closed = a.left, a.left_closed
    elif b.left > a.left:
        left, left_closed = b.left, b.left_closed
    else:
        left, left_closed = a.left, a.left_closed and b.left_closed
    if a.right is None:
        right, right_closed = b.right, b.right_closed
    elif b.right is None or a.right < b.right:
        right, right_closed = a.right, a.right_closed
    elif b.right < a.right:
        right, right_closed = b.right, b.right_closed
    else:
        right, right_closed = a.right, a.right_closed and b.right_closed
    if left is not None and right is not None:
        if left > right:
            return None
        if left == right:
            # Single points are not representable; they only arise here as
            # degenerate overlaps of touching pieces and are dropped.
            return None
    return Interval(left, right, left_closed, right_closed)


# -- topology ---------------------------------------------------------------


def interior(s: RealSet1D) -> RealSet1D:
    return RealSet1D(
        Interval(p.left, p.right, False, False) for p in s.intervals
    )


def closure(s: RealSet1D) -> RealSet1D:
    return RealSet1D(
        Interval(
            p.left,
            p.right,
            p.left is not None,
            p.right is not None,
        )
        for p in s.intervals
    )


def boundary(s: RealSet1D) -> list[Fraction]:
    """Boundary as a finite sorted list of points.

    For a normalized interval union the boundary is exactly the set of
    piece endpoints that are not interior, which includes puncture points
    shared by two touching open pieces.
    """
    inner = interior(s)
    return [x for x in s.endpoints() if not inner.contains(x)]


def exterior(s: RealSet1D) -> RealSet1D:
    """Interior of the complement, i.e. the complement of the closure."""
    return closure(s).complement()


@dataclass(frozen=True)
class CoherenceVerdict:
    ok: bool
    witness: Fraction | None

    def __bool__(self) -> bool:
        return self.ok


def is_boundary_coherent(s: RealSet1D) -> CoherenceVerdict:
    """Whether every boundary point can be approached from the exterior.

    A boundary point fails exactly when it sits in the interior of the
    closure; the punctured union (-2,-1)u(-1,1)u(1,2) fails at +-1 while
    its closure [-2,2] passes.
    """
    trapped = interior(closure(s))
    violations = [x for x in boundary(s) if trapped.contains(x)]
    if not violations:
        return CoherenceVerdict(True, None)
    witness = min(violations, key=lambda x: (abs(x), x < 0))
    return CoherenceVerdict(False, witness)


def is_symmetric(s: RealSet1D) -> bool:
    return s.negate() == s


def dilate(s: RealSet1D, r: Rational) -> RealSet1D:
    """r * S with endpoints scaled exactly; openness flags preserved."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError(f"dilation factor must be positive, got {r}")
    return RealSet1D(
        Interval(
            None if p.left is None else p.left * r,
            None if p.right is None else p.right * r,
            p.left_closed,
            p.right_closed,
        )
        for p in s.intervals
    )


def is_strictly_star_shaped(s: RealSet1D) -> bool:
    """Whether r * closure(S) lies inside interior(S) for every r in [0,1).

    In one dimension this is equivalent to (-a, a) being contained in the
    interior, where a = sup{|x| : x in closure(S)}: scaling the farthest
    closure point sweeps out all of (-a, a), and conversely (-a, a) covers
    every scaled copy of the closure.
    """
    if not s.is_bounded:
        raise ValueError("star-shape test requires a bounded set")
    if not is_symmetric(s):
        raise ValueError("star-shape test requires a symmetric set")
    if s.is_empty:
        return True
    a = closure(s).sup_abs()
    return RealSet1D.open_interval(-a, a).is_subset_of(interior(s))


# -- literals ----------------------------------------------------------------

_PIECE_RE = re.compile(r"([\[\(])([^,\[\]\(\)]+),([^,\[\]\(\)]+)([\]\)])")


def _endpoint(text: str, infinite: str, part: str) -> Fraction | None:
    """A rational endpoint, or None for the infinite end ``infinite``."""
    if text == infinite:
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational endpoint in {part!r}: {exc}") from exc


def parse_real_set(text: str) -> RealSet1D:
    """Parse a set literal such as "[-2,2]" or "(-2,-1)u(-1,1)u(1,2)".

    Rational endpoints are written "p/q"; "-inf" and "inf" are infinite
    ends, which must be open, so every ``to_literal`` output parses back.
    The literal "{}" is the empty set.
    """
    body = text.strip().replace(" ", "")
    if body in ("{}", ""):
        return RealSet1D.empty()
    pieces = []
    for part in body.split("u"):
        m = _PIECE_RE.fullmatch(part)
        if not m:
            raise ValueError(f"unrecognized interval {part!r} in set literal {text!r}")
        left = _endpoint(m.group(2), "-inf", part)
        right = _endpoint(m.group(3), "inf", part)
        if left is not None and right is not None and left >= right:
            raise ValueError(f"interval {part!r} needs left < right")
        try:
            pieces.append(Interval(left, right, m.group(1) == "[", m.group(4) == "]"))
        except ValueError as exc:
            raise ValueError(f"{exc} in {part!r}") from exc
    return RealSet1D(pieces)
