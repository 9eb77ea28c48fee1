"""Membership tests for the sign-constrained positive definite classes.

Two variants exist: the support-based class (positive part supported in
one set, negative part in another) and the preimage-based class (strict
sign sets contained in them).  On a finite group every subset is clopen,
so supports equal strict sign sets and the two variants coincide; the
verdict records this collapse so callers relying on either definition get
an explicit answer.  A compact-support variant would add nothing either:
every function on a finite group is compactly supported, so it is not
represented separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .discretize import TorusSpec, sample_set
from .harmonic import GroupFunction, is_positive_definite
from .realsets import RealSet1D, closure, interior


@dataclass(frozen=True)
class SymmetricSet:
    """Symmetric subset of a finite group, stored as an index set."""

    group: object
    indices: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", frozenset(int(i) for i in self.indices))
        for i in self.indices:
            if not 0 <= i < self.group.size:
                raise ValueError(f"index {i} out of range for the group")
            if self.group.neg_index(i) not in self.indices:
                raise ValueError(
                    f"set is not symmetric: contains {self.group.label(i)} but "
                    f"not its negation"
                )

    @staticmethod
    def from_indices(group, indices: Iterable[int]) -> "SymmetricSet":
        return SymmetricSet(group, frozenset(int(i) for i in indices))

    @staticmethod
    def from_signed(group, members: Iterable) -> "SymmetricSet":
        """Build from signed 1-D integers or coordinate tuples."""
        indices = set()
        for m in members:
            if isinstance(m, tuple):
                indices.add(group.index_of(m))
            elif group.dimension == 1:
                indices.add(group.index_of((int(m),)))
            else:
                raise ValueError(
                    f"member {m!r} must be a coordinate tuple for a "
                    f"{group.dimension}-dimensional group"
                )
        return SymmetricSet(group, frozenset(indices))

    @staticmethod
    def full(group) -> "SymmetricSet":
        return SymmetricSet(group, frozenset(range(group.size)))

    @staticmethod
    def empty(group) -> "SymmetricSet":
        return SymmetricSet(group, frozenset())

    def __contains__(self, index: int) -> bool:
        return int(index) in self.indices

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def is_full(self) -> bool:
        return len(self.indices) == self.group.size

    def sorted_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.indices))

    def union(self, other: "SymmetricSet") -> "SymmetricSet":
        return SymmetricSet(self.group, self.indices | other.indices)

    def map(self, permute: Callable[[int], int]) -> "SymmetricSet":
        return SymmetricSet(self.group, frozenset(permute(i) for i in self.indices))

    def label(self) -> str:
        if self.is_full:
            return "FULL"
        return "{" + ",".join(self.group.label(i) for i in self.sorted_indices()) + "}"


@dataclass(frozen=True)
class ClassSpec:
    """Sign-set pair plus the variant name (F or F*)."""

    omega_plus: SymmetricSet
    omega_minus: SymmetricSet
    variant: str = "F"

    def __post_init__(self) -> None:
        if self.omega_plus.group != self.omega_minus.group:
            raise ValueError("sign sets live on different groups")
        if self.variant not in ("F", "F*"):
            raise ValueError(f"unknown class variant {self.variant!r}")

    @property
    def group(self):
        return self.omega_plus.group


def positive_support(f: GroupFunction, tol: float = 1e-9) -> frozenset[int]:
    """Indices where f exceeds tol; equals supp f_+ on a discrete group."""
    return frozenset(int(i) for i in (f.values > tol).nonzero()[0])


def negative_support(f: GroupFunction, tol: float = 1e-9) -> frozenset[int]:
    return frozenset(int(i) for i in (f.values < -tol).nonzero()[0])


@dataclass(frozen=True)
class ClassFailure:
    condition: str  # "a" positive definiteness, "b" normalization, "c" supports
    detail: str
    witness: int | None


@dataclass(frozen=True)
class ClassVerdict:
    member: bool
    failures: tuple[ClassFailure, ...]
    variants_coincide: bool = True  # every subset of a finite group is clopen

    def __bool__(self) -> bool:
        return self.member


def in_class(
    f: GroupFunction,
    spec: ClassSpec,
    tol: float = 1e-9,
) -> ClassVerdict:
    """Check (a) positive definiteness, (b) f(0) = 1, (c) sign supports."""
    if f.group != spec.group:
        raise ValueError("function and class spec live on different groups")
    failures: list[ClassFailure] = []
    pd = is_positive_definite(f, tol)
    if not pd:
        failures.append(
            ClassFailure(
                "a",
                f"not positive definite: spectrum value {pd.witness_value} at "
                f"character {pd.witness_index}",
                pd.witness_index,
            )
        )
    if abs(f(0) - 1.0) > tol:
        failures.append(
            ClassFailure("b", f"f(0) = {f(0)!r}, expected 1", 0)
        )
    stray_plus = positive_support(f, tol) - spec.omega_plus.indices
    if stray_plus:
        witness = min(stray_plus)
        failures.append(
            ClassFailure(
                "c",
                f"positive value {f(witness)!r} outside the plus set at "
                f"{spec.group.label(witness)}",
                witness,
            )
        )
    stray_minus = negative_support(f, tol) - spec.omega_minus.indices
    if stray_minus:
        witness = min(stray_minus)
        failures.append(
            ClassFailure(
                "c",
                f"negative value {f(witness)!r} outside the minus set at "
                f"{spec.group.label(witness)}",
                witness,
            )
        )
    return ClassVerdict(not failures, tuple(failures))


# -- containment chain --------------------------------------------------------

CHAIN_LEVELS: tuple[str, ...] = (
    "interior",
    "set",
    "closure_of_interior",
    "closure",
)


def _chain_sets(s: RealSet1D) -> tuple[RealSet1D, ...]:
    return (interior(s), s, closure(interior(s)), closure(s))


@dataclass(frozen=True)
class ChainEntry:
    name: str
    verdicts: tuple[bool, ...]

    @property
    def monotone(self) -> bool:
        seen_member = False
        for v in self.verdicts:
            if seen_member and not v:
                return False
            seen_member = seen_member or v
        return True


@dataclass(frozen=True)
class ChainReport:
    levels: tuple[str, ...]
    entries: tuple[ChainEntry, ...]

    @property
    def violations(self) -> tuple[ChainEntry, ...]:
        return tuple(e for e in self.entries if not e.monotone)

    def lines(self) -> list[str]:
        out = []
        for e in self.entries:
            cells = " ".join(
                f"{lvl}={'member' if v else 'non-member'}"
                for lvl, v in zip(self.levels, e.verdicts)
            )
            status = "ok" if e.monotone else "VIOLATION"
            out.append(f"{e.name}: {cells} [{status}]")
        return out


def containment_chain_check(
    omega_plus: RealSet1D,
    omega_minus: RealSet1D,
    torus: TorusSpec,
    functions: Sequence[tuple[str, GroupFunction]],
    tol: float = 1e-9,
) -> ChainReport:
    """Membership across the interior/set/closure discretization ladder.

    The four levels are nested, so discretizing preserves the nesting and a
    member at one level must stay a member at every later level.  Any
    non-monotone verdict sequence is reported with the function name.
    """
    specs = []
    for sp, sm in zip(_chain_sets(omega_plus), _chain_sets(omega_minus)):
        dp = sample_set(sp, torus)
        dm = sample_set(sm, torus)
        specs.append(
            ClassSpec(
                SymmetricSet.from_signed(dp.group, dp.signed_members),
                SymmetricSet.from_signed(dm.group, dm.signed_members),
            )
        )
    entries = []
    for name, f in functions:
        verdicts = tuple(bool(in_class(f, spec, tol)) for spec in specs)
        entries.append(ChainEntry(name, verdicts))
    return ChainReport(CHAIN_LEVELS, tuple(entries))
