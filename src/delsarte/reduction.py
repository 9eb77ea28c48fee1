"""Restriction and trivial extension across subgroups, and the harness
that checks the equal-constants reduction on concrete instances.

A subgroup inherits the parent's Haar weight (the restricted measure), its
addition, and its characters: every character of the subgroup arises by
restricting a parent character, so the subgroup's dual is enumerated by
deduplicating restricted phase signatures (vectors of integer phases p
over the parent's modulus L, the lcm of its orders, on the subgroup's
generators, which fix the whole restriction).  A view keeps, for
each of its characters, the parent character that first restricted to it
(``parent_characters``), and reads every phase, phase matrix and cosine
table from the parent; its transforms are the parent's FFT of the
trivial extension.  So every pairing phase, and every cosine lifted from
it, is literally shared between the two problems, which is what makes the
reduction equality exact in rational arithmetic; the certificates of both
solves pass a zero-tolerance check, which compares exact numbers.

``reduce_and_compare`` solves the problem on G, on H = <omega_plus> and on
H = <omega_plus u omega_minus>, each distinct problem once: a subgroup
equal to G reuses G's solution, and the second subgroup is the first
whenever the minus set lies in <omega_plus> (Turan mode always, Delsarte
mode whenever <omega_plus> = G).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .classes import SymmetricSet
from .groups import Subgroup
from .harmonic import GroupFunction
from .solver import ProblemSpec, Solution, solve


# Parent characters per phase matrix while a view's dual is enumerated; the
# matrix holds this many integers per subgroup generator.
SIGNATURE_BLOCK = 256


def _signatures(parent, points: Sequence[int], characters: Sequence[int],
                negate: bool = False):
    """(character, signature) pairs: the phases of each parent character on
    ``points`` (negated mod L if ``negate``) as the bytes of one int64
    vector, from the phase matrix of a block of characters at a time."""
    for start in range(0, len(characters), SIGNATURE_BLOCK):
        block = characters[start:start + SIGNATURE_BLOCK]
        phases = parent.phases(points, block).T
        if negate:
            phases = -phases % parent.phase_modulus
        yield from zip(block, map(np.ndarray.tobytes, np.ascontiguousarray(phases)))


class SubgroupView:
    """A subgroup presented through the group interface used by the
    transform and the solver: indices 0..|H|-1 in parent-index order, and
    character k the restriction of parent character ``parent_characters[k]``."""

    __slots__ = (
        "parent", "members", "weight", "phase_modulus", "parent_characters",
        "_index_in_sub", "_char_neg",
    )

    def __init__(self, subgroup: Subgroup):
        parent = subgroup.group
        members = tuple(subgroup.members)
        self.parent = parent
        self.members = members
        self.weight = Fraction(parent.weight)
        self.phase_modulus = parent.phase_modulus
        self._index_in_sub = {g: i for i, g in enumerate(members)}
        # Characters: deduplicated restrictions of the parent's characters in
        # order of first appearance, until all |H| of them are found.  A
        # restriction is fixed by its phases on the generators, which
        # generate the members, so those few phases key it.
        generators = subgroup.generators
        if not self._index_in_sub.keys() >= set(generators):
            raise ValueError("subgroup generators must be members")
        seen: dict[bytes, int] = {}
        for chi, signature in _signatures(parent, generators, range(parent.size)):
            seen.setdefault(signature, chi)
            if len(seen) == len(members):
                break
        if len(seen) != len(members):
            raise ValueError("character restriction did not produce a full dual")
        position = {signature: k for k, signature in enumerate(seen)}
        self.parent_characters = tuple(seen.values())
        self._char_neg = tuple(
            position[signature] for _, signature in
            _signatures(parent, generators, self.parent_characters, negate=True)
        )

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def dimension(self) -> int:
        return self.parent.dimension

    def add_index(self, i: int, j: int) -> int:
        return self._index_in_sub[self.parent.add_index(self.members[i], self.members[j])]

    def neg_index(self, i: int) -> int:
        return self._index_in_sub[self.parent.neg_index(self.members[i])]

    def phase_index(self, g_index: int, chi_index: int) -> int:
        return self.parent.phase_index(self.members[g_index], self.parent_characters[chi_index])

    def phases(self, elements: Sequence[int], characters: Sequence[int]) -> np.ndarray:
        return self.parent.phases(
            np.array(self.members)[np.asarray(elements, dtype=np.intp)],
            np.array(self.parent_characters)[np.asarray(characters, dtype=np.intp)],
        )

    @property
    def float_cosines(self) -> np.ndarray:
        return self.parent.float_cosines

    @property
    def exact_cosines(self) -> tuple[Fraction, ...]:
        return self.parent.exact_cosines

    def char_neg_index(self, k: int) -> int:
        return self._char_neg[k]

    def coords_of(self, i: int) -> tuple[int, ...]:
        return self.parent.coords_of(self.members[i])

    def signed_coords(self, i: int) -> tuple[int, ...]:
        return self.parent.signed_coords(self.members[i])

    def label(self, i: int) -> str:
        return self.parent.label(self.members[i])

    def to_sub_index(self, parent_index: int) -> int:
        try:
            return self._index_in_sub[parent_index]
        except KeyError:
            raise ValueError(
                f"{self.parent.label(parent_index)} is not in the subgroup"
            ) from None

    def contains_parent_index(self, parent_index: int) -> bool:
        return parent_index in self._index_in_sub

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubgroupView)
            and self.parent == other.parent
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((self.parent, self.members))

    def __repr__(self) -> str:
        return f"SubgroupView(order={self.size} in {self.parent})"


def trivial_extension(f: GroupFunction, view: SubgroupView) -> GroupFunction:
    """Extend by zero off the subgroup; preserves f(0), the integral, and
    positive definiteness (the extension's spectrum averages the subgroup
    spectrum over each restriction fibre)."""
    if f.group != view:
        raise ValueError("function is not defined on the subgroup view")
    values = [0.0] * view.parent.size
    for i, g in enumerate(view.members):
        values[g] = float(f.values[i])
    return GroupFunction(view.parent, values)


def restrict(f: GroupFunction, view: SubgroupView) -> GroupFunction:
    """Restrict to the subgroup; preserves positive definiteness and f(0)."""
    if f.group != view.parent:
        raise ValueError("function is not defined on the parent group")
    return GroupFunction(view, [float(f.values[g]) for g in view.members])


def restrict_set(omega: SymmetricSet, view: SubgroupView) -> SymmetricSet:
    """Intersect a symmetric parent set with the subgroup, in subgroup indices."""
    return SymmetricSet(
        view,
        frozenset(
            view.to_sub_index(i)
            for i in omega.indices
            if view.contains_parent_index(i)
        ),
    )


@dataclass(frozen=True)
class ReductionComparison:
    subgroup_order: int
    value_group: float
    value_subgroup: float
    difference: float
    value_group_exact: Fraction | None
    value_subgroup_exact: Fraction | None
    solution_group: Solution
    solution_subgroup: Solution

    @property
    def exact_equal(self) -> bool | None:
        if self.value_group_exact is None or self.value_subgroup_exact is None:
            return None
        return self.value_group_exact == self.value_subgroup_exact


@dataclass(frozen=True)
class ReductionReport:
    """Values on the group and on the subgroup generated by the plus set
    (minus set intersected), plus the variant generated by both sets."""

    spec: ProblemSpec
    plus_generated: ReductionComparison
    both_generated: ReductionComparison

    def lines(self) -> list[str]:
        out = []
        for name, comp in (
            ("H = <omega_plus>", self.plus_generated),
            ("H = <omega_plus u omega_minus>", self.both_generated),
        ):
            out.append(
                f"{name}: |H|={comp.subgroup_order} value_G={comp.value_group:.12g} "
                f"value_H={comp.value_subgroup:.12g} diff={comp.difference:.3g}"
            )
        return out


def _compare(
    spec: ProblemSpec,
    sol_g: Solution,
    subgroup: Subgroup,
) -> ReductionComparison:
    if not subgroup.is_proper():
        sol_h = sol_g  # H = G: the problem on H is the one already solved
    else:
        view = SubgroupView(subgroup)
        # Restriction keeps the mode: equal sets restrict to equal sets,
        # and the whole group to the whole view.
        sol_h = solve(
            ProblemSpec(
                view,
                restrict_set(spec.omega_plus, view),
                restrict_set(spec.omega_minus, view),
                mode=spec.mode, arithmetic=spec.arithmetic, tolerance=spec.tolerance,
            )
        )
    return ReductionComparison(
        subgroup_order=subgroup.order,
        value_group=sol_g.value,
        value_subgroup=sol_h.value,
        difference=sol_g.value - sol_h.value,
        value_group_exact=sol_g.value_exact,
        value_subgroup_exact=sol_h.value_exact,
        solution_group=sol_g,
        solution_subgroup=sol_h,
    )


def reduce_and_compare(spec: ProblemSpec) -> ReductionReport:
    """Solve on the group and on the generated subgroups, reporting both
    reduction identities.

    Each distinct problem is solved once.  When a generated subgroup is
    the whole group, its comparison reuses the group's ``Solution``
    (``solution_subgroup.spec.group`` is then the group itself, not a
    view) and ``difference`` is 0.  When the minus set lies in
    <omega_plus> the two subgroups are equal and ``both_generated`` is
    ``plus_generated``.  So Turan and Delsarte reductions make two solves,
    or one when the plus set generates the group; only general mode, with
    <omega_plus u omega_minus> larger than <omega_plus> and proper, makes
    three.
    """
    if 0 not in spec.omega_plus:
        raise ValueError("reduction requires the identity in the plus set")
    group = spec.group
    sol_g = solve(spec)
    plus_subgroup = group.subgroup_generated(spec.omega_plus.indices)
    plus = _compare(spec, sol_g, plus_subgroup)
    if spec.omega_minus.indices <= set(plus_subgroup.members):
        both = plus
    else:
        both_subgroup = group.subgroup_generated(
            spec.omega_plus.indices | spec.omega_minus.indices
        )
        both = _compare(spec, sol_g, both_subgroup)
    return ReductionReport(spec=spec, plus_generated=plus, both_generated=both)
