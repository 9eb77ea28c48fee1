"""Finite abelian groups as products of cyclic groups.

Elements and characters are indexed in mixed-radix order with the last
coordinate fastest, so a function on the group is a dense array of length
``|G|`` and index 0 is the identity.  Every character phase is a whole
number p of 1/L turns, where L is the lcm of the cyclic orders
(``phase_modulus``): chi_k(g) = exp(2*pi*i * p / L) with
p = sum g_i k_i (L / n_i) mod L (``phase_index``).  Phases stay integers,
so symmetry and equality checks are exact.  ``phases`` gives the whole
integer matrix of phases of a list of elements against a list of
characters by array arithmetic.

Every cosine a group needs is one of the L entries of its cosine table,
built once per group: ``float_cosines`` folds each integer phase p to
q = min(p, L - p) <= L/2 and evaluates cos(2*pi*q/L), or
-cos(2*pi*(L - 2q)/(2L)) past a quarter turn, taking the rational value
where the reduced denominator is 1, 2, 3, 4 or 6 (Niven).
``exact_cosines`` keeps those rational values and lifts the irrational
entries from the float table.  LP row data in both arithmetics is read
from these tables at integer phases, so exact programs' zero-tolerance
certificate checks compare exact numbers throughout.  The tests check
both tables against cosines folded one ``Fraction`` p / L at a time
(``fraction_cosines`` in ``tests/_generators.py``), and ``phase_index``
against a phase summed as one ``Fraction`` per factor (``fraction_phase``).
"""

from __future__ import annotations

import math
import re
import sys
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


# cos(2*pi*t) is rational exactly when the reduced denominator of t is
# 1, 2, 3, 4 or 6 (Niven); the table is keyed by that denominator.
_RATIONAL_COS = {
    1: {0: Fraction(1)},
    2: {1: Fraction(-1)},
    3: {1: Fraction(-1, 2), 2: Fraction(-1, 2)},
    4: {1: Fraction(0), 3: Fraction(0)},
    6: {1: Fraction(1, 2), 5: Fraction(1, 2)},
}


def _niven_cos(p: int, modulus: int) -> Fraction | None:
    """Exact cos(2*pi*p/L) from the reduced denominator of p/L, or None if
    irrational; the cosines of p and L - p are equal."""
    d = modulus // math.gcd(p, modulus)
    return _RATIONAL_COS[d][p // (modulus // d)] if d in _RATIONAL_COS else None


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic groups Z_{N1} x ... x Z_{Nd} with a Haar weight.

    The weight is the measure of a single point, so every integral over the
    group is ``weight`` times a plain sum.
    """

    orders: tuple[int, ...]
    weight: Fraction = Fraction(1)
    _strides: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _neg: tuple[int, ...] = field(init=False, repr=False, compare=False)
    phase_modulus: int = field(init=False, repr=False, compare=False)
    _per_turn: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        orders = tuple(int(n) for n in self.orders)
        if not orders or any(n < 1 for n in orders):
            raise ValueError(f"group orders must be positive, got {self.orders!r}")
        weight = Fraction(self.weight)
        if not sys.float_info.min <= weight <= sys.float_info.max:
            raise ValueError(f"Haar weight must be positive and within float range, got {self.weight}")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "weight", weight)
        strides = []
        acc = 1
        for n in reversed(orders):
            strides.append(acc)
            acc *= n
        object.__setattr__(self, "_strides", tuple(reversed(strides)))
        object.__setattr__(
            self, "_neg", tuple(self._neg_index_raw(i) for i in range(acc))
        )
        modulus = math.lcm(*orders)
        object.__setattr__(self, "phase_modulus", modulus)
        object.__setattr__(self, "_per_turn", tuple(modulus // n for n in orders))

    @property
    def size(self) -> int:
        n = 1
        for order in self.orders:
            n *= order
        return n

    @property
    def dimension(self) -> int:
        return len(self.orders)

    def index_of(self, coords: Sequence[int]) -> int:
        if len(coords) != len(self.orders):
            raise ValueError(
                f"expected {len(self.orders)} coordinates, got {len(coords)}"
            )
        idx = 0
        for c, n, s in zip(coords, self.orders, self._strides):
            idx += (int(c) % n) * s
        return idx

    def coords_of(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.size:
            raise ValueError(f"element index {index} out of range for {self}")
        coords = []
        for n, s in zip(self.orders, self._strides):
            coords.append((index // s) % n)
        return tuple(coords)

    def signed_coords(self, index: int) -> tuple[int, ...]:
        """Coordinates mapped to the symmetric window (-N/2, N/2]."""
        return tuple(
            c - n if 2 * c > n else c for c, n in zip(self.coords_of(index), self.orders)
        )

    def add_index(self, i: int, j: int) -> int:
        out = 0
        for n, s in zip(self.orders, self._strides):
            out += (((i // s) + (j // s)) % n) * s
        return out

    def _neg_index_raw(self, i: int) -> int:
        out = 0
        for n, s in zip(self.orders, self._strides):
            out += ((n - (i // s) % n) % n) * s
        return out

    def neg_index(self, i: int) -> int:
        return self._neg[i]

    def phase_index(self, g_index: int, chi_index: int) -> int:
        """Phase of chi(g) in units of 1/L turns, an integer in [0, L)."""
        p = 0
        for n, s, w in zip(self.orders, self._strides, self._per_turn):
            p += ((g_index // s) % n) * ((chi_index // s) % n) * w
        return p % self.phase_modulus

    def phases(self, elements: Sequence[int], characters: Sequence[int]) -> np.ndarray:
        """Integer matrix of ``phase_index(elements[i], characters[j])``:
        coordinates times L / n_i, summed over the factors, mod L."""
        strides, orders = np.array(self._strides), np.array(self.orders)
        g = np.asarray(elements, dtype=np.int64)[:, None] // strides % orders
        k = np.asarray(characters, dtype=np.int64)[:, None] // strides % orders
        return (g * np.array(self._per_turn)) @ k.T % self.phase_modulus

    @cached_property
    def float_cosines(self) -> np.ndarray:
        """cos(2*pi*p/L) for every phase index p, from the integer fold
        q = min(p, L - p): each q <= L/2 is evaluated once and mirrored
        to L - q; built once per group, read-only."""
        modulus = self.phase_modulus
        out = []
        for q in range(modulus // 2 + 1):
            exact = _niven_cos(q, modulus)
            if exact is not None:
                out.append(float(exact))
            elif 4 * q > modulus:
                out.append(-math.cos(2.0 * math.pi * ((modulus - 2 * q) / (2 * modulus))))
            else:
                out.append(math.cos(2.0 * math.pi * (q / modulus)))
        table = np.array(out + out[1:(modulus + 1) // 2][::-1])
        table.flags.writeable = False
        return table

    @cached_property
    def exact_cosines(self) -> tuple[Fraction, ...]:
        """cos(2*pi*p/L) for every phase index p, exact where rational and
        lifted from ``float_cosines`` otherwise; built once per group."""
        out = []
        for p, value in enumerate(self.float_cosines.tolist()):
            exact = _niven_cos(p, self.phase_modulus)
            out.append(Fraction(value) if exact is None else exact)
        return tuple(out)

    def char_neg_index(self, chi_index: int) -> int:
        # The dual group has the same mixed-radix coordinates.
        return self.neg_index(chi_index)

    def label(self, index: int) -> str:
        signed = self.signed_coords(index)
        if len(signed) == 1:
            return str(signed[0])
        return "(" + ",".join(str(c) for c in signed) + ")"

    def subgroup_generated(self, generators: Iterable[int]) -> "Subgroup":
        """Smallest subgroup containing the generator indices (breadth-first closure)."""
        gen_indices = sorted({int(g) for g in generators})
        seeds = set(gen_indices)
        for s in list(seeds):
            seeds.add(self.neg_index(s))
        members = {0} | seeds
        frontier = deque(sorted(members))
        while frontier:
            current = frontier.popleft()
            for s in seeds:
                nxt = self.add_index(current, s)
                if nxt not in members:
                    members.add(nxt)
                    frontier.append(nxt)
        return Subgroup(self, tuple(sorted(members)), tuple(gen_indices))

    def scaling_map(self, multiplier: int) -> "ScalingMap":
        """The automorphism g -> multiplier * g; requires gcd(R, Ni) = 1."""
        for n in self.orders:
            if math.gcd(multiplier, n) != 1:
                raise ValueError(
                    f"scaling by {multiplier} is not an automorphism of {self}: "
                    f"gcd({multiplier}, {n}) > 1"
                )
        perm = []
        for i in range(self.size):
            out = 0
            for n, s in zip(self.orders, self._strides):
                out += ((((i // s) % n) * multiplier) % n) * s
            perm.append(out)
        return ScalingMap(self, multiplier, tuple(perm))

    def __str__(self) -> str:
        name = "x".join(f"Z{n}" for n in self.orders)
        if self.weight != 1:
            name += f",weight={self.weight}"
        return name


@dataclass(frozen=True)
class Subgroup:
    """Subgroup given by its sorted member indices and a generator set."""

    group: FiniteAbelianGroup
    members: tuple[int, ...]
    generators: tuple[int, ...]

    def __post_init__(self) -> None:
        if 0 not in self.members:
            raise ValueError("a subgroup must contain the identity")
        if self.group.size % len(self.members) != 0:
            raise ValueError("subgroup order does not divide the group order")

    @property
    def order(self) -> int:
        return len(self.members)

    def is_proper(self) -> bool:
        return self.order < self.group.size


@dataclass(frozen=True)
class ScalingMap:
    """Automorphism g -> R*g of a group, stored as an index permutation."""

    group: FiniteAbelianGroup
    multiplier: int
    permutation: tuple[int, ...]

    def apply_index(self, i: int) -> int:
        return self.permutation[i]


_GROUP_RE = re.compile(r"^Z(\d+)$", re.IGNORECASE)


# The largest group order that ``parse_group`` accepts, and the largest
# grid count of a ``TorusSpec``: 2^16, the top of the sizes this dense
# solver aims at.  A larger input fails before any table is built.
MAX_ORDER = 2**16


def parse_group(text: str) -> FiniteAbelianGroup:
    """Parse a group literal such as "Z8", "Z4xZ3" or "Z8,weight=1/4"."""
    body = text.strip().replace(" ", "")
    weight = Fraction(1)
    if "," in body:
        body, _, tail = body.partition(",")
        key, _, value = tail.partition("=")
        if key != "weight" or not value:
            raise ValueError(f"unrecognized group option {tail!r} in {text!r}")
        try:
            weight = Fraction(value)
        except ZeroDivisionError as exc:
            raise ValueError(f"group weight {value!r} divides by zero") from exc
    orders = []
    for part in body.split("x"):
        m = _GROUP_RE.match(part)
        if not m:
            raise ValueError(f"unrecognized group literal {text!r}")
        orders.append(int(m.group(1)))
    size = math.prod(orders)
    if size > MAX_ORDER:
        raise ValueError(f"group order {size} exceeds the limit {MAX_ORDER}")
    return FiniteAbelianGroup(tuple(orders), weight)
