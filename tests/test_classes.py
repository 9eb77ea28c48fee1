import math
import random
from fractions import Fraction

import numpy as np
import pytest

from delsarte.classes import (
    ClassSpec,
    SymmetricSet,
    containment_chain_check,
    in_class,
    negative_support,
    positive_support,
)
from delsarte.discretize import TorusSpec
from delsarte.groups import FiniteAbelianGroup
from delsarte.harmonic import GroupFunction, autocorrelation, fejer_kernel
from delsarte.realsets import parse_real_set

Z8 = FiniteAbelianGroup((8,))
Z3 = FiniteAbelianGroup((3,))


def test_symmetric_set_validation_and_labels():
    s = SymmetricSet.from_signed(Z8, [-1, 0, 1])
    assert s.sorted_indices() == (0, 1, 7)
    assert 7 in s and 2 not in s
    with pytest.raises(ValueError, match="not symmetric"):
        SymmetricSet.from_indices(Z8, [0, 1])
    assert SymmetricSet.full(Z8).is_full
    assert len(SymmetricSet.empty(Z8)) == 0


def test_supports_examples():
    tri = autocorrelation(Z8, [0, 1])
    assert positive_support(tri) == {0, 1, 7}
    assert negative_support(tri) == frozenset()
    cos = GroupFunction(Z8, [math.cos(2 * math.pi * g / 8) for g in range(8)])
    assert negative_support(cos) == {3, 4, 5}
    zero = GroupFunction.constant(Z8, 0.0)
    assert positive_support(zero) == frozenset()
    assert negative_support(zero) == frozenset()


def test_in_class_triangle_member():
    omega = SymmetricSet.from_signed(Z8, [-1, 0, 1])
    spec = ClassSpec(omega, omega)
    verdict = in_class(autocorrelation(Z8, [0, 1]), spec)
    assert verdict.member
    assert verdict.variants_coincide


def test_in_class_delta_member():
    spec = ClassSpec(
        SymmetricSet.from_signed(Z8, [0]), SymmetricSet.empty(Z8)
    )
    assert in_class(GroupFunction.delta(Z8), spec).member


def test_in_class_failure_reasons_are_named():
    omega = SymmetricSet.full(Z3)
    verdict = in_class(GroupFunction(Z3, [1, -1, -1]), ClassSpec(omega, omega))
    assert not verdict.member
    assert [f.condition for f in verdict.failures] == ["a"]

    # wrong normalization
    verdict = in_class(
        GroupFunction(Z8, 2 * autocorrelation(Z8, [0, 1]).values),
        ClassSpec(SymmetricSet.from_signed(Z8, [-1, 0, 1]), SymmetricSet.full(Z8)),
    )
    assert "b" in {f.condition for f in verdict.failures}

    # stray support
    omega0 = SymmetricSet.from_signed(Z8, [0])
    verdict = in_class(
        autocorrelation(Z8, [0, 1]), ClassSpec(omega0, SymmetricSet.empty(Z8))
    )
    conditions = {f.condition for f in verdict.failures}
    assert conditions == {"c"}
    assert any(f.witness == 1 for f in verdict.failures)


def test_in_class_names_a_negative_value_outside_the_minus_set():
    # 1 - (delta_1 + delta_2) / 2 on Z3 has spectrum (0, 3/2, 3/2).
    f = GroupFunction(Z3, [1, -0.5, -0.5])
    omega0 = SymmetricSet.from_signed(Z3, [0])
    verdict = in_class(f, ClassSpec(omega0, SymmetricSet.empty(Z3)))
    assert not verdict.member
    assert [(c.condition, c.witness) for c in verdict.failures] == [("c", 1)]
    assert verdict.failures[0].detail == (
        f"negative value {f(1)!r} outside the minus set at {Z3.label(1)}"
    )
    assert in_class(f, ClassSpec(omega0, SymmetricSet.full(Z3))).member


def test_discrete_variant_collapse_randomized():
    rng = np.random.default_rng(7)
    for _ in range(50):
        group = FiniteAbelianGroup((int(rng.integers(2, 10)),))
        f = GroupFunction(group, rng.standard_normal(group.size))
        indices = set()
        for i in range(group.size):
            if rng.random() < 0.5:
                indices.add(i)
                indices.add(group.neg_index(i))
        omega_p = SymmetricSet.from_indices(group, indices | {0})
        omega_m = SymmetricSet.full(group)
        spec_f = ClassSpec(omega_p, omega_m, variant="F")
        spec_fs = ClassSpec(omega_p, omega_m, variant="F*")
        vf, vfs = in_class(f, spec_f), in_class(f, spec_fs)
        assert vf.member == vfs.member
        assert vf.variants_coincide and vfs.variants_coincide


def test_enlarging_sets_preserves_membership():
    rng = np.random.default_rng(9)
    group = FiniteAbelianGroup((12,))
    tri = fejer_kernel(group, 2)
    small = SymmetricSet.from_signed(group, [-2, -1, 0, 1, 2])
    spec_small = ClassSpec(small, small)
    assert in_class(tri, spec_small).member
    for _ in range(20):
        extra = set(small.indices)
        for i in range(group.size):
            if rng.random() < 0.5:
                extra |= {i, group.neg_index(i)}
        big = SymmetricSet.from_indices(group, extra)
        assert in_class(tri, ClassSpec(big, big)).member


def test_containment_chain_monotone_for_triangle_family():
    torus = TorusSpec(Fraction(8), 32)
    group = FiniteAbelianGroup((32,), Fraction(1, 4))
    functions = [
        ("delta", GroupFunction.delta(group)),
        ("tri1", fejer_kernel(group, 1)),
        ("tri3", fejer_kernel(group, 3)),
        ("tri4", fejer_kernel(group, 4)),
    ]
    s = parse_real_set("(-1,1)")
    report = containment_chain_check(s, s, torus, functions)
    assert report.violations == ()
    assert all(e.verdicts == tuple([True] * 4) for e in report.entries[:3])


def test_containment_chain_boundary_function_splits_levels():
    torus = TorusSpec(Fraction(8), 32)
    group = FiniteAbelianGroup((32,), Fraction(1, 4))
    tri4 = fejer_kernel(group, 4)  # positive exactly up to the closure grid point
    s = parse_real_set("[-1,1]")
    report = containment_chain_check(s, s, torus, [("tri4", tri4)])
    entry = report.entries[0]
    assert entry.verdicts == (False, True, True, True)
    assert entry.monotone


def test_containment_chain_empty_sample_list():
    torus = TorusSpec(Fraction(8), 32)
    s = parse_real_set("(-1,1)")
    report = containment_chain_check(s, s, torus, [])
    assert report.entries == ()
    assert report.violations == ()


def test_closure_variant_equals_open_variant_away_from_boundary():
    # For boundary-coherent sets, membership for the closure discretization
    # matches membership for the open discretization when the function
    # vanishes at the boundary grid points.
    torus = TorusSpec(Fraction(8), 32)
    group = FiniteAbelianGroup((32,), Fraction(1, 4))
    s = parse_real_set("[-1,1]")
    from delsarte.discretize import sample_set
    from delsarte.realsets import closure, interior

    d_closed = sample_set(closure(s), torus)
    d_open = sample_set(interior(s), torus)
    boundary_points = set(d_closed.signed_members) - set(d_open.signed_members)
    closed_spec = ClassSpec(
        SymmetricSet.from_signed(group, d_closed.signed_members),
        SymmetricSet.from_signed(group, d_closed.signed_members),
        variant="F*",
    )
    open_spec = ClassSpec(
        SymmetricSet.from_signed(group, d_open.signed_members),
        SymmetricSet.from_signed(group, d_open.signed_members),
        variant="F",
    )
    for m in (1, 2, 3):
        f = fejer_kernel(group, m)
        assert all(abs(f(j % 32)) < 1e-12 for j in boundary_points)
        assert in_class(f, closed_spec).member == in_class(f, open_spec).member


def test_chain_report_lines_format():
    torus = TorusSpec(Fraction(8), 32)
    group = FiniteAbelianGroup((32,), Fraction(1, 4))
    s = parse_real_set("(-1,1)")
    report = containment_chain_check(
        s, s, torus, [("delta", GroupFunction.delta(group))]
    )
    line = report.lines()[0]
    assert line.startswith("delta:")
    assert "interior=member" in line and "[ok]" in line
