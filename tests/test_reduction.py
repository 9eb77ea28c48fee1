import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _generators import direct_convolution, direct_transform, fraction_dual
from delsarte import reduction
from delsarte.classes import ClassSpec, SymmetricSet, in_class
from delsarte.groups import FiniteAbelianGroup, Subgroup
from delsarte.harmonic import (
    GroupFunction,
    autocorrelation,
    convolve,
    dft,
    idft,
    is_positive_definite,
)
from delsarte.reduction import (
    SIGNATURE_BLOCK,
    SubgroupView,
    reduce_and_compare,
    restrict,
    restrict_set,
    trivial_extension,
)
from delsarte.solver import EXACT, ProblemSpec, solve, verify_certificate

G43 = FiniteAbelianGroup((4, 3))


def view_of(group, generators):
    return SubgroupView(group.subgroup_generated(generators))


def test_subgroup_view_is_a_group_of_its_own():
    view = view_of(G43, [G43.index_of((1, 0))])
    assert view.size == 4
    assert view.weight == G43.weight
    # addition and negation close inside the view
    for i in range(view.size):
        assert 0 <= view.neg_index(i) < view.size
        for j in range(view.size):
            assert 0 <= view.add_index(i, j) < view.size
    # characters: full dual, exact phases
    for k in range(view.size):
        assert view.phase_index(0, k) == 0


def test_trivial_extension_examples():
    view = view_of(G43, [G43.index_of((1, 0))])
    delta_h = GroupFunction.delta(view)
    ext = trivial_extension(delta_h, view)
    assert np.allclose(ext.values, GroupFunction.delta(G43).values)

    tri_h = autocorrelation(view, [0, 1])
    ext = trivial_extension(tri_h, view)
    assert is_positive_definite(ext, 1e-10)
    assert ext(0) == pytest.approx(tri_h(0))
    assert ext.integral() == pytest.approx(tri_h.integral())

    ones_h = GroupFunction.constant(view)
    ext = trivial_extension(ones_h, view)
    assert is_positive_definite(ext, 1e-10)  # indicator of a subgroup
    assert sorted(i for i in range(G43.size) if ext(i) > 0.5) == list(
        view.members
    )


def test_restrict_round_trip_and_membership():
    view = view_of(G43, [G43.index_of((1, 0))])
    tri_h = autocorrelation(view, [0, 1])
    back = restrict(trivial_extension(tri_h, view), view)
    assert np.array_equal(back.values, tri_h.values)

    ones = GroupFunction.constant(G43)
    restricted = restrict(ones, view)
    omega_h = SymmetricSet.full(view)
    assert in_class(restricted, ClassSpec(omega_h, omega_h)).member


def test_restrict_and_extension_reject_functions_on_other_groups():
    view = view_of(G43, [G43.index_of((1, 0))])
    with pytest.raises(ValueError, match="parent group"):
        restrict(GroupFunction.constant(view), view)
    with pytest.raises(ValueError, match="subgroup view"):
        trivial_extension(GroupFunction.constant(G43), view)


def test_restriction_of_solver_extremal_stays_in_class():
    omega = SymmetricSet.from_signed(G43, [(0, 0), (1, 0), (3, 0)])
    sol = solve(ProblemSpec.turan(G43, omega))
    view = view_of(G43, [G43.index_of((1, 0))])
    restricted = restrict(sol.extremal_function, view)
    omega_h = restrict_set(omega, view)
    verdict = in_class(restricted, ClassSpec(omega_h, omega_h), tol=1e-7)
    assert verdict.member


def test_reduce_and_compare_example_z4xz3():
    omega = SymmetricSet.from_signed(G43, [(0, 0), (1, 0), (3, 0)])
    spec = ProblemSpec.turan(G43, omega, arithmetic=EXACT)
    report = reduce_and_compare(spec)
    assert report.plus_generated.subgroup_order == 4
    assert report.plus_generated.value_group_exact == 2
    assert report.plus_generated.value_subgroup_exact == 2
    assert report.plus_generated.exact_equal
    assert report.both_generated.exact_equal


def test_reduce_trivial_cases():
    omega = SymmetricSet.full(G43)
    report = reduce_and_compare(ProblemSpec.turan(G43, omega, arithmetic=EXACT))
    assert report.plus_generated.subgroup_order == 12
    assert report.plus_generated.value_group_exact == 12
    assert report.plus_generated.exact_equal

    zero_only = SymmetricSet.from_signed(G43, [(0, 0)])
    report = reduce_and_compare(
        ProblemSpec.general(
            G43, zero_only, zero_only, arithmetic=EXACT
        )
    )
    assert report.plus_generated.subgroup_order == 1
    assert report.plus_generated.value_group_exact == 1
    assert report.plus_generated.exact_equal


def nice_random_group(rng: random.Random) -> FiniteAbelianGroup:
    """Product groups whose pairing phases all have rational cosines."""
    family = rng.choice((["2", "4"], ["2", "3", "6"]))
    orders = []
    size = 1
    for _ in range(rng.randint(1, 3)):
        n = int(rng.choice(family))
        if size * n > 72:
            break
        orders.append(n)
        size *= n
    if not orders:
        orders = [int(family[0])]
    return FiniteAbelianGroup(tuple(orders), Fraction(rng.randint(1, 3), rng.randint(1, 2)))


def random_symmetric_indices(group, rng: random.Random, density: float, base=()):
    indices = set(base)
    for i in range(group.size):
        if rng.random() < density:
            indices |= {i, group.neg_index(i)}
    return indices


def test_reduction_equality_randomized_exact():
    rng = random.Random(101)
    done = 0
    while done < 25:
        group = nice_random_group(rng)
        if group.size < 4:
            continue
        # plus set inside a proper subgroup
        seed = rng.randrange(1, group.size)
        subgroup = group.subgroup_generated([seed])
        if not subgroup.is_proper():
            continue
        members = list(subgroup.members)
        plus = {0}
        for i in members:
            if rng.random() < 0.5:
                plus |= {i, group.neg_index(i)}
        omega_plus = SymmetricSet.from_indices(group, plus)
        mode = rng.choice(["turan", "delsarte", "general"])
        if mode == "turan":
            spec = ProblemSpec.turan(group, omega_plus, arithmetic=EXACT)
        elif mode == "delsarte":
            spec = ProblemSpec.delsarte(group, omega_plus, arithmetic=EXACT)
        else:
            minus = random_symmetric_indices(group, rng, 0.4)
            spec = ProblemSpec.general(
                group, omega_plus, SymmetricSet.from_indices(group, minus),
                arithmetic=EXACT,
            )
        report = reduce_and_compare(spec)
        assert report.plus_generated.exact_equal, (group, mode)
        assert report.both_generated.exact_equal, (group, mode)
        done += 1
    assert done == 25


Z12 = FiniteAbelianGroup((12,))


@pytest.mark.parametrize(
    "spec, solves",
    [
        (ProblemSpec.turan(G43, SymmetricSet.from_signed(G43, [(0, 0), (1, 0), (3, 0)])), 2),
        (ProblemSpec.delsarte(G43, SymmetricSet.from_signed(G43, [(0, 0), (1, 0), (3, 0)])), 2),
        (ProblemSpec.turan(Z12, SymmetricSet.from_signed(Z12, [-1, 0, 1])), 1),
        (ProblemSpec.delsarte(Z12, SymmetricSet.from_signed(Z12, [-1, 0, 1])), 1),
        (ProblemSpec.general(Z12, SymmetricSet.from_signed(Z12, [-4, 0, 4]),
                             SymmetricSet.from_signed(Z12, [6])), 3),
    ],
    ids=["turan", "delsarte", "turan-plus-generates-g", "delsarte-plus-generates-g",
         "general-larger-both"],
)
def test_reduce_solves_each_distinct_problem_once(spec, solves, monkeypatch):
    made = []

    def counting(sub_spec, *args):
        made.append(sub_spec)
        return solve(sub_spec, *args)

    monkeypatch.setattr(reduction, "solve", counting)
    report = reduce_and_compare(spec)
    assert len(made) == solves
    for comp in (report.plus_generated, report.both_generated):
        if comp.subgroup_order == spec.group.size:
            # H = G takes G's own solution, not a solve on a view of G.
            assert comp.solution_subgroup is comp.solution_group
            assert comp.difference == 0
    if spec.mode == "turan":
        assert report.both_generated is report.plus_generated


@pytest.mark.parametrize(
    "spec",
    [
        ProblemSpec.turan(G43, SymmetricSet.from_signed(G43, [(0, 0), (1, 0), (3, 0)])),
        ProblemSpec.delsarte(G43, SymmetricSet.from_signed(G43, [(0, 0), (1, 0), (3, 0)])),
        ProblemSpec.turan(Z12, SymmetricSet.from_signed(Z12, [-4, 0, 4]), arithmetic=EXACT),
        ProblemSpec.delsarte(Z12, SymmetricSet.from_signed(Z12, [-4, 0, 4]), arithmetic=EXACT),
        ProblemSpec.general(Z12, SymmetricSet.from_signed(Z12, [-4, 0, 4]),
                            SymmetricSet.from_signed(Z12, [6])),
    ],
    ids=["turan", "delsarte", "turan-exact", "delsarte-exact", "general"],
)
def test_subgroup_problems_keep_the_mode(spec):
    # Restricting equal sets gives equal sets and the whole group gives
    # the whole view, so the problem on a proper H is of the same kind as
    # on G.  (A Delsarte minus set generates G itself.)
    report = reduce_and_compare(spec)
    assert report.plus_generated.subgroup_order < spec.group.size
    for comp in (report.plus_generated, report.both_generated):
        if comp.subgroup_order == spec.group.size:
            continue
        sub = comp.solution_subgroup.spec
        assert sub.group.size == comp.subgroup_order
        assert sub.mode == spec.mode
        assert sub.arithmetic == spec.arithmetic
        if spec.mode == "delsarte":
            assert sub.omega_minus.is_full


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["turan", "delsarte", "general"]))
def test_full_group_view_solves_like_the_group(seed, mode):
    # A view of G itself goes through restriction, the view's dual and the
    # parent's tables, and must give G's exact value with certificates
    # that hold exactly.
    rng = random.Random(seed)
    group = nice_random_group(rng)
    plus = SymmetricSet.from_indices(group, random_symmetric_indices(group, rng, 0.5, {0}))
    minus = {
        "turan": plus,
        "delsarte": SymmetricSet.full(group),
        "general": SymmetricSet.from_indices(group, random_symmetric_indices(group, rng, 0.4)),
    }[mode]
    spec = ProblemSpec(group, plus, minus, mode=mode, arithmetic=EXACT)
    view = SubgroupView(group.subgroup_generated(range(group.size)))
    view_spec = ProblemSpec(
        view, restrict_set(plus, view), restrict_set(minus, view), mode=mode, arithmetic=EXACT,
    )
    sol_g, sol_view = solve(spec), solve(view_spec)
    assert sol_view.value_exact == sol_g.value_exact
    for sol in (sol_g, sol_view):
        assert verify_certificate(sol, tol=0).ok


def test_view_dual_memory_is_linear_in_the_order():
    # The order-2048 view of Z4096 keys its dual by phases on its one
    # generator, not on its 2048 members.
    group = FiniteAbelianGroup((4096,))
    subgroup = group.subgroup_generated([2])
    tracemalloc.start()
    try:
        view = SubgroupView(subgroup)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert view.size == 2048
    assert peak < 2 * 2**20


Z10 = FiniteAbelianGroup((10,))
Z3Z5 = FiniteAbelianGroup((3, 5))
Z2Z5 = FiniteAbelianGroup((2, 5))


@pytest.mark.parametrize(
    "spec",
    [
        ProblemSpec.turan(Z10, SymmetricSet.from_signed(Z10, [-2, 0, 2]), arithmetic=EXACT),
        ProblemSpec.delsarte(
            Z3Z5, SymmetricSet.from_signed(Z3Z5, [(0, 0), (0, 1), (0, -1)]),
            arithmetic=EXACT,
        ),
        ProblemSpec.general(
            Z2Z5, SymmetricSet.from_signed(Z2Z5, [(0, 0), (0, 2), (0, -2)]),
            SymmetricSet.from_signed(Z2Z5, [(1, 0), (0, 1), (0, -1)]), arithmetic=EXACT,
        ),
    ],
    ids=["z10-turan", "z3xz5-delsarte", "z2xz5-general"],
)
def test_reduction_equality_exact_with_irrational_cosines(spec):
    # Order-5 phases have irrational cosines, lifted from float64.  The
    # group and each subgroup must lift them inside the same (primal) form
    # for the reduction identity to hold exactly, although a float problem
    # on Z3xZ5 or Z2xZ5 here would solve the smaller Fourier form.
    report = reduce_and_compare(spec)
    for comp in (report.plus_generated, report.both_generated):
        assert comp.exact_equal, comp.subgroup_order
        for sol in (comp.solution_group, comp.solution_subgroup):
            assert sol.formulation == "primal"
            assert verify_certificate(sol, tol=0.0).ok


@st.composite
def subgroup_of_small_group(draw):
    """A group of 1-3 cyclic factors and order at most 64, and the subgroup
    generated by up to three of its elements."""
    orders = []
    size = 1
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 64 // size))
        orders.append(n)
        size *= n
    group = FiniteAbelianGroup(tuple(orders))
    generators = draw(st.lists(st.integers(0, group.size - 1), max_size=3))
    return group.subgroup_generated(generators)


@settings(max_examples=120, deadline=None)
@given(subgroup_of_small_group())
def test_subgroup_dual_matches_fraction_signatures(subgroup):
    view = SubgroupView(subgroup)
    signatures, negation = fraction_dual(subgroup)
    assert len(signatures) == view.size
    assert view.phase_modulus == subgroup.group.phase_modulus
    for k, signature in enumerate(signatures):
        assert tuple(
            Fraction(view.phase_index(g, k), view.phase_modulus) for g in range(view.size)
        ) == signature
        assert view.char_neg_index(k) == negation[k]


def scalar_dual(parent, members):
    """A view's dual from one ``phase_index`` call per member per parent
    character: the restricted signatures in order of first appearance,
    and the position of each one's negation."""
    seen = {}
    for chi in range(parent.size):
        seen.setdefault(tuple(parent.phase_index(g, chi) for g in members), chi)
        if len(seen) == len(members):
            break
    position = {signature: k for k, signature in enumerate(seen)}
    modulus = parent.phase_modulus
    return tuple(seen.values()), tuple(
        position[tuple(-p % modulus for p in signature)] for signature in seen
    )


def nested_subgroup(view, generators):
    """The subgroup of a view generated by some of its indices."""
    members, frontier = {0}, [0]
    while frontier:
        g = frontier.pop()
        for h in generators:
            s = view.add_index(g, h)
            if s not in members:
                members.add(s)
                frontier.append(s)
    return Subgroup(view, tuple(sorted(members)), tuple(generators))


@pytest.mark.parametrize(
    "orders, generators, inner",
    [
        ((12,), (3,), None),
        ((1024,), (2,), None),
        ((4, 128), (128,), None),  # restrictions first differ at 128, 256, 384
        ((6, 6), (8,), None),
        ((2, 4, 6), (9, 30), None),
        ((4, 128), (1, 128), (2,)),
        ((8, 6), (7,), (9, 21)),
        ((24,), (2,), (3,)),
    ],
)
@pytest.mark.parametrize("block", [SIGNATURE_BLOCK, 5])
def test_view_dual_matches_scalar_enumeration(orders, generators, inner, block, monkeypatch):
    # Cyclic groups, product groups and views of views: the blocked phase
    # matrix finds the same characters in the same order, and the same
    # negation, as one scalar phase per member and character, whatever
    # the block size.
    monkeypatch.setattr(reduction, "SIGNATURE_BLOCK", block)
    group = FiniteAbelianGroup(orders)
    subgroup = group.subgroup_generated(generators)
    if inner is not None:
        subgroup = nested_subgroup(SubgroupView(subgroup), inner)
    view = SubgroupView(subgroup)
    characters, negation = scalar_dual(subgroup.group, subgroup.members)
    assert view.parent_characters == characters
    assert tuple(map(view.char_neg_index, range(view.size))) == negation


def test_view_rejects_generators_that_do_not_generate_the_members():
    # The dual is keyed by phases on the generators, so they must be
    # members and generate all of them.
    members = Z12.subgroup_generated([2]).members
    with pytest.raises(ValueError, match="generators must be members"):
        SubgroupView(Subgroup(Z12, members, (1,)))
    with pytest.raises(ValueError, match="full dual"):
        SubgroupView(Subgroup(Z12, members, (4,)))


@settings(max_examples=100, deadline=None)
@given(subgroup_of_small_group(), st.data())
def test_view_phase_matrix_matches_phase_index(subgroup, data):
    view = SubgroupView(subgroup)
    index = st.integers(0, view.size - 1)
    for elements, characters in (
        (range(view.size), range(view.size)),
        (data.draw(st.lists(index, max_size=8)), data.draw(st.lists(index, max_size=8))),
    ):
        phases = view.phases(elements, characters)
        assert phases.shape == (len(elements), len(characters))
        assert phases.tolist() == [
            [view.phase_index(g, k) for k in characters] for g in elements
        ]
    assert view.float_cosines is subgroup.group.float_cosines


@settings(max_examples=120, deadline=None)
@given(subgroup_of_small_group(), st.integers(0, 2**32 - 1))
def test_view_transforms_go_through_the_parent_fft(subgroup, seed):
    view = SubgroupView(subgroup)
    parent = subgroup.group
    for k, chi in enumerate(view.parent_characters):
        assert [parent.phase_index(g, chi) for g in view.members] == [
            view.phase_index(i, k) for i in range(view.size)
        ]
    rng = np.random.default_rng(seed)
    f = GroupFunction(view, rng.normal(size=view.size))
    g = GroupFunction(view, rng.normal(size=view.size))
    assert np.allclose(dft(f).values, direct_transform(f), rtol=0, atol=1e-12)
    assert np.allclose(idft(dft(f)).values, f.values, rtol=0, atol=1e-12)
    assert np.allclose(convolve(f, g).values, direct_convolution(f, g), rtol=0, atol=1e-12)
