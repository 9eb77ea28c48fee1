import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _generators import cos_turn, cos_turn_exact, fraction_cosines, fraction_phase
from delsarte.groups import MAX_ORDER, FiniteAbelianGroup, parse_group


def test_add_examples():
    z5 = FiniteAbelianGroup((5,))
    assert z5.add_index(z5.index_of((2,)), z5.index_of((4,))) == z5.index_of((1,))
    g = FiniteAbelianGroup((4, 3))
    assert g.add_index(g.index_of((3, 2)), g.index_of((1, 1))) == g.index_of((0, 0))
    for i in range(g.size):
        assert g.add_index(i, 0) == i


def test_negate_examples():
    z5 = FiniteAbelianGroup((5,))
    assert z5.neg_index(z5.index_of((2,))) == z5.index_of((3,))
    g = FiniteAbelianGroup((4, 3))
    assert g.neg_index(g.index_of((1, 2))) == g.index_of((3, 1))
    assert g.neg_index(0) == 0


def test_negation_involution_and_identity():
    g = FiniteAbelianGroup((4, 3, 2))
    for i in range(g.size):
        assert g.add_index(i, g.neg_index(i)) == 0
        assert g.neg_index(g.neg_index(i)) == i


def test_mixed_radix_order_last_coordinate_fastest():
    g = FiniteAbelianGroup((2, 3))
    assert [g.coords_of(i) for i in range(6)] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
    ]
    assert g.index_of((1, 2)) == 5


def test_signed_coords_window():
    z8 = FiniteAbelianGroup((8,))
    assert [z8.signed_coords(i)[0] for i in range(8)] == [0, 1, 2, 3, 4, -3, -2, -1]


def test_subgroup_generated_examples():
    z12 = FiniteAbelianGroup((12,))
    h = z12.subgroup_generated([z12.index_of((4,))])
    assert h.members == (0, 4, 8)
    g = FiniteAbelianGroup((4, 3))
    h = g.subgroup_generated([g.index_of((1, 0))])
    assert h.order == 4
    assert all(g.coords_of(m)[1] == 0 for m in h.members)
    assert g.subgroup_generated([]).members == (0,)


def test_subgroup_order_divides_group_order():
    g = FiniteAbelianGroup((6, 4))
    for seed in range(g.size):
        h = g.subgroup_generated([seed])
        assert g.size % h.order == 0


def test_scaling_map_examples():
    z8 = FiniteAbelianGroup((8,))
    s = z8.scaling_map(3)
    assert s.apply_index(2) == 6
    with pytest.raises(ValueError, match="not an automorphism"):
        z8.scaling_map(2)
    assert z8.scaling_map(1).permutation == tuple(range(8))


def test_scaling_map_is_homomorphic_bijection():
    g = FiniteAbelianGroup((5, 4))
    s = g.scaling_map(3)
    assert sorted(s.permutation) == list(range(g.size))
    for a in range(g.size):
        for b in range(g.size):
            assert s.apply_index(g.add_index(a, b)) == g.add_index(
                s.apply_index(a), s.apply_index(b)
            )
    assert s.apply_index(0) == 0
    for a in range(g.size):
        assert s.apply_index(g.neg_index(a)) == g.neg_index(s.apply_index(a))


def test_character_phases_are_exact_rationals():
    # chi_(1,1) at (2,2) on Z4 x Z3 turns by 2/4 + 2/3 - 1 = 1/6, which is
    # the integer phase 2 over L = 12, where both tables hold cos = 1/2.
    g = FiniteAbelianGroup((4, 3))
    chi, e = g.index_of((1, 1)), g.index_of((2, 2))
    assert g.phase_modulus == 12
    p = g.phase_index(e, chi)
    assert p == 2
    assert Fraction(p, g.phase_modulus) == Fraction(2, 4) + Fraction(2, 3) - 1
    assert g.float_cosines[p] == 0.5 and g.exact_cosines[p] == Fraction(1, 2)


def test_cos_turn_exact_table():
    assert cos_turn_exact(Fraction(0)) == 1
    assert cos_turn_exact(Fraction(1, 2)) == -1
    assert cos_turn_exact(Fraction(1, 3)) == Fraction(-1, 2)
    assert cos_turn_exact(Fraction(1, 4)) == 0
    assert cos_turn_exact(Fraction(1, 6)) == Fraction(1, 2)
    assert cos_turn_exact(Fraction(5, 6)) == Fraction(1, 2)
    assert cos_turn_exact(Fraction(1, 8)) is None
    assert cos_turn_exact(Fraction(7, 3)) == Fraction(-1, 2)


def test_cos_turn_matches_library_cosine():
    for num in range(-25, 26):
        for den in (1, 2, 3, 4, 5, 6, 7, 8, 12, 32):
            t = Fraction(num, den)
            assert cos_turn(t) == pytest.approx(
                math.cos(2 * math.pi * num / den), abs=1e-14
            )


def test_weight_validation():
    with pytest.raises(ValueError):
        FiniteAbelianGroup((4,), Fraction(0))
    with pytest.raises(ValueError):
        FiniteAbelianGroup((0,))


def test_parse_group_literals():
    g = parse_group("Z8")
    assert g.orders == (8,) and g.weight == 1
    g = parse_group("Z4xZ3")
    assert g.orders == (4, 3)
    g = parse_group("Z8,weight=1/4")
    assert g.weight == Fraction(1, 4)
    assert str(g) == "Z8,weight=1/4"
    with pytest.raises(ValueError):
        parse_group("A5")
    with pytest.raises(ValueError):
        parse_group("Z8,w=1")
    # The order is capped before any table is built.
    assert MAX_ORDER == 2**16
    assert parse_group(f"Z{MAX_ORDER}").size == MAX_ORDER
    for text in (f"Z{MAX_ORDER + 1}", "Z256xZ257", "Z999999999"):
        with pytest.raises(ValueError, match="exceeds the limit"):
            parse_group(text)


@st.composite
def group_and_pair(draw, max_order: int = 4096):
    """A group of 1-3 cyclic factors with order at most ``max_order``, and
    an element and a character of it."""
    orders = []
    size = 1
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, max_order // size))
        orders.append(n)
        size *= n
    group = FiniteAbelianGroup(tuple(orders))
    g = draw(st.integers(0, group.size - 1))
    chi = draw(st.integers(0, group.size - 1))
    return group, g, chi


@settings(max_examples=200, deadline=None)
@given(group_and_pair())
def test_phase_index_matches_fraction_phase(case):
    group, g, chi = case
    modulus = group.phase_modulus
    assert modulus == math.lcm(*group.orders)
    reference = fraction_phase(group, g, chi)
    assert 0 <= group.phase_index(g, chi) < modulus
    assert Fraction(group.phase_index(g, chi), modulus) == reference


def test_exact_cosines_lift_every_phase_once():
    g = FiniteAbelianGroup((8, 3))
    table = g.exact_cosines
    assert g.exact_cosines is table  # built once per group
    assert len(table) == g.phase_modulus == 24
    for p, value in enumerate(table):
        t = Fraction(p, 24)
        exact = cos_turn_exact(t)
        assert value == (Fraction(cos_turn(t)) if exact is None else exact)
    assert table[0] == 1 and table[8] == Fraction(-1, 2) and table[6] == 0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=3).filter(
        lambda orders: math.prod(orders) <= 256
    ),
    st.integers(0, 10**6),
)
def test_parse_group_round_trips(orders, weight_seed):
    weight = Fraction(weight_seed % 97 + 1, weight_seed % 13 + 1)
    group = FiniteAbelianGroup(tuple(orders), weight)
    assert parse_group(str(group)) == group


def check_cosine_tables(modulus: int) -> None:
    group = FiniteAbelianGroup((modulus,))
    floats, exact = fraction_cosines(modulus)
    table = group.float_cosines
    assert group.float_cosines is table and not table.flags.writeable
    assert [value.hex() for value in table.tolist()] == [value.hex() for value in floats]
    assert group.exact_cosines == tuple(exact)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4096))
def test_cosine_tables_match_the_per_phase_reference(modulus):
    check_cosine_tables(modulus)


@pytest.mark.parametrize("modulus", [15015, 65536])
def test_cosine_tables_match_the_per_phase_reference_at_large_moduli(modulus):
    check_cosine_tables(modulus)


@settings(max_examples=100, deadline=None)
@given(group_and_pair(max_order=64), st.data())
def test_phase_matrix_matches_phase_index(case, data):
    group = case[0]
    index = st.integers(0, group.size - 1)
    for elements, characters in (
        (range(group.size), range(group.size)),
        (data.draw(st.lists(index, max_size=8)), data.draw(st.lists(index, max_size=8))),
    ):
        phases = group.phases(elements, characters)
        assert phases.shape == (len(elements), len(characters))
        assert phases.tolist() == [
            [group.phase_index(g, k) for k in characters] for g in elements
        ]
