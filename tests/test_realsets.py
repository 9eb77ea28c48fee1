import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delsarte.realsets import (
    Interval,
    RealSet1D,
    boundary,
    closure,
    dilate,
    exterior,
    interior,
    is_boundary_coherent,
    is_strictly_star_shaped,
    is_symmetric,
    parse_real_set,
)

PUNCTURED = parse_real_set("(-2,-1)u(-1,1)u(1,2)")


def random_symmetric_set(rng: random.Random, denominator: int = 8, span: int = 8) -> RealSet1D:
    """Symmetric union of up to three interval pairs on the denominator grid."""
    pieces = RealSet1D.empty()
    for _ in range(rng.randint(1, 3)):
        a = Fraction(rng.randint(0, span * denominator - 2), denominator)
        b = Fraction(rng.randint(int(a * denominator) + 1, span * denominator), denominator)
        lc, rc = rng.random() < 0.5, rng.random() < 0.5
        piece = RealSet1D.interval(a, b, lc, rc)
        pieces = pieces.union(piece).union(piece.negate())
    if rng.random() < 0.5:
        b = Fraction(rng.randint(1, span * denominator), denominator)
        flag = rng.random() < 0.5
        pieces = pieces.union(RealSet1D.interval(-b, b, flag, flag))
    return pieces


def test_normal_form_merges_through_shared_closed_endpoint():
    s = parse_real_set("(0,1]u(1,2)")
    assert s.to_literal() == "(0,2)"
    s = parse_real_set("[0,1]u[1,2]")
    assert s.to_literal() == "[0,2]"


def test_normal_form_keeps_open_puncture():
    assert PUNCTURED.to_literal() == "(-2,-1)u(-1,1)u(1,2)"
    assert len(PUNCTURED.intervals) == 3


def test_boundary_examples():
    assert boundary(parse_real_set("(-1,1)")) == [-1, 1]
    assert closure(PUNCTURED) == parse_real_set("[-2,2]")
    assert interior(parse_real_set("[0,1]")) == parse_real_set("(0,1)")


def test_exterior_is_open_complement_of_closure():
    ext = exterior(PUNCTURED)
    assert not ext.contains(1)
    assert not ext.contains(2)
    assert ext.contains(Fraction(21, 10))
    assert ext.contains(-3)


def test_boundary_coherence_named_sets():
    assert is_boundary_coherent(parse_real_set("(-1,1)")).ok
    assert is_boundary_coherent(parse_real_set("[-2,2]")).ok
    verdict = is_boundary_coherent(PUNCTURED)
    assert not verdict.ok
    assert verdict.witness == 1


def test_every_closed_set_is_boundary_coherent():
    rng = random.Random(7)
    for _ in range(200):
        s = random_symmetric_set(rng)
        assert is_boundary_coherent(closure(s)).ok


def test_coherence_definitions_agree():
    # boundary within closure(exterior) iff boundary within boundary(exterior)
    rng = random.Random(11)
    for _ in range(200):
        s = random_symmetric_set(rng)
        ext = exterior(s)
        cl_ext = closure(ext)
        bd_ext = set(boundary(ext))
        for x in boundary(s):
            in_closure_of_ext = cl_ext.contains(x)
            in_boundary_of_ext = x in bd_ext
            assert in_closure_of_ext == in_boundary_of_ext
        ok = all(cl_ext.contains(x) for x in boundary(s))
        assert ok == is_boundary_coherent(s).ok


def test_interior_closure_sandwich_and_boundary_identity():
    rng = random.Random(13)
    for _ in range(300):
        s = random_symmetric_set(rng)
        inner, outer = interior(s), closure(s)
        assert inner.is_subset_of(s)
        assert s.is_subset_of(outer)
        expected = [x for x in outer.endpoints() if not inner.contains(x)]
        extra = [
            x for x in s.endpoints() if outer.contains(x) and not inner.contains(x)
        ]
        assert set(boundary(s)) == set(expected) | set(extra)


def test_symmetry_examples():
    assert is_symmetric(parse_real_set("(-1,1)"))
    assert not is_symmetric(parse_real_set("(0,1)"))
    assert is_symmetric(parse_real_set("(-2,-1)u(1,2)"))


def test_dilate_examples():
    assert dilate(parse_real_set("(-1,1)"), Fraction(1, 2)) == parse_real_set(
        "(-1/2,1/2)"
    )
    assert dilate(parse_real_set("[-2,2]"), Fraction(3, 4)) == parse_real_set(
        "[-3/2,3/2]"
    )
    s = PUNCTURED
    assert dilate(s, 1) == s
    with pytest.raises(ValueError):
        dilate(s, 0)


def test_dilate_round_trip_exact():
    rng = random.Random(17)
    for _ in range(100):
        s = random_symmetric_set(rng)
        r = Fraction(rng.randint(1, 8), rng.randint(1, 8))
        assert dilate(dilate(s, r), 1 / r) == s


def test_star_shape_examples():
    assert is_strictly_star_shaped(parse_real_set("(-1,1)"))
    assert is_strictly_star_shaped(parse_real_set("[-2,2]"))
    assert not is_strictly_star_shaped(PUNCTURED)
    with pytest.raises(ValueError):
        is_strictly_star_shaped(parse_real_set("(0,1)"))


def sampled_star_shape(s: RealSet1D, steps: int = 64) -> bool:
    """Direct verification of r * closure within interior over a sample grid."""
    inner = interior(s)
    outer = closure(s)
    if outer.is_empty:
        return True
    for k in range(steps):
        r = Fraction(k, steps)
        if r == 0:
            if not inner.contains(0):
                return False
            continue
        if not dilate(outer, r).is_subset_of(inner):
            return False
    return True


def test_star_shape_criterion_matches_sampled_check():
    rng = random.Random(23)
    for _ in range(200):
        s = random_symmetric_set(rng)
        assert is_strictly_star_shaped(s) == sampled_star_shape(s)


def test_parse_and_format_round_trip():
    for text in ("[-2,2]", "(-1,1)", "(-2,-1)u(-1,1)u(1,2)", "[-3/2,3/2]"):
        assert parse_real_set(text).to_literal() == text
    with pytest.raises(ValueError):
        parse_real_set("[2,1]")
    with pytest.raises(ValueError):
        parse_real_set("[1,2")
    assert parse_real_set("{}").is_empty


def test_measure_and_sup_abs():
    assert PUNCTURED.measure() == 4
    assert PUNCTURED.sup_abs() == 2
    assert parse_real_set("[-3/2,3/2]").measure() == 3


def test_boundary_coherence_survives_open_windows():
    # Intersecting with an open window (the line's stand-in for an open
    # subgroup) preserves boundary coherence; for sets inside an open
    # window the ambient and relative verdicts agree.
    rng = random.Random(31)
    checked = 0
    while checked < 150:
        s = random_symmetric_set(rng)
        if not is_boundary_coherent(s).ok:
            continue
        w = Fraction(rng.randint(1, 80), 8)
        window = RealSet1D.open_interval(-w, w)
        piece = s.intersection(window)
        assert is_boundary_coherent(piece).ok, (s.to_literal(), str(w))
        checked += 1


def test_literal_round_trip_keeps_infinite_ends():
    complement = parse_real_set("[-1,1]").complement()
    assert complement.to_literal() == "(-inf,-1)u(1,inf)"
    assert parse_real_set(complement.to_literal()) == complement
    assert parse_real_set("(-inf,inf)") == RealSet1D.real_line()
    assert not parse_real_set("[0,inf)").is_bounded
    for text in ("[-inf,1]", "(0,inf]", "(inf,1)", "(-1,-inf)"):
        with pytest.raises(ValueError):
            parse_real_set(text)


@st.composite
def real_sets(draw, span: int = 12) -> RealSet1D:
    """Unions of up to four intervals with endpoints on a small rational
    grid; an outermost end is sometimes infinite."""
    den = draw(st.sampled_from([1, 2, 3]))
    pieces = []
    for _ in range(draw(st.integers(0, 4))):
        a, b = sorted(draw(st.lists(st.integers(-span, span), min_size=2, max_size=2,
                                    unique=True)))
        left = None if draw(st.integers(0, 5)) == 0 else Fraction(a, den)
        right = None if draw(st.integers(0, 5)) == 0 else Fraction(b, den)
        pieces.append(Interval(left, right, left is not None and draw(st.booleans()),
                               right is not None and draw(st.booleans())))
    return RealSet1D(pieces)


def complement_or_none(s: RealSet1D) -> RealSet1D | None:
    """The complement, or None when it has an isolated point."""
    try:
        return s.complement()
    except ValueError:
        return None


SET_LAWS = settings(max_examples=300, deadline=None)


@SET_LAWS
@given(real_sets())
def test_parse_inverts_to_literal(s):
    assert parse_real_set(s.to_literal()) == s


@SET_LAWS
@given(real_sets())
def test_complement_is_an_involution(s):
    c = complement_or_none(s)
    assume(c is not None)
    assert c.complement() == s
    assert c.intersection(s).is_empty


@SET_LAWS
@given(real_sets(), real_sets())
def test_de_morgan(a, b):
    ca, cb = complement_or_none(a), complement_or_none(b)
    assume(ca is not None and cb is not None)
    c_union = complement_or_none(a.union(b))
    if c_union is not None:
        assert c_union == ca.intersection(cb)
    meet = a.intersection(b)
    # An intersection drops the points where a and b only touch; the law
    # is about point sets, so it applies when no point was dropped.
    shared = [x for x in a.endpoints() + b.endpoints() if a.contains(x) and b.contains(x)]
    assume(all(meet.contains(x) for x in shared))
    c_meet = complement_or_none(meet)
    if c_meet is not None:
        assert c_meet == ca.union(cb)


@SET_LAWS
@given(real_sets())
def test_interior_set_closure_chain(s):
    assert interior(s).is_subset_of(s)
    assert s.is_subset_of(closure(s))
    assert interior(s) == interior(interior(s))
    assert closure(s) == closure(closure(s))


def probe_points(*sets: RealSet1D) -> list[Fraction]:
    """Every endpoint of the sets, the midpoint of each pair of consecutive
    endpoints and one point past each end: membership in any of the sets
    is constant between consecutive probes."""
    ends = sorted({x for s in sets for x in s.endpoints()})
    if not ends:
        return [Fraction(0)]
    mids = [(a + b) / 2 for a, b in zip(ends, ends[1:])]
    return sorted(ends + mids + [ends[0] - 1, ends[-1] + 1])


@SET_LAWS
@given(real_sets(span=3), real_sets(span=3))  # a narrow grid makes ends tie
def test_union_intersection_and_containment_match_pointwise_membership(a, b):
    points = probe_points(a, b)
    ends = set(a.endpoints() + b.endpoints())
    union, meet = a.union(b), a.intersection(b)
    both = [a.contains(x) and b.contains(x) for x in points]
    for k, x in enumerate(points):
        assert union.contains(x) == (a.contains(x) or b.contains(x)), x
        # The intersection drops a point where a and b only touch: an
        # endpoint in both sets with neither neighbouring probe in both.
        isolated = x in ends and not any(both[max(k - 1, 0):k] + both[k + 1:k + 2])
        assert meet.contains(x) == (both[k] and not isolated), x
    assert a.is_subset_of(b) == all(b.contains(x) for x in points if a.contains(x))
    assert b.is_subset_of(a) == all(a.contains(x) for x in points if b.contains(x))
