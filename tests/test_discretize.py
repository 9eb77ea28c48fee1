import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _generators import grid_members_by_point
from delsarte.discretize import TorusSpec, sample_set
from delsarte.realsets import RealSet1D, closure, interior, parse_real_set

T32 = TorusSpec(Fraction(8), 32)


def test_torus_spec_validation():
    assert T32.step == Fraction(1, 4)
    with pytest.raises(ValueError):
        TorusSpec(Fraction(8), 1)
    with pytest.raises(ValueError):
        TorusSpec(Fraction(0), 16)
    assert TorusSpec(Fraction(8), 2**16).grid == 2**16
    with pytest.raises(ValueError, match="exceeds the limit"):
        TorusSpec(Fraction(8), 2**16 + 1)


def test_sample_open_interval_excludes_endpoints():
    dps = sample_set(parse_real_set("(-1,1)"), T32)
    assert dps.signed_members == tuple(range(-3, 4))
    assert dps.group.orders == (32,)
    assert dps.group.weight == Fraction(1, 4)
    assert dps.boundary_coherent and dps.warning is None


def test_sample_closed_interval_includes_endpoints():
    dps = sample_set(parse_real_set("[-1,1]"), T32)
    assert dps.signed_members == tuple(range(-4, 5))
    assert len(sample_set(parse_real_set("[-2,2]"), T32)) == 17


def test_sample_punctured_set_drops_only_puncture_points():
    dps = sample_set(parse_real_set("(-2,-1)u(-1,1)u(1,2)"), T32)
    expected = tuple(j for j in range(-7, 8) if j not in (-4, 4))
    assert dps.signed_members == expected
    assert not dps.boundary_coherent
    assert "not boundary-coherent" in dps.warning


def test_sample_rejects_wraparound_and_asymmetry():
    with pytest.raises(ValueError, match="wraparound|circumference"):
        sample_set(parse_real_set("[-4,4]"), T32)
    with pytest.raises(ValueError, match="symmetric"):
        sample_set(parse_real_set("(0,1)"), T32)


def _random_symmetric(rng: random.Random) -> RealSet1D:
    pieces = RealSet1D.empty()
    for _ in range(rng.randint(1, 3)):
        a = Fraction(rng.randint(0, 20), 8)
        b = a + Fraction(rng.randint(1, 10), 8)
        flags = rng.random() < 0.5, rng.random() < 0.5
        piece = RealSet1D.interval(a, b, *flags)
        pieces = pieces.union(piece).union(piece.negate())
    return pieces


def test_monotone_under_topology_and_symmetric():
    rng = random.Random(3)
    for _ in range(100):
        s = _random_symmetric(rng)
        torus = TorusSpec(Fraction(16), rng.choice([16, 24, 32, 48]))
        inner = set(sample_set(interior(s), torus).signed_members)
        mid = set(sample_set(s, torus).signed_members)
        outer = set(sample_set(closure(s), torus).signed_members)
        assert inner <= mid <= outer
        assert mid == {-j for j in mid}


def test_measure_consistency_bound():
    rng = random.Random(5)
    for _ in range(100):
        s = _random_symmetric(rng)
        n = rng.choice([16, 32, 64, 128, 256])
        torus = TorusSpec(Fraction(16), n)
        dps = sample_set(s, torus)
        approx = torus.step * len(dps)
        assert abs(approx - s.measure()) <= 2 * torus.step * len(s.intervals)


@st.composite
def set_on_a_torus(draw):
    """A symmetric set and a torus it fits on.  The endpoints are multiples
    of step / q, so q = 1 puts every endpoint on a grid point; touching
    pieces with open ends give punctures, at 0 too."""
    n = draw(st.integers(3, 200))
    torus = TorusSpec(Fraction(draw(st.integers(1, 40)), draw(st.integers(1, 6))), n)
    q = draw(st.sampled_from([1, 1, 2, 3, 7]))
    # Endpoints k * step / q with k < n q / 2 stay inside the window.
    cuts = sorted(draw(st.sets(st.integers(0, (n * q - 1) // 2), min_size=2, max_size=6)))
    s = RealSet1D.empty()
    for a, b in zip(cuts, cuts[1:]):
        if draw(st.booleans()):
            piece = RealSet1D.interval(a * torus.step / q, b * torus.step / q,
                                       draw(st.booleans()), draw(st.booleans()))
            s = s.union(piece).union(piece.negate())
    return s, torus


@settings(max_examples=300, deadline=None)
@given(set_on_a_torus())
def test_sampling_by_ranges_matches_the_point_loop(data):
    s, torus = data
    assert sample_set(s, torus).signed_members == grid_members_by_point(s, torus)
