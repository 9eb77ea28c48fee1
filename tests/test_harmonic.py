import math
import random
from fractions import Fraction

import numpy as np
import pytest

from _generators import direct_transform
from delsarte.groups import FiniteAbelianGroup
from delsarte.harmonic import (
    GroupFunction,
    autocorrelation,
    convolve,
    dft,
    evenize,
    fejer_kernel,
    idft,
    is_positive_definite,
    pointwise_product,
)

Z4 = FiniteAbelianGroup((4,))
Z8 = FiniteAbelianGroup((8,))
Z12 = FiniteAbelianGroup((12,))


def test_dft_delta_is_flat():
    spec = dft(GroupFunction.delta(Z4))
    assert np.allclose(spec.values, np.ones(4))


def test_dft_constant_concentrates():
    spec = dft(GroupFunction.constant(Z4))
    assert np.allclose(spec.values, [4, 0, 0, 0])


def test_dft_triangle_z8_against_direct_oracle():
    f = GroupFunction(Z8, [1, 0.5, 0, 0, 0, 0, 0, 0.5])
    spec = dft(f)
    oracle = direct_transform(f)
    expected = [1 + math.cos(2 * math.pi * j / 8) for j in range(8)]
    assert np.allclose(spec.values, oracle, atol=1e-12)
    assert np.allclose(spec.values.real, expected, atol=1e-12)
    assert abs(spec.values[4]) < 1e-12


def test_fast_path_matches_reference_path():
    rng = np.random.default_rng(5)
    for orders in ((6,), (4, 3), (2, 2, 3)):
        group = FiniteAbelianGroup(orders, Fraction(1, 3))
        f = GroupFunction(group, rng.standard_normal(group.size))
        assert np.allclose(dft(f).values, direct_transform(f), atol=1e-12)


def test_round_trip_including_large_group():
    rng = np.random.default_rng(11)
    for orders in ((8,), (4, 3), (16, 16, 16)):
        group = FiniteAbelianGroup(orders)
        values = rng.standard_normal(group.size)
        f = GroupFunction(group, values)
        back = idft(dft(f))
        assert np.allclose(back.values, values, rtol=1e-12, atol=1e-12)


def test_parseval_under_stated_normalization():
    rng = np.random.default_rng(13)
    group = FiniteAbelianGroup((4, 3), Fraction(2, 7))
    f = GroupFunction(group, rng.standard_normal(group.size))
    h = float(group.weight)
    lhs = h * float(np.sum(f.values**2))
    spec = dft(f).values
    rhs = float(np.sum(np.abs(spec) ** 2)) / (h * group.size)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_convolve_identity_and_overlap():
    f = GroupFunction(Z8, np.arange(8.0))
    assert np.allclose(convolve(GroupFunction.delta(Z8), f).values, f.values)
    a = GroupFunction.indicator(Z8, [0, 1])
    b = GroupFunction.indicator(Z8, [0, 7])
    out = convolve(a, b)
    expected = np.zeros(8)
    expected[0], expected[1], expected[7] = 2, 1, 1
    assert np.allclose(out.values, expected)


def test_convolution_theorem_against_double_sum():
    rng = np.random.default_rng(17)
    group = FiniteAbelianGroup((6,), Fraction(3, 2))
    f = GroupFunction(group, rng.standard_normal(6))
    g = GroupFunction(group, rng.standard_normal(6))
    out = convolve(f, g)
    h = float(group.weight)
    direct = np.zeros(6)
    for x in range(6):
        direct[x] = h * sum(
            f.values[y] * g.values[(x - y) % 6] for y in range(6)
        )
    assert np.allclose(out.values, direct, atol=1e-12)
    lhs = dft(out).values
    rhs = dft(f).values * dft(g).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_convolve_rejects_mismatched_groups():
    with pytest.raises(ValueError):
        convolve(GroupFunction.delta(Z4), GroupFunction.delta(Z8))


def test_autocorrelation_examples():
    f = autocorrelation(Z8, [0, 1])
    assert f(0) == pytest.approx(1.0)
    assert f(1) == pytest.approx(0.5) and f(7) == pytest.approx(0.5)
    assert f.integral() == pytest.approx(2.0)

    assert np.allclose(autocorrelation(Z8, [0]).values, GroupFunction.delta(Z8).values)

    f = autocorrelation(Z12, [0, 1, 2])
    overlap = {
        k: len({0, 1, 2} & {(a + k) % 12 for a in (0, 1, 2)}) / 3 for k in range(12)
    }
    for k in range(12):
        assert f(k) == pytest.approx(overlap[k])
    assert f.integral() == pytest.approx(3.0)
    with pytest.raises(ValueError):
        autocorrelation(Z8, [])


def test_autocorrelation_always_positive_definite():
    rng = random.Random(19)
    for _ in range(50):
        group = FiniteAbelianGroup((rng.randint(2, 12), rng.randint(1, 4)))
        subset = rng.sample(range(group.size), rng.randint(1, group.size))
        f = autocorrelation(group, subset)
        assert is_positive_definite(f, 1e-10)


def test_support_of_autocorrelation_in_difference_set():
    group = FiniteAbelianGroup((16,))
    subset = [0, 1, 5]
    f = autocorrelation(group, subset)
    diffs = {(a - b) % 16 for a in subset for b in subset}
    for g in range(16):
        if g not in diffs:
            assert f(g) == pytest.approx(0.0)


def test_is_positive_definite_examples():
    assert is_positive_definite(GroupFunction.delta(Z4), 0.0)
    z3 = FiniteAbelianGroup((3,))
    verdict = is_positive_definite(GroupFunction(z3, [1, -1, -1]), 1e-9)
    assert not verdict
    assert verdict.witness_index == 0
    assert verdict.witness_value == pytest.approx(-1.0)
    f = GroupFunction(Z8, [math.cos(2 * math.pi * g / 8) for g in range(8)])
    assert is_positive_definite(f)
    spec = dft(f).values
    assert spec[1] == pytest.approx(4.0) and spec[7] == pytest.approx(4.0)
    assert np.allclose(np.delete(spec, [1, 7]), 0, atol=1e-12)


def gram_psd_oracle(f: GroupFunction, tol: float) -> bool:
    """Eigenvalue check of [f(g_i - g_j)]; a positive definite real
    function must make this matrix symmetric in the first place."""
    group = f.group
    n = group.size
    gram = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            gram[i, j] = f.values[group.add_index(i, group.neg_index(j))]
    if np.max(np.abs(gram - gram.T)) > tol:
        return False
    return bool(np.linalg.eigvalsh(gram).min() >= -tol)


def test_bochner_matches_gram_eigenvalues_small_groups():
    rng = np.random.default_rng(23)
    cases = []
    for orders in ((5,), (8,), (2, 4), (2, 2, 2), (7,)):
        group = FiniteAbelianGroup(orders)
        n = group.size
        for k in range(40):
            raw = rng.standard_normal(n)
            if k % 4 == 0:
                f = GroupFunction(group, raw)  # generically not even
            elif k % 4 in (1, 2):
                f = evenize(GroupFunction(group, raw))  # even, mixed verdicts
            else:
                f = idft_from_real_spectrum(group, np.abs(raw))  # positive definite
            cases.append((f, n))
    assert len(cases) == 200
    verdicts = set()
    for f, n in cases:
        expected = gram_psd_oracle(f, 1e-9 * n)
        assert bool(is_positive_definite(f, 1e-9 * n)) == expected
        verdicts.add(expected)
    assert verdicts == {True, False}


def idft_from_real_spectrum(group, spectrum_values):
    """Even real function with the prescribed nonnegative spectrum."""
    from delsarte.harmonic import Spectrum

    values = np.asarray(spectrum_values, dtype=float)
    sym = np.array([(values[k] + values[group.neg_index(k)]) / 2 for k in range(group.size)])
    return idft(Spectrum(group, sym.astype(complex)))


def test_bounded_by_value_at_zero():
    rng = np.random.default_rng(29)
    group = FiniteAbelianGroup((4, 5))
    for _ in range(50):
        f = idft_from_real_spectrum(group, np.abs(rng.standard_normal(group.size)))
        assert is_positive_definite(f)
        assert np.max(np.abs(f.values)) <= f(0) + 1e-9


def test_pointwise_product_examples():
    f = GroupFunction(Z8, np.arange(8.0))
    one = GroupFunction.constant(Z8)
    assert np.allclose(pointwise_product(f, one).values, f.values)
    tri = autocorrelation(Z8, [0, 1])
    prod = pointwise_product(tri, tri)
    assert is_positive_definite(prod, 1e-10)
    delta = GroupFunction.delta(Z8)
    assert np.allclose(
        pointwise_product(delta, f).values, f(0) * delta.values
    )


def test_product_of_nonnegative_spectra_has_nonnegative_spectrum():
    rng = np.random.default_rng(31)
    group = FiniteAbelianGroup((9,))
    for _ in range(30):
        f = idft_from_real_spectrum(group, np.abs(rng.standard_normal(9)))
        g = idft_from_real_spectrum(group, np.abs(rng.standard_normal(9)))
        prod = pointwise_product(f, g)
        assert dft(prod).values.real.min() >= -1e-10


def test_fejer_kernel_examples():
    k = fejer_kernel(Z8, 1)
    assert np.allclose(k.values, [1, 0.5, 0, 0, 0, 0, 0, 0.5])
    k = fejer_kernel(Z12, 2)
    for j in range(12):
        signed = j if j <= 6 else j - 12
        expected = max(0.0, 1 - abs(signed) / 3)
        assert k(j) == pytest.approx(expected)
    assert np.allclose(fejer_kernel(Z8, 0).values, GroupFunction.delta(Z8).values)
    with pytest.raises(ValueError):
        fejer_kernel(Z8, 4)


def test_fejer_kernel_properties_multidim():
    group = FiniteAbelianGroup((8, 7))
    m = 2
    k = fejer_kernel(group, m)
    assert k(0) == pytest.approx(1.0)
    assert float(k.values.min()) >= -1e-12
    assert float(k.values.max()) <= 1 + 1e-12
    assert is_positive_definite(k, 1e-10)
    for i in range(group.size):
        signed = group.signed_coords(i)
        lower = 1 - sum(abs(c) for c in signed) / (m + 1)
        assert k(i) >= lower - 1e-12


def test_evenize_examples():
    f = GroupFunction(Z4, [0, 1, 0, 0])
    assert np.allclose(evenize(f).values, [0, 0.5, 0, 0.5])
    even = autocorrelation(Z8, [0, 1])
    assert np.allclose(evenize(even).values, even.values)
    delta = GroupFunction.delta(Z8)
    assert np.allclose(evenize(delta).values, delta.values)


def test_evenize_preserves_value_at_zero_and_integral():
    rng = np.random.default_rng(37)
    group = FiniteAbelianGroup((5, 3), Fraction(1, 2))
    f = GroupFunction(group, rng.standard_normal(group.size))
    g = evenize(f)
    assert g(0) == pytest.approx(f(0))
    assert g.integral() == pytest.approx(f.integral())
    assert g.is_even(0.0)


def test_spectrum_cache_is_write_once_and_consistent():
    f = autocorrelation(Z8, [0, 1])
    first = f.spectrum()
    second = f.spectrum()
    assert first is second
    assert np.array_equal(first.values, dft(f).values)


def test_csv_round_trip(tmp_path):
    group = FiniteAbelianGroup((4, 3), Fraction(1, 4))
    rng = np.random.default_rng(41)
    f = GroupFunction(group, rng.standard_normal(group.size))
    path = tmp_path / "f.csv"
    f.to_csv(path)
    back = GroupFunction.from_csv(group, path)
    assert np.allclose(back.values, f.values, atol=1e-11)
    spath = tmp_path / "s.csv"
    f.spectrum().to_csv(spath)
    header = spath.read_text().splitlines()[0]
    assert header == "char_index,value_re,value_im"


@pytest.mark.parametrize("rows, message", [
    (["0,0,1", "1,1,0.5", "2,2,0", "-1,3,0.5"], "line 5: index -1 "),
    (["0,0,1", "1,1,0.5", "1,1,0.25", "3,3,0.5"], "line 4: index 1 "),
    (["0,0,1", "1,1,0.5", "3,3,0.5"], "no row has index 2"),
    (["0,0,1", "1,1,0.5", "2,2,0", "9,3,0.5"], "line 5: index 9 "),
    (["0,0,1", "x,1,0.5", "2,2,0", "3,3,0.5"], "line 3: no integer index"),
    (["0,0,1", "1,1", "2,2,0", "3,3,0.5"], "line 3: no integer index"),
])
def test_csv_rejects_a_bad_index(tmp_path, rows, message):
    # Every index of Z4 once, with a value: a negative or too large index,
    # a repeat, a gap or an unreadable row is a ValueError naming the
    # line, not a silent write, a read 0 or an IndexError.
    path = tmp_path / "f.csv"
    path.write_text("\n".join(["index,coordinates,value", *rows]) + "\n")
    with pytest.raises(ValueError, match=message):
        GroupFunction.from_csv(FiniteAbelianGroup((4,)), path)
