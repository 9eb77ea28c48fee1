"""Functions on finite abelian groups: transform, convolution, kernels.

Transform convention: the forward transform carries the Haar weight and
the inverse carries 1/(h*|G|), so the value at the trivial character is
exactly the integral of the function.  Every transform is the numpy FFT
of a product group; a subgroup view's functions go through its parent's,
extended by zero.  The tests check every transform against a quadratic
direct sum of exp(-2*pi*i * phase_index / L) over the group
(``direct_transform`` in ``tests/_generators.py``), and every convolution
against a double sum over the group's own addition (``direct_convolution``).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .groups import FiniteAbelianGroup


def fmt_sig(x: float, digits: int = 12) -> str:
    """Fixed significant-digit decimal formatting for deterministic output."""
    if x == 0:
        x = 0.0  # normalize -0.0
    return format(float(x), f".{digits}g")


class GroupFunction:
    """Real-valued function on a group with a write-once cached spectrum."""

    __slots__ = ("group", "values", "_spectrum")

    def __init__(self, group, values: Sequence[float] | np.ndarray):
        arr = np.asarray(values, dtype=float).copy()
        if arr.shape != (group.size,):
            raise ValueError(
                f"expected {group.size} values, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("function values must be finite")
        arr.flags.writeable = False
        self.group = group
        self.values = arr
        self._spectrum: Spectrum | None = None

    @staticmethod
    def delta(group) -> "GroupFunction":
        values = np.zeros(group.size)
        values[0] = 1.0
        return GroupFunction(group, values)

    @staticmethod
    def constant(group, value: float = 1.0) -> "GroupFunction":
        return GroupFunction(group, np.full(group.size, float(value)))

    @staticmethod
    def indicator(group, indices: Iterable[int]) -> "GroupFunction":
        values = np.zeros(group.size)
        for i in indices:
            values[int(i)] = 1.0
        return GroupFunction(group, values)

    def __call__(self, index: int) -> float:
        return float(self.values[index])

    def integral(self) -> float:
        """h * sum of values, the Haar integral."""
        return float(self.group.weight) * float(self.values.sum())

    def is_even(self, tol: float = 0.0) -> bool:
        neg = _neg_permutation(self.group)
        return bool(np.max(np.abs(self.values - self.values[neg])) <= tol)

    def spectrum(self) -> "Spectrum":
        if self._spectrum is None:
            self._spectrum = dft(self)
        return self._spectrum

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "coordinates", "value"])
            for i, v in enumerate(self.values.tolist()):
                coordinates = ";".join(str(c) for c in self.group.coords_of(i))
                writer.writerow([i, coordinates, fmt_sig(v)])

    @staticmethod
    def from_csv(group, path: str | Path) -> "GroupFunction":
        """Read what ``to_csv`` writes.  Every index in 0..|G|-1 must appear
        exactly once, with a numeric value; otherwise this raises
        ``ValueError`` naming the line."""
        values = np.zeros(group.size)
        seen: set[int] = set()
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                where = f"{path}, line {reader.line_num}"
                try:
                    index, value = int(row["index"]), float(row["value"])
                except (KeyError, TypeError, ValueError):
                    raise ValueError(f"{where}: no integer index and numeric value") from None
                if not 0 <= index < group.size or index in seen:
                    raise ValueError(
                        f"{where}: index {index} is not a new index in 0..{group.size - 1}")
                seen.add(index)
                values[index] = value
        if len(seen) < group.size:
            missing = min(set(range(group.size)) - seen)
            raise ValueError(f"{path}: no row has index {missing}")
        return GroupFunction(group, values)


@dataclass(frozen=True)
class Spectrum:
    """Transform values, one complex number per character in canonical order."""

    group: object
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=complex).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __call__(self, chi_index: int) -> complex:
        return complex(self.values[chi_index])

    @property
    def min_real(self) -> float:
        return float(self.values.real.min())

    @property
    def max_abs_imag(self) -> float:
        return float(np.abs(self.values.imag).max())

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["char_index", "value_re", "value_im"])
            for i, v in enumerate(self.values.tolist()):
                writer.writerow([i, fmt_sig(v.real), fmt_sig(v.imag)])


def _neg_permutation(group) -> np.ndarray:
    return np.fromiter(
        (group.neg_index(i) for i in range(group.size)), dtype=int
    )


def _fft_frame(group):
    """The product group whose FFT serves ``group``, with the indices of its
    elements and characters there (None for a product group itself)."""
    if hasattr(group, "orders"):
        return group, None, None
    return group.parent, list(group.members), list(group.parent_characters)


def _fftn(product, values: np.ndarray, at, inverse: bool = False) -> np.ndarray:
    """fftn (or ifftn) over ``product`` of ``values``, put at ``at`` among zeros."""
    if at is not None:
        full = np.zeros(product.size, dtype=values.dtype)
        full[at] = values
        values = full
    transform = np.fft.ifftn if inverse else np.fft.fftn
    return transform(values.reshape(product.orders)).reshape(-1)


def _read(values: np.ndarray, at) -> np.ndarray:
    return values if at is None else values[at]


def dft(f: GroupFunction) -> Spectrum:
    """Forward transform; a view's is its trivial extension's, read at
    ``parent_characters``."""
    product, members, characters = _fft_frame(f.group)
    out = _read(_fftn(product, f.values, members), characters)
    return Spectrum(f.group, out * float(f.group.weight))


def idft(spectrum: Spectrum) -> GroupFunction:
    """Inverse transform back to a real function.  On a view, the parent's
    inverse of the spectrum put at ``parent_characters`` is |H|/|G| of it."""
    group = spectrum.group
    product, members, characters = _fft_frame(group)
    out = _fftn(product, np.asarray(spectrum.values), characters, inverse=True)
    out = _read(out, members) / float(group.weight) * (product.size // group.size)
    scale = max(1.0, float(np.abs(out).max()))
    if np.abs(out.imag).max() > 1e-9 * scale:
        raise ValueError("inverse transform produced a non-real function")
    return GroupFunction(group, out.real)


def convolve(f: GroupFunction, g: GroupFunction) -> GroupFunction:
    """(f * g)(x) = h * sum_y f(y) g(x - y), on a view that of the extensions."""
    if f.group != g.group:
        raise ValueError("convolution requires functions on the same group")
    product, members, _ = _fft_frame(f.group)
    fa = _fftn(product, f.values, members)
    ga = _fftn(product, g.values, members)
    out = _read(_fftn(product, fa * ga, None, inverse=True).real, members)
    return GroupFunction(f.group, out * float(f.group.weight))


def autocorrelation(group, subset: Iterable[int]) -> GroupFunction:
    """(1_A * 1_{-A}) / (h|A|); positive definite with support in A - A."""
    indices = [int(a) for a in subset]
    if not indices:
        raise ValueError("autocorrelation of an empty subset")
    ind = GroupFunction.indicator(group, indices)
    neg = _neg_permutation(group)
    ind_neg = GroupFunction(group, ind.values[neg])
    out = convolve(ind, ind_neg)
    scale = float(group.weight) * len(set(indices))
    return GroupFunction(group, out.values / scale)


def pointwise_product(f: GroupFunction, g: GroupFunction) -> GroupFunction:
    if f.group != g.group:
        raise ValueError("pointwise product requires functions on the same group")
    return GroupFunction(f.group, f.values * g.values)


def fejer_kernel(group: FiniteAbelianGroup, m: int) -> GroupFunction:
    """Normalized autocorrelation of the box {0..m}^d.

    Takes the value 1 at the identity, lies in [0, 1], is positive
    definite, and dominates 1 - (sum |g_i|)/(m+1) near the identity.
    """
    if m < 0:
        raise ValueError("kernel parameter must be nonnegative")
    if 2 * m + 1 > min(group.orders):
        raise ValueError(
            f"kernel parameter {m} too large: support 2*{m}+1 wraps around "
            f"an order-{min(group.orders)} factor"
        )
    box = [()]
    for _ in group.orders:
        box = [coords + (c,) for coords in box for c in range(m + 1)]
    indices = [group.index_of(coords) for coords in box]
    return autocorrelation(group, indices)


def evenize(f: GroupFunction) -> GroupFunction:
    """(f(x) + f(-x)) / 2; preserves the value at 0 and the integral."""
    neg = _neg_permutation(f.group)
    return GroupFunction(f.group, (f.values + f.values[neg]) / 2.0)


@dataclass(frozen=True)
class SpectralVerdict:
    """Positive-definiteness verdict with a witness character on failure."""

    ok: bool
    witness_index: int | None
    witness_value: complex | None
    min_real: float
    max_abs_imag: float

    def __bool__(self) -> bool:
        return self.ok


def default_pd_tolerance(f: GroupFunction) -> float:
    # Accumulated rounding in the spectrum scales with the group size.
    return 1e-9 * max(1.0, abs(f(0))) * f.group.size


def is_positive_definite(f: GroupFunction, tol: float | None = None) -> SpectralVerdict:
    """Spectral test: nonnegative real spectrum within tolerance.

    On a finite abelian group this is equivalent to all Gram matrices
    [f(g_i - g_j)] being positive semidefinite.
    """
    if tol is None:
        tol = default_pd_tolerance(f)
    spec = f.spectrum()
    values = spec.values
    re_min_idx = int(values.real.argmin())
    im_max_idx = int(np.abs(values.imag).argmax())
    min_real = float(values.real[re_min_idx])
    max_imag = float(abs(values.imag[im_max_idx]))
    if min_real < -tol:
        return SpectralVerdict(False, re_min_idx, complex(values[re_min_idx]), min_real, max_imag)
    if max_imag > tol:
        return SpectralVerdict(False, im_max_idx, complex(values[im_max_idx]), min_real, max_imag)
    return SpectralVerdict(True, None, None, min_real, max_imag)
