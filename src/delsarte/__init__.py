"""Delsarte- and Turan-type extremal problems for positive definite
functions on finite abelian groups, with a torus-grid bridge to problems
on the real line."""

from .classes import (
    ClassSpec,
    ClassVerdict,
    SymmetricSet,
    containment_chain_check,
    in_class,
    negative_support,
    positive_support,
)
from .discretize import DiscreteProblemSet, TorusSpec, sample_set
from .groups import (
    FiniteAbelianGroup,
    ScalingMap,
    Subgroup,
    parse_group,
)
from .harmonic import (
    GroupFunction,
    Spectrum,
    autocorrelation,
    convolve,
    dft,
    evenize,
    fejer_kernel,
    idft,
    is_positive_definite,
    pointwise_product,
)
from .realsets import (
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
from .reduction import (
    ReductionReport,
    SubgroupView,
    reduce_and_compare,
    restrict,
    trivial_extension,
)
from .solver import (
    LinearProgram,
    ProblemSpec,
    Solution,
    build_fourier_form,
    build_primal,
    simplex_solve,
    solve,
    solve_discretized,
    sweep,
    verify_certificate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
