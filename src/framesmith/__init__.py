"""framesmith: exact construction and verification of normalized-tight-frame
wavelet families in the Fourier domain.

Frequencies are rationals in units of pi (the translation lattice is the even
integers, integer dilation is plain multiplication), which keeps the whole
construction pipeline closed over exact arithmetic; square roots stay
symbolic and comparisons go through outward-rounded intervals.
"""

__version__ = "0.1.0"

from .intervals import IntervalSet
from .piecewise import GeneratorSet, PiecewiseLinear, SqrtProfile
from .folding import (FoldedMultiplicity, fold_dilation, layered_partition,
                      per_multiplicity)
from .construction import (
    LayeredFamily,
    SpectralSpec,
    admissibility_check,
    build_family,
    build_scaling,
    build_wavelets,
    classify_waveletset_seed,
    example_by_name,
    waveletset_closure,
    waveletset_sigma,
)
from .sequences import CRat, Sequence, coset_op, coset_op_adj
from .trace import (
    WindowOperator,
    diagonal_traces,
    dilation_trace_check,
    ntf_generator_test,
    operator_trace,
    restricted_trace,
    series_identity_check,
    trace_split_check,
)
from .verification import (
    VerificationReport,
    check_density,
    check_ntf_multiwavelet,
    check_semiorthogonal,
    check_split,
    check_suites,
    check_wavelet_set_tiling,
)

__all__ = [name for name in dir() if not name.startswith("_")]
