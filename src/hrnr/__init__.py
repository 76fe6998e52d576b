"""Higher-rank numerical ranges of complex matrices.

Compute the rank-k numerical range of a square complex matrix by sweeping
rotated Hermitian pencils and intersecting the resulting supporting
half-planes, with closed forms for shift matrices, an isometric dilation
for nilpotent contractions, and verifier suites cross-checking everything
against independent oracles.
"""

from .geometry import ConvexRegion, hausdorff, intersect_halfplanes, support
from .linalg import HermitianEigen, hermitian_eig, psd_sqrt
from .ranges import (
    PencilSweep,
    RangeReport,
    numerical_radius,
    pencil,
    pencil_sweep,
    range_from_sweep,
    rank_k_range,
)
from .shifts import (
    ClosedFormRange,
    DilationPack,
    build_dilation,
    closed_form_replicated_range,
    closed_form_shift_range,
    kth_of_replicated,
    nilpotency_index,
    rho,
    shift_matrix,
    spectral_norm,
)

__version__ = "0.1.0"

__all__ = [
    "ConvexRegion",
    "hausdorff",
    "intersect_halfplanes",
    "support",
    "HermitianEigen",
    "hermitian_eig",
    "psd_sqrt",
    "PencilSweep",
    "RangeReport",
    "numerical_radius",
    "pencil",
    "pencil_sweep",
    "range_from_sweep",
    "rank_k_range",
    "ClosedFormRange",
    "DilationPack",
    "build_dilation",
    "closed_form_replicated_range",
    "closed_form_shift_range",
    "kth_of_replicated",
    "nilpotency_index",
    "rho",
    "shift_matrix",
    "spectral_norm",
]
