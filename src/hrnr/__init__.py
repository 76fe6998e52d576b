"""Higher-rank numerical ranges of complex matrices.

Compute the rank-k numerical range of a square complex matrix by sweeping
rotated Hermitian pencils and intersecting the resulting supporting
half-planes, with closed forms for shift matrices, an isometric dilation
for nilpotent contractions, and verifier suites cross-checking everything
against independent oracles.
"""

from .geometry import ConvexRegion, hausdorff, intersect_halfplanes, support
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
    DilationPack,
    build_dilation,
    kth_of_replicated,
    nilpotency_index,
    rho,
    shift_matrix,
    shift_radius,
)

__version__ = "0.1.0"

__all__ = [
    "ConvexRegion",
    "hausdorff",
    "intersect_halfplanes",
    "support",
    "PencilSweep",
    "RangeReport",
    "numerical_radius",
    "pencil",
    "pencil_sweep",
    "range_from_sweep",
    "rank_k_range",
    "DilationPack",
    "build_dilation",
    "kth_of_replicated",
    "nilpotency_index",
    "rho",
    "shift_matrix",
    "shift_radius",
]
