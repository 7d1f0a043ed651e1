"""Generalized-complex structures on flat tori with truncated Fourier coefficients.

The package realizes the spinor calculus of generalized complex geometry as
exact finite-dimensional linear algebra: Clifford actions on exterior forms,
level decompositions, twisted Dolbeault operators, Hodge packages for the
d-bar, Bott-Chern and Aeppli Laplacians, deformation transport and the
power-series extension solver, all over truncated Fourier series so that
every identity becomes a machine-checkable residual.
"""

__version__ = "0.1.0"

from .fourier import (
    FourierScalar,
    GeometryMismatch,
    TorusGeometry,
    TruncationBox,
    TruncationError,
)
from .spinor import CliffordPoly, Spinor

__all__ = [
    "FourierScalar",
    "GeometryMismatch",
    "TorusGeometry",
    "TruncationBox",
    "TruncationError",
    "CliffordPoly",
    "Spinor",
    "GCStructure",
    "GeneralizedMetric",
    "HodgeContext",
    "Beltrami",
    "Transport",
    "__version__",
]


def __getattr__(name):
    # heavier layers import lazily so the coefficient ring stays light
    if name == "GCStructure":
        from .structure import GCStructure
        return GCStructure
    if name == "GeneralizedMetric":
        from .metric import GeneralizedMetric
        return GeneralizedMetric
    if name == "HodgeContext":
        from .hodge import HodgeContext
        return HodgeContext
    if name in ("Beltrami", "Transport"):
        from . import deformation
        return getattr(deformation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
