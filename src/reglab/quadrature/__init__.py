"""Numerical integration: Mahler measures and the boundary regulator integral."""

from .engine import QuadratureConfig, QuadratureResult, integrate_box
from .mahler import deninger_gamma_check, mahler_measure, univariate_mahler
from .boundary import regulator_boundary_integral

__all__ = [
    "QuadratureConfig",
    "QuadratureResult",
    "integrate_box",
    "univariate_mahler",
    "mahler_measure",
    "deninger_gamma_check",
    "regulator_boundary_integral",
]
