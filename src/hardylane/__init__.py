"""Supersolution toolkit for Lane-Emden systems with inverse-square potentials.

Classifies (p, q, mu1, mu2) parameter points into nonexistence / existence /
open regions for the coupled system

    (-Delta + mu1/|x|^2) u = v^p,    (-Delta + mu2/|x|^2) v = u^q

on a punctured ball, produces machine-checkable nonexistence certificates
(weighted-L^1 failures and exponent-bootstrap crossings), and numerically
verifies the explicit radial supersolution constructions on log grids.
"""

from ._kernels import BACKEND as kernel_backend
from .exponents import DomainValidationError, HardyParams, Powers
from .integrability import IntegrabilityVerdict
from .iteration import (Certificate, CertificateKind, IterationTrace,
                        StepRecord, Variant, iterate_clamped, iterate_plain)
from .radial import RadialFunction, RadialGrid, RadialTerm, default_grid
from .regions import (RegionClass, Verdict, Witness, WitnessMismatchError,
                      classify, classify_field, nonexistence_witness)

__version__ = "0.1.0"

__all__ = [
    "Certificate", "CertificateKind", "DomainValidationError", "HardyParams",
    "IntegrabilityVerdict", "IterationTrace", "Powers", "RadialFunction",
    "RadialGrid", "RadialTerm", "RegionClass", "StepRecord", "Variant",
    "Verdict", "Witness", "WitnessMismatchError", "classify",
    "classify_field", "default_grid", "iterate_clamped", "iterate_plain",
    "kernel_backend", "nonexistence_witness", "__version__",
]
