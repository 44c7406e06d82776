"""Analysis of planar piecewise-affine systems with one switching line."""

from __future__ import annotations

__version__ = "0.1.0"

from .core import (
    AffineField,
    FilippovSystem,
    RawSystem,
    classify_point,
    normalize_to_y_axis,
    pseudo_equilibria,
    sigma_decomposition,
    sliding_field,
)
from .canonical import CanonicalParams, check_premises, to_canonical
from .flow import filippov_orbit, first_return_to_axis, linear_flow
from .halfmaps import P_L_inv, P_R, displacement, make_context, zeros_of_D
from .periodic import coexistence, find_crossing_orbits, find_sliding_orbits
from .report import build_report, report_to_json
from .specfile import SystemSpecFile, bundled_examples, load_spec, parse_spec

__all__ = [
    "__version__",
    "AffineField",
    "FilippovSystem",
    "RawSystem",
    "classify_point",
    "normalize_to_y_axis",
    "pseudo_equilibria",
    "sigma_decomposition",
    "sliding_field",
    "CanonicalParams",
    "check_premises",
    "to_canonical",
    "filippov_orbit",
    "first_return_to_axis",
    "linear_flow",
    "P_L_inv",
    "P_R",
    "displacement",
    "make_context",
    "zeros_of_D",
    "coexistence",
    "find_crossing_orbits",
    "find_sliding_orbits",
    "build_report",
    "report_to_json",
    "SystemSpecFile",
    "bundled_examples",
    "load_spec",
    "parse_spec",
]
