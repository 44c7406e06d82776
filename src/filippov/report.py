"""Analysis reports and deterministic serialization.

A report gathers everything the library can say about one system: the
switching-line decomposition, zone equilibria, tangencies, the canonical
reduction (or the named reason it does not apply), and the periodic-orbit
census.  The JSON rendering is deterministic: shortest round-trip float
repr, no timestamps, and the originating spec embedded so the report is
self-contained.  Equilibria, premises, canonical parameters, orbit
segments, terminal events and configurations are written from their
dataclasses through `dataclasses.asdict`, so their JSON keys follow the
dataclasses' field order: reordering a field reorders the report.  Only
the switching line and the tangencies rename fields on the way out.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import asdict, dataclass
from typing import Optional

from . import __version__
from .canonical import CanonicalParams, PremiseReport, check_premises, to_canonical
from .core import (
    SigmaDecomposition,
    TangencyInfo,
    equilibrium_info,
    sigma_decomposition,
    tangency_points,
)
from .errors import FilippovError, SpecFileError
from .flow import Orbit
from .periodic import CoexistenceReport, coexistence
from .specfile import SystemSpecFile, spec_obj

__all__ = ["AnalysisReport", "build_report", "params_obj", "report_to_json", "format_csv"]

DEFAULT_SEED = 20260823


def checked_seed(seed: int, source: str) -> int:
    """`seed` when the checks' random generators accept it; a SpecFileError
    naming `source` if not."""
    if seed < 0:
        raise SpecFileError(f"{source} wants a non-negative integer, got {seed}")
    return seed


def default_seed() -> int:
    """FLP_SEED when it is set, else the report's default seed."""
    text = os.environ.get("FLP_SEED")
    if text is None:
        return DEFAULT_SEED
    try:
        seed = int(text)
    except ValueError:
        raise SpecFileError(f"FLP_SEED wants an integer, got {text!r}") from None
    return checked_seed(seed, "FLP_SEED")


@dataclass(frozen=True)
class AnalysisReport:
    spec: SystemSpecFile
    sigma: SigmaDecomposition
    equilibria: dict
    tangencies: tuple[TangencyInfo, ...]
    premises: Optional[PremiseReport]
    canonical: Optional[CanonicalParams]
    canonical_error: Optional[str]
    census: CoexistenceReport
    version: str
    seed: int


def build_report(spec: SystemSpecFile, seed: int = DEFAULT_SEED) -> AnalysisReport:
    sys = spec.normalized()
    equilibria = {
        side: equilibrium_info(sys.field(side), side) for side in ("left", "right")
    }
    premises: Optional[PremiseReport] = None
    params: Optional[CanonicalParams] = None
    err: Optional[str] = None
    try:
        premises = check_premises(sys)
        params = to_canonical(sys)[0]
    except FilippovError as exc:
        err = f"{type(exc).__name__}: {exc}"
    return AnalysisReport(
        spec=spec,
        sigma=sigma_decomposition(sys),
        equilibria=equilibria,
        tangencies=tuple(tangency_points(sys)),
        premises=premises,
        canonical=params,
        canonical_error=err,
        census=coexistence(sys),
        version=__version__,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# JSON rendering


def _sigma_obj(sigma: SigmaDecomposition) -> dict:
    return {
        "intervals": [
            {"lo": iv.lo, "hi": iv.hi, "label": iv.label.name}
            for iv in sigma.intervals
        ],
        "points": [{"y": y, "label": lab.name} for y, lab in sigma.points],
    }


def _tangency_obj(tp: TangencyInfo) -> dict:
    return {"y": tp.y, "side": tp.side, "visibility": tp.visibility}


def params_obj(p: CanonicalParams) -> dict:
    """The canonical parameters in field order, then the derived tau, Delta, nu."""
    return {**asdict(p), "tau": p.tau, "Delta": p.Delta, "nu": p.nu}


def _orbit_obj(orbit: Orbit) -> dict:
    return {
        "segments": [{"kind": s.kind, **asdict(s)} for s in orbit.segments],
        "terminal": asdict(orbit.terminal_event),
        "grazed_tangencies": orbit.grazed_tangencies,
    }


def _census_obj(census: CoexistenceReport) -> dict:
    records = [
        {
            "kind": r.kind,
            "axis_signature": r.axis_signature,
            "multiplier": r.multiplier,
            "configuration": None if r.configuration is None else asdict(r.configuration),
            "orbit": _orbit_obj(r.orbit),
        }
        for r in census.records
    ]
    return {"n_crossing": census.n_crossing, "n_sliding": census.n_sliding, "records": records}


def _sanitize(obj):
    """Strict JSON has no Infinity/NaN literals; spell them as strings.
    Tuples come out as lists, as json writes them."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def report_to_json(report: AnalysisReport) -> str:
    premises = None
    if report.premises is not None:
        premises = asdict(report.premises)
        premises["focus_stability"] = dict(sorted(premises["focus_stability"].items()))
    obj = {
        "version": report.version,
        "seed": report.seed,
        "spec": spec_obj(report.spec),
        "switching_line": _sigma_obj(report.sigma),
        "equilibria": {side: asdict(report.equilibria[side]) for side in ("left", "right")},
        "tangencies": [_tangency_obj(tp) for tp in report.tangencies],
        "premises": premises,
        "canonical": None if report.canonical is None else params_obj(report.canonical),
        "canonical_error": report.canonical_error,
        "census": _census_obj(report.census),
    }
    return json.dumps(_sanitize(obj), indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# CSV rendering


def format_csv(header: list[str], rows: list[list]) -> str:
    """RFC-4180-style CSV text: CRLF rows, 17 significant digits for floats."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [f"{v:.17g}" if isinstance(v, float) else v for v in row]
        )
    return buf.getvalue()
