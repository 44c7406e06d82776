"""Analysis reports and deterministic serialization.

A report gathers everything the library can say about one system: the
switching-line decomposition, zone equilibria, tangencies, the canonical
reduction (or the named reason it does not apply), and the periodic-orbit
census.  The JSON rendering is deterministic: fixed key order, shortest
round-trip float repr, no timestamps, and the originating spec embedded so
the report is self-contained.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Optional

from . import __version__
from .canonical import CanonicalParams, PremiseReport, check_premises, to_canonical
from .core import (
    EquilibriumInfo,
    FilippovSystem,
    SigmaDecomposition,
    TangencyInfo,
    equilibrium_info,
    sigma_decomposition,
    tangency_points,
)
from .errors import FilippovError
from .flow import Orbit
from .periodic import CoexistenceReport, coexistence
from .specfile import SystemSpecFile, spec_obj

__all__ = ["AnalysisReport", "build_report", "report_to_json", "format_csv"]

DEFAULT_SEED = 20260823


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
    premises: Optional[PremiseReport]
    params: Optional[CanonicalParams]
    err: Optional[str]
    try:
        premises = check_premises(sys)
    except FilippovError as exc:
        premises = None
        params = None
        err = f"{type(exc).__name__}: {exc}"
    else:
        try:
            params = to_canonical(sys)[0]
            err = None
        except FilippovError as exc:
            params = None
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


def _equilibrium_obj(info: EquilibriumInfo) -> dict:
    return {
        "location": list(info.location),
        "kind": info.kind,
        "stability": info.stability,
        "placement": info.placement,
    }


def _tangency_obj(tp: TangencyInfo) -> dict:
    return {"y": tp.y, "side": tp.side, "visibility": tp.visibility}


def _params_obj(p: CanonicalParams) -> dict:
    return {
        "alpha": p.alpha,
        "beta": p.beta,
        "delta": p.delta,
        "eta": p.eta,
        "rho": p.rho,
        "gamma1": p.gamma1,
        "gamma2": p.gamma2,
        "gamma3": p.gamma3,
        "m": p.m,
        "tau": p.tau,
        "Delta": p.Delta,
        "nu": p.nu,
    }


def _orbit_obj(orbit: Orbit) -> dict:
    segs = []
    for s in orbit.segments:
        if s.kind == "slide":
            segs.append(
                {
                    "kind": "slide",
                    "y_start": s.y_start,
                    "y_end": s.y_end,
                    "duration": s.duration,
                }
            )
        else:
            segs.append(
                {
                    "kind": "flow",
                    "side": s.side,
                    "start": list(s.start),
                    "end": list(s.end),
                    "duration": s.duration,
                }
            )
    ev = orbit.terminal_event
    return {
        "segments": segs,
        "terminal": {
            "kind": ev.kind,
            "point": None if ev.point is None else list(ev.point),
            "period": ev.period,
        },
        "grazed_tangencies": list(orbit.grazed_tangencies),
    }


def _census_obj(census: CoexistenceReport) -> dict:
    records = []
    for r in census.records:
        conf = None
        if r.configuration is not None:
            conf = {"tag": r.configuration.tag, "frame": list(r.configuration.frame)}
        records.append(
            {
                "kind": r.kind,
                "axis_signature": [list(item) for item in r.axis_signature],
                "multiplier": r.multiplier,
                "configuration": conf,
                "orbit": _orbit_obj(r.orbit),
            }
        )
    return {
        "n_crossing": census.n_crossing,
        "n_sliding": census.n_sliding,
        "records": records,
    }


def _sanitize(obj):
    """Strict JSON has no Infinity/NaN literals; spell them as strings."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_sanitize(v) for v in obj]
    return obj


def report_to_json(report: AnalysisReport) -> str:
    premises = None
    if report.premises is not None:
        premises = {
            "cross_products_distinct": report.premises.cross_products_distinct,
            "admissible_focus_side": report.premises.admissible_focus_side,
            "focus_stability": dict(sorted(report.premises.focus_stability.items())),
        }
    obj = {
        "version": report.version,
        "seed": report.seed,
        "spec": spec_obj(report.spec),
        "switching_line": _sigma_obj(report.sigma),
        "equilibria": {
            side: _equilibrium_obj(report.equilibria[side])
            for side in ("left", "right")
        },
        "tangencies": [_tangency_obj(tp) for tp in report.tangencies],
        "premises": premises,
        "canonical": None
        if report.canonical is None
        else _params_obj(report.canonical),
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
