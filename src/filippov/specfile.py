"""System spec files: a small JSON format for two affine zones and a line.

A spec carries the two matrices and offsets, the switching-line normal c and
level d (defaulting to the vertical axis through the origin), and optional
name and comment strings.  Serialization is deterministic so specs can be
round-tripped byte for byte and embedded in reports.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .core import AffineField, FilippovSystem, RawSystem, normalize_to_y_axis
from .errors import SpecFileError, ZeroNormal

__all__ = [
    "SystemSpecFile",
    "parse_spec",
    "spec_obj",
    "serialize_spec",
    "load_spec",
    "resolve_spec",
    "bundled_examples",
]

BUNDLED_NAMES = (
    "example1",
    "example2",
    "example3",
    "example4",
    "example5",
    "example6",
    "example7",
    "crossing_sliding_rho",
    "crossing_sliding_eta",
    "buck_converter",
    "dry_friction",
)

_KEY_ORDER = ("name", "comment", "A_plus", "b_plus", "A_minus", "b_minus", "c", "d")


@dataclass(frozen=True)
class SystemSpecFile:
    A_plus: tuple[tuple[float, float], tuple[float, float]]
    b_plus: tuple[float, float]
    A_minus: tuple[tuple[float, float], tuple[float, float]]
    b_minus: tuple[float, float]
    c: tuple[float, float] = (1.0, 0.0)
    d: float = 0.0
    name: str = ""
    comment: str = ""

    def raw(self) -> RawSystem:
        return RawSystem(
            plus=AffineField(np.array(self.A_plus), np.array(self.b_plus)),
            minus=AffineField(np.array(self.A_minus), np.array(self.b_minus)),
            c=np.array(self.c),
            d=self.d,
        )

    def normalized(self) -> FilippovSystem:
        return normalize_to_y_axis(self.raw())[0]


def _number(value, what: str) -> float:
    # JSON numbers only: a bool is an int to Python, and float() reads strings
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise SpecFileError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise SpecFileError(f"{what} is an integer too large for a float") from None


def _array(value, what: str):
    # a string is iterable too, one character at a time
    if not isinstance(value, (list, tuple)):
        raise SpecFileError(f"{what} must be an array, got {value!r}")
    return value


def _matrix(value, key: str) -> tuple[tuple[float, float], tuple[float, float]]:
    rows = [[_number(x, f"{key} entry") for x in _array(row, key)] for row in _array(value, key)]
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise SpecFileError(f"{key} must be a 2x2 array, got rows of {[len(r) for r in rows]}")
    return (tuple(rows[0]), tuple(rows[1]))


def _vector(value, key: str) -> tuple[float, float]:
    vec = [_number(x, f"{key} entry") for x in _array(value, key)]
    if len(vec) != 2:
        raise SpecFileError(f"{key} must have exactly 2 entries, got {len(vec)}")
    return (vec[0], vec[1])


def parse_spec(source: str | bytes | dict) -> SystemSpecFile:
    """Parse and validate a spec from JSON text or an already-decoded dict."""
    if isinstance(source, (str, bytes)):
        try:
            obj = json.loads(source)
        except json.JSONDecodeError as exc:
            raise SpecFileError(f"spec is not valid JSON: {exc}") from exc
    else:
        obj = source
    if not isinstance(obj, dict):
        raise SpecFileError("spec must be a JSON object")
    unknown = set(obj) - set(_KEY_ORDER)
    if unknown:
        raise SpecFileError(f"unknown spec keys: {sorted(unknown)}")
    for key in ("A_plus", "b_plus", "A_minus", "b_minus"):
        if key not in obj:
            raise SpecFileError(f"spec is missing required key {key!r}")

    fields = {
        "A_plus": _matrix(obj["A_plus"], "A_plus"),
        "b_plus": _vector(obj["b_plus"], "b_plus"),
        "A_minus": _matrix(obj["A_minus"], "A_minus"),
        "b_minus": _vector(obj["b_minus"], "b_minus"),
    }
    if "c" in obj:
        fields["c"] = _vector(obj["c"], "c")
    if "d" in obj:
        fields["d"] = _number(obj["d"], "d")
    for key in ("name", "comment"):
        if key in obj:
            if not isinstance(obj[key], str):
                raise SpecFileError(f"{key} must be a string")
            fields[key] = obj[key]

    flat = [
        *fields["A_plus"][0], *fields["A_plus"][1], *fields["b_plus"],
        *fields["A_minus"][0], *fields["A_minus"][1], *fields["b_minus"],
        *fields.get("c", (1.0, 0.0)), fields.get("d", 0.0),
    ]
    if not all(math.isfinite(v) for v in flat):
        raise SpecFileError("all spec entries must be finite")
    if fields.get("c", (1.0, 0.0)) == (0.0, 0.0):
        raise ZeroNormal("switching-line normal c must be nonzero")
    return SystemSpecFile(**fields)


def spec_obj(spec: SystemSpecFile) -> dict:
    """The spec as a dict in the fixed key order; empty name and comment left out."""
    obj: dict = {}
    if spec.name:
        obj["name"] = spec.name
    if spec.comment:
        obj["comment"] = spec.comment
    obj["A_plus"] = [list(spec.A_plus[0]), list(spec.A_plus[1])]
    obj["b_plus"] = list(spec.b_plus)
    obj["A_minus"] = [list(spec.A_minus[0]), list(spec.A_minus[1])]
    obj["b_minus"] = list(spec.b_minus)
    obj["c"] = list(spec.c)
    obj["d"] = spec.d
    return obj


def serialize_spec(spec: SystemSpecFile) -> str:
    """Deterministic JSON text; parse(serialize(s)) == s byte for byte."""
    return json.dumps(spec_obj(spec), indent=2) + "\n"


def load_spec(path: str) -> SystemSpecFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecFileError(f"cannot read spec file {path!r}: {exc}") from exc
    return parse_spec(text)


def _bundled_text(name: str) -> str:
    try:
        return (
            resources.files("filippov").joinpath(f"data/{name}.json").read_text("utf-8")
        )
    except (FileNotFoundError, ModuleNotFoundError) as exc:
        raise SpecFileError(f"no bundled spec named {name!r}") from exc


def bundled_examples() -> list[SystemSpecFile]:
    """All shipped system specs, in a fixed documented order."""
    return [parse_spec(_bundled_text(name)) for name in BUNDLED_NAMES]


def resolve_spec(argument: str) -> SystemSpecFile:
    """Interpret a CLI spec argument: an existing file path, else the name of
    a bundled spec (ignoring any directory prefix and .json suffix)."""
    if os.path.exists(argument):
        return load_spec(argument)
    stem = os.path.splitext(os.path.basename(argument))[0]
    if stem in BUNDLED_NAMES:
        return parse_spec(_bundled_text(stem))
    raise SpecFileError(
        f"spec {argument!r} is neither a readable file nor a bundled name "
        f"(bundled: {', '.join(BUNDLED_NAMES)})"
    )
