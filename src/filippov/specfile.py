"""System spec files: a small JSON format for two affine zones and a line.

A spec carries the two matrices and offsets, the switching-line normal c and
level d (defaulting to the vertical axis through the origin), and optional
name and comment strings.  Serialization is deterministic so specs can be
round-tripped byte for byte and embedded in reports: one table, `_PARSERS`,
names every key in its serialized order and the parser that reads it.
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
        number = float(value)
    except OverflowError:
        raise SpecFileError(f"{what} is an integer too large for a float") from None
    if not math.isfinite(number):
        raise SpecFileError("all spec entries must be finite")
    return number


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


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise SpecFileError(f"{key} must be a string")
    return value


# every spec key, in serialized order, with the parser of its value
_PARSERS = {
    "name": _string,
    "comment": _string,
    "A_plus": _matrix,
    "b_plus": _vector,
    "A_minus": _matrix,
    "b_minus": _vector,
    "c": _vector,
    "d": _number,
}


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
    unknown = set(obj) - set(_PARSERS)
    if unknown:
        raise SpecFileError(f"unknown spec keys: {sorted(unknown)}")
    for key in ("A_plus", "b_plus", "A_minus", "b_minus"):
        if key not in obj:
            raise SpecFileError(f"spec is missing required key {key!r}")
    spec = SystemSpecFile(
        **{key: parse(obj[key], key) for key, parse in _PARSERS.items() if key in obj}
    )
    if spec.c == (0.0, 0.0):
        raise ZeroNormal("switching-line normal c must be nonzero")
    return spec


def spec_obj(spec: SystemSpecFile) -> dict:
    """The spec's fields in `_PARSERS` order; an empty name or comment is left out."""
    return {key: value for key in _PARSERS if (value := getattr(spec, key)) != ""}


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
