"""Golden `flp periodic` reports for the bundled specs.

Each file under data/reports/ is the report JSON of one bundled spec.  The
test rebuilds every report in-process and compares it with the golden copy:
structure, strings, ints, bools and nulls exactly, floats to 1e-12 relative
with a 1e-15 absolute floor.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from filippov.report import build_report, report_to_json
from filippov.specfile import BUNDLED_NAMES, resolve_spec

GOLDEN_DIR = Path(__file__).parent / "data" / "reports"
REL_TOL = 1e-12
ABS_TOL = 1e-15


def _assert_same(got, want, path: str = "$") -> None:
    if isinstance(want, float) and isinstance(got, float):
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL), (
            f"{path}: {got!r} != {want!r}"
        )
        return
    assert type(got) is type(want), f"{path}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{path}: keys {list(got)} != {list(want)}"
        for key in want:
            _assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{path}[{i}]")
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_bundled_report_matches_golden(name):
    got = json.loads(report_to_json(build_report(resolve_spec(name))))
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text("utf-8"))
    _assert_same(got, want)


def test_golden_comparison_catches_a_moved_float():
    want = {"a": [1.0, "x", None, True, 3]}
    _assert_same({"a": [1.0 + 1e-13, "x", None, True, 3]}, want)
    with pytest.raises(AssertionError):
        _assert_same({"a": [1.0 + 1e-11, "x", None, True, 3]}, want)
    with pytest.raises(AssertionError):
        _assert_same({"a": [1.0, "x", None, True, 3.0]}, want)
    with pytest.raises(AssertionError):
        _assert_same({"a": [1.0, "x", None, True]}, want)
