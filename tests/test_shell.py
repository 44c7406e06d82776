from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from filippov.canonical import to_canonical
from filippov.cli import main
from filippov.errors import FilippovError, SpecFileError, ZeroNormal
from filippov.halfmaps import P_L_inv, P_R, make_context
from filippov.periodic import coexistence
from filippov.report import format_csv
from filippov.specfile import (
    BUNDLED_NAMES,
    bundled_examples,
    parse_spec,
    resolve_spec,
    serialize_spec,
)


def _helper_spec_dict(**overrides):
    base = {
        "A_plus": [[0.2, 1.0], [-1.01, 0.0]],
        "b_plus": [0.0, 1.0],
        "A_minus": [[1.0, 0.0], [1.0, 1.0]],
        "b_minus": [1.0, 1.0],
        "c": [1.0, 0.0],
        "d": 0.0,
    }
    base.update(overrides)
    return base


def _helper_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _helper_conjugated(spec, k):
    """The same system in the coordinates (x, k y), as a spec file."""
    (a, b), (c, d) = spec.A_plus
    (e, f), (g, h) = spec.A_minus
    return replace(
        spec,
        A_plus=((a, b / k), (c * k, d)),
        b_plus=(spec.b_plus[0], k * spec.b_plus[1]),
        A_minus=((e, f / k), (g * k, h)),
        b_minus=(spec.b_minus[0], k * spec.b_minus[1]),
        c=(spec.c[0], spec.c[1] / k),
    )


def _helper_dfunc_rows(capsys, spec, y_min, y_max, samples):
    args = ["dfunc", spec, f"--y-min={y_min!r}", f"--y-max={y_max!r}", "--samples", str(samples)]
    assert main(args) == 0
    _, rows = _helper_csv(capsys.readouterr().out)
    return [[float(v) for v in row] for row in rows]


# ---------------------------------------------------------------------------
# spec files


def test_bundled_roundtrip_byte_identical():
    from filippov.specfile import _bundled_text

    for name in BUNDLED_NAMES:
        text = _bundled_text(name)
        assert serialize_spec(parse_spec(text)) == text


def test_bundled_names_and_order():
    specs = bundled_examples()
    assert [s.name for s in specs] == list(BUNDLED_NAMES)
    assert len(specs) == 11


def test_parse_missing_key_rejected():
    obj = _helper_spec_dict()
    del obj["A_minus"]
    with pytest.raises(SpecFileError):
        parse_spec(obj)


def test_parse_unknown_key_rejected():
    with pytest.raises(SpecFileError):
        parse_spec(_helper_spec_dict(extra=1))


def test_parse_nonfinite_rejected():
    with pytest.raises(SpecFileError):
        parse_spec(_helper_spec_dict(b_plus=[0.0, math.inf]))


@pytest.mark.parametrize(
    "overrides",
    [
        {"b_plus": "01"},
        {"A_plus": [["0.2", "1"], [-1.01, 0.0]]},
        {"b_minus": [True, 1.0]},
        {"d": False},
    ],
    ids=["string-vector", "string-entries", "bool-entry", "bool-d"],
)
def test_parse_non_number_entries_rejected(overrides):
    # float() reads strings and bools, and a string iterates by character
    with pytest.raises(SpecFileError):
        parse_spec(_helper_spec_dict(**overrides))


def test_parse_ragged_matrix_rejected():
    with pytest.raises(SpecFileError, match="rows of"):
        parse_spec(_helper_spec_dict(A_plus=[[0.2, 1.0], [-1.01]]))


def test_parse_integer_beyond_float_rejected():
    with pytest.raises(SpecFileError, match="too large"):
        parse_spec(_helper_spec_dict(d=10**400))  # JSON keeps integer literals exact


def test_parse_zero_normal():
    with pytest.raises(ZeroNormal):
        parse_spec(_helper_spec_dict(c=[0.0, 0.0]))
    assert issubclass(ZeroNormal, SpecFileError)


def test_parse_defaults_c_d():
    obj = _helper_spec_dict()
    del obj["c"]
    del obj["d"]
    spec = parse_spec(obj)
    assert spec.c == (1.0, 0.0) and spec.d == 0.0


def test_resolve_spec_stem_fallback():
    spec = resolve_spec("examples/example5.json")
    assert spec.name == "example5"
    with pytest.raises(SpecFileError):
        resolve_spec("no_such_system")


def test_resolve_spec_reads_files(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(_helper_spec_dict()))
    spec = resolve_spec(str(path))
    assert spec.A_plus == ((0.2, 1.0), (-1.01, 0.0))


def test_format_csv_17_digits_crlf():
    text = format_csv(["a", "b"], [[0.1, "x"], [1.0 / 3.0, "y"]])
    assert text == "a,b\r\n0.10000000000000001,x\r\n0.33333333333333331,y\r\n"


# ---------------------------------------------------------------------------
# CLI


def test_cli_classify_bundled(capsys):
    assert main(["classify", "example5"]) == 0
    out = capsys.readouterr().out
    assert "ATTRACTIVE_SLIDING" in out and "REPULSIVE_SLIDING" in out
    assert "tangencies:" in out


def test_cli_classify_zero_normal_exit2(tmp_path, capsys):
    path = tmp_path / "zn.json"
    path.write_text(json.dumps(_helper_spec_dict(c=[0.0, 0.0])))
    assert main(["classify", str(path)]) == 2
    assert "ZeroNormal" in capsys.readouterr().err


def test_cli_unknown_spec_exit2(capsys):
    assert main(["classify", "missing_system"]) == 2
    assert "bundled" in capsys.readouterr().err


def test_cli_canonical_failure_exit1(tmp_path, capsys):
    path = tmp_path / "saddles.json"
    path.write_text(
        json.dumps(
            _helper_spec_dict(
                A_plus=[[0.0, 1.0], [4.0, 0.0]],
                b_plus=[1.0, -1.0],
                A_minus=[[0.0, 1.0], [4.0, 0.0]],
                b_minus=[0.0, 1.0],
            )
        )
    )
    assert main(["canonical", str(path)]) == 1
    out = capsys.readouterr().out
    assert "admissible focus side: none" in out
    assert "NoAdmissibleFocus" in out


def test_cli_canonical_example6(capsys):
    assert main(["canonical", "example6"]) == 0
    out = capsys.readouterr().out
    assert "alpha = 0.01" in out


def test_cli_canonical_reversed_and_mirrored(tmp_path, capsys):
    # test_canonical's reversed-and-mirrored system: a left focus at
    # (-1.1, 0.3) turning clockwise, and a saddle on the right
    A_minus = [[0.2, -1.5], [2.5, -0.1]]
    b_minus = [-(a * -1.1 + b * 0.3) for a, b in A_minus]
    path = tmp_path / "reversed_mirror.json"
    path.write_text(
        json.dumps(
            _helper_spec_dict(
                A_plus=[[1.0, 0.5], [0.3, -1.0]],
                b_plus=[1.0, 1.0],
                A_minus=A_minus,
                b_minus=b_minus,
            )
        )
    )
    assert main(["canonical", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert (
        "transform steps: identity, time-reversal, mirror, y-flip, "
        "right-similarity, zone-time-rescale, x-rescale"
    ) in lines
    assert "note: the reduction runs original orbits backwards" in lines


def test_cli_applied_specs_classify(capsys):
    assert main(["classify", "buck_converter"]) == 0
    assert main(["classify", "dry_friction"]) == 0
    capsys.readouterr()


def test_cli_periodic_example5(capsys):
    assert main(["periodic", "example5"]) == 0
    first = capsys.readouterr().out
    assert main(["periodic", "example5"]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    census = report["census"]
    assert (census["n_crossing"], census["n_sliding"]) == (0, 2)
    tags = {
        rec["configuration"]["tag"]
        for rec in census["records"]
        if rec["configuration"]
    }
    assert tags == {"F2A_a"}


def test_cli_periodic_seed_env(monkeypatch, capsys):
    monkeypatch.setenv("FLP_SEED", "7")
    assert main(["periodic", "example1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 7


@pytest.mark.parametrize("argv", [["periodic", "example1"], ["verify-paper", "--only", "2"]])
def test_cli_bad_seed_env_exits_2(monkeypatch, capsys, argv):
    monkeypatch.setenv("FLP_SEED", "abc")
    assert main(argv) == 2
    assert "FLP_SEED wants an integer, got 'abc'" in capsys.readouterr().err


def test_cli_dfunc_example6_one_sign_change(capsys):
    args = ["dfunc", "example6", "--y-min", "0", "--y-max", "50", "--samples", "100"]
    assert main(args) == 0
    out = capsys.readouterr().out
    header, rows = _helper_csv(out)
    assert header == ["y", "P_R", "P_Linv", "D"]
    assert len(rows) == 100
    signs = [1 if float(r[3]) > 0 else -1 for r in rows if math.isfinite(float(r[3]))]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert changes == 1


_CLOSED_FORM_SPECS = ("example3", "example4", "example6", "example7", "crossing_sliding_rho")


@pytest.mark.parametrize("k", [1.0, 3.0])
@pytest.mark.parametrize("name", _CLOSED_FORM_SPECS)
def test_cli_dfunc_matches_the_closed_form_in_the_systems_frame(name, k, tmp_path, capsys):
    # the closed form is evaluated in canonical coordinates and its landings
    # pulled back; flp dfunc prints the exact arcs in the spec's own frame
    spec = _helper_conjugated(resolve_spec(name), k)
    path = tmp_path / "sys.json"
    path.write_text(serialize_spec(spec))
    params, rec = to_canonical(spec.normalized())
    ctx = make_context(params)
    compared = 0
    for y, pr, pl, _ in _helper_dfunc_rows(capsys, str(path), -2.0 * k, 50.0 * k, 53):
        yc = float(rec.push((0.0, y))[1])
        for value, fn in ((pr, P_R), (pl, P_L_inv)):
            if not math.isfinite(value):
                continue
            try:
                expected = rec.pullback_axis(fn(yc, ctx))
            except (FilippovError, ValueError, OverflowError):
                expected = math.nan
            assert abs(value - expected) <= 1e-10 * max(1.0, abs(expected)), (y, value, expected)
            compared += 1
    assert compared >= 50


def test_cli_dfunc_follows_a_change_of_axis_scale(tmp_path, capsys):
    path = tmp_path / "example6_3y.json"
    path.write_text(serialize_spec(_helper_conjugated(resolve_spec("example6"), 3.0)))
    scaled = _helper_dfunc_rows(capsys, str(path), -6.0, 60.0, 45)
    plain = _helper_dfunc_rows(capsys, "example6", -2.0, 20.0, 45)
    assert sum(math.isfinite(row[3]) for row in plain) >= 40
    for row3, row in zip(scaled, plain):
        for a, b in zip(row3, row):
            if math.isnan(b):
                assert math.isnan(a), (row3, row)
            else:
                assert abs(a - 3.0 * b) <= 1e-9 * max(1.0, abs(a)), (row3, row)


def test_cli_dfunc_vanishes_at_every_crossing_cycle(capsys):
    served = []
    for name in BUNDLED_NAMES:
        rep = coexistence(resolve_spec(name).normalized())
        for rec in rep.records:
            if rec.kind != "crossing":
                continue
            y = rec.orbit.segments[0].start[1]
            ((_, _, _, d),) = _helper_dfunc_rows(capsys, name, y, y, 1)
            assert abs(d) <= 1e-9 * max(1.0, abs(y)), (name, y, d)
            served.append(name)
    assert {"example2", "crossing_sliding_eta"} <= set(served)


def test_cli_dfunc_without_crossing_half_lines_exit1(capsys):
    args = ["dfunc", "example1", "--y-min", "0", "--y-max", "1", "--samples", "3"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "DomainError" in captured.err


def test_cli_orbit_forward_csv(capsys):
    args = ["orbit", "example1", "--x0", "0.5", "--y0", "0.5", "--budget", "40"]
    assert main(args) == 0
    header, rows = _helper_csv(capsys.readouterr().out)
    assert header == ["t", "x", "y", "segment_kind"]
    kinds = {r[3] for r in rows}
    assert kinds == {"flow", "slide"}
    ts = [float(r[0]) for r in rows]
    assert ts[0] == 0.0
    assert all(b >= a - 1e-12 for a, b in zip(ts, ts[1:]))


def test_cli_orbit_backward_samples_spiral(capsys):
    args = ["orbit", "example1", "--x0", "0.5", "--y0", "0.5", "--backward"]
    assert main(args) == 0
    header, rows = _helper_csv(capsys.readouterr().out)
    assert len(rows) > 10
    assert all(float(r[0]) <= 0.0 for r in rows)
    # converges toward the right-zone equilibrium
    assert abs(float(rows[-1][1]) - 0.99009900990099) < 1e-4


@pytest.mark.parametrize(
    "args, flag",
    [
        (["orbit", "example1", "--x0", "nan", "--y0", "0"], "--x0"),
        (["orbit", "example1", "--x0", "inf", "--y0", "1"], "--x0"),
        (["orbit", "example1", "--x0", "0", "--y0", "inf"], "--y0"),
        (["dfunc", "example6", "--y-min=-inf", "--y-max", "1", "--samples", "3"], "--y-min"),
        (["dfunc", "example6", "--y-min", "0", "--y-max", "nan", "--samples", "3"], "--y-max"),
        (["dfunc", "example6", "--y-min", "0", "--y-max", "1", "--samples=-1"], "--samples"),
        (["dfunc", "example6", "--y-min", "0", "--y-max", "1", "--samples", "0"], "--samples"),
        (["orbit", "example1", "--x0", "0.5", "--y0", "0.5", "--budget", "0"], "--budget"),
        (["orbit", "example1", "--x0", "0.5", "--y0", "0.5", "--budget=-3"], "--budget"),
    ],
)
def test_cli_non_finite_numbers_exit2(args, flag, capsys):
    # nan ran an orbit from (0, 0), inf printed an empty CSV, both exiting 0;
    # a count below 1 printed a bare header, a traceback or a one-segment orbit
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    want = "a count >= 1" if flag in ("--samples", "--budget") else "a finite number"
    assert f"{flag} wants {want}" in captured.err


def test_cli_out_file_matches_stdout(tmp_path, capsys):
    args = ["dfunc", "example6", "--y-min", "0", "--y-max", "10", "--samples", "5"]
    assert main(args) == 0
    streamed = capsys.readouterr().out
    target = tmp_path / "d.csv"
    assert main(args + ["--out", str(target)]) == 0
    assert target.read_bytes().decode("utf-8") == streamed
    assert b"\r\n" in target.read_bytes()


def test_cli_sweep_crosses_transition(capsys):
    args = [
        "sweep",
        "example7",
        "--param",
        "b_minus.1",
        "--range=-0.037:-0.034:4",
    ]
    assert main(args) == 0
    header, rows = _helper_csv(capsys.readouterr().out)
    assert header == ["value", "n_crossing", "n_sliding", "configurations", "error"]
    assert [r[3] for r in rows] == ["F1A_a", "F1A_a", "F2A_c", "F2A_c"]
    assert [r[4] for r in rows] == [""] * 4


@pytest.mark.parametrize("param", ["nope", "A_plus.-1.0", "b_minus.-2"])
def test_cli_sweep_bad_param_exit2(capsys, param):
    # a negative index would silently sweep another entry
    args = ["sweep", "example1", "--param", param, "--range", "0:1:2"]
    assert main(args) == 2
    assert "sweep parameter" in capsys.readouterr().err


def test_cli_sweep_bad_range_exit2(capsys):
    args = ["sweep", "example1", "--param", "d", "--range", "0:1"]
    assert main(args) == 2
    capsys.readouterr()


def test_cli_verify_subset(capsys):
    assert main(["verify-paper", "--only", "8,9"]) == 0
    out = capsys.readouterr().out
    assert "2/2 checks passed" in out
    assert "FAIL" not in out


def test_cli_import_loads_no_scipy():
    # scipy is a test-only oracle; importing it costs most of the CLI's start
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = "import sys, filippov.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True, timeout=60
    )
    assert proc.stdout.strip() == "[]"
