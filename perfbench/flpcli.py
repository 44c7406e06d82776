"""The flp_cli workload: fresh ``flp`` processes, one at a time.

This is the only workload where interpreter start and library import
dominate, and the only one that runs `specfile`, `report` and `cli`.
Each round runs one ``flp sweep`` across the example7 F1A_a -> F2A_c
transition and then ``flp periodic`` on every bundled spec, in an order
drawn from the seed.  Only the order depends on the seed: the specs are
the library's own.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time

import tracer as tr

SPECS = (
    "example1", "example2", "example3", "example4", "example5", "example6",
    "example7", "crossing_sliding_rho", "crossing_sliding_eta",
    "buck_converter", "dry_friction",
)
EXPECTED_TAGS = {
    "example1": "F1A_a", "example2": "F1A_b", "example3": "F1A_c",
    "example4": "F1A_d", "example5": "F2A_a", "example6": "F2A_b",
    "example7": "F2A_c",
}
SWEEP_POINTS = 60
SWEEP = ("sweep", "example7", "--param", "b_minus.1", f"--range=-0.037:-0.034:{SWEEP_POINTS}")
SWEEP_HEADER = ["value", "n_crossing", "n_sliding", "configurations", "error"]
# The console script `flp` is `filippov.cli:main`; run it the same way
# from the source tree without installing it.
FLP = ("-c", "import sys; from filippov.cli import main; sys.exit(main())")
TIMEOUT_S = 150


def run_flp(args, env, traced_out=None) -> tuple[float, subprocess.CompletedProcess]:
    if traced_out is None:
        cmd = [sys.executable, *FLP, *args]
    else:
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "flp_traced.py")
        cmd = [sys.executable, script, traced_out, *args]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, env=env, timeout=TIMEOUT_S)
    return time.perf_counter() - t0, proc


def check_periodic(name: str, proc) -> list[str]:
    if proc.returncode != 0:
        return [f"flp periodic {name} exited {proc.returncode}: {proc.stderr.decode()[-300:]}"]
    try:
        report = json.loads(proc.stdout)
    except ValueError as exc:
        return [f"flp periodic {name}: output is not JSON ({exc})"]
    want = EXPECTED_TAGS.get(name)
    if want is not None:
        tags = {r["configuration"]["tag"] for r in report["census"]["records"] if r["configuration"]}
        if tags != {want}:
            return [f"flp periodic {name}: tags {sorted(tags)}, expected {want}"]
    return []


def check_sweep(proc) -> list[str]:
    if proc.returncode != 0:
        return [f"flp sweep exited {proc.returncode}: {proc.stderr.decode()[-300:]}"]
    rows = list(csv.reader(io.StringIO(proc.stdout.decode())))
    if not rows or rows[0] != SWEEP_HEADER:
        return [f"flp sweep: header {rows[:1]}"]
    body = rows[1:]
    if len(body) != SWEEP_POINTS:
        return [f"flp sweep: {len(body)} rows for {SWEEP_POINTS} points"]
    errors = [r for r in body if r[4]]
    if errors:
        return [f"flp sweep: {len(errors)} points failed, first {errors[0]}"]
    if (body[0][3], body[-1][3]) != ("F1A_a", "F2A_c"):
        return [f"flp sweep: runs from {body[0][3]} to {body[-1][3]}, expected F1A_a to F2A_c"]
    return []


def run_untraced(seed: int, seconds: float, env) -> dict:
    """Rounds of one sweep plus every spec, while the next round is expected
    to end within a tenth past ``seconds``.  At least two rounds, so every
    command's output can be compared with a repeated invocation."""
    order = list(SPECS)
    random.Random(seed).shuffle(order)
    periodic_ms, sweep_rates = [], []
    runs: list[tuple] = []  # (command name, stdout, problems)
    t_start = time.perf_counter()
    rounds = 0
    while True:
        wall, proc = run_flp(SWEEP, env)
        sweep_rates.append(SWEEP_POINTS / wall)
        runs.append(("sweep", proc.stdout, check_sweep(proc)))
        for name in order:
            wall, proc = run_flp(("periodic", name), env)
            periodic_ms.append(1e3 * wall)
            runs.append((name, proc.stdout, check_periodic(name, proc)))
        rounds += 1
        elapsed = time.perf_counter() - t_start
        if rounds >= 2 and elapsed * (rounds + 1) / rounds > 1.1 * seconds:
            break
    first: dict = {}
    problems: list[str] = []
    failed = 0
    for name, stdout, bad in runs:
        if first.setdefault(name, stdout) != stdout:
            bad = bad + [f"flp {name}: repeated invocations differ"]
        failed += bool(bad)
        problems += bad
    return {
        "periodic_ms": periodic_ms,
        "sweep_points_per_s": statistics.median(sweep_rates),
        "rounds": rounds,
        "elapsed": elapsed,
        "attempted": len(runs),
        "failed": failed,
        "problems": problems,
    }


def run_traced(seed: int, env, scratch: str) -> dict:
    """Each command once untraced and once traced; the tracer's counters
    come back from the traced children through files in ``scratch``."""
    order = list(SPECS)
    random.Random(seed).shuffle(order)
    commands = [SWEEP] + [("periodic", name) for name in order]
    raw: dict = {}
    warned = 0
    plain_s = traced_s = 0.0
    problems: list[str] = []
    failed = 0
    for i, args in enumerate(commands):
        wall, plain = run_flp(args, env)
        plain_s += wall
        out = os.path.join(scratch, f"trace-{i}.json")
        wall, traced = run_flp(args, env, traced_out=out)
        traced_s += wall
        check = check_sweep if args is SWEEP else (lambda p, n=args[1]: check_periodic(n, p))
        bad = check(plain) + check(traced)
        if plain.stdout != traced.stdout:
            bad.append(f"flp {' '.join(args[:2])}: traced output differs")
        failed += bool(bad)
        problems += bad
        if traced.returncode == 0:
            with open(out, encoding="utf-8") as fh:
                child = json.load(fh)
            tr.merge(raw, child["raw"])
            warned += child["runtime_warnings"]
    return {
        "raw": raw,
        "runtime_warnings": warned,
        "overhead_ratio": traced_s / plain_s,
        "attempted": 2 * len(commands),
        "failed": failed,
        "problems": problems,
    }
