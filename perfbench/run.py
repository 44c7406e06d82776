"""Census benchmark for filippov-planar.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the library is imported from
``src/``, never from an installed copy.  Workloads:

  random_census     coexistence(sys, budget=60) on random systems (check 1's
                    traffic); the shooting scan route
  canonical_census  coexistence(sys) on canonical-family systems; the
                    closed-form route
  flp_cli           fresh `flp periodic` / `flp sweep` processes

With ``--trace 0`` the end-to-end metrics are measured with nothing in
the hot path wrapped.  With ``--trace 1`` a separate run times a fixed
prefix of the inputs once untraced and once with every layer boundary
traced, and reports per-layer metrics plus the tracing overhead.  Output
checks run outside both.  The last line of stdout is one JSON object;
the lines before it record the machine and a census digest.  A census
that raises anything but a degenerate-system error fails its check like
a wrong output: ``correct`` is then false and the exit code 1.  The exit
code is 2 when the directory is not a source checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import census
import flpcli
import tracer as tr

WORKLOADS = ("random_census", "canonical_census", "flp_cli")
SETUP_REPS = 3
IMPORT_REPS = 3
WARMUP_SYSTEMS = 3
# Tail percentile per workload: the highest one with at least ten samples
# beyond it at the rates this benchmark runs (>= 1000 random censuses,
# >= 100 canonical ones).  flp_cli has ~22 processes, so its p90 is near
# the slowest spec.
TAIL = {"random_census": 99, "canonical_census": 90, "flp_cli": 90}


def fail(message: str, code: int = 2) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def checkout_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def median_wall(cmd: list, env: dict, reps: int) -> float:
    """Median wall time of ``reps`` fresh processes, after one untimed run
    that writes the bytecode cache (paid once per install, not per run)."""
    walls = []
    for i in range(reps + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)
        if i:
            walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def _importtime_rows(text: str) -> list[tuple[int, float, str]]:
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, int(cumulative) * 1e-6, name.strip()))
    return rows


def import_times(env: dict) -> tuple[float, float]:
    """(import filippov.cli, scipy's share of it) in seconds, from
    ``python -X importtime``, median of IMPORT_REPS fresh processes."""
    cli_s, scipy_s = [], []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import filippov.cli"],
            env=env, check=True, capture_output=True, text=True, timeout=120,
        )
        rows = _importtime_rows(proc.stderr)
        cli_s.append(sum(c for d, c, n in rows if d == 0 and n in ("filippov", "filippov.cli")))
        # rows come children first; a row's parent is the next shallower one
        outer = 0.0
        for i, (depth, cum, name) in enumerate(rows):
            if not name.startswith("scipy"):
                continue
            parent = next((n for d, _, n in rows[i + 1:] if d < depth), "")
            if not parent.startswith("scipy"):
                outer += cum
        scipy_s.append(outer)
    return statistics.median(cli_s), statistics.median(scipy_s)


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
    }


def percentile(values: list, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def import_library(root: str) -> None:
    sys.path.insert(0, os.path.join(root, "src"))
    import filippov

    where = os.path.realpath(filippov.__file__)
    if not where.startswith(os.path.realpath(os.path.join(root, "src")) + os.sep):
        fail(f"imported filippov from {where}, not from this checkout")


def census_workload(args, root: str, env: dict) -> tuple[dict, dict, list, int, int]:
    name = args.workload
    if not args.trace:
        setup_cmd = [
            sys.executable, "-c",
            "import sys; sys.path.insert(0, sys.argv[1]); import filippov, census; "
            "next(iter(census.make_inputs(sys.argv[2], int(sys.argv[3]))))",
            os.path.dirname(os.path.abspath(__file__)), name, str(args.seed),
        ]
        setup_s = median_wall(setup_cmd, env, SETUP_REPS)

    census.CensusLoop(name).run(census.make_inputs(name, args.seed + 1, WARMUP_SYSTEMS))
    plain = census.CensusLoop(name)

    if not args.trace:
        plain.run(census.make_inputs(name, args.seed), seconds=args.seconds)
        attempted = len(plain.latencies)
        p = TAIL[name]
        digest = plain.digest()
        digest["tail"] = f"p{p} of {attempted} censuses"
        lat_ms = [1e3 * x for x in plain.latencies]
        metrics = {
            "setup_s": (setup_s, "s"),
            "systems_per_s": (attempted / sum(plain.latencies), "1/s"),
            "census_ms_mean": (statistics.fmean(lat_ms), "ms"),
            "census_ms_tail": (percentile(lat_ms, p), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        return metrics, digest, plain.problems, attempted, plain.failed

    # Traced run: each system once untraced and once traced, alternating so
    # that drift in machine speed falls on both sides.  The traced copy is a
    # fresh object, so no per-field cache filled by the untraced pass helps.
    n = census.TRACE_SYSTEMS[name]
    systems, again = census.make_inputs(name, args.seed, n), census.make_inputs(name, args.seed, n)
    tracer = tr.Tracer()
    traced = census.CensusLoop(name)
    for a, b in zip(systems, again):
        plain.run([a])
        traced.run([b], tracer=tracer)
    problems = plain.problems + traced.problems
    failed = plain.failed + traced.failed
    digest = plain.digest()
    if traced.digest() != digest:
        problems.append("traced census differs from the untraced one")
        failed += 1
    cli_import_s, scipy_s = import_times(env)
    extra = {
        "runtime_warnings": traced.runtime_warnings,
        "degenerate_ratio": traced.degenerate / n,
        "cli_import_s": cli_import_s,
        "scipy_import_s": scipy_s,
        "overhead_ratio": sum(traced.latencies) / sum(plain.latencies),
    }
    return tr.layer_metrics(tracer.raw(), extra), digest, problems, 2 * n, failed


def cli_workload(args, root: str, env: dict) -> tuple[dict, dict, list, int, int]:
    if not args.trace:
        setup_s = median_wall([sys.executable, "-c", "import filippov.cli"], env, SETUP_REPS)
        res = flpcli.run_untraced(args.seed, args.seconds, env)
        p = TAIL["flp_cli"]
        ms = res["periodic_ms"]
        metrics = {
            "setup_s": (setup_s, "s"),
            "systems_per_s": (res["sweep_points_per_s"], "1/s"),
            "census_ms_mean": (statistics.fmean(ms), "ms"),
            "census_ms_tail": (percentile(ms, p), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MB"),
        }
        digest = {"rounds": res["rounds"], "tail": f"p{p} of {len(ms)} flp periodic processes"}
        return metrics, digest, res["problems"], res["attempted"], res["failed"]

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as scratch:
        res = flpcli.run_traced(args.seed, env, scratch)
    cli_import_s, scipy_s = import_times(env)
    extra = {
        "runtime_warnings": res["runtime_warnings"],
        "degenerate_ratio": 0.0,  # flp skips no census; a sweep error fails the check
        "cli_import_s": cli_import_s,
        "scipy_import_s": scipy_s,
        "overhead_ratio": res["overhead_ratio"],
    }
    digest = {"processes": res["attempted"]}
    return tr.layer_metrics(res["raw"], extra), digest, res["problems"], res["attempted"], res["failed"]


def declared_metrics(root: str, trace: int):
    """(name, unit) pairs BENCHMARK.json declares for this mode, if present."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=20260823)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "filippov", "__init__.py")):
        fail("run from the root of a filippov-planar source checkout (no src/filippov here)")
    env = checkout_env(root)
    import_library(root)

    run = cli_workload if args.workload == "flp_cli" else census_workload
    metrics, digest, problems, attempted, failed = run(args, root, env)

    declared = declared_metrics(root, args.trace)
    emitted = {(k, unit) for k, (_, unit) in metrics.items()}
    if declared is not None and declared != emitted:
        fail(f"metrics differ from BENCHMARK.json: {sorted(declared ^ emitted)}", 3)

    print(json.dumps({"machine": machine(), "workload": args.workload, "seed": args.seed}))
    print(json.dumps({"digest": digest}))
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    print(f"failed_ratio {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
