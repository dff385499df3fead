"""senary benchmark: end-to-end and per-layer metrics of the CLI workloads.

Usage, from the repository root:

    python3 bench/run.py --workload box-torsor --seed 0 --seconds 20 --trace 0

Every iteration starts a fresh interpreter (``child.py``) that imports senary
from ``src/`` and drives ``senary.cli.main`` with the workload's commands.
Fresh processes matter: ``peyre._outer_level`` is ``lru_cache``d, and a second
call in one process would time a cache hit that a CLI user never gets.  The
import (about 0.5 s, mostly scipy) is set-up, not compute.

Iterations repeat until ``--seconds`` have passed (at least one).  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it describes the workload, its
bounds and the machine.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median seconds from import done to the last command's return;
* ``setup_s``: median seconds from spawning the interpreter to ``import
  senary`` done, over ``SETUP_PROBES`` import-only interpreters and every
  iteration;
* ``cpu_s``: median user + sys CPU seconds of the iteration's process and its
  pool workers, after set-up;
* ``peak_rss_mb``: largest resident set of any such process;
* ``ok_frac``: checked outputs that were correct over outputs checked;
* ``mu_inf_rel_err`` and ``mu_inf_bound_ratio``: relative error of the
  archimedean density against 12 (pi^2 + 24 log 2 - 3), and the reported error
  bound over that error.  Only ``leading-constant`` computes the density; the
  other workloads report 1 for both, a constant that carries no information.

``--trace 1`` alternates untraced and traced iterations and reports the
``per_layer`` metrics of BENCHMARK.json from the traced ones (medians), among
them ``trace.overhead_s``, the traced minus the untraced median ``wall_s``.

A mismatch against the pinned outputs makes ``correct`` false and the exit
code 1.  A failure to run at all (no ``src/senary``, a crash, the time limit)
exits 2 without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from workloads import MU_INFINITY, WORKLOADS, Checker, choose_bounds, load_expected

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")  # names and units of the reported metrics

SETUP_PROBES = 5
DEADLINE_S = 170.0  # the whole run, probes included


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("SENARY_THREADS", None)  # every command states --threads itself
    env.pop("PYTHONPATH", None)  # child.py puts src/ first and checks where senary came from
    return env


def _spawn(commands: list, trace: bool, deadline: float) -> dict:
    """Run child.py once; return its report with ``setup_s`` and ``wall_s``."""
    spec = json.dumps({"src": os.path.join(ROOT, "src"), "commands": commands, "trace": trace})
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, spec], cwd=ROOT, env=_child_env(), start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the interpreter and its pool workers
        proc.communicate()
        raise BenchError(f"time limit of {DEADLINE_S} s reached") from None
    lines = out.splitlines()
    report = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if proc.returncode != 0 or "error" in report or "ready" not in report:
        raise BenchError(report.get("error") or f"child exited {proc.returncode}: {err.strip()}")
    report["setup_s"] = report["ready"] - spawned
    if commands:
        report["wall_s"] = report["done"] - report["start"]
    return report


def _machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
    }


def spec_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(SPEC) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    workload = WORKLOADS[workload_name]
    bounds = choose_bounds(workload, seed)
    commands = workload.commands(bounds)
    checker = Checker(load_expected())
    info = {"workload": workload_name, "seed": seed, "bounds": bounds, "commands": commands,
            "machine": _machine()}
    deadline = time.monotonic() + DEADLINE_S

    probes = [_spawn([], False, deadline) for _ in range(SETUP_PROBES)]
    info["machine"].update(probes[-1]["versions"])
    plain, traced = [], []
    started = time.monotonic()
    while True:
        if not trace or len(plain) <= len(traced):
            plain.append(_spawn(commands, False, deadline))
            last = plain[-1]
        else:
            traced.append(_spawn(commands, True, deadline))
            last = traced[-1]
        for r in last["runs"]:
            checker.run(r)
        if time.monotonic() - started >= seconds and (not trace or len(traced) == len(plain)):
            break

    wall_s = statistics.median(p["wall_s"] for p in plain)
    if trace:
        # a layer the workload never reaches has no spans: 0 calls, 0 seconds
        values = {name: statistics.median(t["layers"].get(name, 0) for t in traced)
                  for name in spec_metrics("per_layer")}
        values["trace.wall_s"] = statistics.median(t["wall_s"] for t in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - wall_s
        kind = "per_layer"
    else:
        if checker.mu_infinity is None:
            rel_err = bound_ratio = 1.0
        else:
            value, bound = checker.mu_infinity
            err = abs(value - MU_INFINITY)
            rel_err, bound_ratio = err / MU_INFINITY, bound / err
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(r["setup_s"] for r in probes + plain),
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in plain),
            "ok_frac": (checker.attempted - len(checker.failed)) / checker.attempted,
            "mu_inf_rel_err": rel_err,
            "mu_inf_bound_ratio": bound_ratio,
        }
        kind = "end_to_end"
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in spec_metrics(kind).items()}
    info["wall_s"] = {"untraced": [p["wall_s"] for p in plain], "traced": [t["wall_s"] for t in traced]}
    info["mismatches"] = checker.failed
    result = {"correct": not checker.failed, "attempted": checker.attempted,
              "failed": len(checker.failed), "metrics": metrics}
    return info, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
