"""The benchmark's workloads, their seeded bounds, and the output checks.

Each workload is a fixed list of ``senary`` CLI commands.  The seed picks each
bound from a small set whose outputs are pinned in ``expected.json``; seed 0
(the default) picks the first entry of every set.  The sets are chosen so that
every choice does about the same amount of work: heights that share one cube
root, prime limits that share one prime set, and box bounds one apart.  Runs
with different seeds then stay comparable, while the program still sees
different inputs.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))

#: 12 (pi^2 + 24 log 2 - 3), the closed form of the archimedean density
MU_INFINITY = 12.0 * (math.pi**2 + 24.0 * math.log(2.0) - 3.0)

#: relative agreement required of float outputs with their independent pins;
#: far above float64 rounding of a product over 10^5 primes
FLOAT_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    choices: dict[str, tuple[int, ...]]  # bound name -> the values a seed picks from
    commands: Callable[[dict[str, int]], list[list[str]]]


# Why each workload exists, and what should move it, is in BENCHMARK.json and
# README.md.  In short: box-torsor isolates the torsor V kernel (no pool, no
# constants); height-primitive is the only user of the process pool;
# leading-constant is the only user of peyre and graphs and holds the
# accuracy metrics.
WORKLOADS = {
    "box-torsor": Workload(
        choices={"box": (100, 101)},
        commands=lambda b: [
            ["count", "--box", str(b["box"]), "--method", "torsor", "--threads", "1"],
        ],
    ),
    "height-primitive": Workload(
        choices={"height": (27000, 28000, 29000), "bmax": (8000, 8500, 9000)},
        commands=lambda b: [
            ["count", "--height", str(b["height"]), "--primitive", "--method", "torsor",
             "--threads", "2"],
            ["verify", "mobius", "--bmax", str(b["bmax"]), "--threads", "2"],
        ],
    ),
    "leading-constant": Workload(
        # 999983 is the largest prime below 10^6 and 1000003 the next one;
        # 9973 and 10007 bracket 10^4 the same way
        choices={"prime_limit": (1_000_000, 999_990, 1_000_002), "pmax": (10_000, 9_990, 10_006)},
        commands=lambda b: [
            ["constants", "mu-infinity", "--tolerance", "0.03"],
            ["constants", "theta", "--prime-limit", str(b["prime_limit"]), "--tolerance", "0.03"],
            ["constants", "leading-v", "--prime-limit", str(b["prime_limit"])],
            ["verify", "theorem3", "--graph", "senary", "--s", "2,2,2,2,2,2", "--n", "50"],
            ["verify", "factor-identity", "--pmax", str(b["pmax"])],
        ],
    ),
}


def choose_bounds(workload: Workload, seed: int) -> dict[str, int]:
    return {key: values[seed % len(values)] for key, values in workload.choices.items()}


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_RTOL * abs(b)


class Checker:
    """Checks each command's output against the pins.  Every exit code and
    every output line is one checked output."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed: list[str] = []
        self.mu_infinity: tuple[float, float] | None = None  # (value, reported bound)

    def _check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed.append(what)

    def run(self, result: dict):
        """Check one command's exit code and output, as reported by child.py."""
        argv = result["argv"]
        self._check(result["code"] == 0, f"{argv}: exit code {result['code']}")
        lines = result["stdout"].splitlines()
        check = {"count": self._count, "verify": self._verify}.get(argv[0], self._constant)
        try:
            check(argv, lines)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            self._check(False, f"{argv}: unreadable output ({type(exc).__name__}: {exc})")

    def _count(self, argv, lines):
        self._check(lines[:1] == ["bound,method,count,seconds"], f"{argv}: CSV header")
        rows = [line.split(",") for line in lines[1:]]
        if "--box" in argv:
            bound = argv[argv.index("--box") + 1]
            want = (bound, "torsor", str(self.expected["V"][bound]["value"]))
        else:
            bound = argv[argv.index("--height") + 1]
            want = (bound, "torsor-primitive", str(self.expected["N"][bound]["value"]))
        self._check(len(rows) == 1 and tuple(rows[0][:3]) == want, f"{argv}: row {rows} != {want}")

    def _verify(self, argv, lines):
        objs = [json.loads(line) for line in lines]
        suite = argv[1]
        if suite == "mobius":
            bmax = int(argv[argv.index("--bmax") + 1])
            rmax = max(r for r in range(1, bmax + 1) if r**3 <= bmax)
            self._check([o["B"] for o in objs] == [r**3 for r in range(1, rmax + 1)],
                        f"{argv}: heights checked")
            for o in objs:
                self._check(o["ok"] is True and o["discrepancy"] == 0, f"{argv}: {o}")
        else:
            self._check(len(objs) == 1, f"{argv}: one result line")
            for o in objs:
                self._check(o["check"] == suite and o["ok"] is True, f"{argv}: {o}")

    def _constant(self, argv, lines):
        self._check(len(lines) == 1, f"{argv}: one result line")
        obj = json.loads(lines[0]) if lines else {}
        value, bound = obj.get("value", math.nan), obj.get("tolerance", math.nan)
        if argv[1] == "mu-infinity":
            err = abs(value - MU_INFINITY)
            requested = float(argv[argv.index("--tolerance") + 1])
            self._check(err <= bound, f"{argv}: |{value} - {MU_INFINITY}| > reported {bound}")
            self._check(err <= requested * MU_INFINITY, f"{argv}: relative error above {requested}")
            self.mu_infinity = (value, bound)
            return
        name = {"theta": "theta", "leading-v": "leading_V"}[argv[1]]
        pin = self.expected[name]
        limit = argv[argv.index("--prime-limit") + 1]
        self._check(obj.get("name") == name and _close(value, pin["truncated"][limit]),
                    f"{argv}: {value} != pinned {pin['truncated'][limit]}")
        limit_err = abs(value - pin["limit"]) - pin["limit_uncertainty"]
        self._check(limit_err <= bound, f"{argv}: limit value {pin['limit']} outside reported {bound}")
