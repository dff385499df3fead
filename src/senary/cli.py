"""Command-line front end: counts, verification suites, constants.

Counts are emitted as CSV rows ``bound,method,count,seconds`` or as one JSON
object per line; constants always as JSON lines.  All computations are
deterministic; ``--stable-output`` zeroes the timing column so repeated runs
are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace

from senary import cubic, graphs, peyre, torsor
from senary.arith import integer_cube_root

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NONCONVERGENT = 3


@dataclass
class RunConfig:
    command: str
    box_bound: int | None = None
    height_bound: int | None = None
    method: str = "naive"
    primitive: bool = False
    prime_limit: int = 100_000
    tolerance: float = 0.01
    threads: int = 1
    output_path: str | None = None
    format: str = "csv"
    stable_output: bool = False
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        for bound in (self.box_bound, self.height_bound):
            if bound is not None and bound < 1:
                raise ValueError("bounds must be >= 1")


class _Output:
    def __init__(self, path: str | None):
        self.path = path
        self.lines: list[str] = []

    def emit(self, line: str):
        self.lines.append(line)

    def flush(self):
        text = "\n".join(self.lines) + ("\n" if self.lines else "")
        if self.path:
            with open(self.path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def _emit_report(out: _Output, report, fmt: str, stable: bool):
    if report.count < 0:
        raise ValueError("negative count")
    seconds = 0.0 if stable else report.elapsed
    if fmt == "csv":
        out.emit(f"{report.bound},{report.method},{report.count},{seconds:.3f}")
    else:
        out.emit(
            json.dumps(
                {
                    "bound": report.bound,
                    "method": report.method,
                    "count": report.count,
                    "seconds": round(seconds, 3),
                },
                sort_keys=True,
            )
        )


def _count_reports(cfg: RunConfig, method: str) -> list:
    """(kind, report) per requested bound, kind "box" or "height"; every
    report carries the bound the user gave."""
    reports = []
    if cfg.box_bound is not None:
        if cfg.primitive:
            raise ValueError("--primitive applies to height counts; use --height")
        counter = cubic.naive_count_V if method == "naive" else torsor.torsor_count_V
        reports.append(("box", counter(cfg.box_bound, threads=cfg.threads)))
    if cfg.height_bound is not None:
        if cfg.primitive:
            counter = cubic.count_N if method == "naive" else torsor.torsor_count_N
            report = counter(cfg.height_bound, threads=cfg.threads)
        else:
            # V of the box of radius floor(B^(1/3)), reported at the height B
            counter = cubic.naive_count_V if method == "naive" else torsor.torsor_count_V
            report = counter(integer_cube_root(cfg.height_bound), threads=cfg.threads)
            report = replace(report, bound=cfg.height_bound)
        reports.append(("height", report))
    return reports


def _cmd_count(cfg: RunConfig) -> int:
    out = _Output(cfg.output_path)
    if cfg.format == "csv":
        out.emit("bound,method,count,seconds")
    methods = ("naive", "torsor") if cfg.method == "both" else (cfg.method,)
    per_bound: dict[tuple[str, int], set[int]] = {}
    for method in methods:
        for kind, report in _count_reports(cfg, method):
            per_bound.setdefault((kind, report.bound), set()).add(report.count)
            _emit_report(out, report, cfg.format, cfg.stable_output)
    out.flush()
    # with --method both the two routes must agree exactly, bound by bound
    if any(len(v) != 1 for v in per_bound.values()):
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _verify_line(out: _Output, name: str, ok: bool, **details):
    obj = {"check": name, "ok": bool(ok)}
    obj.update(details)
    out.emit(json.dumps(obj, sort_keys=True))


def _cmd_verify(cfg: RunConfig) -> int:
    out = _Output(cfg.output_path)
    suite = cfg.extra["suite"]
    ok = True
    if suite == "bijection":
        pmax = cfg.extra.get("pmax", 10)
        for P in range(1, pmax + 1):
            good = torsor.verify_bijection(P)
            _verify_line(out, "bijection", good, P=P)
            ok = ok and good
        control = not torsor.verify_bijection(max(2, min(pmax, 5)), drop_w_coprimality=True)
        _verify_line(out, "bijection-negative-control", control)
        ok = ok and control
    elif suite == "mobius":
        for B, good, diff in cubic.mobius_check(cfg.extra.get("bmax", 27000), threads=cfg.threads):
            _verify_line(out, "mobius", good, B=B, discrepancy=diff)
            ok = ok and good
    elif suite == "theorem3":
        G = graphs.CoprimalityGraph.parse(cfg.extra.get("graph", "senary"))
        s = cfg.extra.get("s") or (2.0,) * G.r
        N = cfg.extra.get("N", 50)
        good, residual, allowance = graphs.verify_theorem3(G, s, N, cfg.prime_limit)
        _verify_line(out, "theorem3", good, residual=residual, allowance=allowance)
        ok = good
    elif suite == "tg-series":
        G = graphs.CoprimalityGraph.parse(cfg.extra.get("graph", "senary"))
        cap = cfg.extra.get("degree", 4)
        good = graphs.tg_series_check(G, cap)
        _verify_line(out, "tg-series", good, degree=cap)
        ok = good
    elif suite == "factor-identity":
        pmax = cfg.extra.get("pmax", 10_000)
        from senary.arith import primes_up_to

        for p in primes_up_to(pmax).primes:
            if not peyre.factor_identity_check(p):
                _verify_line(out, "factor-identity", False, p=p)
                ok = False
        _verify_line(out, "factor-identity", ok, pmax=pmax)
    elif suite == "lift":
        pmax = cfg.extra.get("pmax", 5)
        count = 0
        good = True
        for coords in cubic.iter_box_solutions(pmax):
            s = cubic.SolutionSextuple(*coords)
            try:
                torsor.lift_to_X(s)  # validates the equations on construction
            except ValueError:
                good = False
            count += 1
        _verify_line(out, "lift", good, points=count)
        ok = good
    elif suite == "fp-counts":
        pmax = cfg.extra.get("pmax", 11)
        from senary.arith import primes_up_to

        for p in primes_up_to(max(pmax, 2)).primes:
            formula = (p - 1) ** 5 * (p * p + p + 1) * (p * p + 4 * p + 1)
            good = torsor.count_O_Fp(p) == formula
            _verify_line(out, "fp-descent-scheme", good, p=p)
            ok = ok and good
            if p <= 5:
                goodx = torsor.count_X_Fp(p) == (p * p + p + 1) * (p * p + 4 * p + 1)
                _verify_line(out, "fp-resolved-variety", goodx, p=p)
                ok = ok and goodx
    else:
        raise ValueError(f"unknown verify suite {suite!r}")
    out.flush()
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_constants(cfg: RunConfig) -> int:
    out = _Output(cfg.output_path)
    name = cfg.extra["name"]
    code = EXIT_OK
    try:
        if name == "alpha":
            a = peyre.alpha_invariant()
            out.emit(
                peyre.ConstantReport(
                    "alpha", float(a), a, 1e-15, {"method": "exact polytope pipeline"}
                ).to_json()
            )
        elif name == "mu-infinity":
            budget = cfg.extra.get("budget")
            if budget is not None:
                out.emit(peyre.archimedean_density(cfg.tolerance, budget=budget).to_json())
            else:
                out.emit(peyre.archimedean_density(cfg.tolerance).to_json())
        elif name == "euler":
            value, tail = peyre._euler_product_local(cfg.prime_limit)
            out.emit(
                peyre.ConstantReport(
                    "euler_product", value, None, tail, {"prime_limit": cfg.prime_limit}
                ).to_json()
            )
        elif name == "theta":
            out.emit(peyre.peyre_theta(cfg.prime_limit, cfg.tolerance).to_json())
        elif name == "leading-v":
            out.emit(peyre.leading_coeff_V(cfg.prime_limit).to_json())
        else:
            raise ValueError(f"unknown constant {name!r}")
    except peyre.QuadratureNonconvergence as exc:
        def finite(v):
            return v if math.isfinite(v) else None

        out.emit(
            json.dumps(
                {
                    "name": name,
                    "error": "nonconvergent",
                    "best_value": finite(exc.best_value),
                    "error_estimate": finite(exc.error_estimate),
                },
                sort_keys=True,
            )
        )
        code = EXIT_NONCONVERGENT
    out.flush()
    return code


def _cmd_graph(cfg: RunConfig) -> int:
    out = _Output(cfg.output_path)
    G = graphs.CoprimalityGraph.parse(cfg.extra.get("graph", "senary"))
    action = cfg.extra["action"]
    if action == "b-vector":
        out.emit(json.dumps({"graph": cfg.extra.get("graph", "senary"), "b": list(graphs.b_coefficients(G).b)}))
    elif action == "euler":
        p = cfg.extra.get("p", 2)
        s = cfg.extra.get("s") or (1.0,) * G.r
        value = graphs.euler_factor(G, p, s)
        obj = {"graph": cfg.extra.get("graph", "senary"), "p": p, "s": list(s), "factor": value}
        if all(float(x).is_integer() for x in s):
            exact = graphs.euler_factor_exact(G, p, [int(x) for x in s])
            obj["exact"] = f"{exact.numerator}/{exact.denominator}"
        out.emit(json.dumps(obj, sort_keys=True))
    elif action == "xi":
        s = cfg.extra.get("s") or (1.0,) * G.r
        value, tail = graphs.xi(G, s, cfg.prime_limit)
        out.emit(
            json.dumps(
                {
                    "graph": cfg.extra.get("graph", "senary"),
                    "s": list(s),
                    "value": value,
                    "tail_bound": tail,
                    "prime_limit": cfg.prime_limit,
                },
                sort_keys=True,
            )
        )
    else:
        raise ValueError(f"unknown graph action {action!r}")
    out.flush()
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value}")
    return value


def _parse_s(text: str | None):
    if not text:
        return None
    return tuple(float(v) for v in text.split(","))


def _add_common(parser: argparse.ArgumentParser, suppress: bool):
    # shared flags, accepted both before and after the subcommand; the
    # subparser copies use SUPPRESS so absent flags keep the global values
    d = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--threads", type=int, help="worker processes (or SENARY_THREADS)",
                        **(d or {"default": None}))
    parser.add_argument("--output", help="write to file instead of stdout",
                        **(d or {"default": None}))
    parser.add_argument("--format", choices=("csv", "json"), **(d or {"default": "csv"}))
    if suppress:
        parser.add_argument("--stable-output", action="store_true", default=argparse.SUPPRESS,
                            help="zero the timing column")
    else:
        parser.add_argument("--stable-output", action="store_true",
                            help="zero the timing column")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="senary", description=__doc__, allow_abbrev=False)
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", help="run a counter", allow_abbrev=False)
    c.add_argument("--box", type=int, default=None, help="box bound P")
    c.add_argument("--height", type=int, default=None, help="height bound B")
    c.add_argument("--method", choices=("naive", "torsor", "both"), default="naive")
    c.add_argument("--primitive", action="store_true")
    _add_common(c, suppress=True)

    v = sub.add_parser("verify", help="run a verification suite", allow_abbrev=False)
    v.add_argument(
        "suite",
        choices=("bijection", "mobius", "theorem3", "tg-series", "factor-identity", "lift", "fp-counts"),
    )
    v.add_argument("--pmax", type=_positive_int, default=None)
    v.add_argument("--bmax", type=_positive_int, default=None)
    v.add_argument("--graph", default="senary")
    v.add_argument("--s", default=None)
    v.add_argument("--n", type=_positive_int, default=None, help="series truncation")
    v.add_argument("--degree", type=int, default=None)
    v.add_argument("--prime-limit", type=int, default=100_000)
    _add_common(v, suppress=True)

    k = sub.add_parser("constants", help="compute one constant", allow_abbrev=False)
    k.add_argument("name", choices=("alpha", "mu-infinity", "euler", "theta", "leading-v"))
    k.add_argument("--prime-limit", type=int, default=100_000)
    k.add_argument("--tolerance", type=float, default=0.01)
    k.add_argument("--budget", type=_positive_int, default=None, help="quadrature sample cap")
    _add_common(k, suppress=True)

    g = sub.add_parser("graph", help="coprimality-graph computations", allow_abbrev=False)
    g.add_argument("action", choices=("b-vector", "euler", "xi"))
    g.add_argument("--graph", default="senary")
    g.add_argument("--p", type=int, default=2)
    g.add_argument("--s", default=None)
    g.add_argument("--prime-limit", type=int, default=100_000)
    _add_common(g, suppress=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        threads = args.threads
        if threads is None:
            threads = int(os.environ.get("SENARY_THREADS") or 1)
        if args.command == "count":
            if args.box is None and args.height is None:
                raise ValueError("count needs --box or --height")
            cfg = RunConfig(
                command="count",
                box_bound=args.box,
                height_bound=args.height,
                method=args.method,
                primitive=args.primitive,
                threads=threads,
                output_path=args.output,
                format=args.format,
                stable_output=args.stable_output,
            )
            return _cmd_count(cfg)
        if args.command == "verify":
            extra = {"suite": args.suite, "graph": args.graph}
            if args.pmax is not None:
                extra["pmax"] = args.pmax
            if args.bmax is not None:
                extra["bmax"] = args.bmax
            if args.s:
                extra["s"] = _parse_s(args.s)
            if args.n is not None:
                extra["N"] = args.n
            if args.degree is not None:
                extra["degree"] = args.degree
            cfg = RunConfig(
                command="verify",
                prime_limit=args.prime_limit,
                threads=threads,
                output_path=args.output,
                format=args.format,
                stable_output=args.stable_output,
                extra=extra,
            )
            return _cmd_verify(cfg)
        if args.command == "constants":
            cfg = RunConfig(
                command="constants",
                prime_limit=args.prime_limit,
                tolerance=args.tolerance,
                threads=threads,
                output_path=args.output,
                format="json",
                extra={"name": args.name, "budget": args.budget},
            )
            return _cmd_constants(cfg)
        if args.command == "graph":
            cfg = RunConfig(
                command="graph",
                prime_limit=args.prime_limit,
                threads=threads,
                output_path=args.output,
                format="json",
                extra={"action": args.action, "graph": args.graph, "p": args.p, "s": _parse_s(args.s)},
            )
            return _cmd_graph(cfg)
    except (ValueError, OverflowError) as exc:
        print(f"senary: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
