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
from dataclasses import replace

from senary import cubic, graphs, peyre, torsor
from senary.arith import primes_up_to

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NONCONVERGENT = 3

# a process pool forks all its --threads workers at its first submit, so the
# value is capped, far above the cores a count can use
_MAX_THREADS = 64


class _Output:
    def __init__(self, path: str | None):
        self.path = path
        self.lines: list[str] = []
        if path:
            # fail before the work, not after it: open for appending, which
            # truncates nothing, and take away a file that was not there
            existed = os.path.exists(path)
            try:
                with open(path, "a"):
                    pass
            except OSError as exc:
                raise ValueError(f"cannot write {path}: {exc.strerror}") from exc
            if not existed:
                os.remove(path)

    def emit(self, line: str):
        self.lines.append(line)

    def flush(self):
        text = "\n".join(self.lines) + ("\n" if self.lines else "")
        if self.path:
            try:
                with open(self.path, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ValueError(f"cannot write {self.path}: {exc.strerror}") from exc
        else:
            sys.stdout.write(text)


def _emit_report(out: _Output, kind: str, report, fmt: str, stable: bool):
    seconds = 0.0 if stable else report.elapsed
    if fmt == "csv":
        out.emit(f"{report.bound},{report.method},{report.count},{seconds:.3f}")
    else:
        row = {"bound": report.bound, "kind": kind, "method": report.method, "count": report.count}
        out.emit(json.dumps({**row, "seconds": round(seconds, 3)}, sort_keys=True))


def _count_reports(args: argparse.Namespace, method: str) -> list:
    """(kind, report) per requested bound, kind "box" or "height"; every
    report carries the bound the user gave."""
    if method == "naive":
        count_V, check = cubic.naive_count_V, cubic._check_box_bound
    else:
        count_V, check = torsor.torsor_count_V, torsor._check_torsor_bound
    reports = []
    if args.box is not None:
        if args.primitive:
            raise ValueError("--primitive applies to height counts; use --height")
        reports.append(("box", count_V(args.box, threads=args.threads)))
    if args.height is not None:
        if args.primitive:
            counter = cubic.count_N if method == "naive" else torsor.torsor_count_N
            report = counter(args.height, threads=args.threads)
        else:
            # V of the box of radius floor(B^(1/3)), reported at the height B
            report = count_V(cubic._height_radius(args.height, check), threads=args.threads)
            report = replace(report, bound=args.height)
        reports.append(("height", report))
    return reports


def _cmd_count(args: argparse.Namespace) -> int:
    if args.box is None and args.height is None:
        raise ValueError("count needs --box or --height")
    if any(bound is not None and bound < 1 for bound in (args.box, args.height)):
        raise ValueError("bounds must be >= 1")
    out = _Output(args.output)
    if args.format == "csv":
        out.emit("bound,method,count,seconds")
    methods = ("naive", "torsor") if args.method == "both" else (args.method,)
    per_bound: dict[tuple[str, int], set[int]] = {}
    for method in methods:
        for kind, report in _count_reports(args, method):
            per_bound.setdefault((kind, report.bound), set()).add(report.count)
            _emit_report(out, kind, report, args.format, args.stable_output)
    out.flush()
    # with --method both the two routes must agree exactly, bound by bound
    return EXIT_VERIFY_FAILED if any(len(v) != 1 for v in per_bound.values()) else EXIT_OK


def _verify_line(out: _Output, name: str, ok: bool, **details):
    obj = {"check": name, "ok": bool(ok)}
    obj.update(details)
    out.emit(json.dumps(obj, sort_keys=True))


# the flags each verify suite, constant and graph action reads, with the value
# an absent flag takes; all read --output, and a flag the action does not read
# is a usage error
_VERIFY_SUITES = {
    "bijection": {"pmax": 10},
    "mobius": {"bmax": 27000, "threads": 1},
    "theorem3": {"graph": "senary", "s": None, "n": 50, "prime_limit": 100_000},
    "tg-series": {"graph": "senary", "degree": 4},
    "factor-identity": {"pmax": 10_000},
    "lift": {"pmax": 5},
    "fp-counts": {"pmax": 11},
}
_CONSTANTS = {
    "alpha": {},
    "mu-infinity": {"tolerance": 0.01},
    "euler": {"prime_limit": 100_000},
    "theta": {"prime_limit": 100_000, "tolerance": 0.01},
    "leading-v": {"prime_limit": 100_000},
}
_GRAPH_ACTIONS = {
    "b-vector": {"graph": "senary"},
    "euler": {"graph": "senary", "p": 2, "s": None},
    "xi": {"graph": "senary", "s": None, "prime_limit": 100_000},
}
# per command: the positional argument that names the action, and its table
_ACTIONS = {
    "verify": ("suite", _VERIFY_SUITES),
    "constants": ("name", _CONSTANTS),
    "graph": ("action", _GRAPH_ACTIONS),
}


def _action_flags(args: argparse.Namespace):
    """Refuse a flag the command's action does not read, and give the flags
    it reads their defaults."""
    key, table = _ACTIONS[args.command]
    action = getattr(args, key)
    reads = table[action]
    given = {k for k, v in vars(args).items() if v is not None} - {"command", key, "output"}
    stray = sorted(given - reads.keys())
    if stray:
        flag = stray[0].replace("_", "-")
        raise ValueError(f"{args.command} {action} does not read --{flag}")
    for name, default in reads.items():
        if getattr(args, name) is None:
            setattr(args, name, default)


def _cmd_verify(args: argparse.Namespace) -> int:
    suite = args.suite
    out = _Output(args.output)
    ok = True
    if suite == "bijection":
        pmax = args.pmax
        for P in range(1, pmax + 1):
            good = torsor.verify_bijection(P)
            _verify_line(out, "bijection", good, P=P)
            ok = ok and good
        control = not torsor.verify_bijection(max(2, min(pmax, 5)), drop_w_coprimality=True)
        _verify_line(out, "bijection-negative-control", control)
        ok = ok and control
    elif suite == "mobius":
        for B, good, diff in cubic.mobius_check(args.bmax, threads=args.threads):
            _verify_line(out, "mobius", good, B=B, discrepancy=diff)
            ok = ok and good
    elif suite == "theorem3":
        G = graphs.CoprimalityGraph.parse(args.graph)
        s = _parse_s(args.s) or (2.0,) * G.r
        good, residual, allowance = graphs.verify_theorem3(G, s, args.n, args.prime_limit)
        _verify_line(out, "theorem3", good, residual=residual, allowance=allowance)
        ok = good
    elif suite == "tg-series":
        G = graphs.CoprimalityGraph.parse(args.graph)
        good = graphs.tg_series_check(G, args.degree)
        _verify_line(out, "tg-series", good, degree=args.degree)
        ok = good
    elif suite == "factor-identity":
        pmax = args.pmax
        for p in primes_up_to(pmax).tolist():
            if not peyre.factor_identity_check(p):
                _verify_line(out, "factor-identity", False, p=p)
                ok = False
        _verify_line(out, "factor-identity", ok, pmax=pmax)
    elif suite == "lift":
        count = 0
        good = True
        for coords in cubic.iter_box_solutions(args.pmax):
            s = cubic.SolutionSextuple(*coords)
            try:
                torsor.lift_to_X(s)  # validates the equations on construction
            except ValueError:
                good = False
            count += 1
        _verify_line(out, "lift", good, points=count)
        ok = good
    elif suite == "fp-counts":
        if args.pmax > torsor._MAX_FP_PRIME:  # refused before the first count
            raise ValueError(f"prime limit must be <= {torsor._MAX_FP_PRIME}, got {args.pmax}")
        for p in primes_up_to(args.pmax).tolist():
            # theta's local density times p^9, the polynomial of its Euler factor
            good = torsor.count_O_Fp(p) == peyre._euler_factor_polynomials(p)[0]
            _verify_line(out, "fp-descent-scheme", good, p=p)
            ok = ok and good
            if p <= 5:
                goodx = torsor.count_X_Fp(p) == (p * p + p + 1) * (p * p + 4 * p + 1)
                _verify_line(out, "fp-resolved-variety", goodx, p=p)
                ok = ok and goodx
    out.flush()
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_constants(args: argparse.Namespace) -> int:
    if args.tolerance is not None:  # None only where the action does not read it
        if args.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if not math.isfinite(args.tolerance):
            raise ValueError("tolerance must be finite")
    out = _Output(args.output)
    name = args.name
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
            out.emit(peyre.archimedean_density(args.tolerance).to_json())
        elif name == "euler":
            value, tail = peyre._euler_product_local(args.prime_limit)
            out.emit(
                peyre.ConstantReport(
                    "euler_product", value, None, tail, {"prime_limit": args.prime_limit}
                ).to_json()
            )
        elif name == "theta":
            out.emit(peyre.peyre_theta(args.prime_limit, args.tolerance).to_json())
        elif name == "leading-v":
            out.emit(peyre.leading_coeff_V(args.prime_limit).to_json())
    except peyre.QuadratureNonconvergence as exc:
        out.emit(
            json.dumps(
                {
                    "name": exc.name,
                    "error": "nonconvergent",
                    "best_value": exc.best_value,
                    "error_estimate": exc.error_estimate,
                },
                sort_keys=True,
            )
        )
        code = EXIT_NONCONVERGENT
    out.flush()
    return code


def _cmd_graph(args: argparse.Namespace) -> int:
    out = _Output(args.output)
    G = graphs.CoprimalityGraph.parse(args.graph)
    action = args.action
    if action == "b-vector":
        out.emit(json.dumps({"graph": args.graph, "b": list(graphs.b_coefficients(G))}))
    elif action == "euler":
        s = _parse_s(args.s) or (1.0,) * G.r
        value = graphs.euler_factor(G, args.p, s)
        obj = {"graph": args.graph, "p": args.p, "s": list(s), "factor": value}
        # the exact factor's numerator and denominator have at most
        # sum |s_j| log10 p digits, plus those of the sum of its 2^|E| terms;
        # one that could pass Python's int-to-str limit is left out before
        # any power is taken
        digits = sum(abs(x) for x in s) * math.log10(args.p) + len(G.edges) + 1
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        if all(float(x).is_integer() for x in s) and digits < limit:
            exact = graphs.euler_factor_exact(G, args.p, [int(x) for x in s])
            obj["exact"] = f"{exact.numerator}/{exact.denominator}"
        out.emit(json.dumps(obj, sort_keys=True))
    elif action == "xi":
        s = _parse_s(args.s) or (1.0,) * G.r
        value, tail = graphs.xi(G, s, args.prime_limit)
        out.emit(
            json.dumps(
                {
                    "graph": args.graph,
                    "s": list(s),
                    "value": value,
                    "tail_bound": tail,
                    "prime_limit": args.prime_limit,
                },
                sort_keys=True,
            )
        )
    out.flush()
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value}")
    return value


def _s_entry(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"--s: {token!r} is not a number") from None


def _parse_s(text: str | None):
    return tuple(map(_s_entry, text.split(","))) if text else None


_COMMON = {
    "--threads": {"type": int, "default": 1, "help": "worker processes"},
    "--output": {"help": "write to file instead of stdout"},
    "--format": {"choices": ("csv", "json"), "default": "csv"},
    "--stable-output": {"action": "store_true", "help": "zero the timing column"},
}


def _add_common(parser: argparse.ArgumentParser, flags):
    # shared flags: each subcommand registers the ones it reads; the top-level
    # parser registers none, so each flag has one place on the command line
    for flag in flags:
        parser.add_argument(flag, **_COMMON[flag])


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are ValueErrors, so that they print
    the one line every usage error prints; -h still prints help and exits."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="senary", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", help="run a counter", allow_abbrev=False)
    c.add_argument("--box", type=int, default=None, help="box bound P")
    c.add_argument("--height", type=int, default=None, help="height bound B")
    c.add_argument("--method", choices=("naive", "torsor", "both"), default="naive")
    c.add_argument("--primitive", action="store_true")
    _add_common(c, _COMMON)

    v = sub.add_parser("verify", help="run a verification suite", allow_abbrev=False)
    v.add_argument("suite", choices=tuple(_VERIFY_SUITES))
    # no defaults here: _VERIFY_SUITES fills in the flags a suite reads
    v.add_argument("--pmax", type=_positive_int)
    v.add_argument("--bmax", type=_positive_int)
    v.add_argument("--graph")
    v.add_argument("--s")
    v.add_argument("--n", type=_positive_int, help="series truncation")
    v.add_argument("--degree", type=int)
    v.add_argument("--prime-limit", type=int)
    v.add_argument("--threads", type=int, help="worker processes")
    _add_common(v, ("--output",))

    k = sub.add_parser("constants", help="compute one constant", allow_abbrev=False)
    k.add_argument("name", choices=tuple(_CONSTANTS))
    # no defaults here, nor for graph: _CONSTANTS and _GRAPH_ACTIONS fill them in
    k.add_argument("--prime-limit", type=int)
    k.add_argument("--tolerance", type=float)
    _add_common(k, ("--output",))

    g = sub.add_parser("graph", help="coprimality-graph computations", allow_abbrev=False)
    g.add_argument("action", choices=tuple(_GRAPH_ACTIONS))
    g.add_argument("--graph")
    g.add_argument("--p", type=int)
    g.add_argument("--s")
    g.add_argument("--prime-limit", type=int)
    _add_common(g, ("--output",))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # which flags an action reads comes before what their values are
        if args.command in _ACTIONS:
            _action_flags(args)
        if getattr(args, "threads", None) is not None and not 1 <= args.threads <= _MAX_THREADS:
            raise ValueError(f"threads must be between 1 and {_MAX_THREADS}, got {args.threads}")
        command = {
            "count": _cmd_count,
            "verify": _cmd_verify,
            "constants": _cmd_constants,
            "graph": _cmd_graph,
        }[args.command]
        return command(args)
    except SystemExit as exc:  # -h printed the help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except (ValueError, OverflowError) as exc:
        print(f"senary: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
