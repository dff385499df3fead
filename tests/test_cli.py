import itertools
import json
import math
import os
import subprocess
import sys

import pytest

from oracles import exhaustive_V
from senary import cubic, peyre, torsor
from senary.cli import EXIT_OK, EXIT_USAGE, main
from senary.torsor import _MAX_TORSOR_BOUND


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def _fresh(code: str, **env) -> str:
    """The stdout of ``code`` run in a new interpreter that imports senary
    from src/, with no OPENBLAS_* variable in its environment but ``env``."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    base = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
    code = "import sys; sys.path.insert(0, sys.argv[1]); " + code
    run = subprocess.run([sys.executable, "-c", code, src], env={**base, **env}, check=True, capture_output=True)
    return run.stdout.decode()


def test_the_cli_runs_without_scipy():
    # scipy is a test dependency only: importing senary and counting load none of it
    _fresh(
        "import senary.cli; "
        "assert senary.cli.main(['count', '--box', '10']) == 0; "
        "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"
    )


def test_an_idle_cli_process_burns_no_cpu():
    # OpenBLAS's helper thread, started when numpy loads, spins for 2^28
    # cycles unless senary sets its timeout: 30-70 ms of CPU in a 100 ms sleep
    code = (
        "import time; from senary import cli; "
        "t = time.process_time(); time.sleep(0.1); print(time.process_time() - t)"
    )
    assert float(_fresh(code)) < 0.010


def test_the_cli_imports_the_process_pool_only_when_one_opens():
    code = "from senary import cli; print('concurrent.futures.process' in sys.modules)"
    assert _fresh(code) == "False\n"


def test_a_callers_openblas_timeout_wins():
    code = "import os, senary; print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))"
    assert _fresh(code, OPENBLAS_THREAD_TIMEOUT="7") == "7\n"
    assert _fresh(code) == "4\n"


def test_count_box_naive(capsys):
    code, out = run(capsys, "count", "--box", "10", "--stable-output")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "bound,method,count,seconds"
    assert out.splitlines()[1] == "10,naive,421088,0.000"


def test_count_height_torsor_primitive(capsys):
    code, out = run(capsys, "count", "--height", "1", "--method", "torsor", "--primitive")
    assert code == EXIT_OK
    row = out.splitlines()[1].split(",")
    assert row[0] == "1" and row[1] == "torsor-primitive" and row[2] == "28"


def test_count_both_methods_cross_validate(capsys):
    code, out = run(capsys, "count", "--box", "5", "--method", "both", "--stable-output")
    assert code == EXIT_OK
    rows = out.splitlines()[1:]
    assert len(rows) == 2
    assert rows[0].split(",")[2] == rows[1].split(",")[2] == "26200"


def test_count_both_methods_primitive(capsys):
    code, out = run(
        capsys, "count", "--height", "64", "--primitive", "--method", "both", "--stable-output"
    )
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert {r[1] for r in rows} == {"naive-primitive", "torsor-primitive"}
    assert rows[0][2] == rows[1][2] == "6148"


def test_count_height_reports_the_height_in_the_bound_column(capsys):
    # V of the box of radius floor(1000^(1/3)) = 10, reported at the height
    for method in ("naive", "torsor"):
        code, out = run(capsys, "count", "--height", "1000", "--method", method, "--stable-output")
        assert code == EXIT_OK
        assert out.splitlines()[1] == f"1000,{method},421088,0.000"


def test_count_both_methods_key_the_agreement_on_box_or_height(capsys):
    # the box 8 and the height 8 (box 2) share the bound column, not a count
    code, out = run(
        capsys, "count", "--box", "8", "--height", "8", "--method", "both", "--stable-output"
    )
    assert code == EXIT_OK
    assert out.splitlines()[1:] == [
        "8,naive,173248,0.000",
        "8,naive,928,0.000",
        "8,torsor,173248,0.000",
        "8,torsor,928,0.000",
    ]


def test_count_torsor_above_the_int64_bound_is_usage_error(capsys):
    code, _ = run(capsys, "count", "--box", str(_MAX_TORSOR_BOUND + 1), "--method", "torsor")
    assert code == EXIT_USAGE


def test_count_zero_bound_is_usage_error(capsys):
    code, _ = run(capsys, "count", "--box", "0")
    assert code == EXIT_USAGE


def test_count_requires_a_bound(capsys):
    code, _ = run(capsys, "count")
    assert code == EXIT_USAGE


def test_unknown_subcommand_is_usage_error(capsys):
    code, _ = run(capsys, "frobnicate")
    assert code == EXIT_USAGE


def test_json_format(capsys):
    code, out = run(capsys, "count", "--box", "2", "--format", "json", "--stable-output")
    assert code == EXIT_OK
    obj = json.loads(out.splitlines()[0])
    assert obj["count"] == 928 and obj["method"] == "naive" and obj["kind"] == "box"


def test_json_rows_say_whether_the_bound_is_a_box_or_a_height(capsys):
    # the CSV rows of this command are the four of the box-or-height test above
    code, out = run(
        capsys, "count", "--box", "8", "--height", "8", "--method", "both", "--format", "json",
        "--stable-output",
    )
    assert code == EXIT_OK
    assert [json.loads(line) for line in out.splitlines()] == [
        {"bound": 8, "count": count, "kind": kind, "method": method, "seconds": 0.0}
        for method in ("naive", "torsor")
        for kind, count in (("box", 173248), ("height", 928))
    ]


def test_output_is_byte_identical_across_runs(capsys):
    _, first = run(capsys, "count", "--box", "6", "--method", "both", "--stable-output")
    _, second = run(capsys, "count", "--box", "6", "--method", "both", "--stable-output")
    assert first == second


def test_threads_do_not_change_counts(capsys):
    _, serial = run(capsys, "count", "--box", "6", "--stable-output")
    _, parallel = run(capsys, "count", "--box", "6", "--stable-output", "--threads", "2")
    assert serial == parallel


def test_threads_above_the_cap_exit_2_before_any_pool(capsys, monkeypatch):
    # a pool forks all its workers at the first submit, so here no pool may
    # open: a missing check then fails the test instead of forking
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was opened")

    monkeypatch.setattr(cubic, "ProcessPoolExecutor", no_pool)
    for threads in (65, 5000):
        for argv in (
            ("count", "--box", "100", "--method", "torsor"),
            ("count", "--height", "27000", "--primitive", "--method", "torsor"),
        ):
            code = main([*argv, "--threads", str(threads)])
            captured = capsys.readouterr()
            assert code == EXIT_USAGE and captured.out == ""
            assert captured.err == f"senary: threads must be between 1 and 64, got {threads}\n"
    # the cap itself passes the check and reaches the pool, once no cells are
    # needed to pay for a worker: V(3) is far below the cost line
    monkeypatch.setattr(torsor, "_DESCENT_WORKER_CELLS", 0)
    with pytest.raises(AssertionError, match="pool was opened"):
        main(["count", "--box", "3", "--method", "torsor", "--threads", "64"])


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "bijection", "--pmax", "0"),
        ("verify", "mobius", "--bmax", "0"),
        ("verify", "theorem3", "--n", "0"),
        ("count", "--box", "2", "--threads", "abc"),
    ],
)
def test_non_positive_sizes_are_usage_errors(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("constants", "mu-infinity", "--tolerance", "nan"),
        ("constants", "mu-infinity", "--tolerance", "inf"),
        ("constants", "alpha", "--tolerance", "nan"),
        ("constants", "alpha", "--tolerance", "inf"),
        ("graph", "euler", "--p", "0"),
        ("graph", "euler", "--p", "4"),
        ("graph", "euler", "--p", str((2**31 - 1) ** 2)),
        ("graph", "euler", "--p", "3317044064679887385961981"),
        ("graph", "euler", "--s", "1,1"),
        ("graph", "euler", "--s", "1.5,1,1,1,1,1,1"),
        ("graph", "xi", "--prime-limit", "0"),
        ("verify", "theorem3", "--prime-limit", "0"),
        ("verify", "theorem3", "--n", "10000"),
        ("verify", "tg-series", "--degree", "-1"),
        ("graph", "euler", "--s", "nan,1,1,1,1,1"),
        ("graph", "euler", "--s", "inf,1,1,1,1,1"),
        ("graph", "xi", "--s", "nan,2,2,2,2,2"),
        ("verify", "theorem3", "--s", "nan,2,2,2,2,2", "--n", "5"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_arguments_are_usage_errors(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err.startswith("senary: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "suite, expected",
    [
        ("tg-series", [{"check": "tg-series", "degree": 4, "ok": True}]),
        ("lift", [{"check": "lift", "ok": True, "points": 26200}]),
        (
            "fp-counts",
            [
                {"check": check, "ok": True, "p": p}
                for p in (2, 3, 5, 7, 11)
                for check in ("fp-descent-scheme", "fp-resolved-variety")
                if check == "fp-descent-scheme" or p <= 5
            ],
        ),
        ("factor-identity", [{"check": "factor-identity", "ok": True, "pmax": 10000}]),
        (
            # s = (2, ..., 2) and N = 50
            "theorem3",
            [
                {
                    "allowance": pytest.approx(1.4451859178408026, rel=1e-9),
                    "check": "theorem3",
                    "ok": True,
                    "residual": pytest.approx(-0.6477965459837733, rel=1e-9),
                }
            ],
        ),
    ],
)
def test_verify_suites_default_sizes(capsys, suite, expected):
    code, out = run(capsys, "verify", suite)
    assert code == EXIT_OK
    assert [json.loads(line) for line in out.splitlines()] == expected


USAGE_MESSAGES = [
    (("count",), "count needs --box or --height"),
    (("count", "--box", "0"), "bounds must be >= 1"),
    (("count", "--height", "-5"), "bounds must be >= 1"),
    (("count", "--box", "3", "--threads", "0"), "threads must be between 1 and 64, got 0"),
    # a flag the suite does not read is refused whatever its value
    (("verify", "tg-series", "--threads", "0"), "verify tg-series does not read --threads"),
    (("verify", "mobius", "--threads", "0"), "threads must be between 1 and 64, got 0"),
    # errors argparse finds print the same one line
    (("count", "--box", "2", "--threads", "abc"), "argument --threads: invalid int value: 'abc'"),
    (("count", "--box", "2", "--bogus"), "unrecognized arguments: --bogus"),
    (("count", "--box", "3", "--primitive"), "--primitive applies to height counts; use --height"),
    # the suites that sieve primes up to --pmax refuse a limit below 2
    (("verify", "fp-counts", "--pmax", "1"), "prime limit must be >= 2, got 1"),
    (("verify", "fp-counts", "--pmax", "37"), "prime limit must be <= 31, got 37"),
    (("verify", "factor-identity", "--pmax", "1"), "prime limit must be >= 2, got 1"),
    # a sieve past 10^8 would not fit in memory, refused before it allocates
    (
        ("constants", "euler", "--prime-limit", "1000000000000"),
        "prime limit must be <= 100000000, got 1000000000000",
    ),
    (
        ("graph", "xi", "--prime-limit", "100000000000"),
        "prime limit must be <= 100000000, got 100000000000",
    ),
    (
        ("verify", "theorem3", "--prime-limit", "100000000000"),
        "prime limit must be <= 100000000, got 100000000000",
    ),
    (
        ("verify", "factor-identity", "--pmax", "100000000000"),
        "prime limit must be <= 100000000, got 100000000000",
    ),
    # so would one entry per vertex of a huge graph
    (
        ("graph", "b-vector", "--graph", "r=1000000000000"),
        "a graph has at most 48 vertices, got 1000000000000",
    ),
    # a graph spec names each edge and each field once
    (("graph", "b-vector", "--graph", "r=3;edges=1-2,2-1"), "duplicate edge (1, 2)"),
    (("graph", "b-vector", "--graph", "r=3;edges=1-2,1-2"), "duplicate edge (1, 2)"),
    (("graph", "b-vector", "--graph", "r=3;r=4;edges=1-2"), "graph field 'r' given twice"),
    (("graph", "b-vector", "--graph", "r=3;edges=1-2;edges=2-3"), "graph field 'edges' given twice"),
    # and a malformed number names its field and token
    (("graph", "b-vector", "--graph", "r=x;edges=1-2"), "graph field 'r': 'x' is not an integer"),
    (("graph", "b-vector", "--graph", "r=3;edges=1-2,"), "graph field 'edges': '' is not an integer"),
    (("graph", "b-vector", "--graph", "r=3;edges=1-2-3"), "graph field 'edges': '2-3' is not an integer"),
    # as does a malformed --s, in every command that reads it
    (("graph", "euler", "--s", ",,"), "--s: '' is not a number"),
    (("graph", "xi", "--s", "1,x,1,1,1,1"), "--s: 'x' is not a number"),
    (("verify", "theorem3", "--s", "2,,2,2,2,2"), "--s: '' is not a number"),
    # each refusal names its check and the value that failed it
    (("verify", "tg-series", "--degree", "9"), "degree cap must be between 0 and 8, got 9"),
    (("verify", "tg-series", "--degree", "-1"), "degree cap must be between 0 and 8, got -1"),
    (
        ("verify", "tg-series", "--graph", "r=7;edges=1-2"),
        "the T_G series check takes at most 6 vertices, got 7",
    ),
    (("constants", "theta", "--prime-limit", "999"), "prime limit must be >= 1000, got 999"),
    (
        ("graph", "xi", "--s", "0.5,1,1,1,1,1"),
        "each exponent must exceed 1/2, got (0.5, 1.0, 1.0, 1.0, 1.0, 1.0)",
    ),
    # and a subset polynomial whose build passes |E| x terms = 24 x 2^20:
    # 21 disjoint edges have 2^21 terms, refused at the last edge
    (
        (
            "graph",
            "b-vector",
            "--graph",
            "r=42;edges=" + ",".join(f"{2 * i + 1}-{2 * i + 2}" for i in range(21)),
        ),
        "the subset polynomial's build, 21 edges x 2097152 terms, passes 25165824",
    ),
    # constants and graph actions refuse a flag they do not read, like verify
    # suites, whatever its value
    (("constants", "euler", "--tolerance", "-1"), "constants euler does not read --tolerance"),
    (("constants", "alpha", "--tolerance", "0"), "constants alpha does not read --tolerance"),
    (("constants", "alpha", "--tolerance=-inf"), "constants alpha does not read --tolerance"),
    (("constants", "alpha", "--tolerance", "nan"), "constants alpha does not read --tolerance"),
    (("constants", "alpha", "--prime-limit", "0"), "constants alpha does not read --prime-limit"),
    (
        ("graph", "b-vector", "--p", "4", "--prime-limit", "0", "--s", "nan"),
        "graph b-vector does not read --p",
    ),
    # the constants that read --tolerance check its value
    (("constants", "mu-infinity", "--tolerance", "-1"), "tolerance must be positive"),
    (("constants", "theta", "--tolerance", "0"), "tolerance must be positive"),
    (("constants", "mu-infinity", "--tolerance=-inf"), "tolerance must be positive"),
    (("constants", "theta", "--tolerance", "nan"), "tolerance must be finite"),
    # an Euler tail bound that overflows a float: at exponent sum 1.0001 its
    # log is about 1,090, past the 709 that expm1 takes
    (
        ("verify", "theorem3", "--graph", "r=2;edges=1-2", "--s", "0.50005,0.50005", "--n", "5"),
        "the Euler tail bound at prime limit 100000 and exponent sum 1.0001 is not finite; "
        "raise the prime limit or the exponents",
    ),
    (
        ("graph", "xi", "--graph", "r=2;edges=1-2", "--s", "0.50005,0.50005"),
        "the Euler tail bound at prime limit 100000 and exponent sum 1.0001 is not finite; "
        "raise the prime limit or the exponents",
    ),
    # a prime limit too small for the tail bound: the senary factor's terms
    # sum to 0.8479 at p = 4 and to 1.705 at p = 3
    (
        ("constants", "euler", "--prime-limit", "3"),
        "the Euler tail bound at prime limit L = 3 needs a(L+1) = sum |b_e| (L+1)^-e "
        "below 1/2, got 0.8479; raise the prime limit",
    ),
    (
        ("graph", "xi", "--prime-limit", "2"),
        "the Euler tail bound at prime limit L = 2 needs a(L+1) = sum |b_e| (L+1)^-e "
        "below 1/2, got 1.705; raise the prime limit",
    ),
    # an Euler factor past the largest float: 2^2000.5 at s_1 = -2000.5
    (
        ("graph", "euler", "--s=-2000.5,1,1,1,1,1"),
        "the Euler factor at p = 2, or one of its powers p^-s_j, passes the largest float, "
        "1.798e+308",
    ),
    # boxes whose naive kernel would not fit in memory, refused before any work
    (
        ("count", "--box", "100000", "--method", "naive"),
        "box bound 100000 exceeds 1000, the largest box the naive kernel holds in memory",
    ),
    (
        ("count", "--height", "1000000000000000000", "--primitive"),
        "radius 1000000 = floor(B^(1/3)) of height bound B = 1000000000000000000 exceeds 1000, "
        "the largest box the naive kernel holds in memory",
    ),
    (
        ("verify", "mobius", "--bmax", "1000000000000"),
        "radius 10000 = floor(B^(1/3)) of height bound B = 1000000000000 exceeds 1000, "
        "the largest box the naive kernel holds in memory",
    ),
    (
        ("verify", "lift", "--pmax", "100000"),
        "box bound 100000 exceeds 1000, the largest box the naive kernel holds in memory",
    ),
    # heights far past any box: the cube root is exact integer arithmetic, so
    # the bound check answers at once, also above the largest float
    (
        ("count", "--height", "1" + "0" * 72, "--primitive", "--method", "torsor"),
        f"radius {10**24} = floor(B^(1/3)) of height bound B = {10**72} "
        "exceeds the int64-checked torsor range",
    ),
    (
        ("count", "--height", "1" + "0" * 399, "--method", "torsor"),
        f"radius {10**133} = floor(B^(1/3)) of height bound B = {10**399} "
        "exceeds the int64-checked torsor range",
    ),
]


@pytest.mark.parametrize(
    "argv, message", USAGE_MESSAGES, ids=[" ".join(argv) for argv, _ in USAGE_MESSAGES]
)
def test_usage_errors_name_the_check_that_failed(capsys, argv, message):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err == f"senary: {message}\n"


@pytest.mark.parametrize("argv", [("-h",), ("count", "-h"), ("verify", "mobius", "--help")])
def test_help_prints_usage_and_exits_0(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == EXIT_OK and captured.out.startswith("usage: senary") and captured.err == ""


def test_verify_bijection(capsys):
    code, out = run(capsys, "verify", "bijection", "--pmax", "3")
    assert code == EXIT_OK
    lines = [json.loads(l) for l in out.splitlines()]
    assert all(l["ok"] for l in lines)
    assert lines[-1]["check"] == "bijection-negative-control"


def test_verify_mobius(capsys):
    for threads in ([], ["--threads", "2"]):
        code, out = run(capsys, "verify", "mobius", "--bmax", "64", *threads)
        assert code == EXIT_OK
        lines = [json.loads(l) for l in out.splitlines()]
        assert [l["B"] for l in lines] == [1, 8, 27, 64]
        assert all(l["ok"] and l["discrepancy"] == 0 for l in lines)


@pytest.mark.parametrize(
    "argv, expected",
    [
        ("constants alpha --format csv", EXIT_USAGE),
        ("verify lift --pmax 2 --format csv", EXIT_USAGE),
        ("verify lift --pmax 2 --stable-output", EXIT_USAGE),
        ("graph b-vector --threads 2", EXIT_USAGE),
        ("constants alpha --threads 2", EXIT_USAGE),
        ("--format csv --stable-output --threads 2 constants alpha", EXIT_USAGE),
        ("--format json count --box 2", EXIT_USAGE),
        ("--output F count --box 1", EXIT_USAGE),
        ("constants mu-infinity --budget 10", EXIT_USAGE),
    ],
)
def test_commands_take_after_them_only_the_shared_flags_they_read(capsys, argv, expected):
    code, out = run(capsys, *argv.split())
    assert code == expected and (out == "") == (expected == EXIT_USAGE)


_ACTION_FLAGS = {
    "constants": ("--prime-limit 1000", "--tolerance 0.1"),
    "graph": ("--graph senary", "--p 3", "--s 1,1,1,1,1,1", "--prime-limit 1000"),
}
_ACTION_READS = {
    ("constants", "alpha"): (),
    ("constants", "mu-infinity"): ("--tolerance",),
    ("constants", "euler"): ("--prime-limit",),
    ("constants", "theta"): ("--prime-limit", "--tolerance"),
    ("constants", "leading-v"): ("--prime-limit",),
    ("graph", "b-vector"): ("--graph",),
    ("graph", "euler"): ("--graph", "--p", "--s"),
    ("graph", "xi"): ("--graph", "--s", "--prime-limit"),
}
# (command, action, flag): one flag each verify suite does not read, and every
# flag of constants and graph that an action does not read
_STRAY_FLAGS = [
    ("verify", "bijection", "--bmax 5"),
    ("verify", "mobius", "--pmax 5"),
    ("verify", "theorem3", "--degree 1"),
    ("verify", "tg-series", "--bmax 5"),
    ("verify", "factor-identity", "--threads 2"),
    ("verify", "lift", "--prime-limit 100"),
    ("verify", "fp-counts", "--graph senary"),
] + [
    (command, action, flag)
    for (command, action), reads in _ACTION_READS.items()
    for flag in _ACTION_FLAGS[command]
    if flag.split()[0] not in reads
]


@pytest.mark.parametrize(
    "command, action, flag", _STRAY_FLAGS, ids=[f"{a}-{f}" for _, a, f in _STRAY_FLAGS]
)
def test_verify_suites_refuse_the_flags_they_do_not_read(capsys, command, action, flag):
    code = main([command, action, *flag.split()])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err == f"senary: {command} {action} does not read {flag.split()[0]}\n"


def test_verify_factor_identity(capsys):
    code, _ = run(capsys, "verify", "factor-identity", "--pmax", "1000")
    assert code == EXIT_OK


def test_verify_tg_series(capsys):
    code, _ = run(capsys, "verify", "tg-series", "--degree", "4")
    assert code == EXIT_OK


def test_verify_theorem3_single_edge(capsys):
    code, _ = run(
        capsys, "verify", "theorem3", "--graph", "r=2;edges=1-2", "--s", "2,2", "--n", "1000"
    )
    assert code == EXIT_OK


def test_verify_theorem3_at_a_huge_s(capsys):
    # zeta(1e155) is 1 to the last place, not the NaN of an overflowed
    # Euler-Maclaurin term
    code, out = run(capsys, "verify", "theorem3", "--s", "1e155,2,2,2,2,2")
    assert code == EXIT_OK and math.isfinite(json.loads(out)["allowance"])


def test_verify_fp_counts(capsys):
    code, out = run(capsys, "verify", "fp-counts", "--pmax", "3")
    assert code == EXIT_OK
    assert all(json.loads(l)["ok"] for l in out.splitlines())


def test_verify_lift(capsys):
    code, out = run(capsys, "verify", "lift", "--pmax", "3")
    assert code == EXIT_OK
    assert json.loads(out) == {"check": "lift", "ok": True, "points": exhaustive_V(3)}


def test_constants_alpha(capsys):
    code, out = run(capsys, "constants", "alpha")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["name"] == "alpha" and obj["exact"] == "1/3888"


def test_constants_euler(capsys):
    code, out = run(capsys, "constants", "euler", "--prime-limit", "10000")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert 0 < obj["value"] < 1


def test_constants_nonconvergent_exit_code(capsys, monkeypatch):
    from senary.cli import EXIT_NONCONVERGENT

    monkeypatch.setattr(peyre, "_QUAD_SCHEDULE", ((16, 32),))
    code, out = run(capsys, "constants", "mu-infinity", "--tolerance", "0.01")
    assert code == EXIT_NONCONVERGENT
    obj = json.loads(out)
    # the schedule ran out, but its best estimate is emitted and its error bar
    # still brackets the target
    assert obj["name"] == "mu_infinity" and obj["error"] == "nonconvergent"
    assert abs(obj["best_value"] - 282.0616408143365) <= obj["error_estimate"]


def test_constants_theta_nonconvergent_is_on_thetas_scale(capsys, monkeypatch):
    # theta's best estimate and bound, alpha mu product with the converged
    # bound's formula, not mu_infinity's; theta is about 0.002977, mu 282,
    # and one level pair bounds theta within about 9%
    from senary.cli import EXIT_NONCONVERGENT

    monkeypatch.setattr(peyre, "_QUAD_SCHEDULE", ((16, 32),))
    code, out = run(capsys, "constants", "theta", "--prime-limit", "1000", "--tolerance", "0.001")
    assert code == EXIT_NONCONVERGENT
    obj = json.loads(out)
    assert obj["name"] == "theta" and obj["error"] == "nonconvergent"
    for prime_limit in (1000, 100_000):
        closed = peyre.TWO_PI_LOG_CONSTANT / 324 * peyre._euler_product_local(prime_limit)[0]
        assert abs(obj["best_value"] - closed) <= obj["error_estimate"] < closed / 10


def test_constants_leading_v(capsys):
    code, out = run(capsys, "constants", "leading-v", "--prime-limit", "10000")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["name"] == "leading_V"


def test_graph_b_vector(capsys):
    code, out = run(capsys, "graph", "b-vector")
    assert code == EXIT_OK
    assert json.loads(out)["b"] == [1, 0, -9, 16, -9, 0, 1]


def _b_by_vertex_subsets(r, edges):
    """b_k by inclusion-exclusion over the vertex sets S of size k: the edge
    subsets touching exactly S sum (-1)^|U| to the sum of (-1)^|S - T| over
    the T in S that span no edge."""
    free = [all(T >> (k - 1) & 1 == 0 or T >> (l - 1) & 1 == 0 for k, l in edges)
            for T in range(1 << r)]
    b = [0] * (r + 1)
    for S in range(1 << r):
        T = S
        while True:  # every T in S, S first and 0 last
            if free[T]:
                b[S.bit_count()] += (-1) ** (S.bit_count() - T.bit_count())
            if T == 0:
                break
            T = (T - 1) & S
    return b


def test_graph_b_vector_of_K8(capsys):
    # 28 edges but only 248 terms: the build cap counts edges x terms
    edges = list(itertools.combinations(range(1, 9), 2))
    spec = "r=8;edges=" + ",".join(f"{k}-{l}" for k, l in edges)
    code, out = run(capsys, "graph", "b-vector", "--graph", spec)
    assert code == EXIT_OK
    assert json.loads(out)["b"] == _b_by_vertex_subsets(8, edges) == [
        1, 0, -28, 112, -210, 224, -140, 48, -7
    ]


def test_graph_euler_exact(capsys):
    code, out = run(capsys, "graph", "euler", "--p", "2", "--s", "1,1,1,1,1,1")
    assert code == EXIT_OK
    assert json.loads(out)["exact"] == "13/64"


def test_graph_euler_of_an_edgeless_graph_is_a_float(capsys):
    # S_G is the empty mask's term alone, printed as a float like any other
    code, out = run(capsys, "graph", "euler", "--graph", "r=2;edges=", "--p", "3", "--s", "1.5,1")
    assert code == EXIT_OK
    assert out == '{"factor": 1.0, "graph": "r=2;edges=", "p": 3, "s": [1.5, 1.0]}\n'


@pytest.mark.parametrize(
    "argv, exact",
    [
        # a negative exponent is exact too
        (("--s=-1,1,1,1,1,1", "--p", "2"), "-1/8"),
        # p^(10^12) and 3^10000 pass Python's int-to-str limit: left out
        # before any power is taken
        (("--s", "1e12,1,1,1,1,1", "--p", "2"), None),
        (("--p", "3", "--s", "10000,1,1,1,1,1"), None),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v),
)
def test_graph_euler_prints_exact_while_it_fits(capsys, argv, exact):
    code, out = run(capsys, "graph", "euler", *argv)
    assert code == EXIT_OK
    assert json.loads(out).get("exact") == exact


def test_graph_xi(capsys):
    code, out = run(capsys, "graph", "xi", "--graph", "r=2;edges=1-2", "--s", "2,2")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["value"] == pytest.approx(0.9239384, abs=1e-5)


def test_output_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, out = run(capsys, "count", "--box", "1", "--stable-output", "--output", str(path))
    assert code == EXIT_OK and out == ""
    assert path.read_text().splitlines()[1] == "1,naive,56,0.000"


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "rows.csv"
    code = main(["count", "--box", "1", "--output", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err.startswith(f"senary: cannot write {path}: ")
    assert captured.err.count("\n") == 1 and not path.exists()


def test_fp_counts_refuse_a_large_prime_limit_before_any_count(capsys, monkeypatch):
    def no_count(p):
        raise AssertionError(f"counted at p = {p} before refusing the limit")

    monkeypatch.setattr(torsor, "count_O_Fp", no_count)
    for pmax in ("32", "37", "1000"):
        code = main(["verify", "fp-counts", "--pmax", pmax])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert captured.err == f"senary: prime limit must be <= 31, got {pmax}\n"


def test_unwritable_output_fails_before_the_work(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("counted before checking the output path")

    monkeypatch.setattr(cubic, "naive_count_V", no_work)
    path = tmp_path / "missing" / "rows.csv"
    code = main(["count", "--box", "1", "--output", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err.startswith(f"senary: cannot write {path}: ")


def test_output_check_leaves_no_file_and_keeps_an_old_one(tmp_path, capsys):
    # a usage error after the check leaves no new file behind, and the check
    # does not truncate an existing one
    fresh, old = tmp_path / "fresh.csv", tmp_path / "old.csv"
    old.write_text("kept\n")
    for path in (fresh, old):
        code = main(["count", "--box", "1", "--primitive", "--output", str(path)])
        assert code == EXIT_USAGE
    assert not fresh.exists() and old.read_text() == "kept\n"
