"""One benchmark iteration in a fresh interpreter.

Usage: ``python3 child.py SPEC`` where SPEC is a JSON object with

* ``src``: the directory that holds the ``senary`` package;
* ``commands``: a list of argument lists for ``senary.cli.main``;
* ``trace``: whether to record per-layer spans (see ``tracing.py``).

With no commands the interpreter only imports senary, which probes set-up
time.  The last line of standard output is a JSON object with the monotonic
clock readings ``ready`` (import done), ``start`` and ``done`` (around the
commands), the CPU seconds and peak RSS of this process and its children over
the commands, and each command's exit code and captured output.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _usage() -> tuple[float, float]:
    """CPU seconds (user + sys, self + children) and peak RSS in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    try:
        import senary
        from senary import cli
    except ImportError as exc:
        print(json.dumps({"error": f"cannot import senary from {src}: {exc}"}))
        return 2
    ready = time.monotonic()
    if not os.path.abspath(senary.__file__).startswith(src + os.sep):
        print(json.dumps({"error": f"senary was imported from {senary.__file__}, not {src}"}))
        return 2

    import numpy
    import scipy

    result = {"ready": ready, "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__}}
    if spec["commands"]:
        tracer = None
        if spec["trace"]:
            import tracing

            tracer = tracing.install()
        cpu0, _ = _usage()
        start = time.monotonic()
        runs = []
        for argv in spec["commands"]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except Exception:  # a crash is a failed command, not a failed benchmark
                    traceback.print_exc()
                    code = None
            runs.append({"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
        done = time.monotonic()
        cpu1, rss = _usage()
        result.update(start=start, done=done, cpu_s=cpu1 - cpu0, peak_rss_mb=rss, runs=runs)
        if tracer is not None:
            result["layers"] = tracing.summary(*tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
