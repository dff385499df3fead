import importlib.util
import os

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rows_under(lines, header):
    """The CSV rows that follow the header, up to the first blank line."""
    rows = lines[lines.index(header) + 1 :]
    return rows[: rows.index("")] if "" in rows else rows


@pytest.mark.parametrize(
    "name, argv, tables",
    [
        (
            "convergence_run",
            ["--prime-limits", "1000", "--levels", "16"],
            {"prime_limit,value,tail_bound": 1, "grid_n,value,rel_error,seconds": 1},
        ),
    ],
)
def test_scripts_run_on_tiny_arguments(capsys, name, argv, tables):
    # the scripts reach into senary's modules, private names included
    assert load(name).main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    for header, count in tables.items():
        rows = rows_under(lines, header)
        assert len(rows) == count
        assert all(len(row.split(",")) == len(header.split(",")) for row in rows)
