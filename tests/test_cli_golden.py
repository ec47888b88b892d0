"""Every CLI output file pinned byte for byte.

Each case runs one command on small fixed inputs, in a fresh directory,
and compares its stdout and every file it writes with the recorded copy in
``tests/golden/``.  The bytes hold shortest float reprs, so they depend on
the rounding of the numpy build as well as on the package.  After a
deliberate change of output, record them again with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from reluspline import cli

GOLDEN = Path(__file__).with_name("golden")

INPUTS = {
    "f.json": {"breakpoints": [-1.0, 0.0, 2.5],
               "slopes": [0.5, -1.0, 2.0, 0.25], "anchor": [0.0, 1.0]},
    "data.json": {"points": [[-1.0, 0.5], [0.0, 0.0], [0.7, 1.3],
                             [2.0, -0.4], [3.5, 0.1]]},
    "net.json": {"w1": [1.0, -2.0, 0.5, 1.5], "b1": [0.5, 1.0, -0.25, -3.0],
                 "w2": [1.0, 0.75, -2.0, 0.5], "b2": 0.25},
}

# name: (arguments, files the command writes besides stdout)
CASES = {
    "repcost": (["repcost", "f.json"], []),
    "interp": (["interp", "data.json", "--grid-oracle", "--trace-grid", "5"],
               []),
    "extract": (["extract", "net.json"], []),
    "depth": (["depth", "--random", "3", "2", "3", "0"], []),
    "train2": (["train2", "data.json", "--k", "6", "--steps", "300",
                "--lr", "0.01", "--seed", "2", "--prefix", "run"],
               ["run_net.json", "run_trace.csv", "run_grid.csv"]),
    "highdim_laplacian": (["highdim", "--claim", "laplacian", "--d", "3",
                           "--r-sweep", "2,5", "--samples", "3000",
                           "--seed", "1", "--output", "flux.csv"],
                          ["flux.csv"]),
    "highdim_decay": (["highdim", "--claim", "bump-decay", "--d", "3",
                       "--r-sweep", "4,8", "--samples", "20", "--seed", "1",
                       "--output", "decay.csv"], ["decay.csv"]),
}


def run_case(name: str, workdir: Path) -> dict[str, bytes]:
    """Golden file name -> bytes, for stdout and each file the case writes."""
    for fname, payload in INPUTS.items():
        (workdir / fname).write_text(json.dumps(payload))
    args, files = CASES[name]
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            assert cli.main(args) == 0
    finally:
        os.chdir(cwd)
    got = {f"{name}.stdout": out.getvalue().encode()}
    got.update((f"{name}.{f}", (workdir / f).read_bytes()) for f in files)
    return got


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes(name, tmp_path):
    for fname, data in run_case(name, tmp_path).items():
        assert data == (GOLDEN / fname).read_bytes(), fname


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            for fname, data in run_case(case, Path(tmp)).items():
                (GOLDEN / fname).write_bytes(data)
