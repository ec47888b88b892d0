"""``_kernel.write_csv``, whose rows ``_kernel.c`` formats in C, against the
Python writer in ``csv_oracle.py``: every file must match byte for byte.

Cells inside ``shortest()``'s window, 2^-36 <= |x| < 2^57, are formatted by
the C code itself; all others (zeros, subnormals, nan, infinities, tiny and
huge values) by the interpreter's own repr routine, which ``format_table``
calls with the GIL held."""

import os
import subprocess
import sys

import numpy as np
import pytest

from csv_oracle import write_csv
from reluspline import _kernel

POW2 = np.ldexp(1.0, np.arange(-1074, 1024))


def with_neighbours(x):
    x = np.asarray(x, dtype=float)
    return np.concatenate((x, np.nextafter(x, -np.inf),
                           np.nextafter(x, np.inf)))


def assert_matches_oracle(tmp_path, values, numbered=False):
    """Write ``values``, padded with zeros to rows of three, both ways."""
    values = np.asarray(values, dtype=float).ravel()
    table = np.concatenate((values, np.zeros(-values.size % 3))).reshape(-1, 3)
    header = ["step", "a", "b", "c"][1 - numbered:]
    _kernel.write_csv(str(tmp_path / "c.csv"), header, table, numbered)
    write_csv(str(tmp_path / "oracle.csv"), header, table, numbered)
    got = (tmp_path / "c.csv").read_bytes()
    want = (tmp_path / "oracle.csv").read_bytes()
    if got != want:
        rows = zip(got.split(b"\r\n"), want.split(b"\r\n"))
        bad = next((i, g, w) for i, (g, w) in enumerate(rows) if g != w)
        pytest.fail("line {}: wrote {!r}, oracle {!r}".format(*bad))


class TestMatchesOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_bit_patterns(self, tmp_path, seed):
        # 4 x 2^18 > 10^6 doubles of both signs, most of them far outside the
        # fixed-point window, with a few NaN payloads among them
        bits = np.random.default_rng([22, seed]).integers(
            0, 2**64, 2**18, dtype=np.uint64, endpoint=False)
        assert_matches_oracle(tmp_path, bits.view(np.float64))

    def test_powers_of_two_and_neighbours(self, tmp_path):
        # below a power of two the interval is half as wide
        assert_matches_oracle(tmp_path, with_neighbours(np.concatenate(
            (POW2, -POW2))))

    def test_zeros_and_subnormals(self, tmp_path):
        rng = np.random.default_rng(2201)
        tiny = np.concatenate((
            [0.0, -0.0, 5e-324, -5e-324, np.nextafter(2.0**-1022, 0.0)],
            np.arange(1, 2000) * 5e-324,
            rng.integers(1, 2**52, 10_000).astype(np.uint64).view(np.float64)))
        assert_matches_oracle(tmp_path, tiny, numbered=True)

    def test_integers(self, tmp_path):
        rng = np.random.default_rng(2202)
        ints = np.concatenate((
            np.arange(100_001), 10.0 ** np.arange(19),
            with_neighbours(np.ldexp(1.0, np.arange(64))),
            rng.integers(0, 2**63, 100_000, dtype=np.int64)))
        assert_matches_oracle(tmp_path, np.concatenate((ints, -ints)))

    def test_rounded_decimals(self, tmp_path):
        rng = np.random.default_rng(2203)
        scales = 10.0 ** rng.integers(-8, 12, 20_000)
        x = rng.uniform(-1.0, 1.0, 20_000) * scales
        assert_matches_oracle(tmp_path, [np.round(x, d) for d in range(13)])

    def test_binary_fractions(self, tmp_path):
        # 1 + i 2^-20 have at most 21 digits, so shortening them meets ties
        assert_matches_oracle(tmp_path, 1.0 + np.arange(2**19) * 2.0**-20)

    def test_where_python_changes_layout(self, tmp_path):
        edges = with_neighbours([1e-5, 1e-4, 1e16, 1e17, 2.0**-36, 2.0**57])
        assert_matches_oracle(tmp_path, np.concatenate((edges, -edges)),
                              numbered=True)

    def test_nan_and_infinities(self, tmp_path):
        assert_matches_oracle(tmp_path, [np.nan, np.inf, -np.inf, -np.nan,
                                         np.nan, 1.5], numbered=True)

    @pytest.mark.parametrize("numbered", [False, True])
    @pytest.mark.parametrize("rows", [0, 1, 3])
    def test_small_tables(self, tmp_path, rows, numbered):
        values = np.random.default_rng(rows).standard_normal(3 * rows)
        assert_matches_oracle(tmp_path, values, numbered)

    def test_row_indices_past_ten_thousand(self, tmp_path):
        assert_matches_oracle(tmp_path, np.linspace(-1.0, 1.0, 3 * 12_345),
                              numbered=True)


class TestInterpreterRepr:
    def test_out_of_window_cells_keep_the_gil(self, tmp_path):
        # the debug allocator aborts the process ("Fatal Python error") when
        # repr allocates without the GIL; a cold cache builds the library in
        # the child, so its load is checked too
        table = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-300,
                          1e300, 0.1]).reshape(-1, 3)
        np.save(tmp_path / "cells.npy", table)
        code = ("import sys, numpy as np; from reluspline import _kernel; "
                "_kernel.write_csv(sys.argv[1] + '/c.csv', ['a', 'b', 'c'], "
                "np.load(sys.argv[1] + '/cells.npy'))")
        env = dict(os.environ, PYTHONMALLOC="debug",
                   XDG_CACHE_HOME=str(tmp_path / "cache"),
                   PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        write_csv(str(tmp_path / "oracle.csv"), ["a", "b", "c"], table)
        assert ((tmp_path / "c.csv").read_bytes()
                == (tmp_path / "oracle.csv").read_bytes())
