"""The C kernel, ``_kernel.c``: its build, disk cache and load, and the calls
of ``descend`` (training), ``flux_draws`` (the flux estimator's normal draws,
numpy's Philox stream and ziggurat a chunk of words at a time, numpy's own
routine only at the fast path's rejections, and its per-sample pass,
``flux_values``) and ``format_table`` (the CSV writer, run with the GIL
held), which pass arrays as addresses and numpy's and the interpreter's
routines as function pointers."""

import contextlib
import ctypes
import functools
import os
import tempfile

import numpy as np

# no -ffast-math and no fused multiply-add: rounding stays as written;
# without errno, sqrt is one instruction, which vectorises
CFLAGS = ["-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno"]
# a build removes the cache's libraries older than this, in seconds
STALE_S = 30 * 24 * 3600


def _usable(cache: str) -> bool:
    with contextlib.suppress(OSError):
        os.makedirs(cache, 0o700, exist_ok=True)
        st = os.stat(cache)
        return (st.st_uid == os.getuid() and not st.st_mode & 0o022
                and os.access(cache, os.W_OK))
    return False


@functools.cache
def load() -> ctypes.CDLL:
    """``_kernel.c``'s library, built on first use into $XDG_CACHE_HOME/reluspline
    or else a private directory in the temp directory.  Named by a hash of the
    source and the command, it is built aside and renamed into place, so
    racing processes load whole ones.  A build also deletes the libraries
    in the cache last modified over ``STALE_S`` ago."""
    import hashlib
    import sysconfig

    base = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    cache = os.path.join(base, "reluspline")
    if not _usable(cache):  # gettempdir probes the temp directory: only here
        tried, cache = cache, os.path.join(tempfile.gettempdir(),
                                           f"reluspline-{os.getuid()}")
        if not _usable(cache):
            raise RuntimeError(f"no cache directory for the C kernel: "
                               f"tried {tried} and {cache}")
    source = os.path.join(os.path.dirname(__file__), "_kernel.c")
    cmd = (sysconfig.get_config_var("CC") or "cc").split() + CFLAGS
    with open(source, "rb") as fh:
        key = hashlib.sha256(fh.read() + " ".join(cmd).encode()).hexdigest()
    path = os.path.join(cache, f"_kernel-{key[:16]}.so")
    if not os.path.exists(path):
        import glob
        import subprocess  # only to build: it is slow to import
        import time

        with tempfile.TemporaryDirectory(dir=cache) as tmp:
            try:
                subprocess.run([*cmd, source, "-o", f"{tmp}/lib.so"],
                               check=True, capture_output=True,
                               errors="replace")
            except (OSError, subprocess.CalledProcessError) as exc:
                raise RuntimeError(
                    f"training, the flux estimator and the train2/highdim "
                    f"CSVs need a C compiler: "
                    f"{' '.join(cmd)} failed to build the kernel in {cache}: "
                    f"{getattr(exc, 'stderr', None) or exc}") from None
            os.replace(f"{tmp}/lib.so", path)
        # other revisions' libraries, built long ago: any still in use is
        # rebuilt on demand
        cutoff = time.time() - STALE_S
        for name in glob.glob("_kernel-*.so", root_dir=cache):
            old = os.path.join(cache, name)
            with contextlib.suppress(OSError):
                if os.stat(old).st_mtime < cutoff:
                    os.remove(old)
    lib = ctypes.CDLL(path)
    # format_table calls repr, which needs the GIL; ctypes raises its errors
    lib.format_table = ctypes.PyDLL(path).format_table
    i64, real, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    lib.descend.argtypes = [i64, i64, ptr, ptr, real, real, i64, real] + [ptr] * 4
    lib.descend.restype = ctypes.c_int
    lib.flux_values.argtypes = [i64] * 3 + [ptr] * 6
    lib.flux_values.restype = None
    lib.flux_draws.argtypes = [i64] * 3 + [ptr] * 9
    lib.flux_draws.restype = None
    lib.format_table.argtypes = [i64, i64, ptr, ctypes.c_int] + [ptr] * 3
    lib.format_table.restype = i64
    return lib


@functools.cache
def ziggurat():
    """numpy's ziggurat tables, wi then ki, as ``flux_draws`` reads them off
    numpy's ``random_standard_normal`` (found as numpy's cffi example finds
    it), and that routine."""
    from numpy.random import _generator

    normal = ctypes.CDLL(_generator.__file__).random_standard_normal
    tables = np.zeros(512, np.uint64)
    load().flux_draws(0, 0, 0, None, tables.ctypes.data, normal, *[None] * 6)
    return tables, normal


def descend(theta, xs, ys, lam, lr, max_steps, stop):
    """``descend`` on points (xs, ys) from theta = [b1 | w1 | w2 | b2], a
    writable, contiguous float64 vector of 3k + 1 entries updated in place:
    the status (0 max_steps, 1 stop reached, 2 diverged), the max_steps-row
    trace, the rows written and the gradient."""
    xs = np.ascontiguousarray(xs, dtype=float)
    ys = np.ascontiguousarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ValueError("xs and ys must be vectors of one length")
    # the kernel reads and writes 3k + 1 doubles at theta's address
    if not (isinstance(theta, np.ndarray) and theta.dtype == np.float64
            and theta.ndim == 1 and theta.size % 3 == 1
            and theta.flags.c_contiguous and theta.flags.writeable):
        raise ValueError("theta must be a writable, contiguous float64 "
                         "vector of 3k + 1 entries")
    trace, grad = np.empty((max_steps, 3)), np.empty(theta.size)
    done = np.zeros(1, np.int64)
    status = load().descend(
        theta.size // 3, xs.size, xs.ctypes.data, ys.ctypes.data, lam, lr,
        max_steps, stop, *(a.ctypes.data for a in (theta, grad, trace, done)))
    return status, trace, int(done[0]), grad


def write_csv(path: str, header, table, numbered: bool = False):
    """Write a table of float columns as csv.writer would: floats as their
    shortest repr, lines ending in \\r\\n and, with ``numbered``, each row
    led by its index, under the first header."""
    table = np.ascontiguousarray(table, dtype=float)
    # format_table's bound; np.empty leaves the pages it never writes untouched
    buf = np.empty(len(table) * (25 * table.shape[1] + 22), np.uint8)
    api = ctypes.pythonapi
    size = load().format_table(*table.shape, table.ctypes.data, numbered,
                               buf.ctypes.data, api.PyOS_double_to_string,
                               api.PyMem_Free)
    with open(path, "wb") as fh:
        fh.write(f"{','.join(header)}\r\n".encode())
        fh.write(buf[:size])
