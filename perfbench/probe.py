"""A fixed reference computation that measures how fast the machine runs now.

Other tenants of a shared machine slow every instruction of this process by
up to about 1.6x, in spells from seconds to minutes.  The benchmark times
this probe right before and after each stretch of calls into reluspline
and scales the calls' times by PROBE_REF_S / (probe time), so that a
figure reads as seconds on a machine where the probe takes PROBE_REF_S.
The probe mixes the kinds of work reluspline does: numpy calls on small
arrays (a gradient step of a 2-layer net), plain Python loops over floats,
dicts and lists, passes over arrays too large for the caches, and a LAPACK
eigenvalue solve.  It never calls reluspline, so no change to
the program can move it.
"""

from __future__ import annotations

import time

import numpy as np

# the probe's time on an idle two-core Xeon VM; sets the unit of the figures
PROBE_REF_S = 0.020

_rng = np.random.default_rng(0)
_X, _Y = _rng.standard_normal(10), _rng.standard_normal(10)
_W, _B, _V = (0.1 * _rng.standard_normal(50) for _ in range(3))
_VALUES = _rng.standard_normal(3000).tolist()
_LONG = _rng.standard_normal(400_000)
_SYM = _rng.standard_normal((120, 120))
_SYM = _SYM + _SYM.T


def _numpy_part() -> float:
    w, b, v = _W.copy(), _B.copy(), _V.copy()
    for _ in range(250):
        pre = np.outer(_X, w) + b
        act = np.maximum(pre, 0.0)
        r = act @ v - _Y
        back = np.where(pre > 0.0, r[:, None] * v, 0.0)
        v -= 1e-3 * (act.T @ r)
        w -= 1e-3 * (back.T @ _X)
        b -= 1e-3 * back.sum(axis=0)
    return float(v @ v + b @ b)


def _python_part() -> float:
    merged: dict[float, float] = {}
    for i, x in enumerate(_VALUES):
        key = round(x, 3)
        merged[key] = merged.get(key, 0.0) + i
    total = [0.0]
    for key in sorted(merged):
        total.append(total[-1] + merged[key])
    return total[-1]


def _array_part() -> float:
    hinge = np.maximum(1.0 - np.abs(0.7 * _LONG), 0.0)
    return float(hinge @ _LONG) + float(np.linalg.eigvalsh(_SYM)[0])


def probe() -> tuple[float, float]:
    """Wall and CPU seconds of one run of the reference computation."""
    t0, c0 = time.perf_counter(), time.process_time()
    _numpy_part()
    _python_part()
    _array_part()
    return time.perf_counter() - t0, time.process_time() - c0
