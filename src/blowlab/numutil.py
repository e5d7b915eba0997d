"""Small numeric helpers shared across modules.

The one refined sup (a grid argmax refined by scipy's bounded Brent
search), log-spaced grids, log-log slope fits, the one check of a
dimension, the one of a power, the one of an order and the one of every
other number's finite range, and the one check every QUADPACK result in
the package goes through.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import DomainError, ResolutionError


def refine_max_on_grid(f: Callable[[float], float], xs: Sequence[float],
                       vals: Optional[Sequence[float]] = None) -> tuple[float, float]:
    """(argmax, max) of f: the grid argmax, refined between its two
    neighbours (clipped at the grid ends, so an edge argmax is refined too)
    by bounded Brent search (Brent 1973) to 1e-10 in the argument. The grid
    value is kept where the refinement comes out lower. A bracket end where
    f is -inf or NaN raises ResolutionError naming the point; it is never
    handed to the search.

    ``vals`` are f on ``xs`` when the caller already has them; f is then
    called only by the Brent search.
    """
    xs = np.asarray(xs, dtype=float)
    vals = np.array([f(x) for x in xs]) if vals is None else np.asarray(vals)
    i = int(np.argmax(vals))
    ends = (max(i - 1, 0), min(i + 1, len(xs) - 1))
    lo, hi = xs[ends[0]], xs[ends[1]]
    if hi <= lo:
        return float(xs[i]), float(vals[i])
    for j in ends:
        # written so that NaN fails it too: Brent's arithmetic on such an
        # end turns into NaN
        if not vals[j] > -math.inf:
            raise ResolutionError(f"refine_max_on_grid: f({float(xs[j])!r}) = "
                                  f"{float(vals[j])!r} at an end of the bracket")
    res = minimize_scalar(lambda x: -f(x), bounds=(float(lo), float(hi)),
                          method="bounded", options={"xatol": 1e-10})
    if -res.fun < vals[i]:
        return float(xs[i]), float(vals[i])
    return float(res.x), float(-res.fun)


def _check_dimension(d) -> int:
    """d as an int. A float with an integer value passes (the sweeps pass
    10.0); NaN, 2.5 or 0 raise DomainError."""
    if not (isinstance(d, numbers.Real) and d >= 1 and float(d).is_integer()):
        raise DomainError(f"dimension must be a positive integer, got {d!r}")
    return int(d)


def _check_power(p: float, name: str = "p") -> None:
    # written so that NaN fails it too
    if not 1.0 < p < math.inf:
        raise DomainError(f"{name} must be finite and exceed 1, got {p!r}")


def _check_order(alpha: float) -> None:
    # written so that NaN fails it too
    if not 0.0 < alpha <= 2.0:
        raise DomainError(f"order alpha must lie in (0, 2], got {alpha!r}")


def _check_range(name: str, value, bound: float = 0.0, closed: bool = False,
                 upper: float = math.inf) -> None:
    """DomainError unless value is finite and above bound, or at it when
    closed, and below upper; NaN fails too. An array is checked element by
    element and the message quotes its first element that fails."""
    x = np.asarray(value, dtype=float)
    ok = ((x >= bound) if closed else (x > bound)) & (x < upper) & (x < math.inf)
    if not ok.all():
        kind = (f"at least {bound:g}" if bound else "nonnegative") if closed \
            else (f"above {bound:g}" if bound else "positive")
        if upper < math.inf:
            kind += f" and below {upper:g}"
        got = value if x.ndim == 0 else float(x[~ok].flat[0])
        raise DomainError(f"{name} must be {kind} and finite, got {got!r}")


def _pow(x: float, e: float, name: str, value) -> float:
    """x^e, or a DomainError naming the argument ``name`` = value that set
    it, where x^e leaves the doubles."""
    try:
        return math.pow(x, e)
    except OverflowError:
        raise DomainError(f"{name} = {value!r}: {x:.6g}^{e:.6g} leaves the doubles") from None


def log_grid(lo: float, hi: float, n: int) -> np.ndarray:
    if not (0 < lo < hi < math.inf and n >= 2):
        raise DomainError(f"log_grid needs 0 < lo < hi < inf and n >= 2, "
                          f"got lo = {lo!r}, hi = {hi!r}, n = {n!r}")
    return np.geomspace(lo, hi, n)


def loglog_slope(x: Sequence[float], y: Sequence[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


def _quad_result(out: tuple, what: str,
                 rtol: Optional[float] = None) -> tuple[float, float]:
    """(value, error estimate) of ``out = quad(..., full_output=1)``.

    QUADPACK appends a message to ``out`` when it fails (it would warn
    otherwise); that raises ResolutionError naming ``what`` and quoting the
    message, and so does an error estimate above rtol*|value| when rtol is
    given. Each module calls its own ``quad`` and hands the result here.
    """
    value, error = out[0], out[1]
    if len(out) > 3:
        raise ResolutionError(f"{what}: " + " ".join(str(out[3]).split()))
    if rtol is not None and error > rtol * abs(value):
        raise ResolutionError(f"{what}: quadrature error {error:.2e} on {value:.6g}")
    return value, error
