"""Convex source terms and the decreasing blowup-time transform.

A source term F is convex, nondecreasing on [0, inf) with F(0) = 0 and must
satisfy the finite tail-integral condition int^inf du/F(u) < inf; the
transform h(w) = int_w^inf du/F(u) and its inverse convert moment lower
bounds into blowup-time bounds. Three families get exact routes: closed
forms for the power law and the exponential, and two converging series for
the power sum, which Newton's method in log w inverts. Only ``custom``
sources go through adaptive quadrature in log u; where F leaves the doubles
the quadrature stops, and h raises ResolutionError if the part past that cut
may exceed its tolerance.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, ResolutionError
from .numutil import _check_dimension, _check_order, _check_power, _check_range, _quad_result

__all__ = [
    "Nonlinearity",
    "OsgoodTransform",
    "fujita_exponent",
]

_CONVEXITY_FLOOR = -1e-10
# log w range of h_inverse: the normal doubles
_TINY = sys.float_info.min
_LOG_TINY = math.log(_TINY)
_LOG_HUGE = math.log(sys.float_info.max)
_EPS = sys.float_info.epsilon
_LN2 = math.log(2.0)
_NEWTON_ITERATIONS = 100
# cap on the terms of the power sum's series, whose ratios are at most 2/3
_SERIES_TERMS = 200
# relative error target, and bound on QUADPACK's estimate, of the h quadrature
_H_QUAD_TOL = 1e-12
# probe scales for the large-u tail exponent audit
_TAIL_PROBES = (1e4, 1e6, 1e8)
# integer exponents that power sources evaluate by repeated products
_PRODUCT_POWERS = range(2, 9)


def _power_term(c: float, p: float, products: bool = True) -> Callable:
    """u -> c u^p for arrays and Python floats, with the route fixed here.

    With products, integer p in 2..8 takes left-to-right binary powering:
    square, then times u where p's next bit is set, updating its own result
    in place. p = 2 is bit for bit np.power; p = 3..8 is within a few ulps
    of it, since each product rounds once. Other p take np.power. c = 1
    skips the multiply. Where u^p is subnormal, zero or infinite while
    log(c u^p) lies above log(tiny), the term is c u^(p/2) u^(p/2), as in
    _power_over; elsewhere it is c times u^p, bit for bit, which overflows
    under the caller's np.errstate (a Python float from products reads inf).
    """
    if products and p in _PRODUCT_POWERS:
        bits = tuple(b == "1" for b in bin(int(p))[3:])

        def power(u):
            out = u * u
            if bits[0]:
                out *= u
            for times_u in bits[1:]:
                out *= out
                if times_u:
                    out *= u
            return out
    else:
        def power(u):
            return np.power(u, p)
    if c == 1.0:
        return power
    if c < 1.0:
        # u^p may overflow where c u^p does not; the halves decide
        bare = power

        def power(u):
            with np.errstate(over="ignore"):
                return bare(u)
    log_c = math.log(c)

    def halves(u, out):
        with np.errstate(divide="ignore"):
            log_term = log_c + p * np.log(u)
        half = np.power(u, 0.5 * p)
        return np.where(log_term > _LOG_TINY, c * half * half, out)

    def term(u):
        out = power(u)
        if not isinstance(out, np.ndarray):
            # a float or a numpy scalar, from a float or a 0-d array
            return c * out if _TINY <= out < math.inf else float(halves(u, c * out))
        lost = (out < _TINY) | (out == math.inf)
        out *= c
        if lost.any():
            out[lost] = halves(u[lost], out[lost])
        return out

    return term


def _sum(f1: Callable, f2: Callable) -> Callable:
    """u -> f1(u) + f2(u), in f1's result."""
    def f(u):
        out = f1(u)
        out += f2(u)
        return out

    return f


@dataclass(frozen=True)
class Nonlinearity:
    """A source term u -> F(u) on [0, inf) with one-sided derivative.

    Use the factory classmethods; ``custom`` accepts arbitrary callables and
    runs the convexity / tail audits that the named families satisfy by
    construction.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    dfn: Callable[[np.ndarray], np.ndarray]
    label: str
    kind: str = "custom"
    # the family's parameters: c and p of the power law, c of the
    # exponential, c1 and p1 then c2 and p2 of the power sum
    coeff: float = math.nan
    power: float = math.nan
    coeff2: float = math.nan   # power-sum kind only
    power2: float = math.nan   # power-sum kind only

    # -- factories ---------------------------------------------------------

    @classmethod
    def power_law(cls, c: float = 1.0, p: float = 2.0) -> "Nonlinearity":
        _check_range("c", c)
        _check_power(p)

        return cls(_power_term(c, p), _power_term(c * p, p - 1.0, products=False),
                   f"{c:g}*u^{p:g}", kind="power", coeff=c, power=p)

    @classmethod
    def power_sum(cls, c1: float = 1.0, p1: float = 2.0,
                  c2: float = 1.0, p2: float = 3.0) -> "Nonlinearity":
        _check_range("c1", c1)
        _check_range("c2", c2)
        _check_power(p1, "p1")
        _check_power(p2, "p2")

        f = _sum(_power_term(c1, p1), _power_term(c2, p2))
        df = _sum(_power_term(c1 * p1, p1 - 1.0, products=False),
                  _power_term(c2 * p2, p2 - 1.0, products=False))
        return cls(f, df, f"{c1:g}*u^{p1:g}+{c2:g}*u^{p2:g}", kind="power-sum",
                   coeff=c1, power=p1, coeff2=c2, power2=p2)

    @classmethod
    def exponential(cls, c: float = 1.0) -> "Nonlinearity":
        _check_range("c", c)

        def f(u):
            return c * np.expm1(u)

        def df(u):
            return c * np.exp(u)

        return cls(f, df, f"{c:g}*(e^u-1)", kind="exponential", coeff=c)

    @classmethod
    def zero(cls) -> "Nonlinearity":
        """Source-free evolution; useful for pure-transport checks. Fails
        the detonation audits by construction, so it cannot feed the
        blow-up criterion."""

        def f(u):
            return np.zeros_like(np.asarray(u, dtype=float))

        return cls(f, f, "0", kind="zero")

    @classmethod
    def custom(cls, fn: Callable, dfn: Callable, label: str = "custom") -> "Nonlinearity":
        """F and F' from callables written for arrays; they are wrapped to
        take Python floats too, as a 0-d array, like the named families."""
        obj = cls(lambda u: fn(np.asarray(u)), lambda u: dfn(np.asarray(u)),
                  label, kind="custom")
        obj._audit()
        return obj

    # -- evaluation --------------------------------------------------------

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if np.any(u < 0):
            raise DomainError("source terms are defined on u >= 0")
        out = self.fn(u)
        return float(out) if np.ndim(out) == 0 else out

    # -- audits (constructor-time for custom callables) ---------------------

    def _audit(self) -> None:
        if abs(float(self.fn(np.asarray(0.0)))) > 1e-12:
            raise DomainError("F(0) must vanish")
        # sampled second differences; scale guard keeps the floor meaningful
        us = np.geomspace(1e-3, 1e3, 61)
        du = us * 1e-3
        with np.errstate(over="ignore", invalid="ignore"):
            sec = self.fn(us + du) - 2.0 * self.fn(us) + self.fn(np.maximum(us - du, 0.0))
            scale = np.maximum(1.0, np.abs(self.fn(us + du)))
            bad = sec / scale < _CONVEXITY_FLOOR
        if np.any(bad):
            raise DomainError(f"{self.label}: sampled second differences are negative")
        self.check_osgood()

    def check_osgood(self) -> None:
        """DomainError for a tail exponent <= 1, where int^inf du/F diverges;
        power, power-sum and exponential sources converge by construction."""
        if self.kind in ("power", "power-sum", "exponential"):
            return
        f = self.fn
        for lo, hi in zip(_TAIL_PROBES[:-1], _TAIL_PROBES[1:]):
            with np.errstate(over="ignore"):
                flo, fhi = float(f(np.asarray(lo))), float(f(np.asarray(hi)))
            if not (flo > 0 and fhi > 0):
                raise DomainError(f"{self.label}: tail is not positive")
            if math.isinf(flo) or math.isinf(fhi):
                continue  # faster than any power, tail integral converges
            slope = (math.log(fhi) - math.log(flo)) / (math.log(hi) - math.log(lo))
            if slope <= 1.005:
                raise DomainError(
                    f"{self.label}: tail exponent {slope:.3f} <= 1, "
                    "the blowup-time integral diverges")


def _power_over(w: float, e: float, d: float) -> float:
    """w^e/d. Where w^e leaves the normal doubles it is formed from two
    halves, so that a quotient within them is a double with its digits; the
    half raises OverflowError, or it reads inf, where it leaves them."""
    try:
        power = w ** e
    except OverflowError:
        power = math.inf
    if _TINY <= power < math.inf:
        return power / d
    half = w ** (0.5 * e)
    return half / d * half


def _power_law_h_inverse(c: float, p: float, T: float) -> float:
    """(c(p-1)T)^(-1/(p-1)); the power raises where it overflows, or where
    its base underflowed to 0."""
    try:
        return (c * (p - 1.0) * T) ** (-1.0 / (p - 1.0))
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"h_inverse({T:g}) exceeds the largest double") from None


def _exponential_h(c: float, w: float) -> float:
    """-log(1 - e^-w)/c, through log1p where e^-w < 1/2 and expm1 below.
    Where e^-w is subnormal, h = e^-w/c is formed from two normal halves,
    as in ``_power_over``."""
    if w <= _LN2:
        return -math.log(-math.expm1(-w)) / c
    x = math.exp(-w)
    if x < _TINY:
        return math.exp(-0.5 * w) / c * math.exp(-0.5 * w)
    return -math.log1p(-x) / c


def _exponential_h_inverse(c: float, T: float) -> float:
    """-log(1 - e^(-cT)), the same two ways; below eps, -log(cT) + cT/2
    reads -log c - log T, whether or not cT underflows."""
    y = c * T
    if y > _LN2:
        return -math.log1p(-math.exp(-y))
    if y > _EPS:
        return -math.log(-math.expm1(-y))
    return -(math.log(c) + math.log(T))


class _PowerSumH:
    """w -> h(w) of c1 u^p1 + c2 u^p2, p1 < p2, s = p2 - p1, by two series
    that meet at the crossover u_h, where z = (c1/c2) u_h^-s = 2; u_h, like
    c1/c2, may leave the doubles, so it is held as log2 u_h.

    Above u_h, h is w^(1-p2)/(c2(p2-1)) times 2F1(1, b; b+1; -z), b =
    (p2-1)/s, in Pfaff's form (1+z)^-1 sum_k k!/(b+1)_k x^k, x = z/(1+z)
    <= 2/3 (DLMF 15.8.1). Below, h(w) = h(u_h) + (1/c1) sum_k (-c2/c1)^k
    (u_h^e - w^e)/e, e = k s - p1 + 1, each difference formed from the end
    that does not overflow (L = log u_h - log w at e = 0); the k-th term
    carries 2^-k U, U = u_h^(1-p1)/c1 = u_h^(1-p2)/(2c2). Term ratios are at
    most 2/3 above and 1/2 below. Past the doubles a power raises
    OverflowError or the sum leaves them; a series not converged in
    _SERIES_TERMS terms raises ResolutionError."""

    def __init__(self, c1: float, p1: float, c2: float, p2: float):
        if p1 > p2:
            c1, p1, c2, p2 = c2, p2, c1, p1
        self.c1, self.p1, self.c2, self.p2 = c1, p1, c2, p2
        self.s = p2 - p1
        self.b = (p2 - 1.0) / self.s
        self.log2_u_h = (math.log2(c1) - math.log2(c2) - 1.0) / self.s

    def __call__(self, w: float) -> float:
        L = self.log2_u_h * _LN2 - math.log(w)
        if L > 0.0:
            return self._below(w, L)
        return self._above(w, self.c1 * _power_over(w, -self.s, self.c2),
                           _power_over(w, 1.0 - self.p2, self.c2 * (self.p2 - 1.0)))

    def log_level_bound(self, T: float) -> float:
        """log of the smaller of the two terms' levels at T, which bounds
        h^{-1}(T) above, since h lies below each term's h."""
        log_T = math.log(T)
        return min(-(math.log(c) + math.log(p - 1.0) + log_T) / (p - 1.0)
                   for c, p in ((self.c1, self.p1), (self.c2, self.p2)))

    def fh_over_w(self, x: float, hw: float) -> float:
        """F(w) h(w)/w at w = e^x, from 1/(p2-1) to 1/(p1-1), summed in logs."""
        return sum(math.exp(math.log(c) + math.log(hw) + (p - 1.0) * x)
                   for c, p in ((self.c1, self.p1), (self.c2, self.p2)))

    def _above(self, w, z: float, scale: float) -> float:
        x = z / (1.0 + z)
        total = term = 1.0
        for k in range(1, _SERIES_TERMS):
            term *= k / (self.b + k) * x
            total += term
            if term <= 0.25 * _EPS * total:
                return scale / (1.0 + z) * total
        raise self._unresolved(w)

    @functools.cached_property
    def _anchor(self) -> tuple:
        U = _power_over(2.0, (1.0 - self.p1) * self.log2_u_h, self.c1)
        return self._above("u_h", 2.0, 2.0 * U / (self.p2 - 1.0)), U

    def _below(self, w: float, L: float) -> float:
        c1, c2, p1, s = self.c1, self.c2, self.p1, self.s
        h_u_h, U = self._anchor
        # the k-th term is qk U or rk W, times its difference over e
        W, r = _power_over(w, 1.0 - p1, c1), c2 * _power_over(w, s, c1)
        total, sign, qk, rk = 0.0, 1.0, 1.0, 1.0
        for k in range(_SERIES_TERMS):
            e = k * s - p1 + 1.0
            if e > 0.0:
                term = qk * U * -math.expm1(-e * L) / e
            elif e < 0.0:
                term = rk * W * math.expm1(e * L) / e
            else:
                term = qk * U * L
            total += sign * term
            if term <= 0.5 * _EPS * (h_u_h + total):
                return h_u_h + total
            sign, qk, rk = -sign, 0.5 * qk, rk * r
        raise self._unresolved(w)

    def _unresolved(self, w) -> ResolutionError:
        return ResolutionError(f"h({w}) of {self.c1:g}*u^{self.p1:g}+{self.c2:g}*u^{self.p2:g}: "
                               f"its series did not converge in {_SERIES_TERMS} terms")


class OsgoodTransform:
    """h(w) = int_w^inf du / F(u) and its inverse.

    Three families have exact routes, with error at the level of rounding:
    - the power law: h(w) = w^(1-p)/(c(p-1)) and
      h^{-1}(T) = (c(p-1)T)^(-1/(p-1)); a power sum with equal powers is
      the power law with c1 + c2;
    - the exponential c(e^u - 1): h(w) = -log(1 - e^-w)/c and
      h^{-1}(T) = -log(1 - e^(-cT)), each through log1p or expm1 on the
      side where it keeps its digits;
    - the power sum: the series of ``_PowerSumH``, inverted by Newton's
      method in log w.
    Only ``custom`` sources integrate in v = log u, where
    int_w^inf du/F(u) = int_(log w)^inf u/F(u) dv, split at u = 1 (the piece
    above is computed once), and invert by the same Newton's method.
    """

    def __init__(self, source: Nonlinearity):
        source.check_osgood()
        self.source = source
        kind, c, p = source.kind, source.coeff, source.power
        if kind == "power-sum" and source.power2 == p:
            kind, c = "power", c + source.coeff2
        # the exact h, and the exact inverse where it has one; None for custom
        self._h_exact = self._h_inverse_exact = None
        if kind == "power":
            d = c * (p - 1.0)
            self._h_exact = lambda w: _power_over(w, 1.0 - p, d)
            self._h_inverse_exact = functools.partial(_power_law_h_inverse, c, p)
        elif kind == "exponential":
            self._h_exact = functools.partial(_exponential_h, c)
            self._h_inverse_exact = functools.partial(_exponential_h_inverse, c)
        elif kind == "power-sum":
            self._h_exact = _PowerSumH(c, p, source.coeff2, source.power2)

    def _F(self, u: float) -> float:
        with np.errstate(over="ignore"):
            return float(self.source.fn(u))

    @functools.cached_property
    def _cut(self) -> tuple:
        """(v_c, lost): the largest v = log u where F(u) is a double, by
        bisection, and a bound on int_(v_c)^inf u/F(u) dv, the part of every
        h that the quadrature reads as 0. The integrand falls like
        e^((1-k) v), k the log-log slope of F, so the bound is
        u/F(u) / (k - 1) at v_c while k does not fall past it."""
        lo, hi = _LOG_TINY, _LOG_HUGE
        if math.isfinite(self._F(math.exp(hi))):
            lo = hi
        while hi - lo > 4.0 * _EPS * max(1.0, abs(hi)):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if math.isfinite(self._F(math.exp(mid))) else (lo, mid)
        u = math.exp(lo)
        f = self._F(u)
        # the secant over [u e^-1e-4, u], where F' may already overflow
        k = (math.log(f) - math.log(self._F(u * math.exp(-1e-4)))) / 1e-4
        return lo, (u / f / (k - 1.0) if k > 1.0 else math.inf)

    def _cut_error(self, value: float, lost: float) -> ResolutionError:
        return ResolutionError(
            f"{self.source.label}: h is cut at u = e^{self._cut[0]:.6g}, where F "
            f"leaves the doubles; the part past the cut, up to {lost:.3g}, "
            f"exceeds {_H_QUAD_TOL:g} of the {value:.6g} before it")

    def _log_integral(self, a: float, b: float) -> float:
        """int_a^b u/F(u) dv with u = e^v; QUADPACK's diagnostics and its
        error estimate are checked against _H_QUAD_TOL."""
        label = self.source.label
        fn = self.source.fn

        def integrand(v: float) -> float:
            if v > _LOG_HUGE:
                return 0.0
            u = math.exp(v)
            fu = float(fn(u))
            if math.isinf(fu):
                return 0.0
            if not fu > 0.0:
                raise DomainError(f"{label}: F({u:.3g}) underflows; h is out "
                                  "of double range there")
            return u / fu

        # F overflows to inf past the cut, where the integrand reads 0; the
        # callers weigh the cut's bound against the value
        with np.errstate(over="ignore"):
            return _quad_result(quad(integrand, a, b, epsabs=0.0, epsrel=_H_QUAD_TOL,
                                     limit=200, full_output=1),
                                f"{label}: h on [{a:.6g}, {b:.6g}]", _H_QUAD_TOL)[0]

    @functools.cached_property
    def _h_above_one(self) -> float:
        return self._log_integral(0.0, math.inf)

    def h(self, w: float) -> float:
        """h(w), never truncated at the cut: a ResolutionError names the cut
        where the part of h past it may exceed _H_QUAD_TOL of h, and a
        DomainError names w where h(w) is below the normal doubles."""
        w = float(w)
        _check_range("w", w)
        return self._checked(w, *self._h(w))

    def h_difference(self, w0: float, w1: float) -> float:
        """h(w0) - h(w1), where h(w1) reads 0 wherever it, with the bound on
        its part past a quadrature's cut, is below eps h(w0): there it cannot
        move the difference, even where h raises past the normal doubles."""
        first = self.h(w0)
        w1 = float(w1)
        _check_range("w", w1)
        value, lost = self._h(w1)
        if value + lost < _EPS * first:
            return first
        return first - self._checked(w1, value, lost)

    def _checked(self, w: float, value: float, lost: float) -> float:
        if lost > _H_QUAD_TOL * value and value + lost >= _TINY:
            raise self._cut_error(value, lost)
        if value < _TINY:
            raise DomainError(f"w = {w!r} is too large: h(w) = {value:.6g} lies "
                              f"below the smallest normal double {_TINY:g}")
        if math.isinf(value):
            raise DomainError(f"w = {w!r} is too small: h(w) leaves the doubles")
        return value

    def _h(self, w: float) -> tuple:
        """(h(w) unbounded below, the bound on its part past the cut): h(w)
        lies between the value and their sum. The exact routes bound
        nothing, and read inf where h(w) exceeds the doubles."""
        if self._h_exact is None:
            v = math.log(w)
            if v > 0.0:
                return self._log_integral(v, math.inf), self._cut[1]
            below = self._log_integral(v, 0.0) if v < 0.0 else 0.0
            return below + self._h_above_one, self._cut[1]
        try:
            return self._h_exact(w), 0.0
        except OverflowError:
            return math.inf, 0.0

    def h_inverse(self, T: float) -> float:
        T = float(T)
        _check_range("T", T)
        if self._h_inverse_exact is not None:
            w = self._h_inverse_exact(T)
            if w < _TINY:
                raise DomainError(f"h_inverse({T:g}) lies below the smallest normal double")
            return w
        # Newton's method on G(x) = log h(e^x) - log T, which decreases in
        # x = log w with G'(x) = -w / (F(w) h(w)), formed in logs for a power
        # sum where F(w), or the power w^p2 it sums, leaves the normal doubles.
        # A step below the resolution of x has converged. Iterates outside the
        # bracket [lo, hi] the evaluations have established take the midpoint
        # of its finite ends. A power sum starts from its bound on the level,
        # a custom source from w = 1.
        log_T = math.log(T)
        lo, hi = -math.inf, math.inf
        series = self._h_exact if isinstance(self._h_exact, _PowerSumH) else None
        x = min(max(series.log_level_bound(T), _LOG_TINY), _LOG_HUGE) if series else 0.0
        for _ in range(_NEWTON_ITERATIONS):
            w = math.exp(x)
            hw, lost = self._h(w)
            # where the cut leaves h(w) unresolved, hw + lost < T still says
            # that w is too large, and the step below heads the right way
            if lost >= _H_QUAD_TOL * hw and hw + lost >= T:
                raise self._cut_error(hw, lost)
            if 0.0 < hw < math.inf:
                g = math.log(hw) - log_T
                if abs(g) <= 4.0 * _EPS:
                    return w
                step = g * self._F(w) * hw / w
                if series and (abs(series.p2 * x) > -_LOG_TINY
                               or not 0.0 < abs(step) < math.inf):
                    step = g * series.fh_over_w(x, hw)
            else:
                g = step = math.inf if hw else -math.inf
            if g > 0.0:
                lo = x
                if x >= _LOG_HUGE:
                    raise DomainError(f"h_inverse({T:g}) exceeds the largest double")
            else:
                hi = x
                if x <= _LOG_TINY:
                    raise DomainError(
                        f"h_inverse({T:g}) lies below the smallest normal "
                        f"double {_TINY:g}: h({_TINY:g}) = {hw:.6g}")
            tol = 4.0 * _EPS * max(1.0, abs(x))
            if 0.0 < abs(step) <= tol:
                return math.exp(x + step)
            x_new = min(max(x + step, _LOG_TINY), _LOG_HUGE)
            if not lo < x_new < hi:
                x_new = 0.5 * (max(lo, _LOG_TINY) + min(hi, _LOG_HUGE))
            if abs(x_new - x) <= tol:
                return math.exp(x_new)
            x = x_new
        raise ResolutionError(f"h_inverse({T:g}) did not converge")


def fujita_exponent(alpha: float, d: int) -> float:
    """Critical exponent 1 + alpha/d separating the mass-driven blowup range."""
    _check_order(alpha)
    return 1.0 + alpha / _check_dimension(d)
