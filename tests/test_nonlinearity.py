"""Source terms, their blowup-time transform, and critical exponents."""

import math
import re
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scipy.integrate import quad

from blowlab import cli, nonlinearity
from blowlab.blowup import default_horizon_grid
from blowlab.errors import DomainError, ResolutionError
from blowlab.nonlinearity import Nonlinearity, OsgoodTransform, fujita_exponent


def test_power_law_values_and_derivative():
    F = Nonlinearity.power_law(0.7, 2.6)
    u = np.array([0.0, 1.0, 3.0])
    assert_allclose(F(u), 0.7 * u ** 2.6, rtol=1e-14)
    assert_allclose(F.dfn(u), 0.7 * 2.6 * u ** 1.6, rtol=1e-14)


def test_sources_reject_negative_states():
    F = Nonlinearity.power_law(1.0, 2.0)
    with pytest.raises(DomainError):
        F(np.array([1.0, -0.1]))


def test_power_transform_closed_forms():
    c, p = 0.7, 2.6
    h = OsgoodTransform(Nonlinearity.power_law(c, p))
    w = 1.7
    assert_allclose(h.h(w), w ** (1.0 - p) / (c * (p - 1.0)), rtol=1e-13)
    T = 0.31
    assert_allclose(h.h_inverse(T), (c * (p - 1.0) * T) ** (-1.0 / (p - 1.0)),
                    rtol=1e-13)


@pytest.mark.parametrize("make", [
    lambda: Nonlinearity.power_law(0.7, 2.6),
    lambda: Nonlinearity.custom(lambda u: u ** 2 * (1.0 + u),
                                lambda u: 2.0 * u + 3.0 * u ** 2),
    lambda: Nonlinearity.power_sum(0.5, 2.0, 0.25, 3.0),
])
def test_transform_round_trip(make):
    h = OsgoodTransform(make())
    for T in np.geomspace(1e-3, 1e3, 13):
        assert abs(h.h(h.h_inverse(T)) / T - 1.0) < 1e-9


def test_exponential_transform_closed_form():
    """For F = c (e^u - 1) the time-to-detonation from level w integrates
    in closed form to -ln(1 - e^(-w)) / c."""
    c = 1.3
    h = OsgoodTransform(Nonlinearity.exponential(c))
    for w in (0.2, 1.0, 4.0):
        assert_allclose(h.h(w), -math.log(1.0 - math.exp(-w)) / c, rtol=1e-10)


# closed forms of h(w) = int_w^inf du/F(u)
def h_exponential(w):
    return -math.log(-math.expm1(-w))


def h_power_sum_2_3(w):
    # 1/(u^2 (1 + u)) = 1/u^2 - 1/u + 1/(1 + u)
    return 1.0 / w - math.log1p(1.0 / w)


@pytest.mark.parametrize("make, h_closed", [
    (lambda: Nonlinearity.exponential(1.0), h_exponential),
    (lambda: Nonlinearity.power_sum(1.0, 2.0, 1.0, 3.0), h_power_sum_2_3),
])
def test_transform_round_trip_against_closed_form(make, h_closed):
    """h_inverse solves for log w, so levels far below one keep their
    relative accuracy: at T = 100 the exponential level is 3.7e-44."""
    tr = OsgoodTransform(make())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for T in (1e-3, 0.1, 1.0, 10.0, 14.0, 20.0, 100.0, 150.0, 300.0, 500.0):
            w = tr.h_inverse(T)
            tol = 2e-15 if T >= 10.0 else 1e-12
            assert abs(h_closed(w) / T - 1.0) < tol, (T, w)
            assert abs(tr.h(w) / h_closed(w) - 1.0) < 1e-12


def test_exponential_level_below_the_doubles_is_a_domain_error():
    # h(w) = -log(1 - e^-w) ~ -log w, so h_inverse(1000) = e^-1000
    with pytest.raises(DomainError, match="smallest normal double"):
        OsgoodTransform(Nonlinearity.exponential(1.0)).h_inverse(1000.0)


def test_power_transform_outside_the_double_range_is_a_domain_error():
    """h(1e-300) = 1e600 / 2 for u^3: w ** (1 - p) raised a bare
    OverflowError; it raises naming w, without a warning. With c = 1e-10
    the power is finite and the division overflows: the same error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c, w in ((1.0, 1e-300), (1e-10, 1e-150)):
            h = OsgoodTransform(Nonlinearity.power_law(c, 3.0))
            with pytest.raises(DomainError, match=rf"^w = {w!r} is too small"):
                h.h(w)
        assert OsgoodTransform(Nonlinearity.power_law(1.0, 3.0)).h(1e-150) == 5e299


@pytest.mark.parametrize("make, w", [
    (lambda: Nonlinearity.power_law(1.0, 3.0), 1e160),
    (lambda: Nonlinearity.power_law(1.0, 3.0), 1e300),
    (lambda: Nonlinearity.exponential(1.0), 800.0),
    (lambda: Nonlinearity.power_sum(1e100, 2.0, 1e-300, 3.0), 1e300),
], ids=["power-1e160", "power-1e300", "exponential-800", "power-sum-1e300"])
def test_h_below_the_normal_doubles_is_a_domain_error(make, w):
    """h(1e160) of u^3 read 5e-321 and h(1e300) read 0, and h(800) of
    e^u - 1 flushed to 0 on the quadrature route: each raises naming w, as
    h_inverse does for a level below the normal doubles. So does h(1e300)
    of 1e100 u^2 + 1e-300 u^3, about 1e-400, whose lower series sums to 0;
    that is not a series that failed to converge."""
    tr = OsgoodTransform(make())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=rf"^w = {re.escape(repr(w))} is "
                           r"too large: .* below the smallest normal double"):
            tr.h(w)


@pytest.mark.parametrize("make", [
    lambda: Nonlinearity.power_law(1.0, 1.004),
    lambda: Nonlinearity.power_sum(1.0, 1.002, 1.0, 1.003),
], ids=["power-1.004", "power-sum-1.002-1.003"])
def test_power_sources_near_p_1_pass_the_osgood_condition(make):
    """Every p > 1 makes int^inf du/F finite, which the tail probe, fitting
    slopes between u = 1e4 and 1e8, refused at or below 1.005."""
    F = make()
    F.check_osgood()
    assert OsgoodTransform(F).source is F


def h_power_sum_mp(mp, w, c1, p1, c2, p2):
    """h(w) of c1 u^p1 + c2 u^p2 in closed form, as an mpf: with p1 < p2,
    w^(1-p2)/(c2(p2-1)) 2F1(1, b; 1+b; -(c1/c2) w^(-s)), s = p2 - p1,
    b = (p2-1)/s; equal powers are the power law with c1 + c2."""
    w, c1, p1, c2, p2 = (mp.mpf(v) for v in (w, c1, p1, c2, p2))
    if p1 > p2:
        c1, p1, c2, p2 = c2, p2, c1, p1
    if p1 == p2:
        return w ** (1 - p1) / ((c1 + c2) * (p1 - 1))
    s = p2 - p1
    b = (p2 - 1) / s
    return w ** (1 - p2) / (c2 * (p2 - 1)) * mp.hyp2f1(1, b, 1 + b, -(c1 / c2) * w ** (-s))


def h_power_sum_reference(p1, p2, w, c1=1.0, c2=1.0):
    """h(w) of c1 u^p1 + c2 u^p2 by mpmath at 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        return float(h_power_sum_mp(mp, w, c1, p1, c2, p2))


def level_power_sum_reference(p1, p2, T, w0):
    """h^{-1}(T) of u^p1 + u^p2 by mpmath's root finder in log w, from w0."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        root = mp.findroot(lambda x: h_power_sum_mp(mp, mp.exp(x), 1, p1, 1, p2) - T,
                           mp.log(w0))
        return float(mp.exp(root))


def custom_power_sum(p1, p2):
    """u^p1 + u^p2 from callables, so that h takes the quadrature route."""
    return Nonlinearity.custom(lambda u: u ** p1 + u ** p2,
                               lambda u: p1 * u ** (p1 - 1.0) + p2 * u ** (p2 - 1.0))


def custom_exponential():
    """e^u - 1 from callables, so that h takes the quadrature route."""
    return Nonlinearity.custom(np.expm1, np.exp)


@pytest.mark.parametrize("make, w", [
    (lambda: custom_power_sum(1.005, 1.006), 1e100),
    (lambda: custom_power_sum(1.005, 1.006), 1e300),
    (lambda: custom_power_sum(1.1, 1.2), 1e300),
    (custom_exponential, 705.0),
], ids=["power-sum-1.005-1e100", "power-sum-1.005-1e300", "power-sum-1.1-1e300",
        "exponential-705"])
def test_h_cut_where_F_leaves_the_doubles_raises(make, w):
    """The quadrature reads u/F(u) as 0 past the u where F overflows, and
    returned what was left: h(1e100) of u^1.005 + u^1.006 read 23.294
    (true 25.000) and h(1e300) read 0.146 (true 1.851); for u^1.1 + u^1.2,
    h(1e300) = 5.0e-60 raised a DomainError as below the doubles; h(705)
    of e^u - 1 read 0.84 % low. Each raises naming the cut. The named
    families take exact routes, so these sources are written as custom
    ones."""
    tr = OsgoodTransform(make())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResolutionError, match=r"h is cut at u = e\^[0-9.]+, "
                           r"where F leaves the doubles; the part past the cut"):
            tr.h(w)


@pytest.mark.parametrize("p1", [1.002, 1.005, 1.02, 1.03])
def test_h_inverse_cut_where_F_leaves_the_doubles_raises(p1):
    """h_inverse(20) of u^1.005 + u^1.006 read 8.98e110 (true 1.959e117)
    and of u^1.02 + u^1.021 was 3.6e-5 off, while the quadrature's cut
    stood in the way; then each raised naming the cut. The exact route
    serves every level that is a normal double: each matches mpmath's root.
    At p1 = 1.002, h at the largest double is still 29.1 by mpmath, so the
    level of 20 lies past the doubles."""
    tr = OsgoodTransform(Nonlinearity.power_sum(1.0, p1, 1.0, p1 + 0.001))
    if p1 == 1.002:
        assert h_power_sum_reference(p1, p1 + 0.001, sys.float_info.max) > 20.0
        with pytest.raises(DomainError, match=re.escape("h_inverse(20) exceeds "
                                                        "the largest double")):
            tr.h_inverse(20.0)
        return
    w = tr.h_inverse(20.0)
    assert_allclose(w, level_power_sum_reference(p1, p1 + 0.001, 20.0, w), rtol=1e-12)
    if p1 == 1.005:
        # the command line's u^1.005 + u^1.006; 1.005 + 0.001 is 1.0059999999999998
        assert_allclose(OsgoodTransform(Nonlinearity.power_sum(1.0, 1.005, 1.0, 1.006))
                        .h_inverse(20.0), 1.9593998259733862e117, rtol=1e-12)


@pytest.mark.parametrize("p1, p2, w", [(1.05, 1.051, 10.0), (1.1, 1.2, 10.0),
                                       (1.1, 1.2, 1e100), (1.5, 2.5, 1e100)])
def test_power_sum_h_matches_the_closed_form_where_the_cut_is_negligible(p1, p2, w):
    """Where the part past the cut is within the tolerance, h and its
    inverse match the hypergeometric closed form."""
    tr = OsgoodTransform(Nonlinearity.power_sum(1.0, p1, 1.0, p2))
    ref = h_power_sum_reference(p1, p2, w)
    assert_allclose(tr.h(w), ref, rtol=1e-11)
    assert_allclose(h_power_sum_reference(p1, p2, tr.h_inverse(ref)), ref, rtol=1e-11)


def test_exponential_h_inverse_steps_over_the_cut():
    """Near T = 1e-4 Newton's first step from w = 1 lands at w of 650 to
    710, where the cut spoils h; h there is far below T all the same, so
    the step counts as too large and the levels still round-trip. The
    named exponential inverts in closed form, so e^u - 1 is written as a
    custom source."""
    tr = OsgoodTransform(custom_exponential())
    for T in np.geomspace(2e-8, 1.2e-4, 61):
        # -log(1 - e^-w), accurate at large w
        assert abs(-math.log1p(-math.exp(-tr.h_inverse(T))) / T - 1.0) < 1e-12


# -- exact routes of the power sum and the exponential ------------------------

POWER_SUMS = [
    # integer (p1 - 1)/s: the series below u_h has a log term
    (1.0, 2.0, 1.0, 3.0), (1.0, 3.0, 1.0, 4.0), (1.0, 2.0, 1.0, 2.5),
    # p2 = p1 + 0.001 near p = 1, where u_h is near 1e-301
    (1.0, 1.002, 1.0, 1.003), (1.0, 1.005, 1.0, 1.006), (1.0, 1.01, 1.0, 1.011),
    (1.0, 1.02, 1.0, 1.021), (1.0, 1.03, 1.0, 1.031),
    # b = 2.0000000000000004 in doubles, and b = 1001
    (1.0, 1.1, 1.0, 1.2), (1.0, 2.0, 1.0, 2.001),
    # c1 != c2, p1 > p2, and equal powers
    (0.5, 2.0, 0.25, 3.0), (2.0, 3.0, 0.5, 2.0), (0.7, 2.5, 1.3, 2.5),
    # c1 well above 2 c2 near p = 1: u_h = 2^1000 = 1.07e301 and 1.25^1000,
    # so log(u_h/w) overflowed at small w
    (4.0, 1.005, 1.0, 1.006), (2.5, 1.005, 1.0, 1.006),
    # u_h past the largest double (10^324 and 2.5^1000), and u_h = 5e-601
    # below the doubles; c1/c2 = 1e400 leaves them, u_h = 1.6e133 does not
    (1.0, 2.0, 1e-10, 2.03), (5.0, 1.005, 1.0, 1.006), (1e-300, 2.0, 1e300, 3.0),
    (1e100, 2.0, 1e-300, 5.0),
]
POWER_SUM_IDS = ["-".join(f"{v:g}" for v in ps) for ps in POWER_SUMS]


@pytest.mark.parametrize("c1, p1, c2, p2", POWER_SUMS, ids=POWER_SUM_IDS)
def test_power_sum_h_matches_mpmath(c1, p1, c2, p2):
    """Both series and the crossover between them, from w = 1e-300 to
    1e300, against the 2F1 form at 40 digits; where that is below the
    normal doubles, or above them, h raises naming w."""
    tr = OsgoodTransform(Nonlinearity.power_sum(c1, p1, c2, p2))
    # the crossover and either side of it, where they are doubles
    log_u_h = getattr(tr._h_exact, "log2_u_h", 0.0) * math.log(2.0)
    splits = [math.exp(log_u_h + math.log(f)) for f in (0.5, 1.0, 2.0)
              if abs(log_u_h + math.log(f)) < 700.0]
    ws = np.concatenate([np.geomspace(1e-300, 1e-40, 14), np.geomspace(1e-30, 1e300, 23),
                         splits])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for w in ws:
            ref = h_power_sum_reference(p1, p2, w, c1, c2)
            if ref < sys.float_info.min:
                with pytest.raises(DomainError, match="below the smallest normal"):
                    tr.h(w)
            elif ref > sys.float_info.max:
                with pytest.raises(DomainError, match="too small: h.w. leaves the doubles"):
                    tr.h(w)
            else:
                assert_allclose(tr.h(w), ref, rtol=1e-13, err_msg=f"w = {w!r}")


@pytest.mark.parametrize("c", [1.0, 1.3])
def test_exponential_h_and_its_inverse_match_mpmath(c):
    """h(w) = -log(1 - e^-w)/c on both sides of ln 2, and the level
    -log(1 - e^(-cT)): the naive -log(-expm1(-100)) reads 0, where the
    level is 3.72e-44."""
    mp = pytest.importorskip("mpmath")
    tr = OsgoodTransform(Nonlinearity.exponential(c))

    def h_ref(w):
        with mp.workdps(40):
            w = mp.mpf(w)
            return float((-mp.log1p(-mp.exp(-w)) if w > 1 else -mp.log(-mp.expm1(-w))) / c)

    for w in np.concatenate([np.geomspace(1e-30, 700.0, 31), [math.log(2.0)]]):
        assert_allclose(tr.h(w), h_ref(w), rtol=1e-13, err_msg=f"w = {w!r}")
    for T in np.geomspace(1e-8, 500.0, 31):
        with mp.workdps(40):
            ref = float(-mp.log1p(-mp.exp(-c * mp.mpf(T))) if c * T > 1
                        else -mp.log(-mp.expm1(-c * mp.mpf(T))))
        assert_allclose(tr.h_inverse(T), ref, rtol=1e-13, err_msg=f"T = {T!r}")
    assert_allclose(OsgoodTransform(Nonlinearity.exponential(1.0)).h_inverse(100.0),
                    3.720075976020836e-44, rtol=1e-13)


@pytest.mark.parametrize("make, w, h_ref", [
    (lambda: Nonlinearity.exponential(1e-14), 740.0,
     lambda mp, w: mp.exp(-w) / mp.mpf(1e-14)),
    (lambda: Nonlinearity.power_law(1e-10, 3.0), 1e156,
     lambda mp, w: w ** -2 / (2 * mp.mpf(1e-10))),
    (lambda: Nonlinearity.power_law(1e-100, 3.0), 1e200,
     lambda mp, w: w ** -2 / (2 * mp.mpf(1e-100))),
    (lambda: Nonlinearity.power_sum(1.0, 2.0, 1e-100, 3.0), 1e200,
     lambda mp, w: h_power_sum_reference(2.0, 3.0, w, 1.0, 1e-100)),
], ids=["exponential", "power-1e156", "power-1e200", "power-sum-1e200"])
def test_h_of_a_small_coefficient_from_a_subnormal_power(make, w, h_ref):
    """h = e^-w/c or w^(1-p)/(c(p-1)) is a normal double, though e^-w or
    w^(1-p) is subnormal or 0: the plain quotient reads h(740) of
    1e-14 (e^u - 1) 0.26 % high and h(1e156) of 1e-10 u^3 1.5e-12 low, and
    h(1e200) of 1e-100 u^3 as 0, which raised DomainError. Each is formed
    from two normal halves."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        ref = float(h_ref(mp, mp.mpf(w)))
    assert_allclose(OsgoodTransform(make()).h(w), ref, rtol=1e-13)


@pytest.mark.parametrize("make", [
    *[(lambda ps=ps: Nonlinearity.power_sum(*ps)) for ps in POWER_SUMS],
    lambda: Nonlinearity.exponential(1.0),
    lambda: Nonlinearity.exponential(1.3),
], ids=[*POWER_SUM_IDS, "exponential-1", "exponential-1.3"])
def test_exact_levels_round_trip_over_the_default_horizons(make):
    """h(h^{-1}(T)) = T within 1e-13 at every horizon of the default grid,
    and up to T = 4000, whose level is a normal double; the others raise
    DomainError."""
    tr = OsgoodTransform(make())
    served = 0
    for T in np.concatenate([default_horizon_grid(), np.geomspace(20.0, 4000.0, 12)]):
        try:
            w = tr.h_inverse(T)
        except DomainError as exc:
            assert re.search("exceeds the largest|below the smallest normal", str(exc))
            continue
        assert abs(tr.h(w) / T - 1.0) < 1e-13, (T, w)
        served += 1
    assert served >= 10


@pytest.mark.parametrize("c1, p, c2", [(0.7, 2.5, 1.3), (1.0, 1.01, 2.0)])
def test_a_power_sum_with_equal_powers_is_the_power_law(c1, p, c2):
    both = OsgoodTransform(Nonlinearity.power_sum(c1, p, c2, p))
    one = OsgoodTransform(Nonlinearity.power_law(c1 + c2, p))
    for w in (1e-3, 1.0, 1e5):
        assert both.h(w) == one.h(w)
    for T in (1.0, 10.0, 1e3):
        assert both.h_inverse(T) == one.h_inverse(T)


def test_power_sum_whose_crossover_leaves_the_doubles_is_served_by_its_series():
    """u^2 + 1e-10 u^2.03 has its crossover at u_h = 10^324, and
    5 u^1.005 + u^1.006 at u_h = 2.5^1000, past the largest double; each is
    held in logs and anchors the lower series. The quadrature served the
    first, and refused the level of 20 of the second, where the part past
    its cut may reach 0.8."""
    tr = OsgoodTransform(Nonlinearity.power_sum(1.0, 2.0, 1e-10, 2.03))
    ref = h_power_sum_reference(2.0, 2.03, 1.0, 1.0, 1e-10)
    assert_allclose(tr.h(1.0), ref, rtol=1e-13)
    assert_allclose(h_power_sum_reference(2.0, 2.03, tr.h_inverse(1.0), 1.0, 1e-10), 1.0,
                    rtol=1e-13)
    # mpmath's root, with the parameters taken as doubles
    assert_allclose(OsgoodTransform(Nonlinearity.power_sum(5.0, 1.005, 1.0, 1.006))
                    .h_inverse(20.0), 2.5849404560576284e39, rtol=1e-12)


@pytest.mark.parametrize("c1, p1, c2, p2", [
    (1.0, 2.0, 1e50, 3.0), (1.0, 2.0, 1e100, 3.0), (1.0, 2.0, 1e200, 3.0),
    (1e-300, 2.0, 1e-300, 3.0), (1e-100, 2.0, 1e-100, 3.0), (1e100, 2.0, 1e100, 3.0),
    (1e240, 2.5, 1e-5, 1.005)])
def test_power_sum_levels_far_from_w_1_round_trip(c1, p1, c2, p2):
    """Newton's steps in x = log w fell below the resolution of x, failed
    the bracket and took its midpoint with an end still at +-inf: levels
    did not converge, or w = 0 reached log. For c = 1e-300, F(w) overflows
    near the level, so the step is not finite, and the end of the doubles
    it clamped to raised out of h_inverse. For 1e240 u^2.5 + 1e-5 u^1.005,
    w^2.5 underflows near the level, so F(w) drops its larger term and
    the steps, far shorter than Newton's, crawled. Each level round-trips
    through mpmath's 2F1."""
    tr = OsgoodTransform(Nonlinearity.power_sum(c1, p1, c2, p2))
    for T in default_horizon_grid():
        w = tr.h_inverse(T)
        assert abs(h_power_sum_reference(p1, p2, w, c1, c2) / T - 1.0) < 1e-12, (T, w)


def test_power_sum_series_cut_short_raises(monkeypatch):
    """A series that has not converged to a positive sum within its cap
    raises rather than summing on: 3 terms leave both of these short."""
    monkeypatch.setattr(nonlinearity, "_SERIES_TERMS", 3)
    tr = OsgoodTransform(Nonlinearity.power_sum(4.0, 1.005, 1.0, 1.006))
    for w in (1e-300, 1e302):
        with pytest.raises(ResolutionError, match="series did not converge"):
            tr.h(w)


def test_named_families_call_no_quadrature(monkeypatch):
    """Sweeps over the default horizons on the exact routes never reach
    QUADPACK; a custom source still does."""
    calls = []
    monkeypatch.setattr(nonlinearity, "quad", lambda *a, **k: calls.append(a) or quad(*a, **k))
    for F in (Nonlinearity.power_sum(1.0, 2.0, 1.0, 3.0), Nonlinearity.exponential(1.0),
              Nonlinearity.power_law(1.0, 3.0), Nonlinearity.power_sum(1.0, 2.0, 1e-10, 2.03),
              Nonlinearity.power_sum(5.0, 1.005, 1.0, 1.006),
              Nonlinearity.power_sum(1e100, 2.0, 1e-300, 5.0)):
        tr = OsgoodTransform(F)
        for T in default_horizon_grid()[:-1]:
            try:
                tr.h(tr.h_inverse(T))
            except DomainError as exc:
                # the levels of 5 u^1.005 + u^1.006 below T = 0.767 lie past the doubles
                assert F.coeff == 5.0 and "exceeds the largest double" in str(exc)
    assert calls == []
    OsgoodTransform(custom_exponential()).h(1.0)
    assert calls


@pytest.mark.parametrize("make", [lambda: Nonlinearity.exponential(1.0),
                                  lambda: Nonlinearity.power_sum(1.0, 2.0, 1.0, 3.0),
                                  custom_exponential],
                         ids=["exponential", "power-sum", "custom-exponential"])
def test_h_difference_is_the_difference_of_h_where_h_w1_counts(make):
    """Where h(w1) is not negligible beside h(w0), h_difference is the
    difference of the public h, bit for bit, in either order; where h(w1)
    is not a normal double and h(w0) is, it reads h(w0)."""
    tr = OsgoodTransform(make())
    for w0, w1 in ((1.0, 5.0), (5.0, 1.0), (0.01, 30.0)):
        assert tr.h_difference(w0, w1) == tr.h(w0) - tr.h(w1)
    assert tr.h_difference(1.0, 1e300 if "u^3" in tr.source.label else 800.0) == tr.h(1.0)


def test_transform_domain():
    h = OsgoodTransform(Nonlinearity.power_law(1.0, 2.0))
    with pytest.raises(DomainError):
        h.h(0.0)
    with pytest.raises(DomainError):
        h.h_inverse(-1.0)


def test_zero_source_evaluates_to_zero_and_fails_osgood():
    F = Nonlinearity.zero()
    assert np.all(F(np.array([0.0, 2.0, 5.0])) == 0.0)
    with pytest.raises(DomainError):
        F.check_osgood()


def test_linear_tail_is_rejected_at_construction():
    # int^inf du/u diverges, so a linear source can never detonate
    with pytest.raises(DomainError):
        Nonlinearity.custom(lambda u: u, lambda u: np.ones_like(u))


def test_concave_source_is_rejected():
    with pytest.raises(DomainError):
        Nonlinearity.custom(lambda u: np.sqrt(u), lambda u: 0.5 / np.sqrt(u))


def test_nonvanishing_source_is_rejected():
    with pytest.raises(DomainError):
        Nonlinearity.custom(lambda u: u ** 2 + 1.0, lambda u: 2.0 * u)


def test_power_sum_values():
    F = Nonlinearity.power_sum(0.5, 2.0, 0.25, 3.0)
    assert_allclose(F(2.0), 0.5 * 4.0 + 0.25 * 8.0, rtol=1e-14)


@pytest.mark.parametrize("c1, p1, c2, p2", [(0.5, 2.0, 0.25, 3.0), (0.7, 1.5, 1.3, 2.5),
                                            (2.0, 3.0, 0.5, 2.0)])
def test_power_sum_derivative(c1, p1, c2, p2):
    """F' = c1 p1 u^(p1-1) + c2 p2 u^(p2-1), on arrays and on floats: the
    solver's stability cap 0.5/F'(sup) reads it."""
    F = Nonlinearity.power_sum(c1, p1, c2, p2)
    u = np.array([0.0, 0.3, 1.0, 2.5, 1e3])
    want = c1 * p1 * u ** (p1 - 1.0) + c2 * p2 * u ** (p2 - 1.0)
    assert_allclose(F.dfn(u), want, rtol=1e-14)
    for ui, wi in zip(u, want):
        assert_allclose(F.dfn(float(ui)), wi, rtol=1e-14)


@pytest.mark.parametrize("terms", [((1e300, 3.0),), ((1e300, 2.5),),
                                   ((1e240, 2.5), (1e-5, 1.005))],
                         ids=["power-1e300-3", "power-1e300-2.5", "power-sum-1e240"])
def test_power_terms_whose_power_leaves_the_normal_doubles(terms):
    """c u^p where u^p falls below the normal doubles and c u^p does not
    is formed from two halves: power_law(1e300, 3)(1e-200) read 0 and
    power_sum(1e240, 2.5, 1e-5, 1.005)(1e-140) read 2.0e-146, not 1e-110.
    Against mpmath, on floats and on arrays; a term whose c u^p falls below
    the normal doubles too still reads below them."""
    mp = pytest.importorskip("mpmath")
    F = (Nonlinearity.power_law(*terms[0]) if len(terms) == 1
         else Nonlinearity.power_sum(*terms[0], *terms[1]))
    u = np.array([1e-200, 1e-140, 1e-120, 1e-250, 1e-100, 0.0, 2.0])
    with mp.workdps(30):
        want = [sum(c * mp.mpf(x) ** p for c, p in terms) for x in u]
    values = F(u)
    for x, value, ref in zip(u, values, want):
        assert F(float(x)) == value
        if ref >= sys.float_info.min:
            assert abs(value - ref) <= 1e-14 * ref, x
        else:
            assert value < sys.float_info.min, x


def test_power_terms_keep_the_bits_of_normal_products():
    F = Nonlinearity.power_law(1e300, 3.0)
    u = np.geomspace(1e-100, 1e2, 50)
    assert np.array_equal(F(u), u * u * u * 1e300)


@pytest.mark.parametrize("source, derivative, terms, u", [
    (lambda: Nonlinearity.power_law(1e300, 3.0), True, [(1e300, 3.0)],
     [1e-200, 1e-170, 1e-250, 1e-100, 2.0, 0.0]),
    (lambda: Nonlinearity.power_sum(1e300, 3.0, 1.0, 2.0), True,
     [(1e300, 3.0), (1.0, 2.0)], [1e-200, 1e-170, 1e-250, 2.0, 0.0]),
    (lambda: Nonlinearity.power_law(1e-300, 3.0), False, [(1e-300, 3.0)],
     [1e110, 1e150, 1e200, 2.0, 1e-50, 0.0]),
    (lambda: Nonlinearity.power_law(1e-300, 3.0), True, [(1e-300, 3.0)],
     [1e160, 1e200, 1e100, 2.0]),
    (lambda: Nonlinearity.power_sum(1e-300, 2.5, 1e-300, 3.0), False,
     [(1e-300, 2.5), (1e-300, 3.0)], [1e110, 1e150, 1e200, 2.0]),
], ids=["dfn-below", "power-sum-dfn-below", "fn-past", "dfn-past", "power-sum-fn-past"])
def test_power_terms_and_derivatives_whose_power_leaves_the_doubles(
        source, derivative, terms, u):
    """c u^p and its F' = c p u^(p-1) where the power leaves the normal
    doubles, below them or past them, while the term does not: each is formed
    from two halves. power_law(1e300, 3).dfn(1e-200) read 0.0,
    power_sum(1e300, 3, 1, 2).dfn(1e-200) 2e-200 and power_law(1e-300,
    3)(1e110) overflowed (true: 3e-100, 3e-100 and 1e30). Against mpmath,
    on floats and on arrays, with warnings as errors; a value whose true
    size lies below the normal doubles still reads below them."""
    mp = pytest.importorskip("mpmath")
    F = source()
    f = F.dfn if derivative else F.fn
    u = np.array(u)
    with mp.workdps(30):
        want = [sum(c * p * mp.mpf(x) ** (p - 1) if derivative else c * mp.mpf(x) ** p
                    for c, p in terms) for x in u]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = f(u.copy())
        scalars = [f(float(x)) for x in u]
    for x, value, scalar, ref in zip(u, values, scalars, want):
        assert scalar == value, x
        if ref >= sys.float_info.min:
            assert abs(value - ref) <= 1e-14 * ref, x
        else:
            assert value < sys.float_info.min, x


@pytest.mark.parametrize("c", [1e100, 1e300])
@pytest.mark.parametrize("family", ["power", "power-sum"])
@pytest.mark.parametrize("derivative", [False, True], ids=["fn", "dfn"])
def test_power_terms_whose_power_is_subnormal_keep_their_digits(c, family, derivative):
    """Where u^p is subnormal and c u^p normal, the term comes from two
    halves, not from c times the subnormal and its lost digits:
    power_law(1e300, 3).dfn(1e-160) read 2.999966601548049e-20. Against
    mpmath within 2 eps relative, on floats and on arrays."""
    mp = pytest.importorskip("mpmath")
    terms = [(c, 3.0)] if family == "power" else [(c, 3.0), (1.0, 4.0)]
    F = (Nonlinearity.power_law(c, 3.0) if family == "power"
         else Nonlinearity.power_sum(c, 3.0, 1.0, 4.0))
    f = F.dfn if derivative else F.fn
    # log u where the first term's power u^e is subnormal and k u^e normal
    e, k = (2.0, 3.0 * c) if derivative else (3.0, c)
    log_tiny = math.log(sys.float_info.min)
    u = np.exp(np.linspace((log_tiny - math.log(k)) / e, log_tiny / e, 41)[1:-1])
    if derivative and c == 1e300:
        u = np.append(u, 1e-160)
    values = f(u.copy())
    with mp.workdps(30):
        for x, value in zip(u, values):
            ref = sum(cc * pp * mp.mpf(x) ** (pp - 1) if derivative else cc * mp.mpf(x) ** pp
                      for cc, pp in terms)
            assert abs(value - ref) <= 2 * sys.float_info.epsilon * ref, x
            assert f(float(x)) == value, x


def test_power_terms_that_overflow_still_overflow():
    """Where c u^p itself leaves the doubles, the term overflows: under the
    solver's np.errstate(over="raise") it raises, on arrays and on floats,
    and so does its derivative."""
    F = Nonlinearity.power_law(1e-300, 3.0)
    for f, u in ((F.fn, 1e205), (F.dfn, 1e305)):
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                f(np.array([2.0, u]))
            with pytest.raises(FloatingPointError):
                f(u)


def test_derivatives_keep_the_bits_of_normal_products():
    """F' of every named power family is c p np.power(u, p - 1) bit for bit
    wherever that product is a normal double."""
    u = np.geomspace(1e-100, 1e2, 50)
    F = Nonlinearity.power_law(1e300, 3.0)
    assert np.array_equal(F.dfn(u), 1e300 * 3.0 * np.power(u, 2.0))
    G = Nonlinearity.power_sum(0.5, 2.5, 2.0, 4.0)
    assert np.array_equal(G.dfn(u), 0.5 * 2.5 * np.power(u, 1.5) + 2.0 * 4.0 * np.power(u, 3.0))
    for x in (0.3, 1.7, 25.0):
        assert G.dfn(x) == 0.5 * 2.5 * np.power(x, 1.5) + 2.0 * 4.0 * np.power(x, 3.0)


def test_family_registry_names():
    """The parser's --family choices, each building the source of that kind."""
    parser = cli.build_parser()
    for command in ("criterion", "simulate"):
        sub = parser._subparsers._group_actions[0].choices[command]
        family = next(a for a in sub._actions if a.dest == "family")
        assert family.choices == ["exponential", "power", "power-sum", "zero"]
        for name in family.choices:
            args = parser.parse_args([command, "--family", name])
            assert cli._build_nonlinearity(args).kind == name


def test_fujita_exponent_values():
    assert fujita_exponent(2.0, 1) == 3.0
    assert_allclose(fujita_exponent(1.0, 3), 4.0 / 3.0, rtol=1e-15)
    with pytest.raises(DomainError):
        fujita_exponent(2.5, 1)
    with pytest.raises(DomainError):
        fujita_exponent(1.0, 0)


@pytest.mark.parametrize("p, T, message", [
    # returned 6.2e-311, a subnormal
    (1.02, 8e7, "lies below the smallest normal double"),
    # returned 0.0
    (1.01, 1e300, "lies below the smallest normal double"),
    # raised a bare OverflowError
    (1.01, 1e-300, "exceeds the largest double"),
], ids=["subnormal", "zero", "overflow"])
def test_power_h_inverse_stays_in_the_normal_doubles(p, T, message):
    """The closed form (c (p-1) T)^(-1/(p-1)) obeys the range rule of the
    quadrature route: a level outside the normal doubles is a DomainError
    with that route's message, and no warning."""
    tr = OsgoodTransform(Nonlinearity.power_law(1.0, p))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^" + re.escape(f"h_inverse({T:g}) {message}")):
            tr.h_inverse(T)


# -- evaluation routes of the power families ---------------------------------

def power_test_points(c, p):
    """Points whose c u^p spans the subnormals up to 1e300, plus [0, 10]."""
    lo, hi = 10.0 ** (-330.0 / p), (1e300 / c) ** (1.0 / p)
    rng = np.random.default_rng(11)
    return np.concatenate([np.geomspace(lo, hi, 2001),
                           rng.uniform(0.0, 10.0, 2001), [0.0]])


@pytest.mark.parametrize("c", [1.0, 0.7, 3.3])
def test_square_by_products_is_np_power_bit_for_bit(c):
    """c u^2 is c np.power(u, 2) bit for bit wherever u^2 is a normal double,
    and wherever c u^2 is not; where u^2 is subnormal and c u^2 normal (at
    c = 3.3) the term comes from two halves, within 1 ulp of mpmath."""
    mp = pytest.importorskip("mpmath")
    u = power_test_points(c, 2.0)
    F = Nonlinearity.power_law(c, 2.0)
    with np.errstate(under="ignore"):
        got, want = F.fn(u), c * np.power(u, 2.0)
        halves = np.flatnonzero(np.power(u, 2.0) < sys.float_info.min)
        with mp.workdps(30):
            refs = [mp.mpf(c) * mp.mpf(x) ** 2 for x in u[halves]]
        halves = halves[[ref >= sys.float_info.min for ref in refs]]
        assert (halves.size > 0) == (c > 1.0)
        bits = np.ones(u.size, dtype=bool)
        bits[halves] = False
        assert np.array_equal(got[bits], want[bits])
        with mp.workdps(30):
            for x, value in zip(u[halves], got[halves]):
                ref = mp.mpf(c) * mp.mpf(x) ** 2
                assert abs(value - ref) <= np.spacing(float(ref)), x
        # the power sum's p1 = 2 term takes the same route
        v = u[u < 1e100]
        assert np.array_equal(Nonlinearity.power_sum(c, 2.0, 0.5, 2.5).fn(v),
                              F.fn(v) + 0.5 * np.power(v, 2.5))


@pytest.mark.parametrize("p", [3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("c", [1.0, 0.7, 3.3])
def test_integer_powers_by_products_match_np_power(p, c):
    """Each product rounds once, so products sit within a few ulps of
    np.power where the result is a normal double. Below that the spacing
    is absolute (4.9e-324), so subnormal results are compared absolutely."""
    u = power_test_points(c, p)
    with np.errstate(under="ignore"):
        got = Nonlinearity.power_law(c, float(p)).fn(u)
        want = c * np.power(u, float(p))
    normal = want >= sys.float_info.min
    assert_allclose(got[normal], want[normal], rtol=1e-15, atol=0.0)
    assert_allclose(got[~normal], want[~normal], rtol=0.0,
                    atol=16 * np.nextafter(0.0, 1.0))
    # one evaluation of a Python float, as the h integrand makes it
    assert isinstance(Nonlinearity.power_law(c, float(p)).fn(1.5), float)


@pytest.mark.parametrize("p", [2.6, 1.5, 9.0, 12.0])
def test_other_powers_are_np_power_unchanged(p):
    u = power_test_points(0.7, p)
    with np.errstate(under="ignore"):
        assert np.array_equal(Nonlinearity.power_law(0.7, p).fn(u),
                              0.7 * np.power(u, p))
        assert np.array_equal(Nonlinearity.power_law(1.0, p).fn(u),
                              np.power(u, p))


def test_h_float_route_matches_custom_wrapping():
    """The named power sum hands Python floats to its product route; the
    same family written as a custom source gets 0-d arrays and np.power."""
    seen = []

    def fn(u):
        seen.append(type(u))
        return 0.5 * np.power(u, 2.0) + 0.25 * np.power(u, 3.0)

    named = OsgoodTransform(Nonlinearity.power_sum(0.5, 2.0, 0.25, 3.0))
    custom = OsgoodTransform(Nonlinearity.custom(
        fn, lambda u: 1.0 * u + 0.75 * np.power(u, 2.0)))
    seen.clear()
    for w in (1e-3, 0.3, 1.0, 4.0, 1e3):
        assert_allclose(named.h(w), custom.h(w), rtol=1e-14)
    for T in (1e-3, 0.5, 20.0, 300.0):
        assert_allclose(named.h_inverse(T), custom.h_inverse(T), rtol=1e-14)
    assert seen and set(seen) == {np.ndarray}
