import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blowuplab.errors import DivergenceError, EvaluationDomainError, RangeError
from blowuplab.reaction import (Nonlinearity, ReactionSolution, blowup_time_T0,
                                register_nonlinearity)
from oracles import expression_flow, full_path_flow, reaction_residual

EXP = Nonlinearity.exponential()
POW2 = Nonlinearity.power(2)
POW3 = Nonlinearity.power(3)


def test_eval_f_examples():
    assert EXP.f(0.0) == 1.0
    assert POW2.f(1.0) == 4.0
    assert EXP.f(1.0) == pytest.approx(np.e, rel=1e-15)


def test_eval_f_domain_error():
    frac = Nonlinearity.power(2.5)
    with pytest.raises(EvaluationDomainError):
        frac.f(-2.0)


def test_power_requires_p_above_one():
    with pytest.raises(ValueError):
        Nonlinearity.power(1.0)


def test_custom_requires_unit_value_at_zero():
    with pytest.raises(ValueError):
        Nonlinearity.custom(lambda u: 2.0 + u)
    nl = Nonlinearity.custom(lambda u: np.exp(u))
    assert nl.f(0.0) == 1.0


def test_from_spec_and_registry():
    assert Nonlinearity.from_spec("exp").kind == "exp"
    assert Nonlinearity.from_spec("pow:2.5").p == 2.5
    register_nonlinearity("sq", lambda u: (1.0 + u) ** 2)
    assert Nonlinearity.from_spec("sq").kind == "custom"
    with pytest.raises(ValueError):
        Nonlinearity.from_spec("nope")


def test_blowup_time_closed_forms():
    assert blowup_time_T0(EXP) == 1.0
    assert blowup_time_T0(POW2) == 1.0
    assert blowup_time_T0(POW3) == 0.5


def test_blowup_time_custom_quadrature():
    nl = Nonlinearity.custom(lambda u: (1.0 + u) ** 2)
    assert blowup_time_T0(nl) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.filterwarnings(
    "ignore:Extremely bad integrand behavior:UserWarning")
def test_blowup_time_divergence():
    # f grows too slowly: integral of 1/(1+u) diverges; the quadrature
    # warning is the expected symptom
    import warnings
    nl = Nonlinearity.custom(lambda u: 1.0 + u)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(DivergenceError):
            blowup_time_T0(nl)


def test_reaction_state_examples():
    assert ReactionSolution(EXP).state(0.5) == pytest.approx(np.log(2.0), rel=1e-14)
    assert ReactionSolution(POW2).state(0.5) == pytest.approx(1.0, rel=1e-14)
    assert ReactionSolution(EXP).state(0.0) == 0.0
    assert ReactionSolution(POW2).state(0.0) == 0.0


def test_reaction_state_out_of_range():
    rs = ReactionSolution(EXP)
    with pytest.raises(RangeError):
        rs.state(1.0)
    with pytest.raises(RangeError):
        rs.state(-0.1)


def test_gauge_examples():
    rs = ReactionSolution(EXP)
    assert rs.gauge(0.5, 0.1, 4) == pytest.approx(0.1 * np.log(2.0) ** 0.25,
                                                  rel=1e-13)
    assert ReactionSolution(POW2).gauge(0.5, 0.1, 2) == pytest.approx(0.1,
                                                                      rel=1e-13)
    assert rs.gauge(1e-14, 0.3, 4) == pytest.approx(0.0, abs=1e-3)


def test_gauge_monotone_in_t_linear_in_eps():
    rs = ReactionSolution(EXP)
    ts = np.linspace(0.05, 0.95, 40)
    for order in (2, 4):
        g = np.array([rs.gauge(t, 0.2, order) for t in ts])
        assert np.all(np.diff(g) > 0)
        assert rs.gauge(0.5, 0.4, order) == pytest.approx(
            2.0 * rs.gauge(0.5, 0.2, order), rel=1e-13)


def test_invert_examples():
    assert ReactionSolution(EXP).invert(np.log(2.0)) == pytest.approx(0.5, abs=1e-12)
    assert ReactionSolution(POW2).invert(1.0) == pytest.approx(0.5, abs=1e-12)
    assert ReactionSolution(EXP).invert(0.0) == 0.0


@pytest.mark.parametrize("nl", [EXP, POW2, POW3])
def test_round_trip(nl):
    rs = ReactionSolution(nl)
    for frac in np.arange(0.1, 0.95, 0.1):
        t = frac * rs.T0
        assert rs.invert(rs.state(t)) == pytest.approx(t, abs=1e-10)


def _tabulated(nl):
    """The table of a closed-form f, built as a custom f. quad's integrand
    runs f far past where exp overflows, to a harmless inf."""
    with np.errstate(over="ignore"):
        return ReactionSolution(Nonlinearity.custom(nl.f, nl.name))


def test_round_trip_tabulated():
    rs = _tabulated(EXP)
    for frac in np.arange(0.1, 0.95, 0.1):
        t = frac * rs.T0
        assert rs.invert(rs.state(t)) == pytest.approx(t, abs=1e-10)


@pytest.mark.parametrize("nl", [EXP, POW2])
def test_monotonicity(nl):
    rs = ReactionSolution(nl)
    t = np.linspace(0.0, 0.999 * rs.T0, 1000)
    u = rs.state(t)
    assert np.all(np.diff(u) > 0)


@pytest.mark.parametrize("nl", [EXP, POW2])
def test_tabulated_matches_closed_form(nl):
    closed = ReactionSolution(nl)
    tab = _tabulated(nl)
    t = np.linspace(0.0, 0.99 * closed.T0, 500)
    assert np.max(np.abs(closed.state(t) - tab.state(t))) <= 1e-8


def test_tabulated_residual():
    # measured through a difference quotient the residual cannot resolve
    # below dense_error/h ~ 2e-8 relative to f near the table end
    rs = ReactionSolution(Nonlinearity.custom(lambda u: (1.0 + u) ** 2, "sq2"))
    t = np.linspace(0.01, 0.99 * rs.T0, 200)
    res = reaction_residual(rs, t)
    scale = np.maximum(1.0, rs.nl.f(rs.state(t)))
    assert np.max(res / scale) <= 3e-8
    # away from the steep end the bound is met with margin
    assert np.max(res[t < 0.9] / scale[t < 0.9]) <= 1e-8


def test_tail_time_closed_forms():
    assert ReactionSolution(EXP).tail_time(5.0) == pytest.approx(np.exp(-5.0),
                                                                 rel=1e-13)
    assert ReactionSolution(POW2).tail_time(9.0) == pytest.approx(0.1, rel=1e-13)


def test_tail_time_quadrature_matches_closed():
    tab = ReactionSolution(Nonlinearity.custom(lambda u: (1.0 + u) ** 2, "sq2"))
    assert tab.tail_time(9.0) == pytest.approx(0.1, rel=1e-9)


@pytest.mark.parametrize("fn", [lambda u: (1.0 + u) ** 2, np.exp,
                                lambda u: 1.0 + u + u ** 3])
def test_blowup_time_is_the_tail_time_from_0(fn):
    """T0 and the remaining time from u = 0 are one integral, to the bit
    (e^u overflows to a harmless inf near the end of quad's range)."""
    with np.errstate(over="ignore"):
        rs = ReactionSolution(Nonlinearity.custom(fn))
        assert rs.T0 == rs.tail_time(0.0)


@pytest.mark.parametrize("nl", [EXP, POW2])
def test_flow_is_exact_reaction_advance(nl):
    rs = ReactionSolution(nl)
    u = np.array([0.0, 0.3, 1.7, 2.5])  # tail times all exceed dt
    dt = 0.05
    expected = rs.state(rs.invert(u) + dt)
    assert np.allclose(rs.flow(u, dt), expected, rtol=1e-12)


def test_flow_blow_through_returns_inf():
    rs = ReactionSolution(EXP)
    u = np.array([0.1, 30.0])
    out = rs.flow(u, 0.5)
    assert np.isfinite(out[0])
    assert np.isinf(out[1])


def test_flow_tabulated_matches_closed():
    closed = ReactionSolution(POW2)
    tab = ReactionSolution(Nonlinearity.custom(lambda u: (1.0 + u) ** 2, "sq2"))
    u = np.linspace(0.0, 5.0, 50)
    assert np.allclose(tab.flow(u, 0.03), closed.flow(u, 0.03), atol=1e-7)


def test_flow_tabulated_matches_closed_at_large_u():
    """Up to u = 1e5, where u0 is steep, the tabulated inverse keeps the
    flow at the closed form's and invert round trips; a start grid uniform
    in t once gave 3.4e5 for 1.01e4 at u = 1e4."""
    closed = ReactionSolution(POW2)
    tab = ReactionSolution(Nonlinearity.custom(lambda u: (1.0 + u) ** 2, "sq2"))
    u = np.geomspace(1.0, 1e5, 501)
    np.testing.assert_allclose(tab.flow(u, 1e-6), closed.flow(u, 1e-6), rtol=1e-9)
    np.testing.assert_allclose(tab.state(tab.invert(u)), u, rtol=1e-9)
    with pytest.raises(RangeError):
        tab.invert(2.0 * tab._u_end)
    assert tab.invert(0.0) == 0.0


def test_flow_tabulated_matches_closed_below_zero():
    """Negative states flow on the part of the table below t = 0, as the
    closed form's do; the flow once sent every u <= 0 to u0(dt). A finite
    state below u0(-T0) raises, and invert and state keep their ranges."""
    closed = ReactionSolution(POW2)
    tab = ReactionSolution(Nonlinearity.custom(lambda u: (1.0 + u) ** 2, "sq2"))
    u = np.concatenate([-np.geomspace(0.45, 1e-8, 200), [0.0],
                        np.geomspace(1e-8, 1e3, 300)])
    for dt in (1e-6, 1e-3):
        # atol: the table's absolute error, about 1e-17 where u0 crosses 0
        np.testing.assert_allclose(tab.flow(u, dt), closed.flow(u, dt),
                                   rtol=1e-9, atol=1e-15)
    with pytest.raises(DivergenceError):
        tab.flow(np.array([0.1, -0.6]), 1e-3)
    assert np.all(np.isinf(tab.flow(np.array([-np.inf, np.nan]), 1e-3)))
    with pytest.raises(RangeError):
        tab.invert(-0.1)
    with pytest.raises(RangeError):
        tab.state(-0.1)


def test_tabulated_table_builds_where_f_fails_below_zero():
    """f is only promised on u >= 0, so the table's leg below t = 0 goes as
    far as f allows. 1 + u^2.5 is NaN below 0: the table starts at u = 0,
    flows u >= 0 as an independent integration does, and a state below 0
    raises. 1 + u^2 flows as tan(arctan(u) + dt) and reaches -inf at -T0,
    so its leg ends near -u_end, as the table's other end is at u_end."""
    from scipy.integrate import solve_ivp
    frac = ReactionSolution(Nonlinearity.custom(lambda u: 1.0 + u ** 2.5, "frac"))
    u = np.concatenate([[0.0], np.geomspace(1e-6, 1e1, 12)])
    for dt in (1e-6, 1e-3):
        ref = [solve_ivp(lambda t, y: 1.0 + y ** 2.5, [0.0, dt], [v], method="DOP853",
                         rtol=1e-13, atol=1e-15).y[0, -1] for v in u]
        np.testing.assert_allclose(frac.flow(u, dt), ref, rtol=1e-9)
    with pytest.raises(DivergenceError):
        frac.flow(np.array([1.0, -1e-3]), 1e-3)

    tan = ReactionSolution(Nonlinearity.custom(lambda u: 1.0 + u * u, "tan"))
    u = np.concatenate([-np.geomspace(1e2, 1e-8, 200), [0.0], np.geomspace(1e-8, 1e2, 200)])
    for dt in (1e-6, 1e-4):
        np.testing.assert_allclose(tan.flow(u, dt), np.tan(np.arctan(u) + dt),
                                   rtol=1e-9, atol=1e-15)
    assert np.isfinite(tan.flow(np.array([-0.5 * tan._u_end]), 1e-3)).all()
    with pytest.raises(DivergenceError):
        tan.flow(np.array([-2.0 * tan._u_end]), 1e-3)


# -- flow properties ------------------------------------------------------------
# The flow is a shift in the tail coordinate T(u) = tail_time(u), the time
# left to blow-up: T(flow(u, dt)) = T(u) - dt. A rounding error delta in T
# becomes f(w) * delta in u = w, since dT/du = -1/f(u).

EPS = np.finfo(float).eps
U_MAX = {"exp": 30.0, "pow": 1e3}
fractions = st.floats(0.0, 0.999)


@pytest.mark.parametrize("nl", [EXP, POW2, Nonlinearity.power(3.0), Nonlinearity.power(1.5)],
                         ids=["exp", "pow2", "pow3", "pow1.5"])
@settings(max_examples=200, deadline=None)
@given(u=arrays(float, st.integers(1, 64), elements=st.one_of(
           st.floats(0.0, 1.0), st.sampled_from([np.inf, -np.inf, np.nan, -0.5]))),
       pick=st.integers(0, 63), factor=st.floats(0.0, 2.0))
def test_flow_in_place_equals_expression(nl, u, pick, factor):
    """The in-place flow equals the one-expression flow bit for bit, on
    inputs with +-inf and NaN, and with dt around the tail time of one
    entry, so that entries on both sides blow up within dt or stay finite."""
    rs = ReactionSolution(nl)
    u = np.where(np.isfinite(u) & (u >= 0.0), u * U_MAX[nl.kind], u)
    ref = u[pick % len(u)]
    dt = factor * (rs.tail_time(ref) if np.isfinite(ref) and ref >= 0.0 else 0.1)
    assert np.array_equal(rs.flow(u, dt), expression_flow(rs, u, dt))


def _tiny_arg_dt(rs, u):
    """A dt that leaves the log or power argument of the flow of u,
    exp(-u) - dt or (1 + u)^-q - q dt, in (0, 1e-320)."""
    q = 1.0 if rs.nl.kind == "exp" else rs.nl.p - 1.0
    a = float(np.exp(-np.array([u]))[0] if rs.nl.kind == "exp"
              else (np.array([u]) + 1.0)[0] ** -q)
    dt = a / q
    for _ in range(100):
        arg = a - q * dt
        if 0.0 < arg < 1e-320:
            return dt
        dt = np.nextafter(dt, 0.0 if arg <= 0.0 else np.inf)
    raise AssertionError(f"no dt found for u={u!r}")


@pytest.mark.parametrize("nl", [EXP, POW2, POW3, Nonlinearity.power(2.5)],
                         ids=["exp", "pow2", "pow3", "pow2.5"])
@settings(max_examples=200, deadline=None)
@given(u=arrays(float, st.integers(1, 64), elements=st.floats(-2.0, 1.0)),
       special=st.lists(st.sampled_from([np.inf, -np.inf, np.nan]), max_size=3),
       pick=st.integers(0, 63), factor=st.floats(0.0, 2.0), tiny=st.booleans())
def test_flow_fast_path_equals_full_path(nl, u, special, pick, factor, tiny):
    """Bit for bit, NaN positions included, the flow equals the flow with
    its singular mask, clamp and +inf fill on every call. dt sits around the
    tail time of one entry, so that entries blow up within dt or stay
    finite; or it leaves one entry's log or power argument in (0, 1e-320),
    where the clamp is not a no-op."""
    rs = ReactionSolution(nl)
    u = np.where(u >= 0.0, u * U_MAX[nl.kind], u)
    u = np.concatenate([u, special])
    if tiny:
        big = 705.0 if nl.kind == "exp" else 10.0 ** (306.0 / (nl.p - 1.0))
        u = np.append(u, big)
        dt = _tiny_arg_dt(rs, big)
    else:
        ref = u[pick % len(u)]
        dt = factor * (rs.tail_time(ref) if np.isfinite(ref) and ref >= 0.0 else 0.1)
    with np.errstate(divide="ignore"):                 # (1 + u)^-q at u = -1
        assert np.array_equal(rs.flow(u, dt), full_path_flow(rs, u, dt), equal_nan=True)


@pytest.mark.parametrize("nl", [POW2, POW3, Nonlinearity.power(2.5)],
                         ids=["pow2", "pow3", "pow2.5"])
@pytest.mark.parametrize("dt", [1e-3, 2.0], ids=["finite", "blow-up"])
def test_flow_at_a_zero_of_f_is_silent(nl, dt):
    """u = -1, a zero of f, flows to exactly -1 with no divide-by-zero
    warning from (1 + u)^-q; every other entry keeps the bits it has
    without the -1 entry. dt 2.0 blows the largest entries up, so that the
    singular pass runs too."""
    rs = ReactionSolution(nl)
    u = np.array([0.0, 0.5, -0.5, 3.0, 40.0, -0.9])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref = rs.flow(u, dt)
        got = rs.flow(np.insert(u, 2, -1.0), dt)
    assert got[2] == -1.0
    assert np.array_equal(np.delete(got, 2), ref)


def _flow(rs, u, dt):
    return float(rs.flow(np.array([u]), dt)[0])


@pytest.mark.parametrize("nl", [EXP, POW2], ids=["exp", "pow2"])
@settings(max_examples=300, deadline=None)
@given(u=st.floats(0.0, 1.0), alpha=fractions, beta=fractions)
def test_flow_semigroup(nl, u, alpha, beta):
    rs = ReactionSolution(nl)
    u = u * U_MAX[nl.kind]
    a = alpha * rs.tail_time(u)
    b = beta * (rs.tail_time(u) - a)
    v = _flow(rs, u, a)
    w = _flow(rs, u, a + b)
    assert np.isfinite(v) and np.isfinite(w)
    # first-order propagation: T(u), a and b enter T(w) with one rounding
    # each, v enters through T(v) and through the rounding of v itself
    # (|v| / f(v) in T), and each result is rounded once more (|w|); 8
    # roundings per term allow for exp, log and pow that are faithful
    # (within one ulp) rather than correctly rounded
    tol = 8 * EPS * (nl.f(w) * (rs.tail_time(u) + a + b + rs.tail_time(v)
                                + abs(v) / nl.f(v)) + abs(w))
    assert abs(_flow(rs, v, b) - w) <= tol


@pytest.mark.parametrize("nl", [EXP, POW2], ids=["exp", "pow2"])
@settings(max_examples=300, deadline=None)
@given(u1=st.floats(0.0, 1.0), u2=st.floats(0.0, 1.0), dt=st.floats(0.0, 2.0))
def test_flow_monotone_in_u(nl, u1, u2, dt):
    rs = ReactionSolution(nl)
    u1, u2 = sorted((u1 * U_MAX[nl.kind], u2 * U_MAX[nl.kind]))
    dt = dt * rs.tail_time(u1)
    # every step of the closed-form map is a monotone floating-point
    # operation, so the order holds exactly, +inf included
    lo, hi = rs.flow(np.array([u1, u2]), dt)
    assert lo <= hi


@pytest.mark.parametrize("nl", [EXP, POW2], ids=["exp", "pow2"])
@settings(max_examples=300, deadline=None)
@given(u=st.floats(0.0, 1.0), where=st.sampled_from(["below", "at", "above", "any"]),
       factor=st.floats(0.0, 2.0))
# pow:2 with 1 + u = 232.86...: libm pow and numpy's power differ in the last bit
@example(u=0.2318618224577607, where="below", factor=0.0)
@example(u=0.2318618224577607, where="at", factor=0.0)
def test_flow_infinite_exactly_past_tail(nl, u, where, factor):
    rs = ReactionSolution(nl)
    u = u * U_MAX[nl.kind]
    tail = rs.tail_time(u)
    dt = {"below": np.nextafter(tail, 0.0), "at": tail,
          "above": np.nextafter(tail, np.inf), "any": factor * tail}[where]
    assert np.isinf(_flow(rs, u, dt)) == (dt >= tail)
