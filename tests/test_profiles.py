import os

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from blowuplab.errors import ConvergenceError
from blowuplab.profiles import (OMEGA, _Spline,
                                second_order_profile, solve_curvature_correction,
                                solve_profile4, v2, v2_prime, v2_tail)
from oracles import (chebyshev_profile4, d1_5pt, d2_5pt, d3_7pt, d4_7pt,
                     read_profile_csv, shooting_profile4, shooting_v4)

# the peak of the capped fourth-order problem by mpmath Chebyshev
# collocation, where n = 80 and 120 at 40 digits agree in all 20 digits
# (test_collocation_reproduces_reference_digits)
ETA0_REF = 3.7384337311286860135
VPEAK_REF = 1.060510046450362279
# the same rounded; the default solve is within 5e-8 of ETA0_REF, the
# h = 1/400 solve within 3e-6
ETA0_GOLDEN = 3.738434
VPEAK_GOLDEN = 1.0605100
DATA = os.path.join(os.path.dirname(__file__), "data")
OPTIONAL = pytest.mark.skipif(os.environ.get("BLOWUPLAB_OPTIONAL_TIER") != "1",
                              reason="optional tier: set BLOWUPLAB_OPTIONAL_TIER=1")


def test_omega_constant():
    assert OMEGA == pytest.approx(0.2362352, abs=2e-7)


def test_v2_at_zero_and_infinity():
    assert v2(0.0) == 0.0
    assert abs(v2(30.0) - 1.0) <= 1e-12


def test_v2_reference_value():
    # independent high-precision evaluation of the closed form at eta=2
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    e = mp.mpf(2)
    ref = 1 - mp.e ** (-e * e / 4) * (-e / mp.sqrt(mp.pi)
                                      + (1 + e * e / 2) * mp.e ** (e * e / 4)
                                      * mp.erfc(e / 2))
    assert v2(2.0) == pytest.approx(float(ref), abs=1e-13)
    assert float(ref) == pytest.approx(0.9432099, abs=1e-7)


def test_v2_tail_formula_and_crossover():
    eta = 6.0
    expected = 1.0 - 8.0 / (np.sqrt(np.pi) * eta ** 3) * np.exp(-eta * eta / 4.0)
    assert v2_tail(eta) == pytest.approx(expected, rel=1e-15)
    # the closed form's relative correction to the tail is O(1/eta^2) with
    # coefficient 12 (next term of the erfcx expansion)
    for e in (8.0, 12.0, 16.0):
        gap = abs(v2(e) - v2_tail(e))
        assert gap <= 13.0 / e ** 2 * (1.0 - v2_tail(e))
        assert gap >= 8.0 / e ** 2 * (1.0 - v2_tail(e))


def test_v2_ode_residual():
    # |v'' + (eta/2) v' - v + 1| <= 1e-9 on a 500-point grid of [0, 10],
    # derivatives by independent high-order finite differences
    eta = np.linspace(0.0, 10.0, 500)
    h = 0.01
    vals = np.array([v2(eta + k * h) for k in range(-2, 3)]).T
    d1 = (vals[:, 0] - 8 * vals[:, 1] + 8 * vals[:, 3] - vals[:, 4]) / (12 * h)
    d2 = (-vals[:, 0] + 16 * vals[:, 1] - 30 * vals[:, 2]
          + 16 * vals[:, 3] - vals[:, 4]) / (12 * h * h)
    res = d2 + 0.5 * eta * d1 - v2(eta) + 1.0
    assert np.max(np.abs(res)) <= 1e-9


def test_v2_monotone():
    # strictly increasing until the increments underflow (1 - v < 2^-52
    # beyond eta ~ 11), non-decreasing everywhere
    eta = np.linspace(0.0, 36.0, 7201)
    v = v2(eta)
    assert np.all(np.diff(v) >= 0)
    strict = eta < 9.0
    assert np.all(np.diff(v[strict]) > 0)


def test_v2_prime_matches_fd():
    eta = np.linspace(0.1, 12.0, 200)
    h = 1e-5
    fd = (v2(eta + h) - v2(eta - h)) / (2 * h)
    assert np.max(np.abs(v2_prime(eta) - fd)) <= 1e-8


class TestProfile4:
    def test_boundary_conditions(self, profile4):
        assert profile4.values[0] == pytest.approx(0.0, abs=1e-12)
        assert float(profile4._spline(0.0, 1)) == pytest.approx(0.0, abs=1e-6)

    def test_far_field(self, profile4):
        assert abs(profile4.values[-1] - 1.0) <= 1e-6

    def test_peak_golden(self, profile4):
        assert profile4.eta0 == pytest.approx(ETA0_GOLDEN, abs=2e-5)
        assert profile4.v_peak == pytest.approx(VPEAK_GOLDEN, abs=2e-5)
        assert profile4.v_peak > 1.0
        assert 0.0 < profile4.eta0 < profile4.eta_max

    def test_eta0_agrees_with_shooting_oracle(self, profile4):
        eta0_sh, vpeak_sh = shooting_profile4()
        assert abs(profile4.eta0 - eta0_sh) <= 1e-4
        assert abs(profile4.v_peak - vpeak_sh) <= 1e-5

    def test_peak_agrees_with_collocation_digits(self, profile4):
        # measured +4.7e-8 and +4.6e-10 at h = 1/100; -6.9e-7 and -7.0e-9
        # at 1/200
        assert abs(profile4.eta0 - ETA0_REF) <= 1e-7
        assert abs(profile4.v_peak - VPEAK_REF) <= 1e-9

    def test_table_agrees_with_shooting_oracle(self, profile4):
        # the nodes on (0, 12], where the overshoot and the first swings
        # lie: measured 2.8e-8 at h = 1/100, 4.3e-7 at 1/200
        v, _ = shooting_v4()
        m = (profile4.eta > 0.0) & (profile4.eta <= 12.0)
        assert np.max(np.abs(profile4.values[m] - v(profile4.eta[m]))) <= 5e-8

    def test_eta0_stable_under_mesh_halving(self, profile4):
        finer = solve_profile4(h=1.0 / 400.0)
        assert abs(finer.eta0 - profile4.eta0) <= 1e-5

    def test_eval_examples(self, profile4):
        assert profile4.evaluate(0.0) == pytest.approx(0.0, abs=1e-12)
        assert profile4.evaluate(profile4.eta0) == pytest.approx(
            profile4.v_peak, abs=1e-9)
        assert profile4.evaluate(2 * profile4.eta_max) == pytest.approx(
            1.0, abs=1e-10)

    def test_oscillation_sign_changes(self, profile4):
        beyond = profile4.eta > profile4.eta0
        s = np.sign(profile4.values[beyond] - 1.0)
        s = s[s != 0]
        assert np.sum(s[:-1] * s[1:] < 0) >= 3

    def test_tail_decay_rate(self, profile4):
        # local extrema amplitudes of v - 1 decay like exp(-w eta^(4/3));
        # fit the asymptotic window (early extrema carry the O(eta^(-4/3))
        # WKB correction, late ones sit at the solver noise floor)
        v = profile4.values
        eta = profile4.eta
        d = np.diff(v)
        idx = np.where(np.sign(d[:-1]) * np.sign(d[1:]) < 0)[0] + 1
        amp = np.abs(v[idx] - 1.0)
        keep = (eta[idx] >= 14.0) & (eta[idx] <= 30.0) & (amp > 5e-12)
        assert np.sum(keep) >= 5
        slope = np.polyfit(eta[idx][keep] ** (4.0 / 3.0), np.log(amp[keep]), 1)[0]
        assert abs(-slope / OMEGA - 1.0) <= 0.10

    def test_tail_parameters_reproduce_far_field(self, profile4):
        eta = np.linspace(14.0, 20.0, 200)
        xi = OMEGA * eta ** (4.0 / 3.0)
        tail = 1.0 + profile4.amplitude * np.sin(np.sqrt(3) * xi
                                                 + profile4.phase) * np.exp(-xi)
        # residual floor is the neglected O(eta^(-4/3)) WKB correction
        assert np.max(np.abs(tail - profile4.evaluate(eta))) <= 5e-6

    def test_independent_stencil_residual(self, profile4):
        h = profile4.eta[1] - profile4.eta[0]
        res = (-d4_7pt(profile4.values, h)
               + 0.25 * profile4.eta * d1_5pt(profile4.values, h)
               - profile4.values + 1.0)
        assert np.nanmax(np.abs(res[10:-4])) <= 1e-4

    def test_csv_round_trip(self, profile4, tmp_path):
        path = tmp_path / "p4.csv"
        profile4.to_csv(path)
        back = read_profile_csv(path)
        assert back.eta0 == profile4.eta0
        assert back.amplitude == profile4.amplitude
        assert np.array_equal(back.values, profile4.values)
        eta = np.linspace(0, 50, 97)
        assert np.allclose(back.evaluate(eta), profile4.evaluate(eta), atol=1e-12)

    def test_golden_file_bytes(self, profile4, tmp_path):
        # the table the batched assembly gives is the recorded one, bit for bit
        profile4.to_csv(tmp_path / "p.csv")
        with open(os.path.join(DATA, "profile4_golden.csv"), "rb") as fh:
            assert (tmp_path / "p.csv").read_bytes() == fh.read()

    def test_golden_file_regression(self, profile4):
        golden = read_profile_csv(os.path.join(DATA, "profile4_golden.csv"))
        assert profile4.eta0 == pytest.approx(golden.eta0, abs=1e-6)
        assert profile4.v_peak == pytest.approx(golden.v_peak, abs=1e-6)
        assert profile4.amplitude == pytest.approx(golden.amplitude, rel=1e-4)
        sub = np.linspace(0, golden.eta_max, 733)
        assert np.max(np.abs(golden.evaluate(sub) - profile4.evaluate(sub))) <= 1e-8


@OPTIONAL
def test_collocation_reproduces_reference_digits():
    from mpmath import mp
    eta0, v_peak = chebyshev_profile4(n=80, dps=40)
    assert abs(eta0 - mp.mpf("3.7384337311286860135")) <= 1e-18
    assert abs(v_peak - mp.mpf("1.060510046450362279")) <= 1e-18
    assert float(eta0) == ETA0_REF and float(v_peak) == VPEAK_REF


def test_second_order_profile_table():
    prof = second_order_profile()
    assert prof.order == 2
    assert np.all(np.diff(prof.values) >= 0)
    low = prof.eta < 9.0
    assert np.all(np.diff(prof.values[low]) > 0)
    eta = np.linspace(0, 40, 411)
    assert np.allclose(prof.evaluate(eta), v2(eta), atol=5e-9)


class TestCorrections:
    def test_second_order_boundary_and_decay(self, correction2):
        assert correction2.values[0] == pytest.approx(0.0, abs=1e-14)
        assert abs(correction2.values[-1]) <= 1e-6

    def test_second_order_residual(self, correction2):
        h = correction2.eta[1] - correction2.eta[0]
        res = (d2_5pt(correction2.values, h)
               + 0.5 * correction2.eta * d1_5pt(correction2.values, h)
               - 1.5 * correction2.values - v2_prime(correction2.eta))
        assert np.nanmax(np.abs(res[2:-2])) <= 1e-9

    def test_fourth_order_boundary_and_decay(self, correction4):
        assert correction4.values[0] == pytest.approx(0.0, abs=1e-14)
        assert abs(correction4.values[-1]) <= 1e-6
        spl = correction4._spline
        assert abs(spl(0.0, 1)) <= 1e-6

    def test_fourth_order_residual(self, correction4, profile4):
        h = correction4.eta[1] - correction4.eta[0]
        v0_3 = d3_7pt(profile4.values, h)
        res = (-d4_7pt(correction4.values, h)
               + 0.25 * correction4.eta * d1_5pt(correction4.values, h)
               - 1.25 * correction4.values + 2.0 * v0_3)
        assert np.nanmax(np.abs(res[10:-4])) <= 1e-4

    def test_discrete_system_residual_tolerance(self):
        # the assembled sparse systems are solved to residual <= 1e-9
        # (enforced internally; a ConvergenceError would surface here)
        solve_curvature_correction(2)
        solve_profile4()

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            solve_curvature_correction(3)

    @pytest.mark.parametrize("order", [2, 4])
    def test_golden_tables_bytes(self, order):
        # recorded with the per-stencil assembly that the batched one replaced
        corr = solve_curvature_correction(order)
        text = "eta,vbar1\n" + "".join(f"{float(e)!r},{float(v)!r}\n"
                                       for e, v in zip(corr.eta, corr.values))
        with open(os.path.join(DATA, f"correction{order}_golden.csv"),
                  newline="", encoding="utf-8") as fh:
            assert text == fh.read()


# -- the spline port ---------------------------------------------------------------

@pytest.mark.parametrize("table", ["profile4", "correction4", 4, 5, 17, 300])
def test_spline_equals_scipy_cubic_spline(table, request):
    """_Spline is scipy's not-a-knot CubicSpline bit for bit: coefficients,
    and values and derivatives at the nodes, inside, beyond both ends and
    at NaN. An integer table is that many random nodes."""
    rng = np.random.default_rng(12)
    if isinstance(table, str):
        tab = request.getfixturevalue(table)
        x, y = tab.eta, tab.values
    else:
        x = np.cumsum(rng.uniform(0.01, 1.0, table)) - 0.5 * table
        y = rng.normal(size=table)
    mine, ref = _Spline(x, y), CubicSpline(x, y)
    assert np.array_equal(mine.c, ref.c)
    span = x[-1] - x[0]
    q = np.concatenate([x, rng.uniform(x[0] - 0.2 * span, x[-1] + 0.2 * span, 400),
                        [np.nan, x[0] - span, x[-1] + span, -0.0]])
    for nu in range(4):
        assert np.array_equal(mine(q, nu), ref(q, nu), equal_nan=True), nu
        for xs in (x[1], 0.5 * (x[0] + x[1]), np.nan):
            got = mine(xs, nu)
            assert isinstance(got, np.ndarray) and got.shape == ()
            assert np.array_equal(got, ref(xs, nu), equal_nan=True)


def test_spline_needs_four_nodes():
    with pytest.raises(ValueError):
        _Spline([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
