import os

import numpy as np
import pytest
from numpy.polynomial import chebyshev

from blowuplab import profiles
from blowuplab.profiles import (OMEGA, second_order_profile, solve_curvature_correction,
                                solve_profile4, v2, v2_prime, v2_tail)
from oracles import (ETA0_REF, VB1_REF, VPEAK_REF, chebyshev_layer_series,
                     chebyshev_profile4, d1_5pt, d2_5pt, d3_7pt, d4_7pt, profile_literals,
                     read_profile_csv, shooting_profile4, shooting_v4)

# ETA0_REF and VPEAK_REF rounded, as the README quotes them
ETA0_GOLDEN = 3.738434
VPEAK_GOLDEN = 1.0605100
DATA = os.path.join(os.path.dirname(__file__), "data")
OPTIONAL = pytest.mark.skipif(os.environ.get("BLOWUPLAB_OPTIONAL_TIER") != "1",
                              reason="optional tier: set BLOWUPLAB_OPTIONAL_TIER=1")
# each stored series and the interval it spans
SERIES = {"V4_SERIES": 36.0, "VB4_SERIES": 36.0, "VB2_SERIES": 20.0}


def series_derivative(c, eta_max, eta, m=1):
    """The m-th eta-derivative of the series c on [0, eta_max], by numpy's
    chebder and chebval."""
    t = (2.0 * np.asarray(eta) - eta_max) / eta_max
    return chebyshev.chebval(t, chebyshev.chebder(c, m)) * (2.0 / eta_max) ** m


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
        # v'(0) of the differentiated series: measured -4.4e-16
        assert profile4.values[0] == 0.0 and profile4.evaluate(0.0) == 0.0
        assert abs(series_derivative(profile4.series, 36.0, 0.0)) <= 1e-12

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
        # the stored doubles are the nearest ones to the digits
        assert abs(profile4.eta0 - ETA0_REF) <= 4 * np.spacing(ETA0_REF)
        assert abs(profile4.v_peak - VPEAK_REF) <= 4 * np.spacing(VPEAK_REF)
        assert profile4.evaluate(profile4.eta0) == pytest.approx(VPEAK_REF, abs=1e-15)

    def test_table_agrees_with_shooting_oracle(self, profile4):
        # the nodes on (0, 12], where the overshoot and the first swings
        # lie: measured 4.3e-9 at h = 1/100, 2.9e-8 at 1/200
        v, _ = shooting_v4()
        m = (profile4.eta > 0.0) & (profile4.eta <= 12.0)
        assert np.max(np.abs(profile4.values[m] - v(profile4.eta[m]))) <= 1e-8

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
        for name in ("order", "eta_max", "amplitude", "phase", "eta0", "v_peak"):
            assert getattr(back, name) == getattr(profile4, name), name
        assert np.array_equal(back.eta, profile4.eta)
        assert np.array_equal(back.values, profile4.values)

    def test_series_meets_tail_at_the_cap(self, profile4):
        # measured 1.2e-14 apart
        xi = OMEGA * 36.0 ** (4.0 / 3.0)
        tail = 1.0 + (profile4.amplitude * np.sin(np.sqrt(3.0) * xi + profile4.phase)
                      * np.exp(-xi))
        assert profile4.evaluate(36.0) == 1.0
        assert abs(profile4.evaluate(36.0) - tail) <= 1e-12
        assert profile4.evaluate(np.nextafter(36.0, 37.0)) == pytest.approx(tail, abs=1e-15)

    def test_golden_file_bytes(self, profile4, tmp_path):
        # the table the stored series give is the recorded one, bit for bit
        profile4.to_csv(tmp_path / "p.csv")
        with open(os.path.join(DATA, "profile4_golden.csv"), "rb") as fh:
            assert (tmp_path / "p.csv").read_bytes() == fh.read()

    def test_golden_file_regression(self, profile4):
        golden = read_profile_csv(os.path.join(DATA, "profile4_golden.csv"))
        assert profile4.eta0 == pytest.approx(golden.eta0, abs=1e-6)
        assert profile4.v_peak == pytest.approx(golden.v_peak, abs=1e-6)
        assert profile4.amplitude == pytest.approx(golden.amplitude, rel=1e-4)
        assert np.max(np.abs(golden.values - profile4.evaluate(golden.eta))) <= 1e-8


@OPTIONAL
def test_collocation_reproduces_reference_digits():
    from mpmath import mp
    eta0, v_peak = chebyshev_profile4(n=80, dps=40)
    with mp.workdps(40):  # the digits, not their rounding to the default 15
        assert abs(eta0 - mp.mpf("3.7384337311286860135")) <= 1e-18
        assert abs(v_peak - mp.mpf("1.060510046450362279")) <= 1e-18
    assert float(eta0) == ETA0_REF and float(v_peak) == VPEAK_REF


@OPTIONAL
def test_stored_literals_regenerate_bit_for_bit():
    """Every literal of blowuplab.profiles is the double that the mpmath
    collocation at n = 120 and 50 digits rounds to, and the reference
    digits above are that collocation's."""
    from mpmath import mp
    series = chebyshev_layer_series()
    literals = profile_literals(series)
    for name, value in literals.items():
        stored = getattr(profiles, name)
        assert np.shape(stored) == np.shape(value), name
        assert np.array_equal(stored, value), name
    assert list(literals) == list(SERIES) + ["ETA0", "V_PEAK", "TAIL_A", "TAIL_THETA"]
    assert literals["ETA0"] == ETA0_REF and literals["V_PEAK"] == VPEAK_REF
    vb1 = series["vb1"]
    with mp.workdps(40):
        assert abs(vb1 - mp.mpf("-0.12152448983758509741")) <= 1e-20
    assert float(vb1) == VB1_REF


@pytest.mark.parametrize("name", SERIES)
def test_clenshaw_sum_equals_numpy_chebval(name):
    """The hand-written Clenshaw sum against numpy's chebval on 10^4
    random eta: equal bit for bit."""
    c, eta_max = getattr(profiles, name), SERIES[name]
    eta = np.random.default_rng(36).uniform(0.0, eta_max, 10_000)
    mine = profiles._chebyshev_sum(c, eta, eta_max)
    ref = chebyshev.chebval((2.0 * eta - eta_max) / eta_max, c)
    assert np.array_equal(mine, ref)


def test_order4_layer_profile_needs_its_series():
    prof = solve_profile4()
    with pytest.raises(ValueError, match="Chebyshev series"):
        profiles.LayerProfile(order=4, eta=prof.eta, values=prof.values, eta_max=36.0)


def test_profiles_evaluate_their_series():
    eta = np.linspace(-0.5, 40.0, 811)
    inside = eta <= 36.0
    prof = solve_profile4()
    corr4, corr2 = solve_curvature_correction(4), solve_curvature_correction(2)
    assert np.array_equal(prof.evaluate(eta)[inside],
                          profiles._chebyshev_sum(profiles.V4_SERIES, eta[inside], 36.0))
    for corr, series, eta_max in ((corr4, profiles.VB4_SERIES, 36.0),
                                  (corr2, profiles.VB2_SERIES, 20.0)):
        got = corr(eta)
        clipped = np.clip(eta, 0.0, eta_max)
        assert np.array_equal(got[eta <= eta_max],
                              profiles._chebyshev_sum(series, clipped, eta_max)[eta <= eta_max])
        assert np.all(got[eta > eta_max] == 0.0)
        assert np.array_equal(corr.values, corr(corr.eta))
    assert np.array_equal(prof.values, prof.evaluate(prof.eta))
    assert isinstance(prof.evaluate(1.0), float) and isinstance(corr4(1.0), float)


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
        assert correction2.values[0] == 0.0 and correction2(0.0) == 0.0
        assert abs(correction2.values[-1]) <= 1e-6

    def test_second_order_residual(self, correction2):
        h = correction2.eta[1] - correction2.eta[0]
        res = (d2_5pt(correction2.values, h)
               + 0.5 * correction2.eta * d1_5pt(correction2.values, h)
               - 1.5 * correction2.values - v2_prime(correction2.eta))
        assert np.nanmax(np.abs(res[2:-2])) <= 1e-9

    def test_fourth_order_boundary_and_decay(self, correction4):
        # vb'(0) of the differentiated series: measured 1.1e-16
        assert correction4.values[0] == 0.0 and correction4(0.0) == 0.0
        assert abs(correction4.values[-1]) <= 1e-6
        assert abs(series_derivative(correction4.series, 36.0, 0.0)) <= 1e-12

    def test_fourth_order_agrees_with_collocation(self, correction4):
        # the finite-difference solve was 8e-10 off
        assert abs(correction4(1.0) - VB1_REF) <= 1e-15

    def test_fourth_order_residual(self, correction4, profile4):
        h = correction4.eta[1] - correction4.eta[0]
        v0_3 = d3_7pt(profile4.values, h)
        res = (-d4_7pt(correction4.values, h)
               + 0.25 * correction4.eta * d1_5pt(correction4.values, h)
               - 1.25 * correction4.values + 2.0 * v0_3)
        assert np.nanmax(np.abs(res[10:-4])) <= 1e-4

    def test_discrete_system_residual_tolerance(self):
        """The stored series solve their equations on 500 points inside
        their intervals: measured residuals 3.8e-12 (v), 6.7e-13 (vb) and
        2.5e-15 (order 2), the fourth derivatives of the series amplifying
        the rounding of its coefficients."""
        eta = np.linspace(0.05, 35.95, 500)
        v, vb = (np.array([series_derivative(c, 36.0, eta, m) for m in range(5)])
                 for c in (profiles.V4_SERIES, profiles.VB4_SERIES))
        res_v = -v[4] + 0.25 * eta * v[1] - v[0] + 1.0
        res_vb = -vb[4] + 0.25 * eta * vb[1] - 1.25 * vb[0] + 2.0 * v[3]
        assert np.max(np.abs(res_v)) <= 2e-11
        assert np.max(np.abs(res_vb)) <= 4e-12
        eta = np.linspace(0.05, 19.95, 500)
        w = [series_derivative(profiles.VB2_SERIES, 20.0, eta, m) for m in range(3)]
        res = w[2] + 0.5 * eta * w[1] - 1.5 * w[0] - v2_prime(eta)
        assert np.max(np.abs(res)) <= 2e-14

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            solve_curvature_correction(3)

    @pytest.mark.parametrize("order", [2, 4])
    def test_golden_tables_bytes(self, order):
        # recorded from the stored series
        corr = solve_curvature_correction(order)
        text = "eta,vbar1\n" + "".join(f"{float(e)!r},{float(v)!r}\n"
                                       for e, v in zip(corr.eta, corr.values))
        with open(os.path.join(DATA, f"correction{order}_golden.csv"),
                  newline="", encoding="utf-8") as fh:
            assert text == fh.read()
