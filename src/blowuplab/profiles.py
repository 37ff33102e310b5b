"""Boundary-layer similarity profiles.

Second order: the layer equation v'' + (eta/2) v' - v = -1 with v(0)=0,
v(inf)=1 has a closed form in terms of the complementary error function;
it is monotone increasing. Fourth order: -v'''' + (eta/4) v' - v = -1
with v(0)=v'(0)=0 has no usable closed form; the far field oscillates as
1 + A sin(sqrt(3) w eta^(4/3) + theta) exp(-w eta^(4/3)) with
w = 3*2^(-11/3), and the profile overshoots its limit, attaining a global
maximum at eta0. That overshoot is the whole story of multiple blow-up,
so eta0 and v(eta0) are first-class outputs here.

No input changes these functions, so they are stored as constants. The
fourth-order profile and its curvature correction, capped at ETA_MAX
(v(ETA_MAX) = 1 and v'(ETA_MAX) = 0), and the second-order correction on
[0, ETA_MAX2] are Chebyshev series from a collocation at 121 points in
50-digit mpmath (tests/oracles.py, chebyshev_layer_series, whose
profile_literals regenerates every literal below bit for bit). Each
coefficient is the double nearest its mpmath value, except c[0], moved by
at most 8 ulps (under 3e-17) so that the sum at eta = 0 is exactly 0, as
the boundary condition there says; each series ends at its last
coefficient of magnitude 2^-60 or more, so the dropped ones sum to under
2e-17; a collocation at 161 points gives the same doubles.
The series are summed by Clenshaw's recurrence (Clenshaw 1955); eta0,
v(eta0) and the tail's (A, theta) are the doubles nearest the values of
the same mpmath solution. The finite-difference solve that these series
replace was off by 5.8e-9 in eta0 and by 8e-10 in the correction at
eta = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fileio import cell, write_csv

# decay rate of the fourth-order far field, from the WKB exponents
OMEGA = 3.0 * 2.0 ** (-11.0 / 3.0)

# beyond this the closed form's bracket is numerically 1-ish times an
# underflowing Gaussian; switch to the tail expansion
V2_ETA_SWITCH = 26.0

_SQRT_PI = np.sqrt(np.pi)

# The tables that the `profile` verb writes: [0, ETA_MAX] at spacing H4
# for order 4 and at spacing H for order 2, whose correction stops at
# ETA_MAX2.
ETA_MAX = 36.0
ETA_MAX2 = 20.0
H = 1.0 / 200.0
H4 = 1.0 / 100.0

# Chebyshev coefficients in t = 2 eta / eta_max - 1 of the fourth-order
# profile v and its correction on [0, ETA_MAX], and of the second-order
# correction on [0, ETA_MAX2]; the peak (ETA0, V_PEAK) of v; and the
# tail's (A, theta), the least-squares fit of v - 1 on eta = 12, 12.01,
# ..., 20.
V4_SERIES = np.array([
    0.883331821034276, 0.2277136278315786, -0.2111583179555548, 0.18468962101814784,
    -0.1502173865996373, 0.11067993500471282, -0.06995311160811338,
    0.032403298901153815, -0.0020964003073152926, -0.018144729746321496,
    0.027501298317711337, -0.027393581967709354, 0.02100980721909372,
    -0.01224465707535422, 0.004452212409854245, 0.00046892440257548305,
    -0.00229592978234647, 0.002001824812903224, -0.0009208202640795121,
    3.3832264790558e-05, 0.0003119672820347437, -0.000253228879196449,
    7.631568061399105e-05, 3.3185978988755813e-05, -4.698368121108867e-05,
    1.8593422684208228e-05, 3.5671311962458973e-06, -7.488253998420431e-06,
    2.878936744430852e-06, 6.472838345434782e-07, -1.0605932780688522e-06,
    2.9757978150375786e-07, 1.3667499172963086e-07, -1.2273050897339325e-07,
    1.4120135083976883e-08, 2.1665771591741144e-08, -1.0017885480598696e-08,
    -1.2260532610960705e-09, 2.2835039021164667e-09, -4.093741798493047e-10,
    -2.9766522961767905e-10, 1.449923541203111e-10, 1.4355168916546222e-11,
    -2.634028407987266e-11, 3.5424398353579733e-12, 3.163122875834481e-12,
    -1.1375549865183995e-12, -2.2019443681471654e-13, 1.9245807350967519e-13,
    -5.3130807220998915e-15, -2.322517131546661e-14, 4.41418091303531e-15,
    2.044932893785573e-15, -8.117400865518663e-16, -1.0893032350901431e-16,
    1.0261323732131074e-16, -2.473996269115031e-18, -1.010817653837397e-17,
    1.521008178336239e-18,
])
VB4_SERIES = np.array([
    -0.004184029766257939, 0.009342902469400397, -0.011583399411824416,
    0.013323114834701243, -0.012482825693600796, 0.007670178520990881,
    0.0009709279997430334, -0.01146541938853453, 0.020524369531260418,
    -0.02480412327610951, 0.022430770911355646, -0.014046961749816478,
    0.002736681522383255, 0.007292341287672383, -0.012668731024836,
    0.012394903445003571, -0.008070299615791827, 0.002702022133605537,
    0.0010905955570092117, -0.0023202845785141716, 0.0016504562258118853,
    -0.00044031016127659144, -0.00031323386827630004, 0.0004076481780517699,
    -0.0001716086383409233, -3.2279236271683656e-05, 7.915206282015854e-05,
    -3.555547913358454e-05, -5.539498894526168e-06, 1.3580495524703713e-05,
    -4.924790042350697e-06, -1.5347780705985192e-06, 1.9521598055807918e-06,
    -3.881970491460061e-07, -3.273722081935152e-07, 2.053545553106522e-07,
    4.407918166703754e-09, -4.506302551319842e-08, 1.247634633217264e-08,
    5.31179276300062e-09, -3.759868533344147e-09, -7.56879467304275e-12,
    6.545674966893532e-10, -1.4867855485729749e-10, -7.284511399243358e-11,
    3.823726506705123e-11, 3.276982668683193e-12, -6.143559329443233e-12,
    6.647337713173914e-13, 7.114082922823835e-13, -2.061760173434361e-13,
    -5.6431700270096144e-14, 3.394764363704796e-14, 1.603094336784415e-15,
    -4.127083152482655e-15, 3.9503364908630503e-16, 3.9311802208997685e-16,
    -9.241574107028408e-17, -2.853315462188756e-17, 1.2626630224292972e-17,
    1.2721368863926786e-18, -1.330682984434812e-18,
])
VB2_SERIES = np.array([
    -0.020100704988120496, 0.03634577791087391, -0.025903189272255857,
    0.01182190703598796, 0.0022070287707130075, -0.013009917489826238,
    0.018850467768626356, -0.019696182880091027, 0.016841251284032598,
    -0.012163336691695373, 0.007382837733858014, -0.0036004640903217313,
    0.0011989068915209127, -2.1288906670219124e-05, -0.00034180380814501424,
    0.00030579567269253176, -0.00015943468297194803, 4.248062043863931e-05,
    1.227181324406875e-05, -2.2268884483200996e-05, 1.3938252371736339e-05,
    -4.351537360707618e-06, -6.58958136583365e-07, 1.7002611098017303e-06,
    -1.0490432808494787e-06, 2.825524561583285e-07, 8.438985631389271e-08,
    -1.3220487167087682e-07, 6.652140361220575e-08, -9.752920778906076e-09,
    -1.0548886627078605e-08, 9.109216794272148e-09, -3.065621465312189e-09,
    -3.3798983596127685e-10, 9.354185084230933e-10, -4.712349584433658e-10,
    5.5358942348640156e-11, 7.64752318792497e-11, -5.5268058406123434e-11,
    1.3347434638326482e-11, 4.9271803262756484e-12, -5.512859907672607e-12,
    1.8308292690106273e-12, 2.2015141541329375e-13, -4.924549666571214e-13,
    2.0035697364686602e-13, 1.4137735546495983e-15, -4.0741472837595374e-14,
    1.911293361137035e-14, -1.0241698490068234e-15, -3.2024582278763173e-15,
    1.6516084698127924e-15, -1.401576122510758e-16, -2.438356020451432e-16,
    1.3183695833859634e-16, -1.2575994956082156e-17, -1.8195568610360685e-17,
    9.813821042633407e-18, -8.727257227916328e-19, -1.3342399795721575e-18,
])
ETA0 = 3.738433731128686
V_PEAK = 1.0605100464503623
TAIL_A = 0.03735779309571469
TAIL_THETA = -0.9887106210017925


def _chebyshev_sum(c, eta, eta_max):
    """sum_k c[k] T_k(t), t = (2 eta - eta_max) / eta_max, for 3 or more
    coefficients, by Clenshaw's recurrence in the arrangement of numpy's
    chebval: with b_k = c[k] + 2 t b_(k+1) - b_(k+2), the pair holds
    (c[k] - b_(k+2), b_(k+1)) and the sum is c[0] - b_2 + t b_1."""
    t = (2.0 * eta - eta_max) / eta_max
    t2 = 2.0 * t
    c0, c1 = c[-2], c[-1]
    for ck in c[-3::-1]:
        c0, c1 = ck - c1, c0 + c1 * t2
    return c0 + c1 * t


def _grid(eta_max, h):
    return np.linspace(0.0, eta_max, int(round(eta_max / h)) + 1)


def v2(eta):
    """Second-order layer profile, closed form.

    v(eta) = 1 - e^(-eta^2/4) * [-eta/sqrt(pi) + (1 + eta^2/2) erfcx(eta/2)]
    using the scaled complementary error function so no factor overflows.
    scipy.special is imported here, not at start-up: only order 2 uses it.
    """
    from scipy.special import erfcx
    scalar = np.isscalar(eta)
    eta = np.asarray(eta, dtype=float)
    out = np.empty_like(eta)
    lo = eta <= V2_ETA_SWITCH
    e = eta[lo]
    bracket = -e / _SQRT_PI + (1.0 + 0.5 * e * e) * erfcx(0.5 * e)
    out[lo] = 1.0 - np.exp(-0.25 * e * e) * bracket
    if np.any(~lo):
        out[~lo] = v2_tail(eta[~lo])
    return float(out) if scalar else out


def v2_tail(eta):
    """Far-field expansion of the second-order profile (eta >= 5)."""
    scalar = np.isscalar(eta)
    eta = np.asarray(eta, dtype=float)
    out = 1.0 - (8.0 / (_SQRT_PI * eta ** 3)) * np.exp(-0.25 * eta * eta)
    return float(out) if scalar else out


def v2_prime(eta):
    """dv/deta of the second-order profile: (2/sqrt(pi)) e^(-eta^2/4) - eta erfc(eta/2)."""
    from scipy.special import erfcx
    scalar = np.isscalar(eta)
    eta = np.asarray(eta, dtype=float)
    g = np.exp(-0.25 * eta * eta)
    out = (2.0 / _SQRT_PI) * g - eta * g * erfcx(0.5 * eta)
    return float(out) if scalar else out


@dataclass
class LayerProfile:
    """Similarity profile, its table and its far-field tail parameters.

    For order 4 the profile is the Chebyshev series `series` inside
    [0, eta_max] and the tail 1 + A sin(sqrt(3) w eta^(4/3) + theta)
    * exp(-w eta^(4/3)) with w = OMEGA beyond; (eta0, v_peak) locates the
    global overshoot maximum. For order 2 it is the closed form v2, and
    eta0 is meaningless (the profile is monotone), kept as nan. The table
    (eta, values) is what to_csv writes. Order 4 needs `series`.
    """

    order: int
    eta: np.ndarray
    values: np.ndarray
    eta_max: float
    amplitude: float = np.nan
    phase: float = np.nan
    eta0: float = np.nan
    v_peak: float = np.nan
    series: np.ndarray = None

    def __post_init__(self):
        if self.order == 4 and self.series is None:
            raise ValueError("an order-4 LayerProfile needs its Chebyshev series")

    def evaluate(self, eta):
        """The profile at eta: the series inside [0, eta_max], the tail
        formula beyond."""
        if self.order == 2:
            return v2(eta)
        scalar = np.isscalar(eta)
        eta = np.asarray(eta, dtype=float)
        out = np.empty_like(eta)
        inside = eta <= self.eta_max
        out[inside] = _chebyshev_sum(self.series, eta[inside], self.eta_max)
        if np.any(~inside):
            xi = OMEGA * eta[~inside] ** (4.0 / 3.0)
            out[~inside] = 1.0 + self.amplitude * np.sin(
                np.sqrt(3.0) * xi + self.phase) * np.exp(-xi)
        return float(out) if scalar else out

    def to_csv(self, path):
        meta = dict(order=self.order, eta_max=self.eta_max, A=self.amplitude,
                    theta=self.phase, omega=OMEGA, eta0=self.eta0,
                    v_peak=self.v_peak)
        write_csv(path, ("eta", "v"), np.column_stack([self.eta, self.values]),
                  [" ".join(f"{k}={cell(v)}" for k, v in meta.items())])


@dataclass
class CorrectionProfile:
    """Curvature-correction profile vbar1: the Chebyshev series `series`
    on [0, eta_max], and 0 beyond; (eta, values) is its table."""

    order: int
    eta: np.ndarray
    values: np.ndarray
    eta_max: float
    series: np.ndarray

    def __call__(self, eta):
        scalar = np.isscalar(eta)
        eta = np.asarray(eta, dtype=float)
        out = np.where(eta <= self.eta_max, _chebyshev_sum(
            self.series, np.clip(eta, 0.0, self.eta_max), self.eta_max), 0.0)
        return float(out) if scalar else out


def solve_profile4() -> LayerProfile:
    """The fourth-order layer profile, tabulated at spacing H4 on
    [0, ETA_MAX] from its stored series."""
    eta = _grid(ETA_MAX, H4)
    return LayerProfile(order=4, eta=eta, values=_chebyshev_sum(V4_SERIES, eta, ETA_MAX),
                        eta_max=ETA_MAX, amplitude=TAIL_A, phase=TAIL_THETA, eta0=ETA0,
                        v_peak=V_PEAK, series=V4_SERIES)


def second_order_profile() -> LayerProfile:
    """Closed-form second-order profile, tabulated for export symmetry."""
    eta = _grid(ETA_MAX, H)
    return LayerProfile(order=2, eta=eta, values=v2(eta), eta_max=ETA_MAX)


def solve_curvature_correction(order, profile4: LayerProfile | None = None
                               ) -> CorrectionProfile:
    """The curvature correction vbar1, with zero boundary data, tabulated
    at spacing H on [0, ETA_MAX2] (order 2) or H4 on [0, ETA_MAX] (order 4)
    from its stored series:

    order 2:  vbar'' + (eta/2) vbar' - (3/2) vbar = v0'   (v0 = closed form)
    order 4:  -vbar'''' + (eta/4) vbar' - (5/4) vbar = -2 v0'''

    profile4 is accepted for the callers that pass the profile; the
    stored series does not depend on it.
    """
    if order not in (2, 4):
        raise ValueError(f"order must be 2 or 4, got {order}")
    eta_max, h, series = ((ETA_MAX2, H, VB2_SERIES) if order == 2
                          else (ETA_MAX, H4, VB4_SERIES))
    eta = _grid(eta_max, h)
    return CorrectionProfile(order=order, eta=eta, values=_chebyshev_sum(series, eta, eta_max),
                             eta_max=eta_max, series=series)


@lru_cache(maxsize=1)
def get_profile4() -> LayerProfile:
    """Cached default fourth-order profile."""
    return solve_profile4()


@lru_cache(maxsize=4)
def get_correction(order: int) -> CorrectionProfile:
    """Cached default curvature-correction profile."""
    return solve_curvature_correction(order)
