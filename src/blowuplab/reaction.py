"""Reaction kernel: the nonlinearity f and the spatially uniform reaction state.

The pure reaction problem du0/dt = f(u0), u0(0) = 0 blows up at
T0 = integral of 1/f over [0, inf). Everything downstream (gauges,
arrival times, blow-up tail extrapolation) is phrased in terms of u0,
its inverse, and T0, so this module keeps closed forms wherever they
exist and falls back to high-accuracy ODE integration otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DivergenceError, EvaluationDomainError, RangeError

# fraction of T0 shaved off the tabulation endpoint; u0 diverges at T0 so
# queries past T0*(1-TABLE_DELTA) raise instead of extrapolating
TABLE_DELTA = 1e-6

_CUSTOM_REGISTRY: dict[str, Callable[[np.ndarray], np.ndarray]] = {}


def register_nonlinearity(name: str, fn: Callable) -> None:
    """Register a custom f(u) under a config-addressable name."""
    _CUSTOM_REGISTRY[name] = fn


@dataclass(frozen=True)
class Nonlinearity:
    """Reaction term f(u) with f(0) = 1 and f > 0 on u >= 0.

    kind is one of "exp", "pow", "custom". Power means f(u) = (1+u)^p
    with p > 1; custom evaluators are validated at construction.
    """

    kind: str
    p: float = 0.0
    fn: Optional[Callable] = None
    name: str = ""

    @classmethod
    def exponential(cls) -> "Nonlinearity":
        return cls(kind="exp", name="exp")

    @classmethod
    def power(cls, p: float) -> "Nonlinearity":
        if not p > 1.0:
            raise ValueError(f"power nonlinearity needs p > 1, got {p}")
        return cls(kind="pow", p=float(p), name=f"pow:{p:g}")

    @classmethod
    def custom(cls, fn: Callable, name: str = "custom") -> "Nonlinearity":
        f0 = float(fn(0.0))
        if abs(f0 - 1.0) > 1e-12:
            raise ValueError(f"custom nonlinearity must have f(0) = 1, got {f0!r}")
        return cls(kind="custom", fn=fn, name=name)

    @classmethod
    def from_spec(cls, spec: str) -> "Nonlinearity":
        """Parse a config token: "exp", "pow:<p>", or a registered name."""
        spec = spec.strip()
        if spec == "exp":
            return cls.exponential()
        if spec.startswith("pow:"):
            return cls.power(float(spec[4:]))
        if spec in _CUSTOM_REGISTRY:
            return cls.custom(_CUSTOM_REGISTRY[spec], name=spec)
        raise ValueError(f"unknown nonlinearity {spec!r}")

    def f(self, u):
        """Evaluate f(u). Scalars in, scalar out; arrays elementwise."""
        scalar = np.isscalar(u)
        u = np.asarray(u, dtype=float)
        if self.kind == "exp":
            out = np.exp(u)
        elif self.kind == "pow":
            base = 1.0 + u
            if not float(self.p).is_integer() and np.any(base <= 0.0):
                raise EvaluationDomainError(
                    f"(1+u)^p undefined for 1+u <= 0 with fractional p={self.p}")
            out = base ** self.p
        else:
            out = np.asarray(self.fn(u), dtype=float)
        if np.any(out[np.isfinite(out)] <= 0.0):
            raise EvaluationDomainError(f"nonlinearity {self.name} not positive")
        return float(out) if scalar else out

    def df(self, u):
        """df/du, analytic for built-ins, central difference for custom."""
        scalar = np.isscalar(u)
        u = np.asarray(u, dtype=float)
        if self.kind == "exp":
            out = np.exp(u)
        elif self.kind == "pow":
            out = self.p * (1.0 + u) ** (self.p - 1.0)
        else:
            h = 1e-6 * np.maximum(1.0, np.abs(u))
            out = (np.asarray(self.fn(u + h)) - np.asarray(self.fn(u - h))) / (2 * h)
        return float(out) if scalar else out


def blowup_time_T0(nl: Nonlinearity) -> float:
    """T0 = integral_0^inf du / f(u); closed form for the built-in kinds.

    Raises DivergenceError when the integral diverges (global-solution
    regime, f not superlinear enough).
    """
    if nl.kind == "exp":
        return 1.0
    if nl.kind == "pow":
        return 1.0 / (nl.p - 1.0)
    from scipy.integrate import quad
    # substitution u = tan(s) maps [0, inf) to [0, pi/2)
    def integrand(s):
        u = np.tan(s)
        return (1.0 + u * u) / nl.f(u)

    val, err = quad(integrand, 0.0, np.pi / 2, limit=200)
    if not np.isfinite(val) or err > 1e-6 * max(1.0, abs(val)):
        raise DivergenceError(
            f"reaction time integral for {nl.name} did not converge "
            f"(value={val}, err={err}); no finite blow-up time")
    return float(val)


def _power(a, s):
    """a **= s in place. At s = -1 np.reciprocal gives the same bits at
    half the cost of numpy's power."""
    if s == -1.0:
        np.reciprocal(a, out=a)
    else:
        a **= s


@dataclass
class ReactionSolution:
    """The uniform reaction state u0(t) with its inverse and blow-up time.

    form is "closed" for the exp and power kinds, which have exact
    expressions, and "tabulated" for custom f: the ODE is integrated with
    a tight-tolerance adaptive pair and dense output up to
    T0*(1 - TABLE_DELTA), and down from t = 0 as far toward -T0 as f
    allows; the part below 0 carries negative states.
    """

    nl: Nonlinearity
    T0: float = field(init=False)
    form: str = field(init=False)

    def __post_init__(self):
        self.T0 = blowup_time_T0(self.nl)
        self.form = "closed" if self.nl.kind in ("exp", "pow") else "tabulated"
        if self.form == "tabulated":
            self._build_table()

    # -- closed forms ------------------------------------------------------
    def _state_closed(self, t):
        if self.nl.kind == "exp":
            return -np.log1p(-t)
        q = self.nl.p - 1.0
        return (1.0 - q * t) ** (-1.0 / q) - 1.0

    def _invert_closed(self, u):
        if self.nl.kind == "exp":
            return -np.expm1(-u)
        q = self.nl.p - 1.0
        return (1.0 - (1.0 + u) ** (-q)) / q

    def _tail_closed(self, u):
        if self.nl.kind == "exp":
            return np.exp(-u)
        q = self.nl.p - 1.0
        # np.power, as in flow: a Python float's ** (libm pow) can differ
        # in the last bit, and flow would then blow up short of the tail
        return np.power(1.0 + u, -q) / q

    # -- tabulated path ----------------------------------------------------
    def _build_table(self):
        from scipy.integrate import DOP853, OdeSolution, solve_ivp
        t_end = self.T0 * (1.0 - TABLE_DELTA)

        def rhs(t, y):
            return [self.nl.f(y[0])]

        def rhs_below(t, y):
            v = self.nl.f(y[0])
            if not np.isfinite(v):
                raise EvaluationDomainError(f"nonlinearity {self.nl.name} not finite")
            return [v]

        # rtol must stay well below 1e-10: the table is asked to agree with
        # closed forms to 1e-8 absolute even where u0 ~ 1e2
        fwd = solve_ivp(rhs, [0.0, t_end], [0.0], method="DOP853",
                        rtol=1e-12, atol=1e-14, dense_output=True)
        if not fwd.success:
            raise DivergenceError(f"reaction ODE integration failed: {fwd.message}")
        self._t_end = t_end
        self._u_end = float(fwd.y[0, -1])
        # best-effort leg back toward -T0 for the states below zero: u0 falls
        # toward a zero of f, if f has one. f is only promised on u >= 0, so
        # the leg ends at the last step before f fails to be finite and
        # positive, or past -u_end, and the table starts where it got to
        ts, pieces = [0.0], []
        with np.errstate(all="ignore"):
            try:
                back = DOP853(rhs_below, 0.0, [0.0], -self.T0, rtol=1e-12, atol=1e-14)
                while back.status == "running" and back.y[0] > -self._u_end:
                    if back.step() is not None:            # a failed step
                        break
                    ts.append(back.t)
                    pieces.append(back.dense_output())
            except (ArithmeticError, ValueError):
                pass
        self._dense = OdeSolution(np.concatenate([ts[::-1], fwd.t[1:]]),
                                  pieces[::-1] + fwd.sol.interpolants)
        # start grid of the inverse, geometric in the distance to -T0 below
        # zero and to T0 above, from T0 down to T0 * TABLE_DELTA: u0 is steep
        # where it runs off to -inf or +inf, and equal ratios keep every
        # Newton start close. Below zero it stops where the table does
        n_below = 4096 if ts[-1] < 0.0 else 0
        self._grid_t = np.concatenate([
            np.maximum(self.T0 * np.geomspace(TABLE_DELTA, 1.0, n_below) - self.T0, ts[-1]),
            np.minimum(self.T0 - self.T0 * np.geomspace(1.0, TABLE_DELTA, 4096), t_end)])
        self._grid_u = self._dense(self._grid_t)[0]

    def _state_table(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t > self._t_end):
            raise RangeError(
                f"t beyond tabulation endpoint {self._t_end!r}; u0 diverges at T0")
        return self._dense(np.atleast_1d(t))[0].reshape(t.shape)

    # -- public api --------------------------------------------------------
    def state(self, t):
        """u0(t) for 0 <= t < T0."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0.0) or np.any(t_arr >= self.T0):
            raise RangeError(f"t must lie in [0, T0={self.T0:g})")
        out = self._state_closed(t_arr) if self.form == "closed" else self._state_table(t_arr)
        return float(out) if np.isscalar(t) else out

    def invert(self, u):
        """The t with u0(t) = u; bijection [0, inf) -> [0, T0)."""
        u_arr = np.asarray(u, dtype=float)
        if np.any(u_arr < 0.0):
            raise RangeError("u must be >= 0")
        if self.form == "closed":
            out = self._invert_closed(u_arr)
        elif np.any(u_arr > self._u_end):
            raise RangeError(f"u beyond tabulated range (max {self._u_end:g})")
        else:
            out = self._invert_vec(u_arr)
        return float(out) if np.isscalar(u) else out

    def tail_time(self, u):
        """Remaining reaction time integral_u^inf du'/f(u')."""
        if self.form == "closed":
            return float(self._tail_closed(float(u)))
        from scipy.integrate import quad

        def integrand(s):
            x = u + np.tan(s)
            return (1.0 + np.tan(s) ** 2) / self.nl.f(x)

        val, _ = quad(integrand, 0.0, np.pi / 2, limit=200)
        return float(val)

    def gauge(self, t, eps, order):
        """Boundary-layer width: eps * u0(t)^(1/2) (order 2) or ^(1/4) (order 4)."""
        if order not in (2, 4):
            raise ValueError(f"order must be 2 or 4, got {order}")
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        return eps * self.state(t) ** (1.0 / order)

    def flow(self, u, dt):
        """Exact reaction flow map: advance u along du/dt = f(u) by dt.

        Vectorized; entries that blow through the singularity within dt
        come back as +inf. This is what makes the split PDE stepper
        reaction-exact near blow-up. Non-finite entries stay non-finite; a
        finite one below the table's lowest state raises DivergenceError.
        The closed forms work in place on one array. Where every argument
        of the log or power is at least 1e-320 (a NaN fails the test), no
        entry is singular and the clamp is a no-op, so the flow skips the
        singular mask, the clamp and the +inf fill.
        """
        u = np.asarray(u, dtype=float)
        if self.nl.kind in ("exp", "pow"):
            singular = None
            # divide: (1 + u)^-q at u = -1, a zero of f that stays at -1
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                if self.nl.kind == "exp":
                    arg = np.negative(u)
                    np.exp(arg, out=arg)                   # exp(-u) - dt
                    arg -= dt
                else:
                    q = self.nl.p - 1.0
                    arg = u + 1.0
                    _power(arg, -q)                        # (1 + u)^-q - q dt
                    arg -= q * dt
                if not (arg.size and arg.min() >= 1e-320):
                    singular = ~(arg > 0.0)                # NaN included
                    np.maximum(arg, 1e-320, out=arg)
                if self.nl.kind == "exp":
                    np.log(arg, out=arg)                   # -log(arg)
                    np.negative(arg, out=arg)
                else:
                    _power(arg, -1.0 / q)                  # arg^(-1/q) - 1
                    arg -= 1.0
            if singular is not None:
                arg[singular] = np.inf
            return arg
        # tabulated: map through tau = invert(u), step, map back
        if np.any((u < self._grid_u[0]) & np.isfinite(u)):
            raise DivergenceError("reaction state below the tabulated range, "
                                  f"lowest {float(self._grid_u[0])!r}")
        tau = self._invert_vec(u)
        t_new = tau + dt
        out = np.full_like(u, np.inf)
        ok = (t_new <= self._t_end) & np.isfinite(u)
        if np.any(ok):
            out[ok] = self._dense(t_new[ok])[0]
        return out

    def _invert_vec(self, u):
        """Tabulated inverse, in [_grid_t[0], t_end]: interpolation on the start
        grid, polished by 3 Newton steps."""
        t = np.interp(u, self._grid_u, self._grid_t)
        for _ in range(3):
            ut = self._dense(t)[0]
            t = np.clip(t - (ut - u) / self.nl.f(ut), self._grid_t[0], self._t_end)
        return t
