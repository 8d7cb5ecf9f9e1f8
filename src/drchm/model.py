"""Core model definitions: parameters, point types, and neighborhood geometry.

The model is a bipartite random connection graph between two marked Poisson
point processes on the line.  "Vertices" carry a position, a weight, a birth
time and an exponential lifetime; "interactions" carry a position, a weight
and a single time instant.  A vertex and an interaction are connected when
their spatial distance is below a weight-dependent radius and the interaction
time falls inside the vertex's alive interval.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


# Largest connection scale.  The limit constants raise beta to powers up to
# 2 ((2 beta)**2 in the Gaussian covariance; c_tilde**(1/gamma) with
# 1/gamma < 2 and c_tilde < 2e16 * beta in the jump measure), which overflow
# a float near beta = 1e137; the cap keeps them finite with room to spare.
MAX_BETA = 1e100

# Smallest connection scale.  Near beta = 1e-250 the jump measure's tail
# c_tilde**(1/gamma) * a**(-1/gamma) underflows its first factor and
# overflows its second; the floor keeps both finite with room to spare.
MIN_BETA = 1e-100


def check_number(name, value, lo, hi, *, lo_closed=False, hi_closed=False, integer=False):
    """The one rule for a numeric config field: value must be a real number
    (an integer when integer is set; never a bool) inside the interval from
    lo to hi, closed at each end as flagged.  NaN fails every interval, and
    an infinity fails unless the interval is closed at that infinite end.
    Raises ValueError("<name> must be a number in (lo, hi], got <value>").
    """
    inside = (
        isinstance(value, numbers.Integral if integer else numbers.Real)
        and not isinstance(value, bool)
        and (lo <= value if lo_closed else lo < value)
        and (value <= hi if hi_closed else value < hi)
    )
    if not inside:
        raise ValueError(
            f"{name} must be {'an integer' if integer else 'a number'} in "
            f"{'[' if lo_closed else '('}{lo:g}, {hi:g}{']' if hi_closed else ')'}, "
            f"got {value!r}"
        )


class RegimeError(ValueError):
    """Raised when an operation is invoked outside its parameter regime."""


class TruncationError(RuntimeError):
    """Raised when the interaction weight cutoff loses too many edges."""


@dataclass(frozen=True)
class ModelParams:
    """Model parameters.

    beta
        Connection scale; the radius at weight 1 on both sides.
    gamma
        Vertex-weight exponent in (0, 1), gamma != 1/2.  gamma < 1/2 gives the
        Gaussian regime, gamma > 1/2 the heavy-tailed (stable) regime.
    gamma_prime
        Interaction-weight exponent in (0, 1).
    n
        Spatial window length; vertices are restricted to [0, n].

    The time horizon is fixed to [0, 1].  Vertex lifetimes are Exponential(1)
    and weights on both sides are Uniform(0, 1].
    """

    beta: float
    gamma: float
    gamma_prime: float
    n: float

    def __post_init__(self):
        check_number("beta", self.beta, MIN_BETA, MAX_BETA, lo_closed=True, hi_closed=True)
        check_number("gamma", self.gamma, 0, 1)
        if self.gamma == 0.5:
            raise ValueError("gamma = 1/2 is not covered by either regime")
        check_number("gamma_prime", self.gamma_prime, 0, 1)
        check_number("n", self.n, 0, math.inf, lo_closed=True)

    @property
    def regime(self) -> str:
        """"gaussian" for gamma < 1/2, "stable" for gamma > 1/2."""
        return "gaussian" if self.gamma < 0.5 else "stable"

    @property
    def c_tilde(self) -> float:
        """Spatial neighborhood constant 2*beta / (1 - gamma_prime)."""
        return 2.0 * self.beta / (1.0 - self.gamma_prime)


@dataclass(frozen=True)
class Vertex:
    """A vertex point: position, weight, birth time, lifetime."""

    x: float
    u: float
    b: float
    l: float

    def __post_init__(self):
        if not 0 < self.u <= 1:
            raise ValueError(f"vertex weight must be in (0, 1], got {self.u}")
        if not self.l > 0:
            raise ValueError(f"lifetime must be positive, got {self.l}")

    @property
    def death(self) -> float:
        return self.b + self.l


def spatial_nbhd_size(params: ModelParams, u) -> float:
    """Measure of {(z, w): |x - z| <= beta * u**(-gamma) * w**(-gamma_prime),
    w in (0, 1]}.

    Equals (2*beta / (1 - gamma_prime)) * u**(-gamma), independent of x.
    """
    _check_weight(u)
    return params.c_tilde * u ** (-params.gamma)


def temporal_nbhd_size(v: Vertex, t: float) -> float:
    """Length of {r: b <= r <= t <= b + l}: (t - b) while alive at t, else 0."""
    if v.b <= t <= v.b + v.l:
        return t - v.b
    return 0.0


def pm_temporal_nbhd_size(v: Vertex, t: float, sign: str) -> float:
    """Length of the monotone "plus" / "minus" temporal neighborhoods.

    plus:  ((b + l) min t) - b  for b <= t     (interaction times seen so far)
    minus: l                    for b + l <= t (full span, once the vertex died)
    """
    if sign == "plus":
        if v.b <= t:
            return min(v.b + v.l, t) - v.b
        return 0.0
    if sign == "minus":
        if v.b + v.l <= t:
            return v.l
        return 0.0
    raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")


def _check_weight(value) -> None:
    import numpy as np

    if np.any(np.asarray(value) <= 0):
        raise ValueError("weights must be positive")


def require_gaussian(params: ModelParams) -> None:
    if params.gamma >= 0.5 or params.gamma_prime >= 0.5:
        raise RegimeError(
            "gaussian-regime operation requires gamma < 1/2 and "
            f"gamma_prime < 1/2, got gamma={params.gamma}, "
            f"gamma_prime={params.gamma_prime}"
        )


def require_stable(params: ModelParams) -> None:
    if params.gamma <= 0.5:
        raise RegimeError(
            f"stable-regime operation requires gamma > 1/2, got {params.gamma}"
        )
