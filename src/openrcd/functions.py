"""Scalar cost-function families with certified curvature intervals.

Every cost in this package is a one-dimensional function ``f`` that is
``alpha``-strongly convex and ``beta``-smooth, attains value zero at an
unconstrained minimizer inside ``[-1, 1]``, and carries its curvature
certificate ``(alpha, beta)`` explicitly.  Two concrete families ship:
quadratics (the workhorse for every statistic) and a quadratic plus a
log-cosh perturbation whose curvature interval is known analytically,
used to exercise the general-function code paths.

Replacement sampling draws new costs with uniform parameters; the
quantile helpers are shared with the vectorized simulator so that
scalar and batched draws produce bit-identical parameters from the
same uniform variates.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParameterRangeError",
    "ConvexityCertificate",
    "CostFunction",
    "QuadraticFunction",
    "LogCoshQuadratic",
    "GeneralSmoothFunction",
    "make_quadratic",
    "make_logcosh_quadratic",
    "quadratic_quantiles",
    "logcosh_quantiles",
    "sample_replacement",
    "sample_logcosh_replacement",
]


class ParameterRangeError(ValueError):
    """A function parameter violates its certificate or domain box."""


@dataclass(frozen=True)
class ConvexityCertificate:
    """Curvature interval of a cost function.

    Parameters
    ----------
    alpha : float
        Strong-convexity modulus, positive.
    beta : float
        Smoothness modulus, ``beta >= alpha``.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= self.beta) or not math.isfinite(self.beta):
            raise ParameterRangeError(
                f"need 0 < alpha <= beta < inf, got ({self.alpha}, {self.beta})"
            )

    @property
    def kappa(self):
        """Condition ratio ``beta / alpha`` (always >= 1)."""
        return self.beta / self.alpha


class CostFunction:
    """Interface shared by all cost families.

    Concrete costs expose ``value(x)``, ``gradient(x)``, a
    ``certificate`` and the location ``minimizer`` of their
    unconstrained minimum (where the value is zero).
    """

    __slots__ = ()

    certificate: ConvexityCertificate

    def value(self, x):
        raise NotImplementedError

    def gradient(self, x):
        raise NotImplementedError

    @property
    def minimizer(self):
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class QuadraticFunction(CostFunction):
    """Cost ``theta * (x - mu)**2`` with ``theta`` inside the certificate box.

    Parameters
    ----------
    theta : float
        Curvature weight; must lie in ``[alpha/2, beta/2]`` so that the
        second derivative ``2*theta`` stays inside the certificate.
    mu : float
        Minimizer location in ``[-1, 1]``.
    certificate : ConvexityCertificate
    """

    theta: float
    mu: float
    certificate: ConvexityCertificate

    def __post_init__(self):
        c = self.certificate
        if not (0.5 * c.alpha <= self.theta <= 0.5 * c.beta):
            raise ParameterRangeError(
                f"theta={self.theta} outside [{0.5 * c.alpha}, {0.5 * c.beta}]"
            )
        if not (-1.0 <= self.mu <= 1.0):
            raise ParameterRangeError(f"mu={self.mu} outside [-1, 1]")

    def value(self, x):
        d = x - self.mu
        return self.theta * d * d

    def gradient(self, x):
        return _quadratic_gradient(self.theta, self.mu, x)

    @property
    def minimizer(self):
        return self.mu


def _quadratic_gradient(theta, mu, x):
    """Quadratic gradient, elementwise on scalars or arrays; shared with
    the batch simulator, which keeps the two bit-identical."""
    return 2.0 * theta * (x - mu)


def _logcosh_gradient(theta, mu, weight, x):
    """Log-cosh gradient, elementwise on scalars or arrays.

    ``np.tanh`` rather than ``math.tanh``: the two differ in the last
    bit for about a quarter of inputs, and only numpy's gives the same
    bits on a scalar as on an array element, which the batch simulator
    needs to match the scalar path.
    """
    d = x - mu
    return 2.0 * theta * d + weight * np.tanh(d)


def _logcosh(z):
    # log(cosh(z)) without overflow for large |z|
    az = abs(z)
    return az + math.log1p(math.exp(-2.0 * az)) - math.log(2.0)


@dataclass(frozen=True, slots=True)
class LogCoshQuadratic(CostFunction):
    """Cost ``theta*(x-mu)**2 + weight*logcosh(x-mu)``.

    The second derivative is ``2*theta + weight*sech(x-mu)**2``, which
    sweeps the interval ``(2*theta, 2*theta + weight]``; the certificate
    must contain it, i.e. ``2*theta >= alpha`` and
    ``2*theta + weight <= beta``.
    """

    theta: float
    mu: float
    weight: float
    certificate: ConvexityCertificate

    def __post_init__(self):
        c = self.certificate
        if self.weight < 0.0:
            raise ParameterRangeError(f"weight={self.weight} must be >= 0")
        # a couple of ulps of slack: the tied weight beta - 2*theta
        # must never round itself out of the certificate
        ulps = 8.0 * sys.float_info.epsilon * max(1.0, c.beta)
        if 2.0 * self.theta < c.alpha - ulps or 2.0 * self.theta + self.weight > c.beta + ulps:
            raise ParameterRangeError(
                "curvature range (%g, %g] escapes certificate [%g, %g]"
                % (2.0 * self.theta, 2.0 * self.theta + self.weight, c.alpha, c.beta)
            )
        if not (-1.0 <= self.mu <= 1.0):
            raise ParameterRangeError(f"mu={self.mu} outside [-1, 1]")

    def value(self, x):
        d = x - self.mu
        return self.theta * d * d + self.weight * _logcosh(d)

    def gradient(self, x):
        return _logcosh_gradient(self.theta, self.mu, self.weight, x)

    @property
    def minimizer(self):
        return self.mu


class GeneralSmoothFunction(CostFunction):
    """Cost built from caller-supplied callables.

    The minimizer identities (zero value and zero gradient at the
    declared minimizer, minimizer inside ``[-1, 1]``) are checked at
    construction to 1e-12; the curvature certificate is the caller's
    claim and is not checked.
    """

    __slots__ = ("_value", "_gradient", "certificate", "_minimizer")

    def __init__(self, value, gradient, certificate, minimizer):
        if not (-1.0 <= minimizer <= 1.0):
            raise ParameterRangeError(f"minimizer={minimizer} outside [-1, 1]")
        if abs(value(minimizer)) > 1e-12:
            raise ParameterRangeError("value at the declared minimizer is not 0")
        if abs(gradient(minimizer)) > 1e-12:
            raise ParameterRangeError("gradient at the declared minimizer is not 0")
        self._value = value
        self._gradient = gradient
        self.certificate = certificate
        self._minimizer = minimizer

    def value(self, x):
        return self._value(x)

    def gradient(self, x):
        return self._gradient(x)

    @property
    def minimizer(self):
        return self._minimizer


def make_quadratic(theta, mu, certificate):
    """Build a :class:`QuadraticFunction`, validating parameter ranges."""
    return QuadraticFunction(float(theta), float(mu), certificate)


def make_logcosh_quadratic(theta, mu, certificate):
    """Build a :class:`LogCoshQuadratic` whose weight is tied to ``theta``
    by :func:`_logcosh_weight`: ``beta - 2*theta``, the largest
    perturbation the certificate admits.
    """
    theta = float(theta)
    weight = float(_logcosh_weight(certificate, theta))
    return LogCoshQuadratic(theta, float(mu), weight, certificate)


def quadratic_quantiles(certificate, u_theta, u_mu):
    """Map uniform variates in ``[0, 1)`` to quadratic parameters.

    ``theta`` is uniform on ``[alpha/2, beta/2]`` and ``mu`` uniform on
    ``[-1, 1]``.  Works elementwise on scalars or arrays; the simulator
    relies on the arithmetic here being identical in both cases.
    """
    half_lo = 0.5 * certificate.alpha
    half_hi = 0.5 * certificate.beta
    theta = half_lo + (half_hi - half_lo) * u_theta
    # rounding in the affine map may poke past the top of the box
    theta = np.minimum(theta, half_hi)
    mu = 2.0 * u_mu - 1.0
    return theta, mu


def logcosh_quantiles(certificate, u_theta, u_mu):
    """Uniform variates to log-cosh parameters ``(theta, mu, weight)``.

    ``theta`` is uniform on ``[alpha/2, beta/2]`` and the perturbation
    weight is tied to it as ``beta - 2*theta`` so the certificate stays
    analytically exact.
    """
    theta, mu = quadratic_quantiles(certificate, u_theta, u_mu)
    return theta, mu, _logcosh_weight(certificate, theta)


def _logcosh_weight(certificate, theta):
    """The perturbation weight ``beta - 2*theta`` tied to a drawn ``theta``;
    shared with the batch simulator."""
    return np.maximum(certificate.beta - 2.0 * theta, 0.0)


def _cost_from_uniforms(family, certificate, u_theta, u_mu):
    """Replacement cost from its two uniforms; any family but
    ``"quadratic"`` means log-cosh.  Shared with the simulator's step."""
    if family == "quadratic":
        theta, mu = quadratic_quantiles(certificate, u_theta, u_mu)
        return QuadraticFunction(float(theta), float(mu), certificate)
    theta, mu, weight = logcosh_quantiles(certificate, u_theta, u_mu)
    return LogCoshQuadratic(float(theta), float(mu), float(weight), certificate)


def sample_replacement(rng, certificate):
    """Draw a fresh quadratic cost from the replacement distribution.

    Consumes exactly two uniforms from ``rng`` (theta quantile, then mu
    quantile).

    Parameters
    ----------
    rng : numpy.random.Generator
    certificate : ConvexityCertificate

    Returns
    -------
    QuadraticFunction
    """
    u = rng.random(2)
    return _cost_from_uniforms("quadratic", certificate, u[0], u[1])


def sample_logcosh_replacement(rng, certificate):
    """Draw a fresh log-cosh cost; same two-uniform budget as the quadratic."""
    u = rng.random(2)
    return _cost_from_uniforms("logcosh_quadratic", certificate, u[0], u[1])
