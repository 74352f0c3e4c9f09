"""Nonlinear plate forces and their potential.

Two variants: the nonlocal membrane (Berger) force -M(u)*lap(u) with
M = tension + stretch * (gradient energy), and pointwise cubic-plus-linear
scalar forces per region. Both come with a two-point discrete gradient whose
increment identity <G, u_new - u_old> = -(Pi(u_new) - Pi(u_old)) holds to
round-off, which is what makes the time stepper's energy identity exact:
the scalar one is discrete_gradient_force, and the Berger one the stepper
forms on sine coefficients (stepper.PlateStepper._iteration).
"""

from dataclasses import dataclass

import numpy as np

from .domain import Domain
from .errors import UsageError
from .operators import gradient_form, laplacian_clamped


@dataclass(frozen=True)
class CubicForce:
    """f(s) = kappa*s^3 + c*s with antiderivative kappa*s^4/4 + c*s^2/2,
    both formed by products (s**3 and s**4 on an array go through pow)."""

    kappa: float = 0.0
    c: float = 0.0

    def __call__(self, s):
        return (self.kappa * s * s + self.c) * s

    def derivative(self, s):
        """f'(s) = 3 kappa s^2 + c."""
        return 3.0 * self.kappa * (s * s) + self.c

    def antiderivative(self, s):
        s2 = s * s
        return (0.25 * self.kappa * s2 + 0.5 * self.c) * s2

    def difference_quotient(self, a, b):
        """(F(b) - F(a)) / (b - a) for the antiderivative F, in the closed
        form kappa/4 (a+b)(a^2+b^2) + c/2 (a+b): no division, and f(a) at
        a = b."""
        s = a + b
        return (0.25 * self.kappa) * s * (a * a + b * b) + (0.5 * self.c) * s

    def is_zero(self):
        return self.kappa == 0.0 and self.c == 0.0

    def validate(self):
        errs = []
        if self.kappa < 0:
            errs.append("cubic coefficient kappa must be >= 0")
        if self.kappa == 0.0 and self.c != 0.0:
            # superlinear growth at infinity requires kappa > 0
            errs.append("a pure linear force (kappa=0, c!=0) violates the "
                        "coercivity condition; set kappa > 0 or c = 0")
        return errs


@dataclass(frozen=True)
class NonlinearitySpec:
    """Which force model drives the plate.

    variant "berger": M(u) = tension + stretch * int |grad u|^2, force
    -M(u) lap u on both regions. variant "scalar": f1 on the frame, f2 on the
    inner plate (each cubic-plus-linear or zero). The all-zero scalar spec is
    the linear problem.
    """

    variant: str = "scalar"
    tension: float = 0.0          # Berger Gamma (any sign)
    stretch: float = 1.0          # Berger gamma (> 0)
    f1: CubicForce = CubicForce()
    f2: CubicForce = CubicForce()

    @classmethod
    def linear(cls):
        return cls(variant="scalar")

    @classmethod
    def berger(cls, tension=1.0, stretch=1.0):
        return cls(variant="berger", tension=tension, stretch=stretch)

    @classmethod
    def scalar(cls, f1=CubicForce(), f2=CubicForce()):
        return cls(variant="scalar", f1=f1, f2=f2)

    def validate(self):
        errs = []
        if self.variant not in ("berger", "scalar"):
            errs.append(f"unknown nonlinearity variant {self.variant!r}")
        if self.variant == "berger" and self.stretch <= 0:
            errs.append("berger stretch coefficient must be strictly positive")
        if self.variant == "scalar":
            for tag, f in (("f1", self.f1), ("f2", self.f2)):
                errs.extend(f"{tag}: {e}" for e in f.validate())
        return errs

    def is_linear(self):
        return self.variant == "scalar" and self.f1.is_zero() and self.f2.is_zero()


def berger_coefficient(domain: Domain, u: np.ndarray,
                       spec: NonlinearitySpec) -> float:
    """M(u) = tension + stretch * Q(u) with Q the edge-sum gradient energy
    of the composite displacement (both region integrals merge)."""
    if spec.variant != "berger":
        raise UsageError("berger_coefficient called on a non-Berger spec")
    return spec.tension + spec.stretch * gradient_form(domain, u, u)


def _scalar_pointwise(domain: Domain, u: np.ndarray, spec: NonlinearitySpec):
    """Regionally blended pointwise force (w1*f1 + w2*f2)/h^2.

    Interface nodes take the quadrature-weighted blend of both laws; that is
    the assignment under which the discrete-gradient increment identity is
    exact (the interface has measure zero, so any consistent choice is O(h)).
    """
    h2 = domain.h * domain.h
    return (domain.w1 * spec.f1(u) + domain.w2 * spec.f2(u)) / h2


def force(domain: Domain, u: np.ndarray,
          spec: NonlinearitySpec) -> np.ndarray:
    """The force F(u) as it enters the equations of motion on their left
    side (Berger: -M(u) lap u; scalar: pointwise f per region)."""
    if spec.variant == "berger":
        m = berger_coefficient(domain, u, spec)
        out = -m * laplacian_clamped(domain, u)
    else:
        out = _scalar_pointwise(domain, u, spec)
    out[domain.gamma1] = 0.0
    return out


def potential(domain: Domain, u: np.ndarray,
              spec: NonlinearitySpec) -> float:
    """Potential Pi(u) with d/dt Pi = <F, u_t>.

    Berger uses the antiderivative (tension/2) Q + (stretch/4) Q^2, which
    differs from M^2/(4*stretch) only by a constant and is the form
    consistent with the potential contract for every stretch value.
    """
    if spec.variant == "berger":
        q = gradient_form(domain, u, u)
        return 0.5 * spec.tension * q + 0.25 * spec.stretch * q * q
    # a zero force adds exactly 0.0 to the sum, so it is not evaluated
    total = 0.0
    for w, f in ((domain.w1, spec.f1), (domain.w2, spec.f2)):
        if not f.is_zero():
            total += float(np.sum(w * f.antiderivative(u)))
    return total


def discrete_gradient_force(domain: Domain, u_old: np.ndarray,
                            u_new: np.ndarray,
                            spec: NonlinearitySpec) -> np.ndarray:
    """Two-point force G of a scalar force for the energy-exact stepper.

    Satisfies <G, u_new - u_old>_{L^2} = -(Pi(u_new) - Pi(u_old)) exactly,
    i.e. G is the mean-value gradient of -Pi and consistent with -force at
    coincident arguments: the pointwise difference quotient of the
    antiderivative, in closed form (sign flipped). The Berger step forms
    its force on sine coefficients instead (PlateStepper), so a Berger spec
    raises UsageError.
    """
    if spec.variant == "berger":
        raise UsageError("discrete_gradient_force called on a Berger spec")
    h2 = domain.h * domain.h
    dq1 = spec.f1.difference_quotient(u_old, u_new)
    dq2 = spec.f2.difference_quotient(u_old, u_new)
    out = -(domain.w1 * dq1 + domain.w2 * dq2) / h2
    out[domain.gamma1] = 0.0
    return out
