"""Dynamical systems for the fish-bone suspension bridge model.

The bridge deck is idealized as a beam (vertical deflection y, positive
downwards) carrying rigid cross sections that rotate around the beam axis.
With the torsional coordinate z (half-width times rotation angle) both
fields are expanded in sine modes on (0, pi),

    y(x, t) = sum_j y_j(t) sin(jx),    z(x, t) = sum_j z_j(t) sin(jx),

and projecting the equations of motion on the first m modes yields 2m
coupled oscillators.  For m = 1 the projection closes in elementary terms:

    y1'' + 3 y1 + (3/2) y1^3 + (9/2) y1 z1^2 = 0
    z1'' + 7 z1 + (9/2) z1^3 + (27/2) z1 y1^2 = 0

Linear aerodynamic forces enter as cross couplings of strength delta:

    cross-derivative variant:   ... + delta z1' = 0,   ... + delta y1' = 0
    with zero-order terms:      ... + delta (z1' + z1) = 0,
                                ... + 3 delta (y1' + y1) = 0

where the factor 3 on the torsional side balances the 1/3 kinetic weight
of the rotation, so that the zero-order pair derives from a single energy
term delta*y1*z1.

Without aerodynamic terms the 1-mode system conserves

    E = y1'^2/2 + z1'^2/6 + (3/2) y1^2 + (7/6) z1^2
        + (9/4) y1^2 z1^2 + (3/8) (y1^4 + z1^4)

which is the quantity tracked by :func:`energy`.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Variant",
    "ModelSpec",
    "SystemState",
    "EnergyBreakdown",
    "one_mode_accelerations",
    "rhs_one_mode",
    "rhs_m_mode",
    "energy",
    "vertical_mode_energy",
    "MAX_MODES",
]

#: Largest mode count: the m-mode right-hand side samples m sines at 4m + 1
#: points, a table of 32 MB at 1000 modes.
MAX_MODES = 1000


class Variant(enum.Enum):
    """Which coupling structure the equations of motion carry."""

    ISOLATED = "isolated"
    CROSS_DERIV = "cross"
    CROSS_DERIV_ZERO = "crosszero"


@dataclass(frozen=True)
class ModelSpec:
    """Choice of dynamical system: variant, mode count, aerodynamic strength.

    An isolated system has no aerodynamic coupling, so ``delta`` is forced
    to zero for that variant.  The aerodynamic variants are defined only at
    the 1-mode level; constructing them with m > 1 raises ``ValueError``, as
    does an m outside 1..MAX_MODES.
    """

    variant: Variant
    m: int = 1
    delta: float = 0.0

    def __post_init__(self) -> None:
        if not 1 <= self.m <= MAX_MODES:
            raise ValueError(f"mode count must be in 1..{MAX_MODES}, got {self.m}")
        if not 0.0 <= self.delta < math.inf:
            raise ValueError(f"delta must be finite and nonnegative, got {self.delta}")
        if self.variant is Variant.ISOLATED:
            object.__setattr__(self, "delta", 0.0)
        elif self.m != 1:
            raise ValueError(
                f"{self.variant.value!r} dynamics are defined for m = 1 only"
            )


@dataclass(frozen=True)
class SystemState:
    """Time plus modal coordinates and velocities.

    All four vectors have the same length m.  Entries are stored as plain
    float tuples so states are immutable and safe to share.  Finiteness is
    not checked here: a non-finite entry is treated as a blow-up signal by
    the integrator.
    """

    t: float
    y: tuple[float, ...]
    z: tuple[float, ...]
    ydot: tuple[float, ...]
    zdot: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("y", "z", "ydot", "zdot"):
            object.__setattr__(
                self, name, tuple(float(v) for v in getattr(self, name))
            )
        m = len(self.y)
        if m < 1:
            raise ValueError("state vectors must have at least one mode")
        if not (len(self.z) == len(self.ydot) == len(self.zdot) == m):
            raise ValueError("state vectors must all have the same length")

    @classmethod
    def single(
        cls, t: float, y1: float, z1: float, ydot1: float, zdot1: float
    ) -> "SystemState":
        """Convenience constructor for 1-mode states."""
        return cls(t=t, y=(y1,), z=(z1,), ydot=(ydot1,), zdot=(zdot1,))

    @property
    def m(self) -> int:
        return len(self.y)

    def flat(self) -> tuple[float, ...]:
        """State as one flat tuple (y, z, ydot, zdot) of length 4m."""
        return self.y + self.z + self.ydot + self.zdot


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy of a 1-mode state split by term.

    ``total`` is evaluated as one polynomial expression; it equals the sum
    of the named parts up to a few units of roundoff.  ``aero_cross`` is the
    delta*y1*z1 term and is zero except for the cross-derivative variant
    with zero-order terms.
    """

    kinetic_y: float
    kinetic_z: float
    quadratic: float
    coupling: float
    quartic: float
    aero_cross: float
    total: float


def _cross_coefficients(spec: ModelSpec) -> tuple[float, float, float, float]:
    """Aerodynamic coupling coefficients for the 1-mode equations.

    Returns (c_v_zdot, c_v_z, c_t_ydot, c_t_y): the multipliers of z1',
    z1 in the vertical equation and of y1', y1 in the torsional equation.
    """
    if spec.variant is Variant.ISOLATED:
        return 0.0, 0.0, 0.0, 0.0
    d = spec.delta
    if spec.variant is Variant.CROSS_DERIV:
        return d, 0.0, d, 0.0
    return d, d, 3.0 * d, 3.0 * d


def one_mode_accelerations(
    y: float,
    z: float,
    ydot: float,
    zdot: float,
    c_v_zdot: float,
    c_v_z: float,
    c_t_ydot: float,
    c_t_y: float,
) -> tuple[float, float]:
    """Accelerations (y1'', z1'') of the 1-mode system.

    The structural coefficients (3, 3/2, 9/2) and (7, 9/2, 27/2) are fixed
    rationals of the 1-mode projection; the four c_* arguments carry the
    variant-dependent aerodynamic couplings (see ``_cross_coefficients``).
    It takes plain floats: the adaptive 1-mode right-hand side
    (``integrator._rhs``) and ``rhs_one_mode`` call it, and the fixed-step
    kernels write it out without its zero products.
    """
    ay = -(3.0 * y + 1.5 * y * y * y + 4.5 * y * z * z + c_v_zdot * zdot + c_v_z * z)
    az = -(7.0 * z + 4.5 * z * z * z + 13.5 * z * y * y + c_t_ydot * ydot + c_t_y * y)
    return ay, az


def rhs_one_mode(spec: ModelSpec, state: SystemState) -> tuple[float, float]:
    """Accelerations (y1'', z1'') for any variant at m = 1."""
    if spec.m != 1 or state.m != 1:
        raise ValueError("rhs_one_mode requires m = 1")
    c = _cross_coefficients(spec)
    return one_mode_accelerations(
        state.y[0], state.z[0], state.ydot[0], state.zdot[0], *c
    )


@lru_cache(maxsize=None)
def _m_mode_accelerations(m: int) -> Callable[[Sequence[float]], tuple[np.ndarray, np.ndarray]]:
    """(y_j'', z_j'') of the m-mode system from the flat state (y, z, ...).

    The nonlinear projection integrands are odd trigonometric polynomials of
    degree <= 4m, so the interior-point sum (pi/N) * sum g(k pi/N) with
    N = 4m + 2 integrates them exactly (discrete sine orthogonality holds
    for all frequency sums below 2N).  The tables are built once per m.
    """
    n = 4 * m + 2
    x = np.arange(1, n) * (math.pi / n)
    modes = np.arange(1, m + 1, dtype=float)
    sines = np.sin(np.outer(x, modes))
    sample, project = sines.dot, sines.T.dot
    neg_j4, neg_j2 = -(modes**4), -(modes**2)
    cy, cz = 4.0 / n, 12.0 / n

    def accelerations(u):
        y = np.asarray(u[:m])
        z = np.asarray(u[m : 2 * m])
        yx = sample(y)
        zx = sample(z)
        gy = yx * (1.0 + yx * yx + 3.0 * zx * zx)
        gz = zx * (1.0 + 3.0 * yx * yx + zx * zx)
        return neg_j4 * y - cy * project(gy), neg_j2 * z - cz * project(gz)

    return accelerations


def rhs_m_mode(spec: ModelSpec, state: SystemState) -> tuple[np.ndarray, np.ndarray]:
    """Accelerations (y_j'', z_j'') of the isolated m-mode Galerkin system.

    Evaluates

        y_j'' = -j^4 y_j - (4/pi)  integral y (1 + y^2 + 3 z^2) sin(jx) dx
        z_j'' = -j^2 z_j - (12/pi) integral z (1 + 3 y^2 + z^2) sin(jx) dx

    with the integrals taken over (0, pi) and computed exactly on the sine
    grid.  Only the isolated variant is defined for general m.
    """
    if spec.variant is not Variant.ISOLATED:
        raise ValueError("the m-mode system is defined for the isolated variant only")
    if state.m != spec.m:
        raise ValueError(f"state has m={state.m} but spec has m={spec.m}")
    return _m_mode_accelerations(spec.m)(state.y + state.z)


def _energy_terms(
    y: float, z: float, yd: float, zd: float, aero_delta: float | None
) -> tuple[float, float, float, float, float, float, float]:
    """(total, kinetic_y, kinetic_z, quadratic, coupling, quartic, aero_cross).

    The energy of the 1-mode state (y1, z1, y1', z1') in the column order
    of the trajectory CSV; ``aero_delta`` is the delta of the zero-order
    coupling term delta*y1*z1, or None where the variant has none.  Both
    ``energy`` and the CSV writer take their values from here.
    """
    kin_y = 0.5 * yd * yd
    kin_z = zd * zd / 6.0
    quad = 1.5 * y * y + 7.0 * z * z / 6.0
    coup = 2.25 * y * y * z * z
    quart = 0.375 * (y**4 + z**4)
    # total is evaluated as its own expression, not as the sum of the parts
    total = (
        0.5 * yd * yd
        + zd * zd / 6.0
        + 1.5 * y * y
        + 7.0 * z * z / 6.0
        + 2.25 * y * y * z * z
        + 0.375 * (y**4 + z**4)
    )
    if aero_delta is not None:
        aero = aero_delta * y * z
        total += aero
    else:
        aero = 0.0
    return total, kin_y, kin_z, quad, coup, quart, aero


def _aero_delta(spec: ModelSpec) -> float | None:
    """The ``aero_delta`` of ``_energy_terms`` for this spec."""
    return spec.delta if spec.variant is Variant.CROSS_DERIV_ZERO else None


def energy(spec: ModelSpec, state: SystemState) -> EnergyBreakdown:
    """Energy of a 1-mode state, split by term.

    For the isolated system the total is a conserved quantity; for the
    aerodynamic variants it is the tracked energy function (with the extra
    delta*y1*z1 term when zero-order couplings are present).
    """
    if state.m != 1 or spec.m != 1:
        raise ValueError("the energy function is defined for m = 1 only")
    total, kin_y, kin_z, quad, coup, quart, aero = _energy_terms(
        state.y[0], state.z[0], state.ydot[0], state.zdot[0], _aero_delta(spec)
    )
    return EnergyBreakdown(
        kinetic_y=kin_y,
        kinetic_z=kin_z,
        quadratic=quad,
        coupling=coup,
        quartic=quart,
        aero_cross=aero,
        total=total,
    )


def vertical_mode_energy(eta0: float, eta1: float) -> float:
    """Conserved energy of the pure vertical mode y'' + 3y + (3/2)y^3 = 0.

    E(eta0, eta1) = eta1^2/2 + (3/2) eta0^2 + (3/8) eta0^4.
    """
    return 0.5 * eta1 * eta1 + 1.5 * eta0 * eta0 + 0.375 * eta0**4
