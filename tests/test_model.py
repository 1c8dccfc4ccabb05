import math

import numpy as np
import pytest

from fishbone.integrator import _SCALAR_MAX_MODES, _rhs
from fishbone.model import (
    MAX_MODES,
    ModelSpec,
    SystemState,
    Variant,
    _m_mode_accelerations,
    _scalar_accelerations,
    energy,
    rhs_m_mode,
    rhs_one_mode,
    vertical_mode_energy,
)
from oracles import m_mode_rhs_trapezoid

ISO = ModelSpec(Variant.ISOLATED)


class TestModelSpec:
    def test_isolated_forces_delta_zero(self):
        assert ModelSpec(Variant.ISOLATED, delta=0.3).delta == 0.0

    def test_aero_variants_require_one_mode(self):
        with pytest.raises(ValueError):
            ModelSpec(Variant.CROSS_DERIV, m=2, delta=0.01)
        with pytest.raises(ValueError):
            ModelSpec(Variant.CROSS_DERIV_ZERO, m=3, delta=0.01)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(Variant.CROSS_DERIV, delta=-0.01)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(ValueError):
            ModelSpec(Variant.CROSS_DERIV, delta=delta)

    def test_mode_count_positive(self):
        with pytest.raises(ValueError):
            ModelSpec(Variant.ISOLATED, m=0)

    def test_mode_count_capped(self):
        assert ModelSpec(Variant.ISOLATED, m=MAX_MODES).m == MAX_MODES
        with pytest.raises(ValueError, match="mode count"):
            ModelSpec(Variant.ISOLATED, m=MAX_MODES + 1)


class TestSystemState:
    def test_vector_lengths_must_match(self):
        with pytest.raises(ValueError):
            SystemState(t=0.0, y=(1.0, 2.0), z=(0.0,), ydot=(0.0, 0.0), zdot=(0.0, 0.0))

    def test_coerces_to_float_tuples(self):
        st = SystemState(t=0.0, y=np.array([1.0]), z=[0], ydot=(0,), zdot=(0,))
        assert st.y == (1.0,) and st.z == (0.0,)
        assert st.m == 1
        assert st.flat() == (1.0, 0.0, 0.0, 0.0)


class TestOneModeRhs:
    def test_rest_state_is_equilibrium(self):
        assert rhs_one_mode(ISO, SystemState.single(0, 0, 0, 0, 0)) == (0.0, 0.0)

    def test_isolated_pure_vertical(self):
        ay, az = rhs_one_mode(ISO, SystemState.single(0, 1, 0, 0, 0))
        assert ay == -4.5  # -(3 + 3/2)
        assert az == 0.0

    def test_cross_derivative_coupling(self):
        spec = ModelSpec(Variant.CROSS_DERIV, delta=0.01)
        ay, az = rhs_one_mode(spec, SystemState.single(0, 0, 0, 0, 1))
        assert ay == pytest.approx(-0.01, abs=0)
        assert az == 0.0

    def test_zero_order_coupling_carries_factor_three(self):
        spec = ModelSpec(Variant.CROSS_DERIV_ZERO, delta=0.01)
        ay, az = rhs_one_mode(spec, SystemState.single(0, 1, 0, 0, 0))
        assert ay == -4.5
        assert az == pytest.approx(-0.03, rel=1e-15)

    def test_general_point_all_terms(self):
        # -(3y + 1.5y^3 + 4.5yz^2), -(7z + 4.5z^3 + 13.5zy^2) at y=2, z=-1
        ay, az = rhs_one_mode(ISO, SystemState.single(0, 2.0, -1.0, 0.3, -0.2))
        assert ay == pytest.approx(-(6.0 + 12.0 + 9.0), rel=1e-15)
        assert az == pytest.approx(-(-7.0 - 4.5 - 54.0), rel=1e-15)

    def test_rejects_multimode_state(self):
        st = SystemState(0.0, (1.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
        with pytest.raises(ValueError):
            rhs_one_mode(ISO, st)


class TestEnergy:
    def test_unit_amplitude(self):
        e = energy(ISO, SystemState.single(0, 1, 0, 0, 0))
        assert e.total == 1.875  # 3/2 + 3/8
        assert e.quadratic == 1.5 and e.quartic == 0.375

    def test_rest_state(self):
        assert energy(ISO, SystemState.single(0, 0, 0, 0, 0)).total == 0.0

    def test_sufficient_region_boundary(self):
        eta0 = math.sqrt(10.0 / 21.0)
        e = energy(ISO, SystemState.single(0, eta0, 0, 0, 0))
        assert e.total == pytest.approx(235.0 / 294.0, abs=1e-12)

    def test_critical_amplitude_energy(self):
        e = energy(ISO, SystemState.single(0, 1.46, 0, 0, 0))
        assert e.total == pytest.approx(1.5 * 1.46**2 + 0.375 * 1.46**4, rel=1e-15)
        assert e.total == pytest.approx(4.901, abs=5e-4)

    def test_aero_cross_only_for_zero_order_variant(self):
        st = SystemState.single(0, 1.2, -0.7, 0.1, 0.4)
        assert energy(ISO, st).aero_cross == 0.0
        assert energy(ModelSpec(Variant.CROSS_DERIV, delta=0.05), st).aero_cross == 0.0
        e = energy(ModelSpec(Variant.CROSS_DERIV_ZERO, delta=0.05), st)
        assert e.aero_cross == pytest.approx(0.05 * 1.2 * -0.7, rel=1e-15)

    def test_rejects_multimode(self):
        st = SystemState(0.0, (1.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
        with pytest.raises(ValueError):
            energy(ModelSpec(Variant.ISOLATED, m=2), st)

    def test_split_sums_to_total_within_4_ulps(self):
        rng = np.random.default_rng(7)
        specs = [
            ISO,
            ModelSpec(Variant.CROSS_DERIV, delta=0.02),
            ModelSpec(Variant.CROSS_DERIV_ZERO, delta=0.02),
        ]
        for _ in range(200):
            vals = rng.uniform(-3.0, 3.0, 4)
            st = SystemState.single(0.0, *vals)
            for spec in specs:
                e = energy(spec, st)
                parts = (
                    e.kinetic_y + e.kinetic_z + e.quadratic
                    + e.coupling + e.quartic + e.aero_cross
                )
                assert abs(parts - e.total) <= 4 * math.ulp(max(abs(e.total), 1e-300))


class TestVerticalModeEnergy:
    def test_values(self):
        assert vertical_mode_energy(0.0, 0.0) == 0.0
        assert vertical_mode_energy(1.0, 0.0) == 1.875
        assert vertical_mode_energy(0.0, 1.0) == 0.5


class TestMModeRhs:
    def test_requires_isolated_variant(self):
        spec = ModelSpec(Variant.CROSS_DERIV, delta=0.01)
        with pytest.raises(ValueError):
            rhs_m_mode(spec, SystemState.single(0, 1, 0, 0, 0))

    def test_mode_count_mismatch(self):
        with pytest.raises(ValueError):
            rhs_m_mode(ModelSpec(Variant.ISOLATED, m=2),
                       SystemState.single(0, 1, 0, 0, 0))

    def test_zero_state_any_m(self):
        for m in (1, 2, 5):
            spec = ModelSpec(Variant.ISOLATED, m=m)
            zeros = (0.0,) * m
            ydd, zdd = rhs_m_mode(spec, SystemState(0.0, zeros, zeros, zeros, zeros))
            assert np.all(ydd == 0.0) and np.all(zdd == 0.0)

    def test_matches_one_mode_form_on_random_states(self):
        # the m=1 projection must reduce to the closed-form coefficients
        rng = np.random.default_rng(42)
        spec = ModelSpec(Variant.ISOLATED, m=1)
        worst = 0.0
        for _ in range(1000):
            y, z, yd, zd = rng.uniform(-3.0, 3.0, 4)
            st = SystemState.single(0.0, y, z, yd, zd)
            ydd, zdd = rhs_m_mode(spec, st)
            ay, az = rhs_one_mode(ISO, st)
            worst = max(worst, abs(ydd[0] - ay), abs(zdd[0] - az))
        assert worst < 1e-12

    def test_mode_three_excited_by_mode_one(self):
        # cubic of sin(x) projects on sin(3x): integral sin^3(x) sin(3x) = -pi/8
        spec = ModelSpec(Variant.ISOLATED, m=3)
        st = SystemState(0.0, (1.0, 0.0, 0.0), (0.0,) * 3, (0.0,) * 3, (0.0,) * 3)
        ydd, zdd = rhs_m_mode(spec, st)
        oracle_y, oracle_z = m_mode_rhs_trapezoid(st.y, st.z)
        assert ydd[2] != 0.0
        assert ydd[2] == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(ydd, oracle_y, atol=1e-6)
        np.testing.assert_allclose(zdd, oracle_z, atol=1e-6)

    def test_quadrature_matches_dense_trapezoid(self):
        rng = np.random.default_rng(3)
        for m in (2, 3, 4):
            spec = ModelSpec(Variant.ISOLATED, m=m)
            y = rng.uniform(-2.0, 2.0, m)
            z = rng.uniform(-2.0, 2.0, m)
            st = SystemState(0.0, y, z, (0.0,) * m, (0.0,) * m)
            ydd, zdd = rhs_m_mode(spec, st)
            oy, oz = m_mode_rhs_trapezoid(y, z, n_nodes=20000)
            np.testing.assert_allclose(ydd, oy, atol=1e-5)
            np.testing.assert_allclose(zdd, oz, atol=1e-5)


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_integrator_rhs_is_rhs_m_mode(m):
    # the integrator's right-hand side and the public one share one core,
    # so they agree to the bit (at m = 1 the integrator takes the closed
    # form, which TestMModeRhs compares with the quadrature)
    rng = np.random.default_rng(m)
    spec = ModelSpec(Variant.ISOLATED, m=m)
    f = _rhs(spec)
    for _ in range(200):
        u = tuple(rng.uniform(-3.0, 3.0, 4 * m).tolist())
        state = SystemState(0.0, u[:m], u[m : 2 * m], u[2 * m : 3 * m], u[3 * m :])
        ydd, zdd = rhs_m_mode(spec, state)
        assert f(0.0, u) == u[2 * m :] + tuple(ydd.tolist()) + tuple(zdd.tolist())


@pytest.mark.parametrize("m", range(2, _SCALAR_MAX_MODES + 1))
def test_scalar_accelerations_are_the_numpy_core(m):
    # the written-out float operations give the numpy core's bits, also on
    # signed zeros, infinities, NaN and values whose cubes overflow
    rng = np.random.default_rng(100 + m)
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e200, -1e200]
    scalar, core = _scalar_accelerations(m), _m_mode_accelerations(m)
    for k in range(600):
        u = (rng.uniform(-3.0, 3.0, 2 * m) * 10.0 ** rng.integers(-3, 3, 2 * m)).tolist()
        if k % 2:
            for i in rng.choice(2 * m, size=rng.integers(1, 4), replace=False):
                u[i] = special[rng.integers(len(special))]
        # the products with the sine table warn of a NaN, as numpy's do
        with np.errstate(all="ignore"):
            ydd, zdd = core(tuple(u))
            got = scalar(*u)
        assert all(type(v) is float for v in got)
        assert [v.hex() for v in got] == [v.hex() for v in ydd.tolist() + zdd.tolist()], u
