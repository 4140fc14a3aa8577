import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinflux.bath import BathSpec, planck, rate, spectral_density


def make_bath(beta=0.41, coupling=0.01, side="left"):
    return BathSpec(beta=beta, coupling=coupling, side=side)


class TestSpec:
    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError, match="temperature"):
            make_bath(beta=0.0)

    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError, match="coupling"):
            make_bath(coupling=-0.1)


class TestPlanck:
    def test_log2_value(self):
        assert planck(1.0, math.log(2.0)) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("beta", [0.41, 1.39])
    def test_negative_frequency_identity(self, beta):
        # N(-w) = -(N(w) + 1), checked against high-precision evaluation
        for w in (0.3, 1.0, 2.7):
            assert planck(-w, beta) == pytest.approx(-(planck(w, beta) + 1.0),
                                                     rel=1e-13)

    def test_zero_temperature_limit(self):
        assert planck(1.0, 1e6) == pytest.approx(0.0, abs=1e-300)

    def test_pole_is_an_error(self):
        with pytest.raises(ValueError, match="pole"):
            planck(0.0, 1.0)


class TestSpectralDensity:
    def test_linear_above_zero(self):
        assert spectral_density(2.0) == 2.0

    def test_zero_at_zero(self):
        assert spectral_density(0.0) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-50, 50, allow_nan=False))
    def test_odd_extension(self, w):
        assert spectral_density(w) - spectral_density(-w) == pytest.approx(w, abs=1e-15)


class TestRate:
    def test_reference_value(self):
        # scalar oracle: (kappa/2) * w / (exp(beta w) - 1)
        got = rate(1.0, make_bath(beta=0.41, coupling=0.01))
        assert got == pytest.approx(0.005 / (math.exp(0.41) - 1.0), rel=1e-14)
        assert got == pytest.approx(9.8654e-3, rel=1e-4)

    @pytest.mark.parametrize("beta", [0.41, 1.39])
    def test_detailed_balance(self, beta):
        bath = make_bath(beta=beta)
        ratio = rate(1.0, bath) / rate(-1.0, bath)
        assert ratio == pytest.approx(math.exp(-beta * 1.0), rel=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.01, 50, allow_nan=False), st.floats(0.05, 20, allow_nan=False))
    def test_detailed_balance_property(self, w, beta):
        bath = make_bath(beta=beta)
        lhs = rate(w, bath)
        rhs = math.exp(-beta * w) * rate(-w, bath)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=5e-324)

    def test_vacuum_excess(self):
        # decay exceeds excitation by (kappa/2) * w
        bath = make_bath(beta=0.7, coupling=0.02)
        assert rate(-1.3, bath) - rate(1.3, bath) == pytest.approx(
            0.5 * 0.02 * 1.3, rel=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(-60, 60, allow_nan=False), st.floats(0.05, 20, allow_nan=False))
    def test_nonnegative(self, w, beta):
        assert rate(w, make_bath(beta=beta)) >= 0.0

    def test_monotone_in_beta(self):
        vals = [rate(1.0, make_bath(beta=b)) for b in (0.2, 0.5, 1.0, 2.0, 5.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_zero_frequency_limit(self):
        bath = make_bath(beta=0.8, coupling=0.03)
        limit = 0.03 / (2 * 0.8)
        assert rate(0.0, bath) == pytest.approx(limit, rel=1e-15)
        for eps in (1e-4, 1e-6, 1e-8):
            assert rate(eps, bath) == pytest.approx(limit, rel=1e-3)
            assert rate(-eps, bath) == pytest.approx(limit, rel=1e-3)

    @pytest.mark.parametrize("w", [5e-324, 1e-310, -5e-324, -1e-310])
    def test_underflowing_frequency_takes_the_limit(self, w):
        # beta*w is subnormal or zero: planck would hit its pole or return inf
        bath = make_bath(beta=0.41, coupling=0.01)
        assert rate(w, bath) == 0.01 / (2 * 0.41)

    def test_continuity_tightens(self):
        bath = make_bath(beta=0.8, coupling=0.03)
        limit = rate(0.0, bath)
        devs = [abs(rate(eps, bath) - limit) for eps in (1e-2, 1e-4, 1e-6)]
        assert devs[0] > devs[1] > devs[2]
