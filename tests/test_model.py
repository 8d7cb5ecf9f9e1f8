"""Parameter validation, neighborhood geometry, and regime guards."""

import numpy as np
import pytest

from drchm.model import (
    ModelParams,
    RegimeError,
    Vertex,
    pm_temporal_nbhd_size,
    require_gaussian,
    require_stable,
    spatial_nbhd_size,
    temporal_nbhd_size,
)


class TestModelParams:
    def test_valid_construction(self):
        p = ModelParams(beta=0.25, gamma=0.2, gamma_prime=0.2, n=100.0)
        assert p.regime == "gaussian"
        assert p.c_tilde == pytest.approx(0.625)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(beta=0.0, gamma=0.2, gamma_prime=0.2, n=1.0),
            dict(beta=-1.0, gamma=0.2, gamma_prime=0.2, n=1.0),
            dict(beta=0.25, gamma=0.0, gamma_prime=0.2, n=1.0),
            dict(beta=0.25, gamma=1.0, gamma_prime=0.2, n=1.0),
            dict(beta=0.25, gamma=0.5, gamma_prime=0.2, n=1.0),
            dict(beta=0.25, gamma=0.2, gamma_prime=0.0, n=1.0),
            dict(beta=0.25, gamma=0.2, gamma_prime=1.5, n=1.0),
            dict(beta=0.25, gamma=0.2, gamma_prime=0.2, n=-1.0),
            dict(beta=float("inf"), gamma=0.2, gamma_prime=0.2, n=1.0),
            dict(beta=True, gamma=0.2, gamma_prime=0.2, n=1.0),
            dict(beta=0.25, gamma=0.2, gamma_prime="0.2", n=1.0),
            dict(beta=0.25, gamma=0.2, gamma_prime=0.2, n=float("inf")),
            dict(beta=1e-300, gamma=0.7, gamma_prime=0.2, n=1.0),
        ],
    )
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    def test_regimes(self):
        assert ModelParams(0.25, 0.49, 0.2, 1.0).regime == "gaussian"
        assert ModelParams(0.25, 0.7, 0.2, 1.0).regime == "stable"

    def test_frozen(self, params_g):
        with pytest.raises(Exception):
            params_g.beta = 1.0


class TestPoints:
    def test_vertex_death(self):
        v = Vertex(x=1.0, u=0.5, b=-0.5, l=2.0)
        assert v.death == pytest.approx(1.5)

    def test_vertex_validation(self):
        with pytest.raises(ValueError):
            Vertex(x=0.0, u=0.0, b=0.0, l=1.0)
        with pytest.raises(ValueError):
            Vertex(x=0.0, u=1.5, b=0.0, l=1.0)
        with pytest.raises(ValueError):
            Vertex(x=0.0, u=0.5, b=0.0, l=0.0)


class TestGeometry:
    def test_nbhd_size_rejects_nonpositive(self, params_g):
        with pytest.raises(ValueError):
            spatial_nbhd_size(params_g, 0.0)

    def test_nbhd_size_closed_form(self, params_g):
        # c_tilde * u^-gamma, checked against a direct Riemann sum over w
        u = 0.3
        w = np.linspace(1e-7, 1.0, 2_000_001)
        radius = params_g.beta * u ** (-params_g.gamma) * w ** (-params_g.gamma_prime)
        riemann = 2.0 * np.mean(radius)
        assert spatial_nbhd_size(params_g, u) == pytest.approx(riemann, rel=1e-3)


class TestTemporal:
    def test_temporal_nbhd(self):
        v = Vertex(x=0.0, u=0.5, b=0.2, l=0.5)
        assert temporal_nbhd_size(v, 0.5) == pytest.approx(0.3)
        assert temporal_nbhd_size(v, 0.1) == 0.0
        assert temporal_nbhd_size(v, 0.9) == 0.0  # dead by then

    def test_pm_temporal_nbhd(self):
        v = Vertex(x=0.0, u=0.5, b=0.2, l=0.5)
        assert pm_temporal_nbhd_size(v, 0.5, "plus") == pytest.approx(0.3)
        assert pm_temporal_nbhd_size(v, 0.9, "plus") == pytest.approx(0.5)
        assert pm_temporal_nbhd_size(v, 0.5, "minus") == 0.0
        assert pm_temporal_nbhd_size(v, 0.9, "minus") == pytest.approx(0.5)
        # plus - minus telescopes to the two-sided neighborhood
        for t in (0.1, 0.4, 0.65, 0.9):
            diff = pm_temporal_nbhd_size(v, t, "plus") - pm_temporal_nbhd_size(
                v, t, "minus"
            )
            assert diff == pytest.approx(temporal_nbhd_size(v, t))
        with pytest.raises(ValueError):
            pm_temporal_nbhd_size(v, 0.5, "both")


class TestRegimeGuards:
    def test_require_gaussian(self, params_g, params_s):
        require_gaussian(params_g)
        with pytest.raises(RegimeError):
            require_gaussian(params_s)
        with pytest.raises(RegimeError):
            require_gaussian(ModelParams(0.25, 0.2, 0.6, 1.0))

    def test_require_stable(self, params_g, params_s):
        require_stable(params_s)
        with pytest.raises(RegimeError):
            require_stable(params_g)
