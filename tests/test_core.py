"""Parameter records, dispersions, kinematics."""

import numpy as np
import pytest

from photon_scatter.core import (
    CosineBand,
    HWGParams,
    LinearBand,
    TCRAParams,
    TWGParams,
    TwoPhotonKinematics,
    eo_mixing_matrix,
)


def test_cosine_band_values():
    band = CosineBand(omega_cavity=np.pi, hopping=1.0)
    assert band.energy(np.pi / 2) == pytest.approx(np.pi, abs=0)
    assert band.energy(0.0) == pytest.approx(np.pi - 2.0)
    assert band.band_bottom == pytest.approx(np.pi - 2.0)
    assert band.band_top == pytest.approx(np.pi + 2.0)


def test_cosine_band_bz_domain():
    band = CosineBand(np.pi, 1.0)
    with pytest.raises(ValueError):
        band.energy(3.5)
    k = np.linspace(-np.pi + 1e-6, np.pi, 101)
    e = band.energy(k)
    assert np.all(e >= band.band_bottom - 1e-12)
    assert np.all(e <= band.band_top + 1e-12)


def test_linear_band():
    band = LinearBand()
    assert band.energy(-0.7) == pytest.approx(0.7)
    assert band.group_velocity == 1.0


def test_derived_fields_random_draws():
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = rng.uniform(0.1, 3.0)
        p = TCRAParams(rng.uniform(0, 6), rng.uniform(0, 6), rng.uniform(0.2, 3), v)
        assert p.gamma == v**2
        w = TWGParams(rng.uniform(0, 6), rng.uniform(0.1, 4))
        assert w.alpha.imag == -0.5 * w.gamma_t
        h = HWGParams(rng.uniform(0, 6), (rng.uniform(0.1, 3), rng.uniform(0.1, 3)))
        assert h.gamma_e == pytest.approx(h.vbar[0] ** 2 + h.vbar[1] ** 2, rel=1e-15)
        assert h.alpha_h.imag == -0.5 * h.gamma_e


def test_parameter_validation():
    with pytest.raises(ValueError):
        TCRAParams(1.0, 1.0, -0.5, 1.0)
    with pytest.raises(ValueError):
        TWGParams(1.0, 0.0)
    with pytest.raises(ValueError):
        HWGParams(1.0, (0.0, 0.0))
    with pytest.raises(ValueError):
        HWGParams(1.0, (1.0, 1.0), (1.0, -2.0))


def test_twg_from_coupling():
    w = TWGParams.from_coupling(1.0, 1.0)
    assert w.gamma_t == 2.0


def test_kinematics_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(100):
        k1, k2 = rng.uniform(-3, 3, size=2)
        kin = TwoPhotonKinematics.from_momenta(k1, k2)
        b1, b2 = kin.momenta
        assert abs(b1 - k1) < 1e-14 and abs(b2 - k2) < 1e-14
        x1, x2 = rng.uniform(-20, 20, size=2)
        xc, x = TwoPhotonKinematics.positions_to_pair(x1, x2)
        c1, c2 = TwoPhotonKinematics.pair_to_positions(xc, x)
        assert abs(c1 - x1) < 1e-13 and abs(c2 - x2) < 1e-13


def test_eo_mixing_unitary():
    m = eo_mixing_matrix(1.0)
    assert np.allclose(m @ m.T, np.eye(2), atol=1e-15)
    # symmetric input feeds only the even channel
    e, o = m @ np.array([0.3, 0.3])
    assert e == pytest.approx(0.3 * np.sqrt(2.0))
    assert o == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        eo_mixing_matrix(-1.0)

