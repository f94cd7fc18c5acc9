"""Parameter records and dispersions."""

import importlib

import numpy as np
import pytest

from photon_scatter import tcra, twg
from photon_scatter.core import CosineBand, HWGParams, TCRAParams, TWGParams


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
        HWGParams(1.0, (1.0, -2.0))


@pytest.mark.parametrize(
    "record, args",
    [
        (CosineBand, (np.nan, 1.0)),
        (CosineBand, (0.0, np.inf)),
        (TCRAParams, (0.0, 0.0, 1.0, np.nan)),
        (TCRAParams, (0.0, 0.0, 1.0, np.inf)),
        (TCRAParams, (np.nan, 0.0, 1.0, 1.0)),
        (TCRAParams, (0.0, -np.inf, 1.0, 1.0)),
        (TCRAParams, (0.0, 0.0, np.inf, 1.0)),
        (TWGParams, (np.nan, 1.0)),
        (TWGParams, (0.0, np.inf)),
        (HWGParams, (np.inf, (1.0, 1.0))),
        (HWGParams, (np.nan, (1.0, 1.0))),
        (HWGParams, (0.0, (np.inf, 1.0))),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else str(v).replace(" ", ""),
)
def test_parameter_records_refuse_non_finite(record, args):
    # a range check is false for nan, and an infinity is in range
    with pytest.raises(ValueError, match="finite"):
        record(*args)


def test_lattice_to_waveguide_mapping():
    # the even-channel phase 1 + 2 r_k of the lattice is the waveguide t at
    # the band energy, with gamma_t = 2 V^2 / v_g at the carrier's velocity
    rng = np.random.default_rng(11)
    for _ in range(200):
        w0, omega, j, v = rng.uniform((-2, -2, 0.2, 0.1), (2, 2, 3, 3))
        p = TCRAParams(omega, w0, j, v)
        k = rng.uniform(0.1, np.pi - 0.1)
        v_g = float(p.band.group_velocity(k))
        w = TWGParams(p.omega_atom, 2.0 * p.coupling**2 / v_g)
        even = 1.0 + 2.0 * tcra.reflection_amplitude(p, k)
        assert abs(even - twg.transmission_amplitude(w, float(p.band.energy(k)))) <= 1e-14


@pytest.mark.parametrize(
    "module",
    ["photon_scatter", "photon_scatter.core", "photon_scatter.tcra", "photon_scatter.twg",
     "photon_scatter.hwg", "photon_scatter.bethe", "photon_scatter.cli"],
)
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
