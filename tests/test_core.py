"""Parameter records, their band, and the cluster sum."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import photon_scatter
from photon_scatter import hwg, tcra, twg
from photon_scatter.core import HWGParams, TCRAParams, TWGParams, _cluster_terms


def test_cosine_band_values():
    band = TCRAParams(omega_atom=0.0, omega_cavity=np.pi, hopping=1.0, coupling=1.0)
    assert band.band_energy(np.pi / 2) == pytest.approx(np.pi, abs=0)
    assert band.band_energy(0.0) == pytest.approx(np.pi - 2.0)
    assert band.band_bottom == pytest.approx(np.pi - 2.0)
    assert band.band_top == pytest.approx(np.pi + 2.0)


def test_cosine_band_bz_domain():
    band = TCRAParams(0.0, np.pi, 1.0, 1.0)
    with pytest.raises(ValueError, match="Brillouin zone"):
        band.band_energy(3.5)
    k = np.linspace(-np.pi + 1e-6, np.pi, 101)
    e = band.band_energy(k)
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
        assert h.bright == TWGParams(h.omega_atom, h.gamma_e)


_LEAST = float(np.nextafter(2.0 / np.finfo(float).max, 1.0))


def test_parameter_validation():
    # each range check holds for every entry of an array field and gives the
    # scalar case's error; the array cases are bad at one entry only
    cases = [
        (TCRAParams, (1.0, 1.0, -0.5, 1.0), (1.0, 1.0, np.array([1.0, -0.5, 2.0]), 1.0),
         "hopping must be positive"),
        (TCRAParams, (1.0, 1.0, 1.0, -1.0), (1.0, 1.0, 1.0, np.array([0.0, 1.0, -1.0])),
         "coupling must be nonnegative"),
        (TCRAParams, (1.0, 0.0, 0.0, 1.0), (1.0, np.zeros(3), np.array([1.0, 0.0, 1.0]), 1.0),
         "hopping must be positive"),
        (TWGParams, (1.0, 0.0), (np.ones(2), np.array([1.0, 0.0])), "gamma_t must be positive"),
        # linewidths for which 2 / gamma_t overflows: the least subnormal up to
        # 1.112e-308, just below 2 / (largest double) = 1.1125e-308
        (TWGParams, (1.0, 5e-324), (np.ones(2), np.array([1.0, 5e-324])), "2 / gamma_t overflows"),
        (TWGParams, (1.0, 1e-308), (np.ones(2), np.array([1.0, 1e-308])), "2 / gamma_t overflows"),
        (TWGParams, (1.0, 1.112e-308), (np.ones(2), np.array([1.0, 1.112e-308])),
         "2 / gamma_t overflows"),
        # one double above 2 / (largest double), 2 / gamma_t is finite but
        # the resonant pole's complex reciprocal still overflows
        (TWGParams, (1.0, _LEAST), (np.ones(2), np.array([1.0, _LEAST])), "2 / gamma_t overflows"),
        (HWGParams, (1.0, (1.0, 1.0, 1.0)), (np.ones(2), (np.ones(2),) * 3), "vbar must be a pair"),
        (HWGParams, (1.0, (0.0, 0.0)), (1.0, (np.array([1.0, 0.0]), np.zeros(2))),
         "at least one coupling must be nonzero"),
        (HWGParams, (1.0, (1.0, -2.0)), (1.0, (1.0, np.array([2.0, -2.0]))),
         "couplings must be nonnegative"),
        # couplings that square to a gamma_e of 0 or one for which 2 / gamma_e
        # overflows: named as gamma_e, not as the bright waveguide's gamma_t
        (HWGParams, (1.0, (1e-170, 0.0)), (1.0, (np.array([1.0, 1e-170]), np.zeros(2))),
         r"^gamma_e overflows to infinity or 2 / gamma_e overflows"),
        (HWGParams, (1.0, (1e-158, 0.0)), (1.0, (np.array([1.0, 1e-158]), np.zeros(2))),
         r"^gamma_e overflows to infinity or 2 / gamma_e overflows"),
        # and couplings that square to an infinite gamma_e
        (HWGParams, (1.0, (1e155, 0.0)), (1.0, (np.array([1.0, 1e155]), np.zeros(2))),
         r"^gamma_e overflows to infinity or 2 / gamma_e overflows"),
    ]
    for record, scalar, array, message in cases:
        for args in (scalar, array):
            with pytest.raises(ValueError, match=message):
                record(*args)
    # the least linewidths whose resonant pole has a finite reciprocal are
    # accepted, and give t = -1 there
    least = float(np.nextafter(_LEAST, 1.0))
    assert twg.transmission_amplitude(TWGParams(0.0, least), 0.0) == -1.0
    assert TWGParams(1.0, 1.113e-308).gamma_t == 1.113e-308
    assert HWGParams(1.0, (1.06e-154, 0.0)).gamma_e > 0.0
    # a pair may vanish in one waveguide at each entry, only not in both
    h = HWGParams(1.0, (np.array([0.0, 1.0]), np.array([1.0, 0.0])))
    assert np.array_equal(h.gamma_e, [1.0, 1.0])


@pytest.mark.parametrize(
    "record, args",
    [
        (TCRAParams, (0.0, np.nan, 1.0, 1.0)),
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
        # array fields with one bad entry
        (TCRAParams, (0.0, np.array([0.0, np.nan]), 1.0, 1.0)),
        (TCRAParams, (0.0, 0.0, 1.0, np.array([1.0, np.inf, 0.5]))),
        (TCRAParams, (np.array([0.0, 1.0]), 0.0, np.array([np.nan, 1.0]), 1.0)),
        (TCRAParams, (0.0, 0.0, np.array([1.0, np.inf]), 1.0)),
        (TWGParams, (0.0, np.array([1.0, -np.inf]))),
        (HWGParams, (np.array([np.nan, 0.0]), (1.0, 1.0))),
        (HWGParams, (0.0, (np.ones(3), np.array([1.0, 1.0, np.inf])))),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else str(v).replace(" ", ""),
)
def test_parameter_records_refuse_non_finite(record, args):
    # a range check is false for nan, and an infinity is in range
    with pytest.raises(ValueError, match="finite"):
        record(*args)


def test_array_records_refuse_scalar_only_entry_points():
    # the bound states and the self-energy take one parameter point; an
    # array record raises there instead of returning a value
    p = TCRAParams(np.array([0.0, 0.3]), 0.0, 1.0, np.array([1.0, 0.5]))
    with pytest.raises(ValueError, match="ambiguous"):
        tcra.bound_state_energies(p)
    with pytest.raises(TypeError):
        tcra.self_energy(p, 3.0)


def test_lattice_to_waveguide_mapping():
    # the even-channel phase 1 + 2 r_k of the lattice is the waveguide t at
    # the band energy, with gamma_t = 2 V^2 / v_g at the carrier's velocity
    rng = np.random.default_rng(11)
    for _ in range(200):
        w0, omega, j, v = rng.uniform((-2, -2, 0.2, 0.1), (2, 2, 3, 3))
        p = TCRAParams(omega, w0, j, v)
        k = rng.uniform(0.1, np.pi - 0.1)
        v_g = float(p.group_velocity(k))
        w = TWGParams(p.omega_atom, 2.0 * p.coupling**2 / v_g)
        even = 1.0 + 2.0 * tcra.reflection_amplitude(p, k)
        assert abs(even - twg.transmission_amplitude(w, float(p.band_energy(k)))) <= 1e-14


@pytest.mark.parametrize(
    "module",
    ["photon_scatter", "photon_scatter.core", "photon_scatter.tcra", "photon_scatter.twg",
     "photon_scatter.hwg", "photon_scatter.bethe", "photon_scatter.cli"],
)
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_exported_names_are_read_in_the_package():
    # nothing is exported only to be tested: each name a physics or oracle
    # module exports in __all__ or defines as public is loaded as a name or
    # read as an attribute somewhere in src/
    read = set()
    for path in Path(photon_scatter.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module in ("core", "tcra", "twg", "hwg", "bethe", "lattice_oracle"):
        namespace = importlib.import_module(f"photon_scatter.{module}")
        public = set(getattr(namespace, "__all__", ())) | {
            name
            for name, value in vars(namespace).items()
            if not name.startswith("_")
            and getattr(value, "__module__", None) == namespace.__name__
        }
        unread += [f"{module}.{name}" for name in sorted(public - read)]
    assert unread == []


def _arity_is(density, free):
    """Whether ``density`` takes exactly the on-shell momenta ``free``."""
    if not np.isfinite(density(*free)):
        return False
    try:
        density(*free, free[0])
    except (TypeError, ValueError):
        return True
    return False


def test_cluster_sums_hold_every_split_once():
    # one term per split of the N incoming legs into singletons and at most
    # one cluster, times the injective maps of the singletons onto outgoing
    # slots: 1 + 2 terms for N = 2 and 1 + 9 + 6 for N = 3, the fully
    # connected term first
    h_type = hwg.two_photon_s_h(HWGParams(1.0, (1.0, 2.0)), 1.4, 0.7)
    sums = [
        ((1.2, 0.7), twg.two_photon_s(TWGParams(1.0, 1.0), 1.2, 0.7)),
        ((1.3, 0.9, 0.8), twg.three_photon_s(TWGParams(1.0, 1.0), (1.3, 0.9, 0.8))),
        *(((1.4, 0.7), terms) for terms in h_type.values()),
    ]
    # terms by number of pinned slots
    counts = {2: [1, 0, 2], 3: [1, 9, 0, 6]}
    for k, terms in sums:
        n = len(k)
        assert len(terms) == {2: 3, 3: 16}[n]
        assert [sum(len(t.pinned) == r for t in terms) for r in range(n + 1)] == counts[n]
        assert terms[0].pinned == ()
        for term in terms:
            slots = [s for s, _ in term.pinned]
            assert slots == sorted(set(slots))
            free = list(k)
            for _, v in term.pinned:
                free.remove(v)
            # the pinned slots and the density's arguments make up N
            assert (term.density is None) == (free == [])
            if free:
                assert _arity_is(term.density, free)


def test_cluster_sum_refuses_four_photons():
    # {12}{34} would need two clusters, which the sum does not hold
    with pytest.raises(ValueError, match="up to 3 photons"):
        _cluster_terms((0.1, 0.2, 0.3, 0.4), lambda i, s: 1.0, lambda legs, slots: (1.0, None))
