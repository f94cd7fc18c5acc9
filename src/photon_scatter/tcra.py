"""Single-photon scattering and bound states on the atom-coupled resonator chain.

Everything here works on the full cosine band; the linearized waveguide
counterparts live in :mod:`photon_scatter.twg`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from photon_scatter.core import DeltaTerm, ScatteringAmplitudeSet, TCRAParams

__all__ = [
    "BAND_EDGE_SIN",
    "SelfEnergy",
    "BoundState",
    "reflection_amplitude",
    "single_photon_s_matrix",
    "self_energy",
    "bound_state_energies",
    "bound_state_wavefunction",
]

# |sin k| below this counts as a band edge, where the amplitude degenerates
BAND_EDGE_SIN = 1e-9

# acceptable residual of the bound-state equation after Newton polishing;
# beyond this the root finder is considered to have failed
_RESIDUAL_LIMIT = 1e-6


def reflection_amplitude(params: TCRAParams, k):
    """Reflection amplitude r_k of a single photon off the atom site.

    Parameters
    ----------
    params : TCRAParams
    k : float or ndarray
        Momentum strictly inside the band, ``0 < |k| < pi``.

    Returns
    -------
    complex or ndarray
        ``r_k = -i gamma / (2 J sin k (eps_k - omega_atom) + i gamma)``.
        The transmission amplitude is ``1 + r_k``.
    """
    k = np.asarray(k, dtype=float)
    if np.any(np.abs(np.sin(k)) < BAND_EDGE_SIN):
        raise ValueError("momentum at a band edge; reflection amplitude undefined")
    band = params.band
    vg = band.group_velocity(k)
    detune = band.energy(k) - params.omega_atom
    r = -1j * params.gamma / (vg * detune + 1j * params.gamma)
    return r if r.ndim else complex(r)


def single_photon_s_matrix(params: TCRAParams, k: float) -> ScatteringAmplitudeSet:
    """S-matrix of one photon: forward weight 1 + r_k, backward weight r_k."""
    r = reflection_amplitude(params, k)
    return ScatteringAmplitudeSet(
        total_energy=float(params.band.energy(k)),
        disconnected=(DeltaTerm((k,), 1.0 + r), DeltaTerm((-k,), r)),
    )


@dataclass(frozen=True)
class SelfEnergy:
    """Atom self-energy at frequency omega, with the sign that enters E - Omega.

    ``value`` is -Sigma(omega + i0), where Sigma(z) = V^2 / sqrt((z - omega0)^2
    - 4 J^2) (the branch that falls off like V^2 / z) is the self-energy of
    the atom propagator G(z) = 1 / (z - Omega - Sigma(z)).  A bound state
    therefore solves E - Omega + value = 0: at omega0 + 3J with J = V = 1,
    ``value`` is -1/sqrt(5).  Inside the band the real part vanishes and
    ``imag_part = gamma * dos / 2 > 0``; outside, the self-energy is real and
    ``dos = 0``.
    """

    omega: float
    real_part: float
    imag_part: float
    dos: float

    @property
    def value(self) -> complex:
        return self.real_part + 1j * self.imag_part


def self_energy(params: TCRAParams, omega: float) -> SelfEnergy:
    """Evaluate the atom self-energy; raises at the band edges."""
    d = omega - params.omega_cavity
    two_j = 2.0 * params.hopping
    # factorized form avoids cancellation for |d| barely above the edge
    gap2 = (d - two_j) * (d + two_j)
    if abs(gap2) < 1e-14 * two_j**2:
        raise ValueError("self-energy is singular at the band edge")
    if gap2 < 0.0:
        dos = 2.0 / np.sqrt(-gap2)
        return SelfEnergy(omega, 0.0, 0.5 * params.gamma * dos, dos)
    sigma = -params.gamma * np.sign(d) / np.sqrt(gap2)
    return SelfEnergy(omega, sigma, 0.0, 0.0)


@dataclass(frozen=True)
class BoundState:
    """One single-photon bound state outside the band.

    ``decay_log = ln kappa < 0`` fixes the exponential envelope; the upper
    branch carries the site-alternating sign.
    """

    energy: float
    branch: str  # "lower" | "upper"
    decay_log: float
    amplitude: float
    residual: float

    @property
    def sign_alternating(self) -> bool:
        return self.branch == "upper"

    @property
    def kappa(self) -> float:
        return float(np.exp(self.decay_log))


def _bound_equation(params: TCRAParams, e: float) -> float:
    # E - Omega - gamma sign(E - omega0) / sqrt((E - omega0)^2 - 4J^2) = 0
    d = e - params.omega_cavity
    two_j = 2.0 * params.hopping
    gap2 = (d - two_j) * (d + two_j)
    return e - params.omega_atom - params.gamma * np.sign(d) / np.sqrt(gap2)


def _bound_equation_prime(params: TCRAParams, e: float) -> float:
    d = e - params.omega_cavity
    gap2 = (d - 2.0 * params.hopping) * (d + 2.0 * params.hopping)
    return 1.0 + params.gamma * np.sign(d) * d / gap2**1.5


def _solve_branch(params: TCRAParams, above: bool) -> float:
    """Root of the bound-state equation on one side of the band.

    The left-hand side is strictly increasing on each side, so a sign
    change brackets the unique root; bisection is unconditionally safe
    against the pole at the band edge, Newton then polishes.
    """
    w0, j, g = params.omega_cavity, params.hopping, params.gamma
    edge = w0 + 2.0 * j if above else w0 - 2.0 * j
    span = 10.0 * (abs(params.omega_atom - w0) + j) + 10.0 * g
    sgn = 1.0 if above else -1.0
    # move the inner edge outward until the equation is finite and negative*sgn;
    # start near ulp scale so weakly bound roots (small gamma) are still caught
    lo = None
    eps = 1e-15 * max(1.0, abs(edge))
    while eps < span:
        cand = edge + sgn * eps
        if sgn * _bound_equation(params, cand) < 0.0:
            lo = cand
            break
        eps *= 4.0
    hi = edge + sgn * span
    while sgn * _bound_equation(params, hi) < 0.0:
        span *= 2.0
        hi = edge + sgn * span
    if lo is None:
        raise RuntimeError("bound-state bracket failed near the band edge")
    neg, pos = (lo, hi) if above else (hi, lo)  # f(neg) < 0 < f(pos)
    for _ in range(200):
        m = 0.5 * (neg + pos)
        if _bound_equation(params, m) < 0.0:
            neg = m
        else:
            pos = m
        if abs(pos - neg) < 1e-14 * max(1.0, abs(m)):
            break
    e = 0.5 * (neg + pos)
    for _ in range(8):
        f = _bound_equation(params, e)
        step = f / _bound_equation_prime(params, e)
        e_new = e - step
        # keep the iterate outside the band
        if (above and e_new <= edge) or (not above and e_new >= edge):
            break
        e = e_new
        if abs(step) < 1e-16 * max(1.0, abs(e)):
            break
    return e


def _kappa(params: TCRAParams, e: float, above: bool) -> float:
    # kappa_pm(E) = -sqrt(((E - omega0)/2J)^2 - 1) +- (omega0 - E)/(2J)
    u = (e - params.omega_cavity) / (2.0 * params.hopping)
    root = np.sqrt((u - 1.0) * (u + 1.0))
    kappa = u - root if above else -u - root
    if not 0.0 < kappa < 1.0:
        raise RuntimeError(f"decay factor out of range: kappa = {kappa}")
    return float(kappa)


def bound_state_energies(params: TCRAParams) -> tuple[BoundState, BoundState]:
    """Both single-photon bound states, (lower, upper).

    One root lies below the band bottom and one above the band top for any
    gamma > 0.  Residuals of the defining equation are stored on the states;
    they are float-limited near small gamma where the equation's slope at
    the root grows like 1/gamma^2.
    """
    if not params.gamma > 0.0:
        raise ValueError("bound states require a nonzero coupling")
    states = []
    for branch, above in (("lower", False), ("upper", True)):
        e = _solve_branch(params, above)
        res = abs(_bound_equation(params, e))
        if res > _RESIDUAL_LIMIT:
            raise RuntimeError(f"bound-state residual {res:.3e} on {branch} branch")
        d = e - params.omega_cavity
        two_j = 2.0 * params.hopping
        amp = params.coupling / np.sqrt((d - two_j) * (d + two_j))
        kappa = _kappa(params, e, above)
        states.append(BoundState(e, branch, float(np.log(kappa)), float(amp), res))
    return states[0], states[1]


def bound_state_wavefunction(state: BoundState, x):
    """Site amplitude psi(x) of a bound state at integer site offsets x.

    The envelope is ``amplitude * kappa^|x|``; the upper branch alternates
    sign from site to site.
    """
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.integer):
        xf = np.asarray(x, dtype=float)
        if np.any(xf != np.round(xf)):
            raise ValueError("bound-state wavefunction is defined on integer sites")
        x = np.round(xf).astype(int)
    absx = np.abs(x)
    psi = state.amplitude * np.exp(state.decay_log * absx)
    if state.sign_alternating:
        psi = psi * np.where(absx % 2 == 0, 1.0, -1.0)
    return psi if psi.ndim else float(psi)
