"""Two-time counting statistics and the relative modular operator.

Both measures are read off one spectral datum per (system, t): the
reference spectrum w0 = V diag(nu) V* and the overlap O = V* exp(-itH) V
(``QuantumSystem.overlap``).  With S = -log nu the eigenvalues of the
entropy observable S0 = -log w0:

* The counting measure P_t comes from projectively measuring S0 before and
  after the evolution.  The jump from reference eigenvector i to j has
  probability nu_i |O_ji|^2 and contributes the rate atom (S_j - S_i) / t.
* The modular measure Q_t is the spectral measure, at the vector w0^(1/2),
  of -(1/t) log Delta, where Delta(A) = w_t A w0^(-1) is the relative
  modular operator of the evolved state against the reference.  Its
  eigenoperators pair the evolved eigenvector i with the reference
  eigenvector j, which gives weight nu_j |O_ji|^2 at atom (S_i - S_j) / t.
  No operator on operator space is ever materialized.

Degenerate levels need no grouping: pairs with equal atoms merge when the
measure is built, and the merged weight is the projector-pair trace.  For
time-reversal invariant systems the two measures coincide.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericalDomainError
from .measures import (WEIGHT_DROP, SpectralMeasure, build_measure,
                       logsumexp_in_place)
from .quantum import QuantumSystem, as_matrix, matrix_power


def _overlap_route(system: QuantumSystem, t: float):
    """Reference spectrum nu, rate jumps (S_j - S_i) / t and |O_ji|^2, indexed [j, i]."""
    if t <= 0:
        raise ValueError(f"counting time must be positive, got {t}")
    nu = system.reference_eig().eigenvalues
    entropy = -np.log(nu)
    jumps = (entropy[:, None] - entropy[None, :]) / t
    return nu, jumps, np.abs(system.overlap(t)) ** 2


def fcs_distribution(system: QuantumSystem, t: float) -> SpectralMeasure:
    """Two-time counting measure of the entropy observable over [0, t]."""
    nu, jumps, transition = _overlap_route(system, t)
    return build_measure(jumps, transition * nu[None, :], drop=WEIGHT_DROP)


def fcs_cgf(measure: SpectralMeasure, alpha, t: float):
    """Cumulant generating function log sum_phi exp(-t alpha phi) P(phi), per alpha."""
    if t <= 0:
        raise ValueError(f"counting time must be positive, got {t}")
    live = measure.weights > 0.0
    if not live.any():
        raise NumericalDomainError("measure carries no mass")
    exponents = np.multiply((t * np.asarray(alpha))[..., None],
                            measure.atoms[live])
    return logsumexp_in_place(np.subtract(np.log(measure.weights[live]),
                                          exponents, out=exponents))


def relative_modular_apply(system: QuantumSystem, t: float,
                           element) -> np.ndarray:
    """Relative modular operator Delta(A) = w_t A w0^(-1)."""
    mat = as_matrix(element, system.dim)
    evolved = system.heisenberg_reference_eig(-t).reconstruct()
    inverse = matrix_power(system.reference_eig(), -1.0)
    return evolved @ mat @ inverse


def modular_spectral_measure(system: QuantumSystem, t: float) -> SpectralMeasure:
    """Spectral measure Q_t of -(1/t) log Delta at the vector w0^(1/2).

    The atoms are (S_i - S_j) / t over pairs of evolved and reference
    eigenvectors; the weight of a pair is nu_j |O_ji|^2.  For time-reversal
    invariant dynamics Q_t equals the counting measure P_t; the
    ``fcs_modular_tv`` row of the verification battery checks that, and
    ``fcs_modular_tv_breaks`` checks that it fails otherwise.
    """
    nu, jumps, transition = _overlap_route(system, t)
    return build_measure(-jumps, transition * nu[:, None], drop=WEIGHT_DROP)
