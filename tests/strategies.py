"""Hypothesis strategies shared by the test modules."""
import numpy as np
from hypothesis import strategies as st

from entroflux import quantum as qm
from entroflux.models import random_system


def _random_unitary(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return np.linalg.qr(raw)[0]


@st.composite
def quantum_systems(draw):
    """Systems of dim 2-12 with ||H|| = 1 whose reference eigenvalue ratio
    reaches e^-27, just above the 1e-12 positivity floor: seeded random
    ones, and ones whose w0 has at most three distinct eigenvalues over a
    random basis.  Among the latter, H is either random or degenerate: its
    levels lie in {-1, 0, 1}, over another random basis, and its two
    largest are equal, so some Bohr frequencies E_j - E_k vanish."""
    dim = draw(st.integers(min_value=2, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    spread = draw(st.floats(min_value=0.05, max_value=13.5))
    if not draw(st.booleans()):
        return random_system(dim, tri=bool(seed % 2), seed=seed, spread=spread)
    rng = np.random.default_rng(seed)
    basis = _random_unitary(rng, dim)
    nu = np.exp(-spread * rng.integers(0, 3, size=dim))
    nu /= nu.sum()
    if draw(st.booleans()):
        levels = rng.integers(-1, 2, size=dim).astype(float)
        levels[:2] = 1.0
        h_basis = _random_unitary(rng, dim)
        h = (h_basis * levels) @ h_basis.conj().T
    else:
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (h + h.conj().T) / 2.0
    return qm.QuantumSystem(h / np.linalg.norm(h, 2),
                            (basis * nu) @ basis.conj().T)
