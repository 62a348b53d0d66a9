import numpy as np

import entroflux


def test_every_public_name_resolves():
    missing = [name for name in entroflux.__all__ if not hasattr(entroflux, name)]
    assert missing == []
    assert len(set(entroflux.__all__)) == len(entroflux.__all__)


def test_quantum_system_holds_plain_arrays():
    system = entroflux.QuantumSystem([[0.0, 1.0], [1.0, 0.0]],
                                     [[0.75, 0.0], [0.0, 0.25]])
    for mat in (system.hamiltonian, system.reference_state):
        assert type(mat) is np.ndarray and mat.dtype == complex
