import subprocess
import sys
from pathlib import Path

import numpy as np

import entroflux

EXAMPLE = Path(__file__).resolve().parents[1] / "configs" / "example.yaml"


def test_every_public_name_resolves():
    missing = [name for name in entroflux.__all__ if not hasattr(entroflux, name)]
    assert missing == []
    assert len(set(entroflux.__all__)) == len(entroflux.__all__)


def test_quantum_system_holds_plain_arrays():
    system = entroflux.QuantumSystem([[0.0, 1.0], [1.0, 0.0]],
                                     [[0.75, 0.0], [0.0, 0.25]])
    for mat in (system.hamiltonian, system.reference_state):
        assert type(mat) is np.ndarray and mat.dtype == complex


def test_building_a_config_loads_no_battery_sweep_or_pool():
    # a fresh interpreter: the package, a config and its systems only
    code = ("import sys, entroflux; "
            "entroflux.load_config(sys.argv[1]).build_systems(); "
            "print(sorted({'entroflux.' + name for name in ('verify', "
            "'functionals', 'fcs', 'pool', 'runner', 'cli')} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code, str(EXAMPLE)],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
