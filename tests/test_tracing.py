"""The benchmark tracer, loaded from its file, reaches every kind of system."""
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from entroflux import models as md
from entroflux import quantum as qm

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("entroflux_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target(tracing, mod_name: str, qualname: str):
    owner = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
    for attr in qualname.split("."):
        owner = getattr(owner, attr)
    return owner


def _package_bindings(tracing) -> dict:
    """Every attribute of the package's modules and of its system classes."""
    spaces = {name: vars(module) for name, module in sys.modules.items()
              if name.startswith(tracing.PACKAGE + ".")}
    spaces["QuantumSystem"] = vars(qm.QuantumSystem)
    spaces["ReservoirModel"] = vars(md.ReservoirModel)
    spaces["numpy.linalg"] = vars(np.linalg)
    return {(space, attr): value for space, names in spaces.items()
            for attr, value in names.items()}


def test_tracer_spans_the_core_of_every_system():
    tracing = _load_tracing()
    systems = {"reservoir": md.canonical_model(),
               "plain": qm.QuantumSystem([[0.0, 1.0], [1.0, 0.0]],
                                         np.diag([0.75, 0.25]))}
    for mod_name, _, _ in tracing.SPANS:
        importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
    before = _package_bindings(tracing)
    tracer = tracing.Tracer()
    tracer.install(0)
    try:
        for mod_name, qualname, _ in tracing.SPANS:
            assert hasattr(_target(tracing, mod_name, qualname), "__wrapped__"), \
                qualname
        for attr, _ in tracing.LINALG:
            assert hasattr(getattr(np.linalg, attr), "__wrapped__"), attr
        for kind, system in systems.items():
            for call in (system.propagator, system.heisenberg_reference_eig):
                first = len(tracer.start)
                call(0.3)
                assert tracer.names[tracer.name[first]] == "quantum.core", \
                    (kind, call.__name__)
    finally:
        tracer.uninstall()
    after = _package_bindings(tracing)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
