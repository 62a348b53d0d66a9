"""Spans around calls into each entroflux module, recorded from outside.

``Tracer.install`` replaces every traced function with a wrapper that
records a span (name, start, end, parent span, invocation), and it does so
under every name the function is bound to: modules such as ``fcs`` or
``models`` import library functions by name, so patching only the defining
module would miss those calls.  ``uninstall`` restores the originals, so
untraced invocations run the program exactly as shipped.

Only the functions named in ``SPANS`` and the ``numpy.linalg`` kernels in
``LINALG`` are wrapped; any other function's time counts as self time of
the span that calls it.  Spans stay in memory in flat arrays and are written out once, at the end.
"""
from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from array import array

import numpy as np

PACKAGE = "entroflux"
# (module, qualified attribute, span name)
SPANS = (
    ("config", "load_config", "config.load"),
    ("models", "random_system", "models.build"),
    ("models", "random_classical_system", "models.build"),
    ("models", "build_two_reservoir", "models.build"),
    ("models", "canonical_model", "models.build"),
    ("models", "flux_balance_residual", "models.flux_balance"),
    ("quantum", "eig", "quantum.eig"),
    ("quantum", "QuantumSystem.propagator", "quantum.core"),
    ("quantum", "QuantumSystem.heisenberg_reference_eig", "quantum.core"),
    ("quantum", "adaptive_simpson_matrix", "quantum.quadrature"),
    ("quantum", "mean_ep_observable", "quantum.mean_ep"),
    ("functionals", "functional", None),   # named by p, see _functional_name
    ("functionals", "transfer_functional", "functionals.transfer_variational"),
    ("functionals", "transfer_apply", "functionals.transfer_variational"),
    ("functionals", "araki_masuda_norm", "functionals.transfer_variational"),
    ("functionals", "variational_max", "functionals.transfer_variational"),
    ("fcs", "fcs_distribution", "fcs.counting"),
    ("fcs", "modular_spectral_measure", "fcs.modular"),
    ("fcs", "fcs_cgf", "fcs.cgf"),
    ("measures", "build_measure", "measures.build"),
    ("measures", "total_variation", "measures.total_variation"),
    ("measures", "fluctuation_symmetry_residual", "measures.fs_residual"),
    ("classical", "classical_functional", "classical.functional"),
    ("classical", "mean_ep_observable", "classical.mean_ep"),
    ("classical", "es_distribution", "classical.es_distribution"),
    ("classical", "variational_functional", "classical.identity_routes"),
    ("classical", "renyi_identity_check", "classical.identity_routes"),
    ("classical", "classical_transfer_functional", "classical.identity_routes"),
    ("verify", "run_battery", "verify.battery"),
    ("runner", "_determinism_check", "verify.determinism"),
    ("runner", "run_functionals", "runner.driver"),
    ("runner", "run_fcs", "runner.driver"),
    ("runner", "run_classical", "runner.driver"),
    ("runner", "write_outputs", "runner.write"),
)
# numpy.linalg kernels, looked up as attributes of numpy.linalg at call time
LINALG = (("eigh", "linalg.eigh"), ("eigvalsh", "linalg.eigvalsh"),
          ("svd", "linalg.svd"))


def _functional_name(args, kwargs) -> str:
    p = kwargs["p"] if "p" in kwargs else args[1]
    return ("functionals.functional_inf" if math.isinf(float(p))
            else "functionals.functional_finite_p")


def _n3(args, kwargs, result):
    """Computed operation count: n^3 per matrix, times the batch size."""
    shape = np.shape(args[0] if args else kwargs["a"])
    batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    return batch * float(shape[-1]) ** 3, 0.0


def _atoms(args, kwargs, result):
    values = args[0] if args else kwargs["values"]
    return float(np.size(values)), float(len(result))


EXTRAS = {"measures.build": _atoms, "linalg.eigh": _n3,
          "linalg.eigvalsh": _n3, "linalg.svd": _n3}
SPAN_FIELDS = ("invocation", "name", "parent", "start", "end", "x", "y")


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.invocation = array("i")
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.x = array("d")
        self.y = array("d")
        self._stack = [-1]
        self._current = -1
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name):
        fixed = None if name is None else self._id(name)
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None \
                else self._id(_functional_name(args, kwargs))
            idx = len(self.start)
            self.invocation.append(self._current)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self.x.append(0.0)
            self.y.append(0.0)
            self._stack.append(idx)
            begin = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self.start[idx] = begin
                self._stack.pop()
            if extra is not None:
                self.x[idx], self.y[idx] = extra(args, kwargs, result)
            return result
        return wrapper

    def _bindings(self, target):
        """Every (namespace, attribute) in the package bound to ``target``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE
                                      or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is target:
                    yield module, attr

    def install(self, invocation: int) -> None:
        """Wrap every traced name; spans recorded until ``uninstall``."""
        self._current = invocation
        for mod_name, qualname, span in SPANS:
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            owner, attr = module, qualname
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span)
            places = [(owner, attr)] if owner is not module \
                else list(self._bindings(original))
            for place, name in places:
                self._patches.append((place, name, original))
                setattr(place, name, wrapper)
        for attr, span in LINALG:
            original = getattr(np.linalg, attr)
            self._patches.append((np.linalg, attr, original))
            setattr(np.linalg, attr, self._wrap(original, span))

    def uninstall(self) -> None:
        for place, name, original in reversed(self._patches):
            setattr(place, name, original)
        self._patches.clear()
        self._current = -1

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names, dtype=str),
                 **{f: np.frombuffer(getattr(self, f),
                                     dtype="i4" if f in ("invocation", "name",
                                                         "parent") else "f8")
                    for f in SPAN_FIELDS})
