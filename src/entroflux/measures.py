"""Discrete spectral measures: finitely many weighted atoms on the real line."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalDomainError

ATOM_TOL = 1e-10
WEIGHT_DROP = 1e-14
NEGATIVE_WEIGHT_FLOOR = -1e-12


@dataclass(frozen=True, eq=False)
class SpectralMeasure:
    """Probability measure sum_k w_k * delta(x - a_k) with strictly increasing
    atoms; construction fails if the weights' sum strays from 1 by more than
    1e-10.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float).ravel()
        weights = np.asarray(self.weights, dtype=float).ravel()
        if atoms.size == 0:
            raise ValueError("a spectral measure needs at least one atom")
        if atoms.shape != weights.shape:
            raise ValueError("atoms and weights must have matching shapes")
        if atoms.size > 1 and np.any(np.diff(atoms) <= 0):
            raise ValueError("atoms must be strictly increasing")
        if weights.min(initial=0.0) < NEGATIVE_WEIGHT_FLOOR:
            raise NumericalDomainError(
                f"negative weight {weights.min():g} below tolerance"
            )
        weights = np.maximum(weights, 0.0)
        if abs(weights.sum() - 1.0) > 1e-10:
            raise NumericalDomainError(
                f"weights sum to {weights.sum():.17g}, expected 1"
            )
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:       # read by benchmarks/tracing.py
        return self.atoms.size

    def mean(self) -> float:
        return float(np.dot(self.atoms, self.weights))

    def mass_at(self, value: float) -> float:
        """Total weight carried by atoms within ATOM_TOL of ``value``."""
        return float(_masses_near(self, np.array([value], dtype=float))[0])


def logsumexp(exponents: np.ndarray):
    """log sum_k exp(x_k) over the last axis, shifted by the largest term; -inf
    for no terms.  A vector gives a float, a stack of vectors an array.

    Never writes into ``exponents``: the shift and the exponentials go to
    one copy of it."""
    return logsumexp_in_place(np.array(exponents, dtype=float))


def logsumexp_in_place(exponents: np.ndarray):
    """``logsumexp`` of a float array the caller has just built and will not
    read again: its rows are shifted by their maxima and exponentiated in
    place, so the call allocates nothing of the array's size."""
    if exponents.shape[-1] == 0:
        return -np.inf
    m = exponents.max(-1)
    exponents -= m[..., None]
    out = m + np.log(np.exp(exponents, out=exponents).sum(-1))
    return float(out) if exponents.ndim == 1 else out


def _masses_near(measure: SpectralMeasure, values: np.ndarray) -> np.ndarray:
    """Weight of the atoms a with |a - v| <= ATOM_TOL, for every v in ``values``.

    Each window is found by binary search on v -+ ATOM_TOL.  Those keys round
    differently from a - v, so each edge is then stepped onto the predicate
    itself; the predicate is monotone along the sorted atoms, so an edge only
    ever moves one way.  Windows are summed directly, because differences of
    a running total would cost a small mass its relative precision.
    """
    atoms = measure.atoms
    last = atoms.size - 1

    def edge(start, below):
        k = start
        while True:
            left = (k > 0) & ~below(atoms[np.maximum(k - 1, 0)] - values)
            right = (k <= last) & below(atoms[np.minimum(k, last)] - values)
            if not (left.any() or right.any()):
                return k
            k = k - left + right

    lo = edge(np.searchsorted(atoms, values - ATOM_TOL, "left"),
              lambda gap: gap < -ATOM_TOL)
    hi = edge(np.searchsorted(atoms, values + ATOM_TOL, "right"),
              lambda gap: gap <= ATOM_TOL)
    padded = np.append(measure.weights, 0.0)   # so that hi = size is a valid start
    sums = np.add.reduceat(padded, np.column_stack((lo, hi)).ravel())[::2]
    return np.where(hi > lo, sums, 0.0)


def build_measure(values, weights, drop: float = 0.0) -> SpectralMeasure:
    """Aggregate raw (value, weight) pairs into a ``SpectralMeasure``.

    Values closer than ATOM_TOL (consecutively, after sorting) fall into one
    atom located at the unweighted mean of its cluster.  Aggregated weights
    below ``drop`` are removed as numerically zero.
    """
    values = np.asarray(values, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float).ravel()
    if values.shape != weights.shape or values.size == 0:
        raise ValueError("values and weights must be matching nonempty arrays")
    order = np.argsort(values, kind="stable")
    values = values[order]
    weights = weights[order]
    # gap-based clustering keeps exact duplicates together and never splits
    # a group of values produced by one degenerate transition
    boundaries = np.flatnonzero(np.diff(values) > ATOM_TOL)
    starts = np.concatenate(([0], boundaries + 1))
    mass = np.add.reduceat(weights, starts)
    keep = ~(mass < drop)          # keeps a NaN mass instead of dropping it
    if not keep.any():
        raise NumericalDomainError("all weights were dropped as numerically zero")
    atoms = np.add.reduceat(values, starts) / np.diff(np.append(starts, values.size))
    return SpectralMeasure(atoms[keep], mass[keep])


def total_variation(first: SpectralMeasure, second: SpectralMeasure) -> float:
    """Total-variation distance, matching atoms of the two measures within ATOM_TOL."""
    merged = np.sort(np.concatenate((first.atoms, second.atoms)))
    keep = np.concatenate(([True], np.diff(merged) > ATOM_TOL))
    points = merged[keep]
    dev = np.abs(_masses_near(first, points) - _masses_near(second, points))
    return 0.5 * float(np.sum(dev))


def fluctuation_symmetry_residual(measure: SpectralMeasure, t: float) -> float:
    """Largest violation of m(-a) = exp(-t a) * m(a) over the measure's atoms.

    Where exp(-t a) overflows against a zero mass the term is NaN and is
    skipped.
    """
    atoms = measure.atoms
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = np.abs(_masses_near(measure, -atoms)
                      - np.exp(-t * atoms) * _masses_near(measure, atoms))
    return float(np.fmax.reduce(gaps, initial=0.0))
