"""Gene <-> configuration encoding.

Each tuned parameter is one real-valued gene in its raw domain:
integers and floats use their natural range, categoricals use the choice
index.  Crossover produces non-integral genes; :meth:`decode` snaps to
the nearest feasible value while :meth:`violation` measures how far from
feasible a gene vector is (for the constraint penalty).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.config.parameter import (
    CategoricalParameter,
    FloatParameter,
    IntegerParameter,
    ParameterSpec,
)
from repro.config.space import Configuration, ConfigurationSpace
from repro.errors import SearchError


class ConfigurationEncoder:
    """Maps gene vectors to configurations over selected parameters."""

    def __init__(self, space: ConfigurationSpace, names: Sequence[str]):
        if not names:
            raise SearchError("encoder needs at least one parameter")
        self.space = space
        self.names: Tuple[str, ...] = tuple(names)
        self.specs: List[ParameterSpec] = [space[n] for n in self.names]
        lows, highs, integral = [], [], []
        for spec in self.specs:
            if isinstance(spec, CategoricalParameter):
                lows.append(0.0)
                highs.append(float(len(spec.choices) - 1))
                integral.append(True)
            elif isinstance(spec, IntegerParameter):
                lows.append(float(spec.low))
                highs.append(float(spec.high))
                integral.append(True)
            elif isinstance(spec, FloatParameter):
                lows.append(spec.low)
                highs.append(spec.high)
                integral.append(False)
            else:  # pragma: no cover - new parameter kinds must opt in
                raise SearchError(f"cannot encode parameter type {type(spec).__name__}")
        self.lower = np.array(lows)
        self.upper = np.array(highs)
        self.integral = np.array(integral, dtype=bool)

    @property
    def n_genes(self) -> int:
        return len(self.names)

    # -- sampling --------------------------------------------------------------

    def random_genes(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform random point within bounds (initial population)."""
        return rng.uniform(self.lower, self.upper)

    def encode(self, config: Configuration) -> np.ndarray:
        """Genes of an existing configuration (used for seeding)."""
        genes = []
        for spec in self.specs:
            value = config[spec.name]
            if isinstance(spec, CategoricalParameter):
                genes.append(float(spec.choices.index(value)))
            else:
                genes.append(float(value))
        return np.array(genes)

    # -- decoding --------------------------------------------------------------

    def decode(self, genes: np.ndarray) -> Configuration:
        """Snap to the nearest feasible configuration."""
        genes = np.asarray(genes, dtype=float)
        if genes.shape != (self.n_genes,):
            raise SearchError(f"expected {self.n_genes} genes, got {genes.shape}")
        overrides = {}
        clipped = np.clip(genes, self.lower, self.upper)
        for g, spec in zip(clipped, self.specs):
            if isinstance(spec, CategoricalParameter):
                overrides[spec.name] = spec.choices[int(round(g))]
            elif isinstance(spec, IntegerParameter):
                overrides[spec.name] = int(round(g))
            else:
                overrides[spec.name] = float(g)
        return Configuration(self.space, overrides)

    def snap(self, genes: np.ndarray) -> np.ndarray:
        """Genes of the nearest feasible configuration, without building it.

        Bit-identical to ``encode(decode(genes))``: clip to the bounds,
        then round the integral genes half to even, as Python's
        ``round`` does.  Adding ``0.0`` turns a rounded ``-0.0`` into
        the ``0.0`` that ``float(int(...))`` gives.
        """
        clipped = np.clip(np.asarray(genes, dtype=float), self.lower, self.upper)
        return np.where(self.integral, np.round(clipped) + 0.0, clipped)

    def features(self, genes: np.ndarray, read_ratio: float) -> np.ndarray:
        """Surrogate feature row for (possibly infeasible) genes.

        Infeasible points still get a performance estimate — the paper
        penalizes them but does not discard them — so features come from
        the raw genes, unit-scaled, not from the snapped decode.
        """
        return self.features_batch(np.asarray(genes, dtype=float)[None, :], read_ratio)[0]

    def features_batch(self, genes_matrix: np.ndarray, read_ratio: float) -> np.ndarray:
        """Feature rows for a whole gene matrix: ``(n, g) -> (n, 1 + g)``.

        The batched GA fitness path; row ``i`` is bit-identical to
        ``features(genes_matrix[i], read_ratio)`` (elementwise ops only).
        """
        genes = np.atleast_2d(np.asarray(genes_matrix, dtype=float))
        if genes.shape[1] != self.n_genes:
            raise SearchError(f"expected {self.n_genes} genes per row, got {genes.shape[1]}")
        genes = np.clip(genes, self.lower, self.upper)
        span = np.where(self.upper > self.lower, self.upper - self.lower, 1.0)
        unit = (genes - self.lower) / span
        rows = np.empty((genes.shape[0], 1 + self.n_genes))
        rows[:, 0] = read_ratio
        rows[:, 1:] = unit
        return rows

    def violation(self, genes: np.ndarray) -> float:
        """Distance from feasibility: integrality + bound overshoot.

        Zero iff :meth:`decode` would be a no-op snap.  Integrality
        violations are measured as the distance to the nearest integer
        (max 0.5 per gene); bound violations as the normalized overshoot.
        """
        return float(self.violation_batch(np.asarray(genes, dtype=float)[None, :])[0])

    def violation_batch(self, genes_matrix: np.ndarray) -> np.ndarray:
        """Per-row feasibility violations: ``(n, g) -> (n,)``.

        Row ``i`` is bit-identical to ``violation(genes_matrix[i])``:
        the per-row reductions run over the same contiguous gene axis in
        the same order regardless of how many rows share the matrix.
        """
        genes = np.atleast_2d(np.asarray(genes_matrix, dtype=float))
        if genes.shape[1] != self.n_genes:
            raise SearchError(f"expected {self.n_genes} genes per row, got {genes.shape[1]}")
        span = np.where(self.upper > self.lower, self.upper - self.lower, 1.0)
        below = np.maximum(self.lower - genes, 0.0) / span
        above = np.maximum(genes - self.upper, 0.0) / span
        total = np.sum(below + above, axis=1)
        inside = np.clip(genes, self.lower, self.upper)
        frac = np.abs(inside - np.round(inside))
        total += np.sum(frac[:, self.integral], axis=1)
        return total
