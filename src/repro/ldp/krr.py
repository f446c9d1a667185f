"""k-ary Randomized Response (k-RR) for categorical data.

Each user holding category ``v`` reports ``v`` with probability
``p = e^eps / (e^eps + k - 1)`` and any *other* category uniformly at random
otherwise.  The collector de-biases observed report frequencies with

``f_hat_j = (c_j / n - q) / (p - q)``, ``q = 1 / (e^eps + k - 1)``.

k-RR is the mechanism used by the paper's frequency-estimation extension
(Section V-D and Figure 9 c/d): Byzantine users simply report their poisoned
category directly, and the DAP machinery probes which categories are poisoned.
"""

from __future__ import annotations

import math

import numpy as np

from repro.backends import get_backend
from repro.collect.accumulators import CategoryCountAccumulator
from repro.ldp.base import CategoricalMechanism, MechanismError
from repro.registry import MECHANISMS
from repro.utils.rng import RngLike, ensure_rng


@MECHANISMS.register("krr", aliases=("k-rr",), kind="categorical")
class KRandomizedResponse(CategoricalMechanism):
    """k-RR mechanism over categories ``0 .. k-1``."""

    def __init__(self, epsilon: float, n_categories: int) -> None:
        super().__init__(epsilon, n_categories)
        exp_eps = math.exp(self.epsilon)
        #: probability of reporting the true category
        self.p = exp_eps / (exp_eps + self.n_categories - 1.0)
        #: probability of reporting one specific other category
        self.q = 1.0 / (exp_eps + self.n_categories - 1.0)

    def perturb(self, categories: np.ndarray, rng: RngLike = None) -> np.ndarray:
        rng = ensure_rng(rng)
        categories = self._validate_categories(categories)
        out = get_backend().krr_sample(
            categories.ravel(), self.n_categories, self.p, rng
        )
        return out.reshape(categories.shape)

    def target_reports(
        self, targets: np.ndarray, rng: RngLike = None, size: int = 1
    ) -> np.ndarray:
        """Poison reports naming a uniformly chosen target category directly,
        the strongest attack in the k-RR output domain."""
        rng = ensure_rng(rng)
        targets = self._validate_categories(np.asarray(targets)).ravel()
        if targets.size == 0:
            raise MechanismError("target_reports needs at least one target category")
        return targets[rng.integers(0, targets.size, size=size)]

    def new_accumulator(self) -> CategoryCountAccumulator:
        """An empty count accumulator over this mechanism's report domain."""
        return CategoryCountAccumulator(self.n_categories)

    def report_counts(self, reports: np.ndarray) -> np.ndarray:
        """Raw counts of each category among the reports."""
        reports = self._validate_categories(reports)
        return np.bincount(reports.ravel(), minlength=self.n_categories).astype(float)

    def estimate_frequencies(self, reports: np.ndarray) -> np.ndarray:
        """Unbiased frequency estimates (may be slightly negative)."""
        reports = self._validate_categories(reports)
        n = reports.size
        if n == 0:
            raise MechanismError("cannot estimate frequencies from zero reports")
        observed = self.report_counts(reports) / n
        return (observed - self.q) / (self.p - self.q)

    def transition_matrix(self) -> np.ndarray:
        """``k x k`` matrix of ``Pr[report = i | true = j]``.

        Used by the frequency-estimation DAP to build the EMF transform matrix
        for categorical data.
        """
        k = self.n_categories
        matrix = np.full((k, k), self.q)
        np.fill_diagonal(matrix, self.p)
        return matrix

    def variance_per_report(self, frequency: float = 0.0) -> float:
        """Variance of one report's contribution to a frequency estimate."""
        n_term = self.q * (1.0 - self.q)
        f_term = frequency * (1.0 - frequency) * (self.p - self.q)
        return (n_term + f_term * (self.p + self.q - 1.0)) / (self.p - self.q) ** 2


__all__ = ["KRandomizedResponse"]
