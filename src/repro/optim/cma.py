"""Covariance matrix adaptation evolution strategy (CMA-ES).

A clean from-scratch implementation of standard (mu/mu_w, lambda)-CMA-ES
with cumulative step-size adaptation and rank-one / rank-mu covariance
updates, operating on the flat vector encoding in ``[0, 1]^n``.  CMA is the
strongest generic baseline in the paper (values in Fig. 5 are normalized to
it).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.framework.search import SearchTracker
from repro.optim.base import Optimizer


class CMAES(Optimizer):
    """Standard CMA-ES with restarts when the step size collapses."""

    name = "CMA"

    def __init__(
        self,
        population_size: Optional[int] = None,
        initial_sigma: float = 0.25,
        restart_sigma_threshold: float = 1e-5,
    ):
        if initial_sigma <= 0:
            raise ValueError("initial_sigma must be positive")
        self.population_size = population_size
        self.initial_sigma = initial_sigma
        self.restart_sigma_threshold = restart_sigma_threshold

    def run(self, tracker: SearchTracker, rng: np.random.Generator) -> None:
        while not tracker.exhausted:
            self._run_once(tracker, rng)

    # -- one CMA-ES restart ------------------------------------------------

    def _run_once(self, tracker: SearchTracker, rng: np.random.Generator) -> None:
        dimension = tracker.vector_dimension
        lam = self.population_size or (4 + int(3 * math.log(dimension)))
        mu = lam // 2
        raw_weights = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
        weights = raw_weights / raw_weights.sum()
        mu_eff = 1.0 / float(np.sum(weights**2))

        c_sigma = (mu_eff + 2.0) / (dimension + mu_eff + 5.0)
        d_sigma = (
            1.0
            + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (dimension + 1.0)) - 1.0)
            + c_sigma
        )
        c_c = (4.0 + mu_eff / dimension) / (dimension + 4.0 + 2.0 * mu_eff / dimension)
        c_1 = 2.0 / ((dimension + 1.3) ** 2 + mu_eff)
        c_mu = min(
            1.0 - c_1,
            2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((dimension + 2.0) ** 2 + mu_eff),
        )
        chi_n = math.sqrt(dimension) * (
            1.0 - 1.0 / (4.0 * dimension) + 1.0 / (21.0 * dimension**2)
        )

        mean = rng.random(dimension)
        sigma = self.initial_sigma
        covariance = np.eye(dimension)
        path_sigma = np.zeros(dimension)
        path_c = np.zeros(dimension)
        eigenvalues = np.ones(dimension)
        eigenvectors = np.eye(dimension)
        generation = 0

        while not tracker.exhausted:
            generation += 1
            if generation % max(1, int(1.0 / (10.0 * dimension * (c_1 + c_mu)))) == 1:
                eigenvalues, eigenvectors = self._decompose(covariance)

            sqrt_eigenvalues = np.sqrt(eigenvalues)
            samples = []
            for _ in range(lam):
                z = rng.standard_normal(dimension)
                step = eigenvectors @ (sqrt_eigenvalues * z)
                samples.append((np.clip(mean + sigma * step, 0.0, 1.0), z))
            fitnesses = tracker.evaluate_vector_batch(
                [candidate for candidate, _ in samples]
            )
            if len(fitnesses) < lam:
                return

            order = np.argsort(fitnesses)[::-1][:mu]
            selected = [samples[i] for i in order]

            old_mean = mean
            mean = np.sum(
                [w * candidate for w, (candidate, _) in zip(weights, selected)], axis=0
            )
            mean = np.clip(mean, 0.0, 1.0)

            z_mean = np.sum([w * z for w, (_, z) in zip(weights, selected)], axis=0)
            path_sigma = (1.0 - c_sigma) * path_sigma + math.sqrt(
                c_sigma * (2.0 - c_sigma) * mu_eff
            ) * (eigenvectors @ z_mean)

            sigma *= math.exp(
                (c_sigma / d_sigma) * (np.linalg.norm(path_sigma) / chi_n - 1.0)
            )
            sigma = float(np.clip(sigma, 1e-8, 1.0))

            h_sigma = 1.0 if np.linalg.norm(path_sigma) / math.sqrt(
                1.0 - (1.0 - c_sigma) ** (2.0 * generation)
            ) < (1.4 + 2.0 / (dimension + 1.0)) * chi_n else 0.0
            displacement = (mean - old_mean) / max(sigma, 1e-12)
            path_c = (1.0 - c_c) * path_c + h_sigma * math.sqrt(
                c_c * (2.0 - c_c) * mu_eff
            ) * displacement

            rank_mu = np.zeros_like(covariance)
            for w, (candidate, _) in zip(weights, selected):
                y = (candidate - old_mean) / max(sigma, 1e-12)
                rank_mu += w * np.outer(y, y)
            covariance = (
                (1.0 - c_1 - c_mu) * covariance
                + c_1
                * (
                    np.outer(path_c, path_c)
                    + (1.0 - h_sigma) * c_c * (2.0 - c_c) * covariance
                )
                + c_mu * rank_mu
            )

            if sigma < self.restart_sigma_threshold:
                return

    @staticmethod
    def _decompose(covariance: np.ndarray) -> tuple:
        symmetric = (covariance + covariance.T) / 2.0
        eigenvalues, eigenvectors = np.linalg.eigh(symmetric)
        eigenvalues = np.clip(eigenvalues, 1e-12, None)
        return eigenvalues, eigenvectors
