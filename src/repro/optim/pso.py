"""Particle swarm optimization baseline."""

from __future__ import annotations

import numpy as np

from repro.framework.search import SearchTracker
from repro.optim.base import Optimizer, checkpoint_generation, resume_state


class ParticleSwarm(Optimizer):
    """Global-best PSO with inertia weight on the flat vector encoding.

    The swarm is updated synchronously: every sweep moves all particles
    against the global best of the previous sweep, then scores the whole
    swarm as one batch.  This is the textbook synchronous PSO and lets the
    framework evaluate whole generations in a single call.
    """

    name = "PSO"
    supports_checkpoint = True

    def __init__(
        self,
        swarm_size: int = 30,
        inertia: float = 0.72,
        cognitive: float = 1.5,
        social: float = 1.5,
        velocity_clamp: float = 0.3,
    ):
        if swarm_size < 2:
            raise ValueError("swarm_size must be >= 2")
        self.swarm_size = swarm_size
        self.inertia = inertia
        self.cognitive = cognitive
        self.social = social
        self.velocity_clamp = velocity_clamp

    def run(self, tracker: SearchTracker, rng: np.random.Generator) -> None:
        dimension = tracker.vector_dimension
        state = resume_state(tracker, "pso")
        if state is not None:
            positions = np.asarray(state["positions"], dtype=float)
            velocities = np.asarray(state["velocities"], dtype=float)
            personal_best = np.asarray(state["personal_best"], dtype=float)
            personal_fitness = np.asarray(
                state["personal_fitness"], dtype=float
            )
            global_best = np.asarray(state["global_best"], dtype=float)
            global_fitness = float(state["global_fitness"])
        else:
            positions = rng.random((self.swarm_size, dimension))
            velocities = (rng.random((self.swarm_size, dimension)) - 0.5) * 0.1
            personal_best = positions.copy()
            personal_fitness = np.full(self.swarm_size, -np.inf)

            global_best = positions[0].copy()
            global_fitness = -np.inf

            fitnesses = tracker.evaluate_vector_batch(list(positions))
            for index, fitness in enumerate(fitnesses):
                personal_fitness[index] = fitness
                if fitness > global_fitness:
                    global_fitness = fitness
                    global_best = positions[index].copy()
            if len(fitnesses) < self.swarm_size:
                return

        def loop_state():
            return {
                "kind": "pso",
                "positions": positions.tolist(),
                "velocities": velocities.tolist(),
                "personal_best": personal_best.tolist(),
                "personal_fitness": personal_fitness.tolist(),
                "global_best": global_best.tolist(),
                "global_fitness": global_fitness,
            }

        while not tracker.exhausted:
            checkpoint_generation(tracker, loop_state)
            # One batched draw per sweep: rng.random((n, 2, d)) fills in C
            # order, which is exactly the per-particle cognitive-then-social
            # sequence the scalar loop drew — same stream, and the whole
            # swarm update becomes three array expressions whose elementwise
            # operation order matches the per-particle arithmetic, so
            # positions (and therefore trajectories) are bit-identical.
            draws = rng.random((self.swarm_size, 2, dimension))
            velocities = (
                self.inertia * velocities
                + self.cognitive * draws[:, 0] * (personal_best - positions)
                + self.social * draws[:, 1] * (global_best - positions)
            )
            velocities = np.clip(
                velocities, -self.velocity_clamp, self.velocity_clamp
            )
            positions = np.clip(positions + velocities, 0.0, 1.0)

            fitnesses = tracker.evaluate_vector_batch(list(positions))
            for index, fitness in enumerate(fitnesses):
                if fitness > personal_fitness[index]:
                    personal_fitness[index] = fitness
                    personal_best[index] = positions[index].copy()
                if fitness > global_fitness:
                    global_fitness = fitness
                    global_best = positions[index].copy()
            if len(fitnesses) < self.swarm_size:
                return
