"""Pure random search baseline."""

from __future__ import annotations

import numpy as np

from repro.encoding.genome_matrix import GenomeMatrix, genome_to_genes
from repro.framework.search import SearchTracker
from repro.optim.base import Optimizer, checkpoint_generation, resume_state

#: Samples drawn per batched evaluation call.
_CHUNK = 64


def _chunk_state():
    # Random search carries no loop state between chunks: the RNG stream
    # and the tracker bookkeeping (both checkpointed by the session) are
    # the whole search.
    return {"kind": "random"}


class RandomSearch(Optimizer):
    """Sample independent random design points until the budget runs out.

    Half the samples are drawn from the structured genome sampler (which is
    biased towards legal PE counts) and half from the uniform vector space,
    matching how a practitioner would randomise over the flat encoding.
    Samples are drawn as gene rows and scored in chunks through the
    tracker's matrix view so the evaluation engine sees batches, but the
    sample stream is identical to drawing them one at a time.
    """

    name = "Random"
    supports_checkpoint = True

    def run(self, tracker: SearchTracker, rng: np.random.Generator) -> None:
        resume_state(tracker, "random")
        space, codec = tracker.space, tracker.codec
        while not tracker.exhausted:
            checkpoint_generation(tracker, _chunk_state)
            rows = []
            for _ in range(min(_CHUNK, tracker.remaining)):
                if rng.random() < 0.5:
                    rows.append(genome_to_genes(space.random_genome(rng)))
                else:
                    vector = codec.random_vector(rng)
                    rows.append(codec.decode_matrix([vector]).data[0])
            tracker.evaluate_matrix(
                GenomeMatrix(np.array(rows, dtype=np.int64), space.num_levels)
            )
