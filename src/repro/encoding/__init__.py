"""Design-point encoding.

The paper's contribution #2: a compact per-level gene list describing both
HW (``pi`` spatial sizes; buffers are derived, not encoded) and mapping
(parallel dimension, loop order, tile sizes).  Three views are provided:

* :class:`~repro.encoding.genome.Genome` — the structured gene list of one
  design, used for I/O, initial populations and the scalar cost engines.
* :class:`~repro.encoding.genome_matrix.GenomeMatrix` — a whole population
  as one int64 member x gene NumPy array, the representation the search
  inner loops, DiGamma's row operators and the vector cost engine operate
  on.
* :class:`~repro.encoding.vector_codec.VectorCodec` — a fixed-length
  ``[0, 1]`` real vector so that generic black-box optimizers (CMA, PSO,
  DE, ...) can be plugged into the same framework; vectors decode
  straight into gene-matrix rows.
"""

from repro.encoding.genome import Genome, GenomeSpace, LevelGenes
from repro.encoding.genome_matrix import GenomeMatrix, repaired_matrix
from repro.encoding.repair import repair_genome
from repro.encoding.vector_codec import VectorCodec

__all__ = [
    "Genome",
    "GenomeMatrix",
    "GenomeSpace",
    "LevelGenes",
    "VectorCodec",
    "repair_genome",
    "repaired_matrix",
]
