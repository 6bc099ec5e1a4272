"""Inter-domain entanglement routing by graph complementation.

Core pieces: graph-state rewrite rules over bitset graphs, a stabilizer
tableau oracle, controlled inter-QNet complementation, the dynamic
parallel-pairs scheduler, a shortest-path routing baseline, and the
throughput / routing-qubit footprint calculators.  The package namespace
holds the pipeline steps the demos call; everything else is imported from
its module (``mecnet.pairs``, ``mecnet.cqr``, ``mecnet.metrics`` and so on).
"""

from .graph import Graph
from .qnet import (
    InterQNet,
    QNetPartition,
    build_controlled,
    complement_inter_qnet,
    mec_complementation,
    restore_original,
)
from .pairs import dynamic_parallel_pairs, min_partition_oracle
from .netgen import sample_requests

__all__ = [
    "Graph",
    "InterQNet",
    "QNetPartition",
    "build_controlled",
    "complement_inter_qnet",
    "mec_complementation",
    "restore_original",
    "dynamic_parallel_pairs",
    "min_partition_oracle",
    "sample_requests",
]

__version__ = "0.1.0"
