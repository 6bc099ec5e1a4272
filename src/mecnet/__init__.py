"""Inter-domain entanglement routing by graph complementation.

Core pieces: graph-state rewrite rules over bitset graphs, a stabilizer
tableau oracle, controlled inter-QNet complementation, the dynamic
parallel-pairs scheduler, a shortest-path routing baseline, and the
throughput / routing-qubit footprint calculators.
"""

from .graph import Graph, MeasurementRecord, graph_from_edgelist, graph_to_edgelist
from .qnet import (
    ControlledInterQNet,
    InterQNet,
    QNetPartition,
    build_controlled,
    complement_inter_qnet,
    extract_epr,
    instance_from_text,
    instance_to_text,
    mec_complementation,
    restore_original,
)
from .pairs import (
    CandidateList,
    ParallelPairTable,
    ParallelPairViolation,
    RequestSet,
    check_parallel_pairable,
    compatible,
    dynamic_parallel_pairs,
    min_partition_oracle,
    parallel_pair_candidates,
)
from .stabilizer import (
    StabilizerTableau,
    equal_up_to_local_clifford,
    graph_state,
    measure_pauli,
)
from .cqr import CqrPath, cqr_batch, route_cqr
from .metrics import (
    TimingParams,
    arqf_cqr,
    arqf_mec,
    throughput_cqr,
    throughput_mec,
)
from .netgen import GenConfig, generate_inter_qnet, sample_requests
from .openflights import FlightRecord, build_real_instance, parse_openflights

__version__ = "0.1.0"
