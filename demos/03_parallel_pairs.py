"""Schedule a request batch into conflict-free rounds.

Requests live on the complement network.  Two requests can share a round
when their endpoints are disjoint and no link joins their endpoint sets;
the scheduler greedily grows each round from a seed and checks every round
against the candidate lists.  Z-measuring every vertex outside a round's
endpoints keeps the subgraph induced on them (the graph Z rule), which the
demo prints: one EPR pair per request.
"""

from mecnet import (
    build_controlled,
    complement_inter_qnet,
    dynamic_parallel_pairs,
    min_partition_oracle,
    sample_requests,
)
from mecnet.netgen import GenConfig, generate_inter_qnet
from mecnet.pairs import table_to_text

iq = generate_inter_qnet(GenConfig(k=4, sizes=(4, 4, 4, 4), p=0.5, rng_seed=12))
cg = build_controlled(iq)
requests = sample_requests(iq, 8, rng_seed=3)
print("requests:", list(requests))

table = dynamic_parallel_pairs(cg, requests)
print(f"{table.rho} rounds:")
print(table_to_text(table), end="")

comp = complement_inter_qnet(iq)
for j, group in enumerate(table.groups, start=1):
    ends = sum((1 << u) | (1 << v) for u, v in group)
    print(f"round {j}: extracted {comp.graph.keep(ends).edges()}")

best = min_partition_oracle(comp.graph, list(requests))
print(f"exact minimum rounds: {best} (greedy used {table.rho})")
