"""Build a real-world instance from the vendored OpenFlights slice.

Cities are vertices, countries are domains, international routes are
inter-links.  Point the two paths at a full OpenFlights snapshot to build
planet-scale instances; the vendored slice keeps this demo self-contained.
"""

import os

from mecnet import build_controlled, complement_inter_qnet, mec_complementation
from mecnet.cqr import cqr_batch
from mecnet.netgen import sample_requests
from mecnet.openflights import build_real_instance, parse_openflights

here = os.path.dirname(os.path.abspath(__file__))
fixtures = os.path.join(here, "..", "tests", "fixtures", "openflights")

parsed = parse_openflights(
    os.path.join(fixtures, "airports.dat"), os.path.join(fixtures, "routes.dat")
)
print(
    f"parsed {len(parsed.links)} international links "
    f"({parsed.intra_country_dropped} domestic dropped, "
    f"{parsed.join_failures} unresolved airports)"
)

iq, meta = build_real_instance(parsed)
print(f"instance: {meta['cities']} cities, {meta['countries']} domains, {meta['edges']} links")
print(f"snapshot hash: {meta['snapshot_hash'][:16]}...")

cg = build_controlled(iq)
switched, _ = mec_complementation(cg)
assert switched.graph == complement_inter_qnet(iq).graph

requests = sample_requests(iq, 6, rng_seed=1)
paths, chi = cqr_batch(cg, requests.requests)
h_bar = (len(paths) + chi) / len(paths)  # each route has one more hop than intermediates
print(f"6 sampled requests: baseline mean hops {h_bar:.2f}, after complementation 1.00")
