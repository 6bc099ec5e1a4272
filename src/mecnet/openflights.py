"""Build real-world inter-domain instances from OpenFlights data.

Cities become vertices, countries become QNets, and international routes
become cross-domain edges.  Airports are collapsed per (city, country),
route directions are merged, and intra-country routes are dropped at
parse time.  Construction keeps the largest connected component so the
result is a valid interactive network.
"""

from __future__ import annotations

import csv
import hashlib
import io
import pathlib
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .graph import Graph, components
from .qnet import InterQNet, QNetPartition

__all__ = ["ParseResult", "parse_openflights", "build_real_instance"]

City = tuple[str, str]  # (city, country)


@dataclass
class ParseResult:
    links: list[tuple[City, City]]  # sorted; each pair lower end first
    airport_count: int = 0
    malformed_airport_rows: int = 0
    malformed_route_rows: int = 0
    join_failures: int = 0
    intra_country_dropped: int = 0
    snapshot_hash: str = ""  # sha256 of the airports then the routes file


def _rows(path: str, digest) -> Iterator[list[str]]:
    """CSV rows of a UTF-8 file, read once; its bytes also feed ``digest``."""
    data = pathlib.Path(path).read_bytes()
    digest.update(data)
    return csv.reader(io.StringIO(data.decode("utf-8"), newline=""))


def parse_openflights(airports_path: str, routes_path: str) -> ParseResult:
    """Join routes to airports on the airport-id key.

    Malformed rows are skipped and counted; unresolved airport ids count
    as join failures; parallel and reverse routes collapse to one
    undirected link.
    """
    digest = hashlib.sha256()
    airports: dict[str, City] = {}
    res = ParseResult(links=[])
    for row in _rows(airports_path, digest):
        if len(row) < 4 or not all(row[i].strip() for i in (0, 2, 3)):
            res.malformed_airport_rows += 1
            continue
        airports[row[0].strip()] = (row[2].strip(), row[3].strip())
    res.airport_count = len(airports)

    links: set[tuple[City, City]] = set()
    for row in _rows(routes_path, digest):
        if len(row) < 6:
            res.malformed_route_rows += 1
            continue
        src_id, dst_id = row[3].strip(), row[5].strip()
        if src_id not in airports or dst_id not in airports:
            res.join_failures += 1
            continue
        src, dst = airports[src_id], airports[dst_id]
        if src[1] == dst[1]:
            res.intra_country_dropped += 1
            continue
        links.add((src, dst) if src <= dst else (dst, src))
    res.links = sorted(links)
    res.snapshot_hash = digest.hexdigest()
    return res


def build_real_instance(
    parsed: ParseResult,
    country_filter: Optional[set[str]] = None,
    subsample: Optional[tuple[int, int]] = None,
) -> tuple[InterQNet, dict]:
    """Instance from parsed links: optional country filter, optional
    uniform edge subsample (count, seed), then the largest connected
    component, relabeled so each country's cities are contiguous."""
    pairs = parsed.links
    if country_filter is not None:
        pairs = [(a, b) for a, b in pairs if a[1] in country_filter and b[1] in country_filter]
    if subsample is not None:
        count, seed = subsample
        if count < 1:
            raise ValueError(f"sample size must be at least 1, got {count}")
        if seed < 0:
            raise ValueError(f"subsample seed must be non-negative, got {seed}")
        if count > len(pairs):
            raise ValueError(f"cannot sample {count} of {len(pairs)} edges")
        rng = np.random.default_rng(seed)
        idx = sorted(rng.choice(len(pairs), size=count, replace=False))
        pairs = [pairs[i] for i in idx]
    if not pairs:
        raise ValueError("no usable records after filtering")

    nodes = sorted({n for e in pairs for n in e}, key=lambda n: (n[1], n[0]))
    index = {n: i for i, n in enumerate(nodes)}
    raw = Graph(len(nodes), [(index[a], index[b]) for a, b in pairs])

    comp_mask = max(components(raw.adjacency, (1 << raw.vertex_count) - 1), key=int.bit_count)
    kept = [n for n in nodes if comp_mask >> index[n] & 1]
    kept_idx = {n: i for i, n in enumerate(kept)}
    countries = sorted({c for _, c in kept})
    qnet_of = {c: a for a, c in enumerate(countries, start=1)}
    membership = tuple(qnet_of[c] for _, c in kept)
    edges = [(kept_idx[a], kept_idx[b]) for a, b in pairs if a in kept_idx]
    iq = InterQNet(Graph(len(kept), edges), QNetPartition(len(countries), membership))
    meta = {
        "cities": len(kept),
        "countries": len(countries),
        "edges": iq.graph.edge_count,
        "dropped_outside_component": len(nodes) - len(kept),
        "country_filter": sorted(country_filter) if country_filter else None,
        "subsample": list(subsample) if subsample else None,
        "snapshot_hash": parsed.snapshot_hash,
        "parse": {
            "records": len(parsed.links),
            "airports": parsed.airport_count,
            "malformed_airport_rows": parsed.malformed_airport_rows,
            "malformed_route_rows": parsed.malformed_route_rows,
            "join_failures": parsed.join_failures,
            "intra_country_dropped": parsed.intra_country_dropped,
        },
    }
    return iq, meta
