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
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from .graph import Graph, components
from .qnet import InterQNet, QNetPartition

__all__ = ["FlightRecord", "ParseResult", "parse_openflights", "build_real_instance"]


@dataclass(frozen=True)
class FlightRecord:
    source_city: str
    source_country: str
    dest_city: str
    dest_country: str

    def __post_init__(self) -> None:
        if not all(
            (self.source_city, self.source_country, self.dest_city, self.dest_country)
        ):
            raise ValueError("record fields must be non-empty")
        if self.source_country == self.dest_country:
            raise ValueError("only international records are retained")


@dataclass
class ParseResult:
    records: list[FlightRecord]
    airport_count: int = 0
    malformed_airport_rows: int = 0
    malformed_route_rows: int = 0
    join_failures: int = 0
    intra_country_dropped: int = 0
    snapshot_hash: str = ""

    def __iter__(self):
        return iter(self.records)


def _file_hash(*paths: str) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def parse_openflights(airports_path: str, routes_path: str) -> ParseResult:
    """Join routes to airports on the airport-id key.

    Malformed rows are skipped and counted; unresolved airport ids count
    as join failures; parallel and reverse routes collapse to one
    undirected record.
    """
    airports: dict[str, tuple[str, str]] = {}
    res = ParseResult(records=[])
    with open(airports_path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if len(row) < 4 or not row[0].strip():
                res.malformed_airport_rows += 1
                continue
            aid, city, country = row[0].strip(), row[2].strip(), row[3].strip()
            if not city or not country:
                res.malformed_airport_rows += 1
                continue
            airports[aid] = (city, country)
    res.airport_count = len(airports)

    seen: set[tuple[tuple[str, str], tuple[str, str]]] = set()
    with open(routes_path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
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
            key = (src, dst) if src <= dst else (dst, src)
            if key in seen:
                continue
            seen.add(key)
    res.records = [
        FlightRecord(a[0], a[1], b[0], b[1]) for a, b in sorted(seen)
    ]
    res.snapshot_hash = _file_hash(airports_path, routes_path)
    return res


def build_real_instance(
    records: Union[ParseResult, Iterable[FlightRecord]],
    country_filter: Optional[set[str]] = None,
    subsample: Optional[tuple[int, int]] = None,
) -> tuple[InterQNet, dict]:
    """Instance from parsed records: optional country filter, optional
    uniform edge subsample (count, seed), then the largest connected
    component, relabeled so each country's cities are contiguous."""
    snapshot_hash = records.snapshot_hash if isinstance(records, ParseResult) else ""
    recs = list(records)
    if country_filter is not None:
        recs = [
            r
            for r in recs
            if r.source_country in country_filter and r.dest_country in country_filter
        ]
    pairs = sorted(
        {
            tuple(
                sorted(
                    (
                        (r.source_city, r.source_country),
                        (r.dest_city, r.dest_country),
                    )
                )
            )
            for r in recs
        }
    )
    if subsample is not None:
        count, seed = subsample
        if count < 1:
            raise ValueError(f"sample size must be at least 1, got {count}")
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
    edges = [
        (kept_idx[a], kept_idx[b])
        for a, b in pairs
        if a in kept_idx and b in kept_idx
    ]
    iq = InterQNet(Graph(len(kept), edges), QNetPartition(len(countries), membership))
    meta = {
        "cities": len(kept),
        "countries": len(countries),
        "edges": len(edges),
        "dropped_outside_component": len(nodes) - len(kept),
        "country_filter": sorted(country_filter) if country_filter else None,
        "subsample": list(subsample) if subsample else None,
        "snapshot_hash": snapshot_hash,
    }
    return iq, meta
