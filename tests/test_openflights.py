"""OpenFlights ingestion against the vendored fixture slice."""

import os
import re

import pytest

from mecnet.graph import MAX_VERTICES
from mecnet.openflights import ParseResult, build_real_instance, parse_openflights

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "openflights")
AIRPORTS = os.path.join(FIXTURES, "airports.dat")
ROUTES = os.path.join(FIXTURES, "routes.dat")

EU9 = {
    "France",
    "Germany",
    "Spain",
    "Italy",
    "Netherlands",
    "Austria",
    "Portugal",
    "Poland",
    "Ireland",
}


@pytest.fixture(scope="module")
def parsed():
    return parse_openflights(AIRPORTS, ROUTES)


class TestParse:
    def test_counts(self, parsed):
        assert parsed.airport_count == 23
        assert parsed.malformed_airport_rows == 2
        assert parsed.malformed_route_rows == 1
        assert parsed.join_failures == 2
        assert parsed.intra_country_dropped == 4

    def test_undirected_collapse(self, parsed):
        paris_berlin = [(a, b) for a, b in parsed.links if {a[0], b[0]} == {"Paris", "Berlin"}]
        assert len(paris_berlin) == 1

    def test_all_records_international(self, parsed):
        for a, b in parsed.links:
            assert a[1] != b[1]

    def test_city_collapse_merges_airports(self, parsed):
        # Paris has two airports in the fixture but is one endpoint city
        cities = {n for link in parsed.links for n in link}
        assert ("Paris", "France") in cities

    def test_snapshot_hash_stable(self, parsed):
        again = parse_openflights(AIRPORTS, ROUTES)
        assert again.snapshot_hash == parsed.snapshot_hash
        assert len(parsed.snapshot_hash) == 64


class TestBuildInstance:
    def test_full_fixture(self, parsed):
        iq, meta = build_real_instance(parsed)
        assert iq.graph.connected()
        assert meta["countries"] == iq.partition.k
        assert meta["edges"] == iq.graph.edge_count
        m = iq.partition.membership
        for u, v in iq.graph.edges():
            assert m[u] != m[v]

    def test_two_country_filter(self, parsed):
        iq, meta = build_real_instance(parsed, country_filter={"France", "Germany"})
        assert iq.partition.k == 2
        assert meta["countries"] == 2

    def test_eu_filter(self, parsed):
        iq, meta = build_real_instance(parsed, country_filter=EU9)
        assert iq.partition.k == len(
            {c for c in EU9 if c in {x for x in _countries(parsed, EU9)}}
        )
        assert meta["snapshot_hash"] == parsed.snapshot_hash

    def test_subsample_deterministic(self, parsed):
        a, ma = build_real_instance(parsed, country_filter=EU9, subsample=(20, 5))
        b, mb = build_real_instance(parsed, country_filter=EU9, subsample=(20, 5))
        assert a.graph == b.graph and ma == mb
        assert a.graph.connected()

    @pytest.mark.parametrize(
        "left, k",
        [(("France", "Germany"), 2), (("Sweden", "Switzerland"), 3)],
    )
    def test_tie_keeps_the_component_of_the_lowest_vertex(self, left, k):
        # two three-city components: one over the countries ``left``, one a
        # path over Italy, Portugal and Spain; cities are numbered by
        # (country, city), so ``left`` decides which holds vertex 0
        a, b = left
        parsed = ParseResult([
            (("Berlin", b), ("Lyon", a)),
            (("Berlin", b), ("Paris", a)),
            (("Lisbon", "Portugal"), ("Madrid", "Spain")),
            (("Madrid", "Spain"), ("Rome", "Italy")),
        ])
        iq, meta = build_real_instance(parsed)
        assert iq.partition.k == k
        assert meta["cities"] == 3 and meta["dropped_outside_component"] == 3

    def test_domestic_link_is_refused(self):
        parsed = ParseResult([(("Berlin", "Germany"), ("Munich", "Germany"))])
        with pytest.raises(ValueError, match="stays inside QNet"):
            build_real_instance(parsed)

    def test_more_cities_than_the_vertex_limit_are_refused(self):
        # a star from one hub: every spoke is a city of its own
        hub = ("Hub", "A")
        parsed = ParseResult([(hub, (f"City {i}", "B")) for i in range(MAX_VERTICES)])
        with pytest.raises(ValueError, match=f"vertex_count {MAX_VERTICES + 1} is above the vertex limit"):
            build_real_instance(parsed)
        assert build_real_instance(ParseResult(parsed.links[1:]))[1]["cities"] == MAX_VERTICES

    def test_row_past_the_csv_field_limit_is_named(self, tmp_path):
        routes = tmp_path / "routes.dat"
        routes.write_text("AF,137,CDG,1001,BER,1101,,0,320\nAF," + "x" * 200_000 + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{routes} line 2: field larger than field limit")):
            parse_openflights(AIRPORTS, str(routes))

    def test_oversample_rejected(self, parsed):
        with pytest.raises(ValueError):
            build_real_instance(parsed, subsample=(10**6, 0))

    def test_empty_filter_rejected(self, parsed):
        with pytest.raises(ValueError):
            build_real_instance(parsed, country_filter={"Atlantis"})


def _countries(parsed, allowed):
    out = set()
    for a, b in parsed.links:
        if a[1] in allowed and b[1] in allowed:
            out.add(a[1])
            out.add(b[1])
    return out
