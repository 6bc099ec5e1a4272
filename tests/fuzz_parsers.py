"""Property checks on every text and config parser, run as a script.

Each property starts from a valid input, checks that it round-trips, then
mutates it: a token swapped for an edge value (a count far past the vertex
limit among them), a line dropped, repeated, swapped or inserted.  A mutated
input must either parse into a value that round-trips in turn, or raise
ValueError; any other exception fails the run.  The parsers covered are the
edge-list text, the instance file, the experiment config and the OpenFlights
rows.

pytest does not collect this file.  ``tests/test_cli.py`` runs it in one
child process whose address space is capped, so that a parser that sizes an
allocation from its input fails the test instead of exhausting the machine:

    PYTHONPATH=src python tests/fuzz_parsers.py
"""

import dataclasses
import json
import os
import re
import tempfile

from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from mecnet.experiments import ExperimentConfig
from mecnet.graph import MAX_VERTICES, graph_from_edgelist, graph_to_edgelist
from mecnet.netgen import GenConfig, generate_inter_qnet
from mecnet.openflights import build_real_instance, parse_openflights
from mecnet.qnet import instance_from_text, instance_to_text

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "openflights")

# tokens that sit on or past a rule's edge
EDGE_TOKENS = [
    "-1", "0", "1", "2", str(MAX_VERTICES), str(MAX_VERTICES + 1), "300000000", "1" * 30,
    "", "x", "1.5", "0x10", "n=", "qnet", "#", ",", ":", "١",
]
# a field past the csv module's field limit
LONG_FIELD = "x" * 140_000

# derandomised: each run draws the same examples, so a run that passes once
# passes every time; the first failing example is reported as drawn, as
# shrinking an input that exhausts memory would take minutes
EXAMPLES = settings(
    max_examples=100, derandomize=True, deadline=None, database=None, phases=[Phase.generate],
    report_multiple_bugs=False, suppress_health_check=list(HealthCheck),
)


def mutate(data, lines, tokens=st.sampled_from(EDGE_TOKENS)):
    """``lines`` after one to four drawn edits, as one text: a number or a
    field swapped for a drawn token, or a line dropped, repeated, swapped
    or inserted."""
    lines = list(lines)
    for _ in range(data.draw(st.integers(1, 4))):
        op = data.draw(st.sampled_from(["number", "field", "drop", "repeat", "swap", "insert"]))
        if not lines:
            op = "insert"
        i = data.draw(st.integers(0, max(len(lines) - 1, 0)))
        numbers = list(re.finditer(r"\d+", lines[i]))
        if op == "number" and numbers:
            at = data.draw(st.sampled_from(numbers))
            lines[i] = lines[i][: at.start()] + data.draw(tokens) + lines[i][at.end() :]
        elif op in ("number", "field"):
            parts = re.split(r"([\s,=:]+)", lines[i])
            j = data.draw(st.integers(0, len(parts) - 1))
            parts[j] = data.draw(tokens)
            lines[i] = "".join(parts)
        elif op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines.insert(i, data.draw(st.text(alphabet="0123456789 ,=:#-nqet\t", max_size=12)))
    return "\n".join(lines)


def recounted(data, text):
    """The lines of ``text``, their ``n=`` header count kept or swapped for
    a drawn one, up to 10**30."""
    lines = text.splitlines()
    count = data.draw(st.none() | st.integers(-1, 10**30) | st.sampled_from(EDGE_TOKENS))
    if count is not None:
        lines[0] = f"n={count}"
    return lines


def round_trips(value, to_text, from_text):
    """Whether writing ``value`` and parsing the text gives it back."""
    return from_text(to_text(value)) == value


def parsed_or_refused(parse, text):
    """``parse(text)``, or None where it raises ValueError."""
    try:
        return parse(text)
    except ValueError:
        return None


@st.composite
def networks(draw):
    k = draw(st.integers(2, 4))
    sizes = tuple(draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)))
    return generate_inter_qnet(GenConfig(k, sizes, draw(st.floats(0, 1)), draw(st.integers(0, 2**32 - 1))))


@EXAMPLES
@given(networks(), st.data())
def edge_lists(iq, data):
    g = iq.graph
    assert round_trips(g, graph_to_edgelist, graph_from_edgelist)
    h = parsed_or_refused(graph_from_edgelist, mutate(data, recounted(data, graph_to_edgelist(g))))
    assert h is None or round_trips(h, graph_to_edgelist, graph_from_edgelist)


@EXAMPLES
@given(networks(), st.data())
def instance_texts(iq, data):
    assert round_trips(iq, instance_to_text, instance_from_text)
    got = parsed_or_refused(instance_from_text, mutate(data, recounted(data, instance_to_text(iq))))
    assert got is None or round_trips(got, instance_to_text, instance_from_text)


def config_to_text(cfg):
    return json.dumps(dataclasses.asdict(cfg))


def config_from_text(text):
    return ExperimentConfig.from_dict(json.loads(text))


SIZES = st.sampled_from([-1, 0, 1, 2, 3, MAX_VERTICES, MAX_VERTICES + 1, 10**9, 10**12, 10**29])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | SIZES | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
TIMING = st.fixed_dictionaries({key: st.integers(1, 9) for key in ("lam", "tpm", "trm", "tpb", "trb")})


@st.composite
def configs(draw):
    counts = draw(st.lists(st.integers(2, 6), min_size=1, max_size=3, unique=True))
    return ExperimentConfig(
        seed=draw(st.integers(0, 2**64)),
        repetitions=draw(st.integers(1, 9)),
        nodes=draw(st.integers(max(counts), MAX_VERTICES)),
        qnet_counts=tuple(counts),
        densities=tuple(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=4, unique=True))),
        request_volumes=tuple(draw(st.lists(st.integers(0, 500), min_size=1, max_size=3, unique=True))),
        jobs=draw(st.integers(1, 10**6)),
    )


@EXAMPLES
@given(configs(), st.data())
def config_objects(cfg, data):
    assert round_trips(cfg, config_to_text, config_from_text)
    d = json.loads(config_to_text(cfg))
    for _ in range(data.draw(st.integers(1, 3))):
        key = data.draw(st.sampled_from([*d, "unknown"]))
        d[key] = data.draw(st.lists(TIMING, min_size=1, max_size=2) if key == "timing_grid" else JSON_VALUES)
        if data.draw(st.booleans()):
            d[key] = data.draw(JSON_VALUES | SIZES | st.lists(SIZES, min_size=1, max_size=2))
    got = parsed_or_refused(ExperimentConfig.from_dict, d)
    assert got is None or round_trips(got, config_to_text, config_from_text)


def read_fixture(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return fh.read().splitlines()


AIRPORTS, ROUTES = read_fixture("airports.dat"), read_fixture("routes.dat")
ROW_TOKENS = st.sampled_from([LONG_FIELD, '"', '"a,b"', "1001", "1101", "France", *EDGE_TOKENS])


def ingest(airports, routes, where):
    paths = []
    for name, text in (("airports.dat", airports), ("routes.dat", routes)):
        paths.append(os.path.join(where, name))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            fh.write(text)
    return build_real_instance(parse_openflights(*paths))[0]


@EXAMPLES
@given(st.data())
def openflights_rows(data):
    with tempfile.TemporaryDirectory() as where:
        iq = ingest("\n".join(AIRPORTS), "\n".join(ROUTES), where)
        assert round_trips(iq, instance_to_text, instance_from_text)
        airports, routes = AIRPORTS, ROUTES
        if data.draw(st.booleans()):
            airports = mutate(data, airports, ROW_TOKENS).splitlines()
        else:
            routes = mutate(data, routes, ROW_TOKENS).splitlines()
        try:
            got = ingest("\n".join(airports), "\n".join(routes), where)
        except ValueError:
            return
        assert round_trips(got, instance_to_text, instance_from_text)


PROPERTIES = [edge_lists, instance_texts, config_objects, openflights_rows]

if __name__ == "__main__":
    for prop in PROPERTIES:
        prop()
    print(f"{len(PROPERTIES)} properties held")
