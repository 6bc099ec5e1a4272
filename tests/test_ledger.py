"""BENCH_LEDGER.json: one entry per benchmark record, each verdict following
from the entry's own numbers, the raw records in the tree matching the
entries that say they are there, and every other record readable at the
commit its entry names."""

import copy
import json
import pathlib
import re
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
LEDGER = ROOT / "BENCH_LEDGER.json"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}

COMMIT = re.compile(r"[0-9a-f]{40}")
ALWAYS = ("file", "commit", "pr", "parent_commit", "claim", "verdict", "in_tree")
ROUND = ("parent_median", "change_median", "parent_iqr", "better_pairs", "pairs", "source")


def verdict(entry):
    """The rule a claimed gain is held to: the change reads better in at
    least 9 of 10 pairs, and its median lies past the parent's median by more
    than the parent's interquartile range, in the claimed direction."""
    claim = entry["claim"]
    if claim is None:
        return "none claimed"
    shift = entry["change_median"] - entry["parent_median"]
    if claim["better"] == "lower":
        shift = -shift
    met = 10 * entry["better_pairs"] >= 9 * entry["pairs"] and shift > entry["parent_iqr"]
    return "met" if met else "not met"


def problems(entry):
    """Every way an entry breaks the ledger's schema or its verdict rule."""
    found = []
    keys = set(entry)
    allowed = set(ALWAYS) | {"change_commit"} | (set(ROUND) if entry.get("claim") else set())
    if missing := set(ALWAYS) - keys:
        return [f"missing {sorted(missing)}"]
    if extra := keys - allowed:
        found.append(f"unexpected {sorted(extra)}")
    if not re.fullmatch(r"BENCH_[a-z0-9_]+\.json", entry["file"]) or entry["file"] == LEDGER.name:
        found.append(f"file {entry['file']!r}")
    for key in ("commit", "parent_commit", "change_commit"):
        if key in entry and not (isinstance(entry[key], str) and COMMIT.fullmatch(entry[key])):
            found.append(f"{key} {entry[key]!r} is not a full commit id")
    if type(entry["pr"]) is not int or entry["pr"] < 1:
        found.append(f"pr {entry['pr']!r}")
    if type(entry["in_tree"]) is not bool:
        found.append(f"in_tree {entry['in_tree']!r}")
    claim = entry["claim"]
    if claim is not None:
        if not isinstance(claim, dict) or set(claim) != {"metric", "workload", "better"}:
            return found + [f"claim {claim!r}"]
        if METRICS.get(claim["metric"]) != claim["better"]:
            found.append(f"claim metric {claim['metric']!r} is not better {claim['better']!r}")
        if claim["workload"] not in WORKLOADS:
            found.append(f"claim workload {claim['workload']!r}")
        if missing := set(ROUND) - keys:
            return found + [f"claim without {sorted(missing)}"]
        if not all(type(entry[k]) in (int, float) and entry[k] > 0
                   for k in ("parent_median", "change_median")):
            found.append("medians must be positive numbers")
        if not (type(entry["parent_iqr"]) in (int, float) and entry["parent_iqr"] >= 0):
            found.append(f"parent_iqr {entry['parent_iqr']!r}")
        if not (type(entry["pairs"]) is int and type(entry["better_pairs"]) is int
                and 0 <= entry["better_pairs"] <= entry["pairs"] and entry["pairs"] > 0):
            return found + [f"{entry['better_pairs']!r} better of {entry['pairs']!r} pairs"]
        if not (isinstance(entry["source"], str) and entry["source"]):
            found.append(f"source {entry['source']!r}")
    if entry["verdict"] != verdict(entry):
        found.append(f"verdict {entry['verdict']!r}, but the numbers give {verdict(entry)!r}")
    return found


@pytest.fixture(scope="module")
def ledger():
    return json.loads(LEDGER.read_text())


def test_ledger_is_one_tagged_list(ledger):
    assert set(ledger) == {"schema", "entries"}
    assert ledger["schema"] == "mecnet.bench_ledger.v1"
    files = [e["file"] for e in ledger["entries"]]
    assert len(files) == len(set(files))
    assert [e["pr"] for e in ledger["entries"]] == sorted(e["pr"] for e in ledger["entries"])


def test_every_entry_follows_the_schema_and_the_verdict_rule(ledger):
    bad = {e.get("file"): p for e in ledger["entries"] if (p := problems(e))}
    assert bad == {}


def test_raw_files_in_the_tree_are_the_in_tree_entries(ledger):
    in_tree = {p.name for p in ROOT.glob("BENCH_*.json")} - {LEDGER.name}
    assert in_tree == {e["file"] for e in ledger["entries"] if e["in_tree"]}


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)


def test_retired_records_are_readable_at_their_commit(ledger):
    # a record out of the tree is read with `git show <commit>:<file>`, which
    # needs the whole history; a shallow clone or an export lacks it
    if not (ROOT / ".git").exists():
        pytest.skip("no git checkout")
    if git("rev-parse", "--is-shallow-repository").stdout.strip() == "true":
        pytest.skip("shallow clone")
    retired = [e for e in ledger["entries"] if not e["in_tree"]]
    assert retired
    assert [e["file"] for e in retired if git("cat-file", "-e", f"{e['commit']}:{e['file']}").returncode] == []


@pytest.fixture
def met(ledger):
    entry = next(e for e in ledger["entries"] if e["verdict"] == "met")
    return copy.deepcopy(entry)


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_a_met_claim_needs_nine_of_ten_pairs(met, better):
    sign = 1 if better == "higher" else -1
    met.update(claim=dict(met["claim"], metric="instances_per_s" if sign > 0 else "batch_p50_ms",
                          better=better),
               parent_median=100.0, change_median=100.0 + sign * 10, parent_iqr=5.0, pairs=10)
    met["better_pairs"] = 9
    assert problems(met) == []
    met["better_pairs"] = 8
    assert problems(met) == ["verdict 'met', but the numbers give 'not met'"]


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_a_met_claim_needs_a_shift_past_the_parent_iqr(met, better):
    sign = 1 if better == "higher" else -1
    met.update(claim=dict(met["claim"], metric="instances_per_s" if sign > 0 else "batch_p50_ms",
                          better=better),
               parent_median=100.0, parent_iqr=5.0, better_pairs=10, pairs=10)
    met["change_median"] = 100.0 + sign * 5.5
    assert problems(met) == []
    for change in (100.0 + sign * 5, 100.0 + sign * 4, 100.0 - sign * 10):
        met["change_median"] = change
        assert problems(met) == ["verdict 'met', but the numbers give 'not met'"], change


def test_schema_faults_are_named(met):
    wrong = dict(met, pr=0, commit="abc123", claim=dict(met["claim"], workload="sweep"))
    assert problems(wrong) == [
        "commit 'abc123' is not a full commit id",
        "pr 0",
        "claim workload 'sweep'",
    ]
    unclaimed = dict(met, claim=None, verdict="none claimed")
    assert problems(unclaimed) == [
        "unexpected ['better_pairs', 'change_median', 'pairs', 'parent_iqr', 'parent_median', 'source']"
    ]
