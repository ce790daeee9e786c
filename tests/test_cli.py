import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import random
import stat
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srlnc import FieldSpec, GemSet, Mat, lift_block
from srlnc import blockcode, cli, linalg, multicast, netgraph, subrate
from srlnc.cli import main

from helpers import (DEPENDENT_SPANNER_MATS, assert_checked_form, generalized_butterfly,
                     reference_check, reference_optimize_block_plan, reference_simulate_failures)

SRC = str(Path(__file__).resolve().parents[1] / "src")

BUTTERFLY = {
    "field": 3,
    "rate": 2,
    "nodes": [1, 2, 3, 4, 5, 6, 7, 8],
    "edges": [[1, 2], [1, 3], [2, 4], [2, 6], [3, 4], [3, 7],
              [4, 5], [5, 6], [5, 7], [5, 8]],
    "source": 1,
    "sinks": [6, 7],
    "subrate_sinks": [8],
}

THREE_PLANES_GEMS = {
    "p": 3,
    "rate": 3,
    "mats": [
        [[1, 0], [1, 0], [0, 1]],
        [[1, 0], [0, 1], [0, 1]],
        [[1, 1], [1, 0], [0, 1]],
    ],
    "spanner": [[2, 1, 1], [1, 1, 0], [1, 1, 1]],
}

SHARED_AXIS_GEMS = {
    "p": 3,
    "rate": 3,
    "mats": [
        [[1, 0], [0, 0], [0, 1]],
        [[0, 0], [1, 0], [0, 1]],
        [[1, 0], [1, 0], [0, 1]],
    ],
}

# fsrd_check passes and build_spanner fails; the minimal exact spanner has
# 5 vectors at rate 4, so no single-use precoder exists
FIVE_VECTOR_GEMS = {
    "p": 3,
    "rate": 4,
    "mats": [
        [[2, 1, 2], [0, 2, 0], [2, 2, 2], [1, 1, 2]],
        [[2, 1], [0, 0], [1, 1], [0, 1]],
        [[0, 0], [2, 0], [0, 2], [1, 1]],
        [[0], [2], [2], [2]],
    ],
}

DEPENDENT_SPANNER_GEMS = {"p": 2, "rate": 4, "mats": list(DEPENDENT_SPANNER_MATS)}
DEPENDENT_SPANNER_ERR = ("infeasible: the minimal exact spanner has 4 vectors, more than the "
                         "dimension 3 of the members' total span")

# perfbench/gen.py's layered_dag(rng, 3, 4, 4, 3, 2, 2, [rng.randrange(1, 4)
# for _ in range(5)]) with rng = random.Random(94); under the code of seed
# 0 its weak sinks' gems have a dependent minimal exact spanner
LAYERED_94 = {
    "field": 3, "rate": 4, "nodes": list(range(20)), "source": 0,
    "sinks": [13, 14], "subrate_sinks": [15, 16, 17, 18, 19],
    "edges": [[0, 1], [0, 1], [0, 2], [0, 2], [0, 3], [0, 3], [0, 4], [0, 4], [1, 5], [3, 5],
              [2, 6], [1, 6], [3, 7], [4, 7], [4, 8], [2, 8], [5, 9], [7, 9], [6, 10],
              [7, 10], [7, 11], [6, 11], [8, 12], [7, 12], [9, 13], [10, 13], [11, 13],
              [12, 13], [9, 13], [9, 14], [10, 14], [11, 14], [12, 14], [9, 14], [9, 15],
              [12, 15], [5, 15], [11, 16], [5, 17], [11, 18], [7, 18], [12, 19], [7, 19]],
}

# a random set over GF(3) (tests/helpers.random_gemset, random.Random(5),
# r=4, k_max=6: the first drawn with k=5 and a minimal spanner of 5 or 6
# vectors); its multisets of up to four independent spanner subsets number
# more than 200 000, but a single subset already reaches min h = 1 per use,
# which no design can beat, so the search stops at l = 1
BLOCK_PROBE_GEMS = {
    "p": 3,
    "rate": 4,
    "mats": [
        [[2, 2], [1, 2], [2, 0], [2, 1]],
        [[2], [0], [0], [0]],
        [[1, 0], [0, 2], [1, 0], [2, 0]],
        [[0, 1, 2], [1, 0, 2], [1, 0, 1], [0, 0, 0]],
        [[0], [0], [1], [1]],
    ],
}

# one broadcast relay feeds all three weak sinks the same symbol, so their
# gems share a line and no precoder can serve all of them at once
FAN = {
    "field": 3,
    "rate": 3,
    "nodes": [1, 2, 3, 4, 5, 6, 10, 11, 12, 13],
    "edges": [[1, 2], [1, 3], [1, 4], [2, 10], [3, 10], [4, 10], [2, 5],
              [5, 11], [5, 12], [5, 13], [3, 11], [4, 12], [3, 6], [4, 6],
              [6, 13]],
    "source": 1,
    "sinks": [10],
    "subrate_sinks": [11, 12, 13],
}

FAN_CODE = {
    "p": 3,
    "rate": 3,
    "gek": {
        "-3": [0, 0, 1], "-2": [0, 1, 0], "-1": [1, 0, 0],
        "0": [1, 0, 0], "1": [0, 1, 0], "2": [0, 0, 1],
        "3": [1, 0, 0], "4": [0, 1, 0], "5": [0, 0, 1],
        "6": [1, 0, 0], "7": [1, 0, 0], "8": [1, 0, 0], "9": [1, 0, 0],
        "10": [0, 1, 0], "11": [0, 0, 1],
        "12": [0, 1, 0], "13": [0, 0, 1], "14": [0, 1, 1],
    },
    "lek": {
        "1": {"in": [-3, -2, -1], "out": [0, 1, 2],
              "k": [[0, 0, 1], [0, 1, 0], [1, 0, 0]]},
        "2": {"in": [0], "out": [3, 6], "k": [[1, 1]]},
        "3": {"in": [1], "out": [4, 10, 12], "k": [[1, 1, 1]]},
        "4": {"in": [2], "out": [5, 11, 13], "k": [[1, 1, 1]]},
        "5": {"in": [6], "out": [7, 8, 9], "k": [[1, 1, 1]]},
        "6": {"in": [12, 13], "out": [14], "k": [[1], [1]]},
        "10": {"in": [3, 4, 5], "out": [], "k": [[], [], []]},
        "11": {"in": [7, 10], "out": [], "k": [[], []]},
        "12": {"in": [8, 11], "out": [], "k": [[], []]},
        "13": {"in": [9, 14], "out": [], "k": [[], []]},
    },
}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def read(path):
    with open(path) as fh:
        return json.load(fh)


def test_maxflow(tmp_path):
    net = write(tmp_path, "net.json", BUTTERFLY)
    out = str(tmp_path / "mf.json")
    assert main(["maxflow", net, "6", "--out", out]) == 0
    obj = read(out)
    assert obj["value"] == 2
    assert len(obj["paths"]) == 2
    assert main(["maxflow", net, "8", "--out", out]) == 0
    assert read(out)["value"] == 1


def test_maxflow_prints_to_stdout(tmp_path, capsys):
    net = write(tmp_path, "net.json", BUTTERFLY)
    assert main(["maxflow", net, "7"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["value"] == 2


@pytest.mark.parametrize("sink", ["99", "1"], ids=["unknown", "source"])
def test_maxflow_names_the_file_and_its_sink_argument(tmp_path, capsys, sink):
    net = write(tmp_path, "net.json", BUTTERFLY)
    assert main(["maxflow", net, sink]) == 2
    _one_error_line(capsys, f"{net}: sink argument '{sink}' is not a node other than the source")


def test_precode_and_simulate_take_h_without_the_max_flow_paths(tmp_path, monkeypatch):
    # h decides each sink's role, and only `code` and `maxflow` need the paths
    real = netgraph.max_flow
    calls = []

    def counted(net, t):
        calls.append(t)
        return real(net, t)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("srlnc") and getattr(module, "max_flow", None) is real:
            monkeypatch.setattr(module, "max_flow", counted)
    net = write(tmp_path, "net.json", BUTTERFLY)
    code, plan, report = (str(tmp_path / f"{name}.json") for name in ("code", "plan", "report"))
    assert main(["code", net, "--out", code]) == 0
    assert calls == [6, 7, 8]
    calls.clear()
    assert main(["precode", net, code, "--out", plan]) == 0
    assert main(["simulate", net, code, plan, "--out", report]) == 0
    assert calls == []
    assert main(["maxflow", net, "8", "--out", str(tmp_path / "mf.json")]) == 0
    assert calls == [8]
    loaded, _, _ = cli.load_network(net)
    assert {row["sink"]: row["h"] for row in read(report)["sinks"]} == {
        str(t): real(loaded, t).value for t in (6, 7, 8)}


def test_bad_inputs_exit_2(tmp_path, capsys):
    net = write(tmp_path, "net.json", BUTTERFLY)
    assert main(["maxflow", net, "99"]) == 2
    assert main(["maxflow", str(tmp_path / "absent.json"), "6"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["maxflow", str(bad), "6"]) == 2
    extra = dict(BUTTERFLY, comment="hello")
    assert main(["maxflow", write(tmp_path, "extra.json", extra), "6"]) == 2
    err = capsys.readouterr().err
    assert "unknown keys: comment" in err


def test_code_output_is_deterministic(tmp_path):
    net = write(tmp_path, "net.json", BUTTERFLY)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["code", net, "--out", str(a)]) == 0
    assert main(["code", net, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    obj = read(str(a))
    assert obj["p"] == 3 and obj["rate"] == 2
    assert set(obj["gek"]) == {str(e) for e in range(-2, 10)}


def test_code_exits_3_when_the_field_is_too_small(tmp_path, capsys):
    net = write(tmp_path, "net.json", dict(BUTTERFLY, field=2))
    assert main(["code", net]) == 3
    assert "infeasible" in capsys.readouterr().err


def test_precode_from_a_gems_file(tmp_path):
    gems = write(tmp_path, "gems.json", THREE_PLANES_GEMS)
    out = str(tmp_path / "plan.json")
    assert main(["precode", "--gems", gems, "--out", out]) == 0
    obj = read(out)
    assert obj["kind"] == "subrate"
    assert obj["P"] == [[1, 2, 0], [0, 1, 2], [2, 1, 1]]
    assert obj["i_bar"] == [0, 3, 0]
    assert obj["spanner"] == [[2, 1, 1], [1, 1, 0], [1, 1, 1]]
    members = obj["members"]
    assert [m["decoded_indices"] for m in members] == [[1, 2], [0, 2], [0, 1]]
    assert members[0]["D"] == [[1, 1], [0, 1]]
    assert members[1]["D"] == [[2, 1], [1, 1]]
    assert members[2]["D"] == [[1, 1], [1, 0]]
    assert "sinks" not in obj


def test_precode_gems_without_block_fallback_exits_3(tmp_path, capsys):
    gems = write(tmp_path, "gems.json", SHARED_AXIS_GEMS)
    assert main(["precode", "--gems", gems]) == 3
    assert "infeasible" in capsys.readouterr().err


def test_precode_gems_with_block_fallback(tmp_path):
    gems = write(tmp_path, "gems.json", SHARED_AXIS_GEMS)
    out = str(tmp_path / "plan.json")
    assert main(["precode", "--gems", gems, "--block", "3", "--out", out]) == 0
    obj = read(out)
    assert obj["kind"] == "block"
    assert obj["l"] == 3
    assert [m["rate"] for m in obj["members"]] == ["5/3"] * 3
    assert all(len(m["decoded_indices"]) == 5 for m in obj["members"])


def _assert_block_plan_decodes(gems: dict, obj: dict) -> None:
    """The block plan `obj` keeps P_hat @ lift(B) @ D_hat = R_hat for every
    matrix B of the gems file `gems`."""
    assert obj["kind"] == "block"
    field = FieldSpec(gems["p"])
    l = obj["l"]
    P_hat = Mat(field, obj["P_hat"])
    assert len(obj["members"]) == len(gems["mats"])
    for grid, member in zip(gems["mats"], obj["members"]):
        h = len(grid[0])
        lifted = lift_block(Mat(field, grid), l)
        D_hat = Mat(field, member["D_hat"], cols=l * h)
        R_hat = Mat(field, member["R_hat"], cols=l * h)
        assert P_hat @ lifted @ D_hat == R_hat


def test_precode_gems_with_a_spanner_longer_than_the_rate(tmp_path, capsys):
    gems = write(tmp_path, "gems.json", FIVE_VECTOR_GEMS)
    assert main(["precode", "--gems", gems]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("infeasible: ")
    out = str(tmp_path / "plan.json")
    assert main(["precode", "--gems", gems, "--block", "2", "--out", out]) == 0
    _assert_block_plan_decodes(FIVE_VECTOR_GEMS, read(out))


def test_precode_gems_with_a_dependent_minimal_spanner(tmp_path, capsys):
    # the minimal spanner is no longer than the rate, so only the total
    # span's dimension rules the precoder out, and `--block` still plans
    gems = write(tmp_path, "gems.json", DEPENDENT_SPANNER_GEMS)
    assert main(["precode", "--gems", gems]) == 3
    assert capsys.readouterr().err.splitlines() == [DEPENDENT_SPANNER_ERR]
    out = str(tmp_path / "plan.json")
    assert main(["precode", "--gems", gems, "--block", "2", "--out", out]) == 0
    _assert_block_plan_decodes(DEPENDENT_SPANNER_GEMS, read(out))


def test_a_network_with_a_dependent_minimal_spanner_gets_a_block_plan(tmp_path, capsys):
    net = write(tmp_path, "net.json", LAYERED_94)
    code, plan, report = (str(tmp_path / f"{kind}.json") for kind in ("code", "plan", "report"))
    assert main(["code", net, "--seed", "0", "--out", code]) == 0
    capsys.readouterr()
    assert main(["precode", net, code]) == 3
    assert capsys.readouterr().err.splitlines() == [DEPENDENT_SPANNER_ERR]
    assert main(["precode", net, code, "--block", "2", "--out", plan]) == 0
    assert main(["simulate", net, code, plan, "--trials", "100", "--out", report]) == 0
    rows = read(report)["sinks"]
    assert [row["sink"] for row in rows] == [str(t) for t in (13, 14, 15, 16, 17, 18, 19)]
    assert all(row["failures"] == 0 for row in rows)


def test_precode_block_searches_for_the_spanner_once(tmp_path, monkeypatch):
    calls = []
    search = subrate.minimal_exact_spanner

    def counted(gems):
        calls.append(gems)
        return search(gems)

    monkeypatch.setattr(subrate, "minimal_exact_spanner", counted)
    gems = write(tmp_path, "gems.json", FIVE_VECTOR_GEMS)
    out = tmp_path / "plan.json"
    assert main(["precode", "--gems", gems, "--block", "2", "--out", str(out)]) == 0
    assert len(calls) == 1
    g = GemSet([Mat(FieldSpec(3), m) for m in FIVE_VECTOR_GEMS["mats"]], rate=4)
    want = cli.plan_to_obj(reference_optimize_block_plan(g, l_max=2))
    assert out.read_text() == json.dumps(want, sort_keys=True, indent=2) + "\n"


def test_precode_block_4_stops_once_a_design_reaches_min_h(tmp_path):
    gems = write(tmp_path, "gems.json", BLOCK_PROBE_GEMS)
    out = str(tmp_path / "plan.json")
    t0 = time.perf_counter()
    assert main(["precode", "--gems", gems, "--block", "4", "--out", out]) == 0
    assert time.perf_counter() - t0 < 5
    obj = read(out)
    assert (obj["kind"], obj["l"]) == ("block", 1)
    field = FieldSpec(3)
    P_hat = Mat(field, obj["P_hat"])
    assert min(Fraction(m["rate"]) for m in obj["members"]) == 1
    for grid, member in zip(BLOCK_PROBE_GEMS["mats"], obj["members"]):
        h = len(grid[0])
        D_hat = Mat(field, member["D_hat"], cols=h)
        R_hat = Mat(field, member["R_hat"], cols=h)
        assert P_hat @ Mat(field, grid) @ D_hat == R_hat


def test_precode_exits_3_when_the_spanner_search_runs_past_its_budget(tmp_path, capsys,
                                                                       monkeypatch):
    # the spanner search needs 57 nodes and the commonality table 2^4 - 1 = 15,
    # so a budget of 20 stops the search
    gems = write(tmp_path, "gems.json", FIVE_VECTOR_GEMS)
    monkeypatch.setattr(subrate, "SEARCH_BUDGET", 20)
    assert main(["precode", "--gems", gems, "--block", "2"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "infeasible: exact spanner search stopped after 20 nodes"]


def test_precode_exits_3_when_many_weak_sinks_outrun_the_commonality_table(tmp_path, capsys,
                                                                          monkeypatch):
    # 18 distinct coordinate subspaces of GF(2)^5: 2^18 - 1 member sets, of
    # which 666 meet in a nonzero subspace; listing them takes 1251
    # intersections
    subsets = [c for d in range(1, 5) for c in itertools.combinations(range(5), d)][:18]
    mats = [[[int(i == j) for j in c] for i in range(5)] for c in subsets]
    gems = write(tmp_path, "gems.json", {"p": 2, "rate": 5, "mats": mats})
    plan = str(tmp_path / "plan.json")
    assert main(["precode", "--gems", gems, "--out", plan]) == 0
    assert read(plan)["i_bar"] == [0, 0, 0, 0, 0, 3, 0, 2] + [0] * 10
    monkeypatch.setattr(subrate, "SEARCH_BUDGET", 1250)
    for block in ([], ["--block", "2"]):
        assert main(["precode", "--gems", gems, *block]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "infeasible: commonality levels need more than 1250 member intersections"]


def test_precode_exits_3_before_intersecting_too_many_lines(tmp_path, capsys, monkeypatch):
    # the 40 lines of GF(3)^4 meet pairwise in zero, but the levels would
    # still take their 780 pairwise intersections
    lines = [v for v in itertools.product(range(3), repeat=4) if any(v)
             and v[next(i for i, x in enumerate(v) if x)] == 1]
    gems = write(tmp_path, "gems.json", {"p": 3, "rate": 4, "mats": [[[x] for x in v]
                                                                    for v in lines]})

    def unused(U, W):
        raise AssertionError("a refused commonality listing computed an intersection")

    monkeypatch.setattr(subrate, "subspace_intersect", unused)
    monkeypatch.setattr(subrate, "SEARCH_BUDGET", 779)
    for block in ([], ["--block", "2"]):
        assert main(["precode", "--gems", gems, *block]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "infeasible: commonality levels need more than 779 member intersections"]


def test_a_large_gems_file_is_refused_in_linear_time(tmp_path, capsys):
    # 20 000 one-column members need about 2 * 10^8 pairwise intersections,
    # so the levels are refused before the first; reading the members and
    # dropping duplicate spans, by hash, is linear in their count (comparing
    # each member with every kept span took 48 s on a 2-vCPU x86_64 VM)
    rng = random.Random(1)
    cols = {}
    while len(cols) < 20_000:
        v = tuple(rng.randrange(5) for _ in range(12))
        if any(v):
            cols[v] = None
    gems = write(tmp_path, "gems.json", {"p": 5, "rate": 12,
                                         "mats": [[[x] for x in v] for v in cols]})
    start = time.perf_counter()
    assert main(["precode", "--gems", gems]) == 3
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().err.splitlines() == [
        "infeasible: commonality levels need more than 200000 member intersections"]


def test_precode_exits_3_before_listing_too_many_member_lines(tmp_path, capsys, monkeypatch):
    # over GF(100003) each of the three planes holds 100004 lines
    gems = write(tmp_path, "gems.json", dict(SHARED_AXIS_GEMS, p=100003))

    def unlisted(S):
        raise AssertionError("a refused search listed member lines")

    monkeypatch.setattr(subrate, "subspace_lines", unlisted)
    assert main(["precode", "--gems", gems, "--block", "2"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "infeasible: exact spanner search would list 300012 member lines, more than 50000"]


@pytest.mark.parametrize("r, p, weak", [(3, 31, 3), (4, 13, 4), (4, 23, 4), (4, 31, 4)])
def test_weak_butterfly_sinks_get_a_block_plan(tmp_path, monkeypatch, r, p, weak):
    # p^r is 29 791 to 923 521 here, but the weak sinks' exact spanner
    # search and the block-design search visit a few hundred nodes at most
    monkeypatch.setattr(subrate, "SEARCH_BUDGET", 300)
    net = generalized_butterfly(FieldSpec(p), r, weak)
    obj = {"field": p, "rate": r, "nodes": list(net.nodes),
           "edges": [list(e) for e in net.edges], "source": net.source,
           "sinks": list(net.sinks[:r]), "subrate_sinks": list(net.sinks[r:])}
    nf = write(tmp_path, "net.json", obj)
    cf, pf, rf = (str(tmp_path / name) for name in ("code.json", "plan.json", "report.json"))
    assert main(["code", nf, "--out", cf]) == 0
    t0 = time.perf_counter()
    assert main(["precode", nf, cf, "--block", "2", "--out", pf]) == 0
    assert time.perf_counter() - t0 < 5
    assert main(["simulate", nf, cf, pf, "--trials", "20", "--out", rf]) == 0
    rows = read(rf)["sinks"]
    assert [row["failures"] for row in rows] == [0] * (r + weak)
    assert [row["rate"] for row in rows[r:]] == ["3/2"] * weak


def test_precode_needs_subrate_sinks(tmp_path, capsys):
    net, code, _ = _pipeline_files(tmp_path, block=False)
    _edit(net, lambda obj: obj.pop("subrate_sinks"))
    capsys.readouterr()
    assert main(["precode", net, code]) == 2
    _one_error_line(capsys, f"{net}: subrate_sinks: no subrate sinks to precode for")


def test_precode_needs_a_network_or_gems(tmp_path, capsys):
    assert main(["precode"]) == 2
    assert "needs a network file" in capsys.readouterr().err


@pytest.mark.parametrize("files", [2, 1], ids=["network-and-code", "network"])
def test_precode_takes_a_network_or_gems_not_both(tmp_path, capsys, files):
    net, code, _ = _pipeline_files(tmp_path, block=False)
    gems = write(tmp_path, "gems.json", THREE_PLANES_GEMS)
    out = str(tmp_path / "out.json")
    capsys.readouterr()
    assert main(["precode", *[net, code][:files], "--gems", gems, "--out", out]) == 2
    _one_error_line(capsys, "precode takes a network file and a code file, or --gems, "
                            "not both")
    assert not os.path.exists(out)


def test_subrate_pipeline(tmp_path):
    net = write(tmp_path, "net.json", BUTTERFLY)
    code = str(tmp_path / "code.json")
    plan = str(tmp_path / "plan.json")
    report = str(tmp_path / "report.json")
    assert main(["code", net, "--out", code]) == 0
    assert main(["precode", net, code, "--out", plan]) == 0
    pobj = read(plan)
    assert pobj["kind"] == "subrate"
    assert set(pobj["sinks"]) == {"8"}
    assert len(pobj["sinks"]["8"]["decoded_indices"]) == 1

    assert main(["simulate", net, code, plan, "--trials", "60", "--out", report]) == 0
    robj = read(report)
    assert robj["trials"] == 60
    rows = {row["sink"]: row for row in robj["sinks"]}
    assert rows["6"] == {"sink": "6", "h": 2, "decodable": 2, "rate": "2/1", "failures": 0}
    assert rows["7"]["failures"] == 0
    assert rows["8"] == {"sink": "8", "h": 1, "decodable": 1, "rate": "1/1", "failures": 0}

    first = (tmp_path / "report.json").read_bytes()
    assert main(["simulate", net, code, plan, "--trials", "60", "--out", report]) == 0
    assert (tmp_path / "report.json").read_bytes() == first


# node 9 hangs off the hub like node 8, so the two weak sinks have one
# span; at code seeds 1 and 3 their bases differ, so `precode` keeps one
# member and gives sink 9 its own D
SAME_SPAN = dict(BUTTERFLY, field=5, nodes=BUTTERFLY["nodes"] + [9],
                 edges=BUTTERFLY["edges"] + [[5, 9]], subrate_sinks=[8, 9])


@pytest.mark.parametrize("seed, D, sha", [
    (1, {"8": [[2]], "9": [[1]]},
     "3bdb0fc07895b996de6cd27ad2dec095001d74d3feaf16d3894992fd7a93cee5"),
    (3, {"8": [[1]], "9": [[3]]},
     "b18da18f0ecffb4b2d4d7c158d73d0fbe69e5352d0ba6ae25102eb46525e778d"),
], ids=["seed-1", "seed-3"])
def test_sinks_of_one_span_in_different_bases_each_get_their_decoder(tmp_path, seed, D, sha):
    net = write(tmp_path, "net.json", SAME_SPAN)
    code, plan, report = (str(tmp_path / f"{name}.json") for name in ("code", "plan", "report"))
    assert main(["code", net, "--seed", str(seed), "--out", code]) == 0
    network = cli.load_network(net)[0]
    loaded = cli.load_code(code, network)
    for block in ([], ["--block", "2"]):
        assert main(["precode", net, code, *block, "--out", plan]) == 0
        # pinned bytes; --block 2 writes the same single-use plan
        assert hashlib.sha256(Path(plan).read_bytes()).hexdigest() == sha
    pobj = read(plan)
    assert len(pobj["members"]) == 1
    P = Mat(network.field, pobj["P"])
    for t in ("8", "9"):
        entry = pobj["sinks"][t]
        assert entry["member"] == 0 and entry["D"] == D[t]
        B = multicast.extract_gem(loaded, network, int(t)).matrix
        assert P @ B @ Mat(network.field, entry["D"]) == Mat(network.field, entry["R"])
    assert main(["simulate", net, code, plan, "--trials", "50", "--out", report]) == 0
    assert all(row["failures"] == 0 for row in read(report)["sinks"])


def test_simulate_without_a_plan_skips_subrate_decoding(tmp_path):
    net = write(tmp_path, "net.json", BUTTERFLY)
    code = str(tmp_path / "code.json")
    report = str(tmp_path / "report.json")
    assert main(["code", net, "--out", code]) == 0
    assert main(["simulate", net, code, "--trials", "30", "--out", report]) == 0
    rows = {row["sink"]: row for row in read(report)["sinks"]}
    assert rows["8"] == {"sink": "8", "h": 1, "decodable": 0, "rate": "0/1", "failures": 0}
    assert rows["6"]["failures"] == 0 and rows["7"]["failures"] == 0


def test_simulate_rejects_a_plan_without_sink_decoders(tmp_path, capsys):
    net = write(tmp_path, "net.json", BUTTERFLY)
    code = str(tmp_path / "code.json")
    assert main(["code", net, "--out", code]) == 0
    gems = write(tmp_path, "gems.json",
                 {"p": 3, "rate": 2, "mats": [[[1], [0]]]})
    plan = str(tmp_path / "plan.json")
    assert main(["precode", "--gems", gems, "--out", plan]) == 0
    assert main(["simulate", net, code, plan]) == 2
    assert "per-sink decoders" in capsys.readouterr().err


def _corrupt_decoder(sink, name):
    """A plan edit: one entry of the sink's D or D_hat changed, or its first
    decoded coordinate moved in R or R_hat and in decoded_indices alike."""

    def change(obj):
        entry = obj["sinks"][sink]
        grid = entry[name]
        if name.startswith("D"):
            grid[0][0] = (grid[0][0] + 1) % 3
            return
        # R must still select decoded_indices to load, so move the first
        # decoded coordinate to one the sink does not decode, in both
        idxs = entry["decoded_indices"]
        col = next(c for c in range(len(grid[0])) if any(row[c] for row in grid))
        k = min(set(range(len(grid))) - set(idxs))
        grid[idxs[0]][col], grid[k][col] = 0, 1
        idxs[0] = k

    return change


def _corrupt_precoder(obj):
    # an entry off P_hat's diagonal blocks mixes the l = 3 uses of the fan
    # network's block plan
    obj["P_hat"][0][3] = (obj["P_hat"][0][3] + 1) % 3


@pytest.mark.parametrize("block, name", [
    (False, "D"), (False, "R"), (True, "D_hat"), (True, "R_hat"),
], ids=["subrate-D", "subrate-R", "block-D_hat", "block-R_hat"])
def test_simulate_counts_failures_of_a_corrupted_plan(tmp_path, block, name):
    # both kinds are checked as y . D_hat = x . R_hat, so a wrong R counts too
    net, code, plan = _pipeline_files(tmp_path, block)
    sink, full = ("11", "10") if block else ("8", "6")
    _edit(plan, _corrupt_decoder(sink, name))
    report = str(tmp_path / "report.json")
    assert main(["simulate", net, code, plan, "--trials", "90", "--out", report]) == 0
    rows = {row["sink"]: row for row in read(report)["sinks"]}
    assert rows[sink]["failures"] > 0
    assert rows[full]["failures"] == 0


def test_simulate_derives_the_block_rate_instead_of_reading_it(tmp_path):
    net, code, plan = _pipeline_files(tmp_path, block=True)
    _edit(plan, lambda obj: obj["sinks"]["11"].update(rate="9/1"))
    report = str(tmp_path / "report.json")
    assert main(["simulate", net, code, plan, "--trials", "3", "--out", report]) == 0
    rows = {row["sink"]: row for row in read(report)["sinks"]}
    assert rows["11"]["rate"] == "5/3" and rows["11"]["decodable"] == 5


def test_a_subrate_plan_simulates_as_the_single_block_plan(tmp_path):
    net, code, plan = _pipeline_files(tmp_path, block=False)
    sub = read(plan)

    def lifted(entry):
        out = {k: v for k, v in entry.items() if k not in ("D", "R")}
        return dict(out, D_hat=entry["D"], R_hat=entry["R"],
                    rate=f"{len(entry['decoded_indices'])}/1")

    as_block = {
        "kind": "block", "p": sub["p"], "rate": sub["rate"], "l": 1, "P_hat": sub["P"],
        "spanner": sub["spanner"], "blocks": [list(range(len(sub["spanner"])))],
        "members": [lifted(m) for m in sub["members"]],
        "sinks": {t: lifted(e) for t, e in sub["sinks"].items()},
    }
    block_plan = write(tmp_path, "block.json", as_block)
    rows = []
    for path in (plan, block_plan):
        report = str(tmp_path / "report.json")
        assert main(["simulate", net, code, path, "--trials", "40", "--seed", "9",
                     "--out", report]) == 0
        rows.append(read(report)["sinks"])
    assert rows[0] == rows[1]
    assert [row["rate"] for row in rows[0]] == ["2/1", "2/1", "1/1"]


@pytest.mark.parametrize("trials", [0, 1, 257, 513])
@pytest.mark.parametrize("block, change", [
    (False, None), (False, _corrupt_decoder("8", "D")), (False, _corrupt_decoder("8", "R")),
    (True, None), (True, _corrupt_decoder("11", "D_hat")), (True, _corrupt_decoder("11", "R_hat")),
    (True, _corrupt_precoder),
], ids=["subrate", "subrate-D", "subrate-R", "block", "block-D_hat", "block-R_hat",
        "block-P_hat"])
def test_simulate_reports_as_the_per_message_oracle(tmp_path, monkeypatch, block, change,
                                                    trials):
    # the oracle sends every message through every edge and decodes it at
    # every sink; the report, failure counts included, must not change
    net, code, plan = _pipeline_files(tmp_path, block)
    if change is not None:
        _edit(plan, change)
    report = tmp_path / "report.json"
    argv = ["simulate", net, code, plan, "--trials", str(trials), "--seed", "3",
            "--out", str(report)]
    assert main(argv) == 0
    counted = report.read_bytes()
    network, sinks, _ = cli.load_network(net)
    loaded = cli.load_code(code, network)
    found = {}

    def oracle(*args):
        found.update(reference_simulate_failures(network, loaded, *args))
        return found

    monkeypatch.setattr(cli, "_count_failures", oracle)
    assert main(argv) == 0
    assert report.read_bytes() == counted
    # the oracle decodes every full-rate sink too, and none fails, even
    # under a corrupted P_hat: `simulate` reports them without decoding
    assert sinks and all(found[t] == 0 for t in sinks)
    if change is not None and trials > 256:
        assert any(row["failures"] for row in json.loads(counted)["sinks"])


@pytest.mark.parametrize("with_plan", [True, False])
def test_simulate_inverts_nothing(tmp_path, monkeypatch, with_plan):
    # the plan's P_hat is checked invertible by its rank, and a full-rate
    # sink cannot fail once it is, so `simulate` inverts no matrix; the
    # butterfly has two such sinks
    net, code, plan = _pipeline_files(tmp_path, block=False)
    calls = []
    invert = linalg.invert
    assert not hasattr(cli, "invert")
    for mod in (linalg, blockcode, multicast):
        monkeypatch.setattr(mod, "invert", lambda A: calls.append(A) or invert(A))
    assert main(["simulate", net, code, *([plan] if with_plan else []), "--trials", "50",
                 "--out", str(tmp_path / "report.json")]) == 0
    assert calls == []
    assert [row["failures"] for row in read(tmp_path / "report.json")["sinks"]] == [0, 0, 0]


def test_simulate_time_does_not_grow_with_trials_on_a_correct_plan(tmp_path):
    # the per-message path took 5.7 s for 200 000 trials on this network
    net, code, plan = _pipeline_files(tmp_path, block=False)
    report = str(tmp_path / "report.json")
    start = time.perf_counter()
    assert main(["simulate", net, code, plan, "--trials", str(10**9), "--out", report]) == 0
    assert time.perf_counter() - start < 5
    robj = read(report)
    assert robj["trials"] == 10**9
    assert [(row["sink"], row["failures"]) for row in robj["sinks"]] == [
        ("6", 0), ("7", 0), ("8", 0)]


def test_precode_rejects_a_subrate_sink_with_max_flow_0(tmp_path, capsys):
    # node 4 has no in-edges; simulate still reports it, as h 0
    net = write(tmp_path, "net.json", {
        "field": 3, "rate": 2, "nodes": [0, 1, 2, 3, 4],
        "edges": [[0, 1], [0, 2], [1, 3], [2, 3]], "source": 0, "sinks": [3],
        "subrate_sinks": [4]})
    code = str(tmp_path / "code.json")
    report = str(tmp_path / "report.json")
    assert main(["code", net, "--out", code]) == 0
    capsys.readouterr()
    assert main(["precode", net, code]) == 2
    _one_error_line(capsys, f"error: {net}: subrate_sinks: subrate sink 4 has max-flow 0 "
                            f"and can decode nothing")
    assert main(["simulate", net, code, "--out", report]) == 0
    assert read(report)["sinks"][1] == {"sink": "4", "h": 0, "decodable": 0, "rate": "0/1",
                                        "failures": 0}


def test_simulate_needs_no_decoders_for_a_subrate_sink_with_max_flow_0(tmp_path):
    # node 9 has no in-edges; the plan is built for sink 8 alone, since
    # precode refuses a sink that can decode nothing
    net_all = write(tmp_path, "all.json", dict(BUTTERFLY, nodes=BUTTERFLY["nodes"] + [9],
                                               subrate_sinks=[8, 9]))
    net_8 = write(tmp_path, "net8.json", dict(BUTTERFLY, nodes=BUTTERFLY["nodes"] + [9]))
    code, plan, report = (str(tmp_path / f"{name}.json") for name in ("code", "plan", "report"))
    assert main(["code", net_all, "--out", code]) == 0
    assert main(["precode", net_8, code, "--out", plan]) == 0
    assert main(["simulate", net_all, code, plan, "--out", report]) == 0
    rows = read(report)["sinks"]
    assert rows[2] == {"sink": "8", "h": 1, "decodable": 1, "rate": "1/1", "failures": 0}
    assert rows[3] == {"sink": "9", "h": 0, "decodable": 0, "rate": "0/1", "failures": 0}


def test_local_kernel_entries_outside_the_field_are_reduced(tmp_path, capsys):
    """`load_code` reduces every kernel entry mod p when one lies outside
    [0, p), so shifting every local kernel entry or every global kernel
    entry by +p or by -p changes no loaded code, no report and no load
    error."""
    net = write(tmp_path, "net.json", BUTTERFLY)
    code = str(tmp_path / "code.json")
    plan, report = str(tmp_path / "plan.json"), str(tmp_path / "report.json")
    assert main(["code", net, "--out", code]) == 0
    assert main(["precode", net, code, "--out", plan]) == 0
    shifted = []
    for table in ("lek", "gek"):
        for shift in (3, -3):
            path = str(tmp_path / f"{table}{shift:+d}.json")
            Path(path).write_text(Path(code).read_text())

            def change(obj):
                rows = ([row for entry in obj["lek"].values() for row in entry["k"]]
                        if table == "lek" else obj["gek"].values())
                for row in rows:
                    row[:] = [x + shift for x in row]

            _edit(path, change)
            assert read(path)[table] != read(code)[table]
            shifted.append(path)
    graph = cli.load_network(net)[0]
    want = cli.load_code(code, graph)
    for path in shifted:
        loaded = cli.load_code(path, graph)
        assert loaded == want
        for m in loaded.lek.values():
            assert_checked_form(m)
    reports = []
    for path in [code] + shifted:
        assert main(["simulate", net, path, plan, "--trials", "30", "--out", report]) == 0
        reports.append(read(report))
        del reports[-1]["inputs"]["code"]
    assert all(r == reports[0] for r in reports)
    capsys.readouterr()
    errors = []
    for path in [code] + shifted:
        _edit(path, lambda obj: obj["gek"]["6"].__setitem__(0, (obj["gek"]["6"][0] + 1) % 3))
        assert main(["simulate", net, path, plan]) == 4
        errors.append(capsys.readouterr().err)
    assert errors == ["contract violation: encoding kernels inconsistent at edge 6\n"] * 5


def _inconsistent_code(tmp_path):
    """Butterfly network and code files whose edge-6 kernel is off by one."""
    net = write(tmp_path, "net.json", BUTTERFLY)
    code = str(tmp_path / "code.json")
    assert main(["code", net, "--out", code]) == 0
    cobj = read(code)
    vec = cobj["gek"]["6"]
    vec[0] = (vec[0] + 1) % 3
    (tmp_path / "code.json").write_text(json.dumps(cobj))
    return net, code


@pytest.mark.parametrize("command", ["simulate", "precode"])
def test_simulate_exits_4_on_an_inconsistent_code(tmp_path, capsys, command):
    # the kernels are checked once, when the code is loaded
    net, code = _inconsistent_code(tmp_path)
    out = str(tmp_path / "out.json")
    assert main([command, net, code, "--out", out]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["contract violation: encoding kernels inconsistent at edge 6"]
    assert not os.path.exists(out)


def test_simulate_exits_4_when_imaginary_kernels_are_not_units(tmp_path, capsys):
    # swapping the imaginary links' kernels and the source's local kernel
    # rows leaves every real edge consistent, but the symbols sent are not
    # x times those kernels any more
    net = write(tmp_path, "net.json", BUTTERFLY)
    code = str(tmp_path / "code.json")
    assert main(["code", net, "--out", code]) == 0

    def change(obj):
        obj["gek"]["-1"], obj["gek"]["-2"] = obj["gek"]["-2"], obj["gek"]["-1"]
        obj["lek"]["1"]["k"].reverse()

    _edit(code, change)
    capsys.readouterr()
    assert main(["simulate", net, code, "--trials", "5"]) == 4
    assert capsys.readouterr().err.startswith("contract violation: encoding kernels inconsistent")


@pytest.mark.parametrize("command", ["simulate", "precode"])
def test_local_kernels_need_one_row_per_input(tmp_path, capsys, command):
    net, code, plan = _pipeline_files(tmp_path, block=False)
    _edit(code, lambda obj: obj["lek"]["5"]["k"].pop())
    capsys.readouterr()
    assert main([command, net, code]) == 2
    _one_error_line(capsys, "code.json", "lek.5.k must have 1 rows")


@pytest.mark.parametrize("command", ["simulate", "precode"])
def test_local_kernel_rows_need_one_entry_per_output(tmp_path, capsys, command):
    net, code, plan = _pipeline_files(tmp_path, block=False)
    _edit(code, lambda obj: obj["lek"]["5"]["k"][0].append(0))
    capsys.readouterr()
    assert main([command, net, code]) == 2
    _one_error_line(capsys, "code.json", "lek.5.k must have 1 rows, one per input, of 3 entries")


@pytest.mark.parametrize("command", ["simulate", "precode"])
@pytest.mark.parametrize("sinks, subrate_sinks, fragment", [
    ([6, 7, 8], [], "sinks: sink 8 has max-flow below the rate"),
    ([7], [8, 6], "subrate_sinks: subrate sink 6 reaches the full rate"),
], ids=["weak-sink", "full-subrate-sink"])
def test_sinks_must_be_listed_by_rate(tmp_path, capsys, command, sinks, subrate_sinks,
                                      fragment):
    net, code, plan = _pipeline_files(tmp_path, block=False)
    relisted = write(tmp_path, "relisted.json",
                     dict(BUTTERFLY, sinks=sinks, subrate_sinks=subrate_sinks))
    capsys.readouterr()
    assert main([command, relisted, code]) == 2
    _one_error_line(capsys, f"{relisted}: {fragment}")


def test_contract_checks_survive_python_O(tmp_path):
    net, code = _inconsistent_code(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-m", "srlnc.cli", "simulate", net, code,
                           "--trials", "5"], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 4
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("contract violation: ")


def test_large_prime_fields(tmp_path, capsys):
    big = dict(BUTTERFLY, field=2**61 - 1)
    code = str(tmp_path / "code.json")
    assert main(["code", write(tmp_path, "big.json", big), "--out", code]) == 0
    assert read(code)["p"] == 2**61 - 1
    huge = dict(BUTTERFLY, field=2**89 - 1)  # prime, above the decidable bound
    assert main(["code", write(tmp_path, "huge.json", huge)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_block_pipeline(tmp_path):
    net = write(tmp_path, "net.json", FAN)
    code = write(tmp_path, "code.json", FAN_CODE)
    plan = str(tmp_path / "plan.json")
    report = str(tmp_path / "report.json")

    assert main(["precode", net, code]) == 3  # no single precoder works here
    assert main(["precode", net, code, "--block", "3", "--out", plan]) == 0
    pobj = read(plan)
    assert pobj["kind"] == "block"
    assert pobj["l"] == 3
    assert set(pobj["sinks"]) == {"11", "12", "13"}
    for entry in pobj["sinks"].values():
        assert entry["rate"] == "5/3"
        assert len(entry["decoded_indices"]) == 5

    assert main(["simulate", net, code, plan, "--trials", "15", "--out", report]) == 0
    rows = {row["sink"]: row for row in read(report)["sinks"]}
    assert rows["10"] == {"sink": "10", "h": 3, "decodable": 9, "rate": "3/1", "failures": 0}
    for t in ("11", "12", "13"):
        assert rows[t] == {"sink": t, "h": 2, "decodable": 5, "rate": "5/3", "failures": 0}


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2 ** 80, 2 ** 80) | st.text(),
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.lists(st.integers(-9, 2 ** 70), max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=24)


@given(JSON_VALUES)
@example({"b": [], "a": {}, "": (), "\u00e9\x00\x1f\u2028\U0001f600": [-3, 2 ** 64 + 1]})
@example([None, True, False, [[0, 1], [2, 3]], "\"\\/\n\t"])
@settings(max_examples=400, deadline=None)
def test_canonical_json_writes_the_bytes_of_json_dumps(obj):
    assert cli.canonical_json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("obj", [
    {1: "a"}, {None: 1}, {True: 1}, {"a": {(1, 2): 3}}, 1.5, [1, 2.0], {"a": {3}},
    b"x", Fraction(1, 2), [[1], [object()]],
])
def test_canonical_json_raises_type_error_on_other_values(obj):
    with pytest.raises(TypeError):
        cli.canonical_json(obj)


def test_rate_ratio_csv(tmp_path):
    out = str(tmp_path / "curve.csv")
    assert main(["rate-ratio", "--max-sinks", "6", "--out", out]) == 0
    with open(out) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "num_sinks,bound_num,bound_den"
    assert lines[1] == "1,1,2"
    assert lines[2] == "2,2,3"
    assert lines[3] == "3,1,1"
    assert lines[6] == "6,3,4"
    assert len(lines) == 7


@pytest.mark.parametrize("kind, key, value", [
    ("net", "rate", 2.7), ("net", "rate", True), ("net", "field", "3"),
    ("gems", "p", 3.0), ("gems", "rate", "3"),
    ("gems", "spanner", [[True, 1, 1], [1, 1, 0], [1, 1, 1]]),
])
def test_non_integer_scalars_exit_2(tmp_path, capsys, kind, key, value):
    if kind == "net":
        argv = ["code", write(tmp_path, "bad.json", dict(BUTTERFLY, **{key: value}))]
    else:
        argv = ["precode", "--gems", write(tmp_path, "bad.json",
                                           dict(THREE_PLANES_GEMS, **{key: value}))]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "bad.json" in lines[0] and f"{key} must be an integer" in lines[0]


@pytest.mark.parametrize("option", ["--trials", "--block"])
def test_bad_counts_exit_2(tmp_path, capsys, option):
    if option == "--trials":
        net = write(tmp_path, "net.json", BUTTERFLY)
        code = str(tmp_path / "code.json")
        assert main(["code", net, "--out", code]) == 0
        argv = ["simulate", net, code, "--trials", "-3"]
    else:
        argv = ["precode", "--gems", write(tmp_path, "g.json", THREE_PLANES_GEMS), "--block", "0"]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {option} must be at least")
    assert captured.out == ""


@pytest.mark.parametrize("key, value", [
    ("nodes", {"1": 2}), ("edges", {"1": 2}), ("sinks", 6), ("subrate_sinks", "8"),
], ids=["nodes", "edges", "sinks", "subrate_sinks"])
def test_network_lists_must_be_lists(tmp_path, capsys, key, value):
    bad = write(tmp_path, "bad.json", dict(BUTTERFLY, **{key: value}))
    assert main(["code", bad]) == 2
    _one_error_line(capsys, "bad.json", f"{key} must be a list")


_BUTTERFLY_TAIL_EDGES = BUTTERFLY["edges"][1:]


@pytest.mark.parametrize("change, field", [
    ({"source": [1]}, "source"),
    ({"sinks": [6, [7]]}, "sinks"),
    ({"edges": [[[1], 2]] + _BUTTERFLY_TAIL_EDGES}, "edges"),
    ({"nodes": BUTTERFLY["nodes"] + [{"a": 1}]}, "nodes"),
    ({"edges": [[1.0, 2]] + _BUTTERFLY_TAIL_EDGES}, "edges"),
    ({"source": True, "nodes": [True] + BUTTERFLY["nodes"][1:]}, "nodes"),
], ids=["source-list", "sink-list", "endpoint-list", "node-object", "endpoint-float",
        "source-and-node-true"])
def test_node_ids_must_be_integers_or_strings(tmp_path, capsys, change, field):
    bad = write(tmp_path, "bad.json", dict(BUTTERFLY, **change))
    assert main(["code", bad]) == 2
    _one_error_line(capsys, "bad.json", f"{field}: node ids must be integers or strings")


@pytest.mark.parametrize("argv, p", [(["code"], 3), (["code"], 5), (["maxflow", "8"], 3)],
                         ids=["code-GF3", "code-GF5", "maxflow"])
def test_a_cyclic_network_exits_2_whatever_the_field(tmp_path, capsys, argv, p):
    cyclic = dict(BUTTERFLY, field=p, edges=BUTTERFLY["edges"] + [[8, 2], [2, 8]])
    net = write(tmp_path, "net.json", cyclic)
    assert main(argv[:1] + [net] + argv[1:]) == 2
    assert capsys.readouterr().err == f"error: {net}: edges: graph has a directed cycle\n"


@pytest.mark.parametrize("argv", [["maxflow", "FILE", "6"], ["code", "FILE"]],
                         ids=["maxflow", "code"])
def test_a_rate_above_the_source_degree_exits_3_before_building(tmp_path, capsys, argv):
    net = write(tmp_path, "net.json", dict(BUTTERFLY, rate=10 ** 9))
    t0 = time.perf_counter()
    assert main([net if a == "FILE" else a for a in argv]) == 3
    assert time.perf_counter() - t0 < 0.5
    assert capsys.readouterr().err.splitlines() == [
        "infeasible: rate 1000000000 > source out-degree 2"]


@pytest.mark.parametrize("nodes, edges, named", [
    ([1, "1", 2], [[1, "1"], ["1", 2]], "'1' repeats"),
    ([1, 2, 2], [[1, 2]], "'2' repeats"),
], ids=["int-and-string", "exact-duplicate"])
def test_node_ids_need_distinct_names(tmp_path, capsys, nodes, edges, named):
    # code files, plans, reports and argv all name a node by str(id)
    net = write(tmp_path, "net.json", {"field": 3, "rate": 1, "nodes": nodes, "edges": edges,
                                       "source": 1, "sinks": [2]})
    assert main(["code", net]) == 2
    _one_error_line(capsys, "net.json: nodes: node ids must have distinct names, ", named)


@pytest.mark.parametrize("key, listed", [("sinks", [6, 6, 7]), ("subrate_sinks", [8, 8])],
                         ids=["sinks", "subrate_sinks"])
@pytest.mark.parametrize("command", ["code", "precode", "simulate"])
def test_sinks_must_not_repeat(tmp_path, capsys, command, key, listed):
    # [6, 6, 7] used to exit 3 as three sinks at rate 2 over GF(3), and
    # [8, 8] ran every command and reported sink 8 twice
    net, code, plan = _pipeline_files(tmp_path, block=False)
    _edit(net, _set(key, listed))
    argv = {"code": [net], "precode": [net, code], "simulate": [net, code, plan]}[command]
    capsys.readouterr()
    assert main([command, *argv]) == 2
    _one_error_line(capsys, f"{net}: {key}: {listed[0]} repeats")


@pytest.mark.parametrize("probe", ["repeated-name", "star"])
def test_a_large_network_file_is_read_in_linear_time(tmp_path, capsys, probe):
    """40 000 nodes whose last name repeats, and a valid star with 40 000
    sinks: a scan of the node list per name or per sink took 21.5 s and
    16.0 s on these files, on a 2-vCPU x86_64 VM."""
    n = 40_000
    if probe == "repeated-name":
        obj = {"field": 3, "rate": 1, "nodes": list(range(n - 1)) + [n - 2], "edges": [[0, 1]],
               "source": 0, "sinks": [1]}
    else:
        obj = {"field": 3, "rate": 1, "nodes": list(range(n + 1)),
               "edges": [[0, t] for t in range(1, n + 1)], "source": 0,
               "sinks": list(range(1, n + 1))}
    net = write(tmp_path, "net.json", obj)
    out = str(tmp_path / "flow.json")
    t0 = time.perf_counter()
    rc = main(["maxflow", net, "1", "--out", out])
    assert time.perf_counter() - t0 < 2.0
    if probe == "repeated-name":
        assert rc == 2
        assert capsys.readouterr().err == (f"error: {net}: nodes: node ids must have distinct "
                                           f"names, '{n - 2}' repeats\n")
    else:
        assert rc == 0 and read(out) == {"value": 1, "paths": [[0]]}


def test_valid_files_load_with_a_fixed_number_of_check_calls(tmp_path, monkeypatch):
    """A valid network and code pass each table's one-sweep test, so
    `_check` runs as often for the butterfly as for a sim-stream-sized
    network, on the same kinds: a fixed number of calls, not one per entry."""
    monkeypatch.syspath_prepend(str(Path(SRC).parent / "perfbench"))
    gen, run = importlib.import_module("gen"), importlib.import_module("run")
    s = run.STREAM_SHAPE
    stream = gen.layered_dag(random.Random(701), s["p"], s["r"], s["width"], s["layers"],
                             s["indeg"], s["n_sinks"], [1] * run.STREAM_WEAK_CANDIDATES)[0]
    calls = []
    monkeypatch.setattr(cli, "_check", lambda path, field, value, kind, real=cli._check:
                        calls.append(repr(kind)) or real(path, field, value, kind))
    tallies = []
    for label, obj in (("butterfly", BUTTERFLY), ("stream", stream)):
        net = write(tmp_path, f"{label}.net.json", obj)
        code = str(tmp_path / f"{label}.code.json")
        assert main(["code", net, "--out", code]) == 0
        calls.clear()
        cli.load_code(code, cli.load_network(net)[0])
        tallies.append(sorted(calls))
    assert len(stream["edges"]) == 374
    assert tallies[0] == tallies[1]


# leaves and lists up to depth 3, of every JSON type, near-integers included
_JSON_LEAVES = st.one_of(st.integers(-2, 2), st.booleans(), st.none(), st.sampled_from([1.0, 1.5]),
                         st.text("1a", max_size=2))


def _json_values(depth):
    if depth == 0:
        return _JSON_LEAVES
    inner = _json_values(depth - 1)
    return st.one_of(_JSON_LEAVES, st.lists(inner, max_size=3),
                     st.dictionaries(st.text("ab", max_size=1), inner, max_size=2))


# every kind a loader asks `_check` for
_KINDS = [cli._INT, cli._NODE, cli._OBJECT, [cli._INT], [cli._NODE], [cli._JSON],
          [[cli._INT]], [[[cli._INT]]]]


@given(kind=st.sampled_from(_KINDS), value=_json_values(3), per_entry=st.booleans())
@settings(max_examples=800, deadline=None)
@example(kind=[[cli._INT]], value=[[1, 2], [3, True]], per_entry=False)
@example(kind=[[[cli._INT]]], value=[[[1]], [[0, 1.0]]], per_entry=True)
@example(kind=[[[cli._INT]]], value=[[[1]], [2]], per_entry=True)
@example(kind=[cli._NODE], value=[1, "a", False], per_entry=False)
@example(kind=[[cli._INT]], value=[[1, 2], []], per_entry=False)
def test_check_accepts_and_names_as_the_entry_by_entry_walk(kind, value, per_entry):
    """`cli._check` returns what the old per-entry helpers returned, and
    raises their exact message; the leaves of a leaf kind or a flat list
    are `value` itself, and `value` is never changed.  With `per_entry`,
    `field` names each entry of a list, as the loaders name gek's."""
    before = json.dumps(value)
    outcomes = []
    for check in (reference_check, cli._check):
        field = "t"
        if per_entry and type(value) is list:
            field = (f"t.{i}" for i in itertools.count())
        try:
            outcomes.append(("ok", check("f.json", field, value, kind)))
        except ValueError as exc:
            outcomes.append(("error", str(exc)))
    assert json.dumps(value) == before
    want, got = outcomes
    assert repr(got) == repr(want)
    if got[0] == "ok" and (type(kind) is not list or type(kind[0]) is not list):
        assert got[1] is value


@pytest.mark.parametrize("block", [False, True])
def test_non_square_precoder_exits_2(tmp_path, capsys, block):
    net, code, plan = _pipeline_files(tmp_path, block)
    name = "P_hat" if block else "P"
    _edit(plan, lambda obj: obj[name].pop())
    capsys.readouterr()
    assert main(["simulate", net, code, plan, "--trials", "3"]) == 2
    _one_error_line(capsys, "plan.json", f"{name} must be")


@pytest.mark.parametrize("block", [False, True])
def test_singular_precoder_exits_2(tmp_path, capsys, block):
    net, code, plan = _pipeline_files(tmp_path, block)
    name = "P_hat" if block else "P"

    def change(obj):
        obj[name][1] = list(obj[name][0])

    _edit(plan, change)
    capsys.readouterr()
    assert main(["simulate", net, code, plan, "--trials", "0"]) == 2
    _one_error_line(capsys, "plan.json", f"{name} must be invertible")


@pytest.mark.parametrize("field, change", [
    ("decoded_indices", lambda entry: entry.update(decoded_indices=[1])),
    ("D", lambda entry: [row.append(0) for row in entry["D"]]),
    ("R", lambda entry: entry["R"].append([0])),
], ids=["indices", "D-extra-column", "R-extra-row"])
def test_decoders_must_fit_the_sink_and_its_indices(tmp_path, capsys, field, change):
    net, code, plan = _pipeline_files(tmp_path, block=False)
    assert read(plan)["sinks"]["8"]["decoded_indices"] == [0]
    _edit(plan, lambda obj: change(obj["sinks"]["8"]))
    capsys.readouterr()
    assert main(["simulate", net, code, plan, "--trials", "30"]) == 2
    _one_error_line(capsys, "plan.json", f"sinks.8.{field}")


def test_simulate_sends_the_whole_block_precoder(tmp_path):
    # the weak sinks' decoders no longer fit, the full-rate sink decodes through it
    net, code, plan = _pipeline_files(tmp_path, block=True)
    _edit(plan, _corrupt_precoder)
    report = str(tmp_path / "report.json")
    assert main(["simulate", net, code, plan, "--trials", "30", "--out", report]) == 0
    rows = {row["sink"]: row for row in read(report)["sinks"]}
    assert rows["10"]["failures"] == 0
    assert all(rows[t]["failures"] > 0 for t in ("11", "12", "13"))


def test_main_builds_its_parser_once(monkeypatch, capsys):
    seen = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(parser, *args, **kwargs):
        seen.append(parser)
        return parse_args(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    assert main(["rate-ratio", "--max-sinks", "2"]) == 0
    assert main(["rate-ratio", "--max-sinks", "3"]) == 0
    assert len(seen) == 2 and seen[0] is seen[1]


def test_rate_ratio_rejects_zero(capsys):
    assert main(["rate-ratio", "--max-sinks", "0"]) == 2
    assert "error" in capsys.readouterr().err


def _pipeline_files(tmp_path, block):
    """Network, code and plan files: the butterfly with a subrate plan, or
    the fan network with a block plan."""
    if block:
        net = write(tmp_path, "net.json", FAN)
        code = write(tmp_path, "code.json", FAN_CODE)
        argv = ["precode", net, code, "--block", "3"]
    else:
        net = write(tmp_path, "net.json", BUTTERFLY)
        code = str(tmp_path / "code.json")
        assert main(["code", net, "--out", code]) == 0
        argv = ["precode", net, code]
    plan = str(tmp_path / "plan.json")
    assert main(argv + ["--out", plan]) == 0
    return net, code, plan


def _edit(path, change):
    obj = read(path)
    change(obj)
    Path(path).write_text(json.dumps(obj))


def _one_error_line(capsys, *fragments):
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    for fragment in fragments:
        assert fragment in lines[0], lines[0]


def _set(key, value):
    return lambda obj: obj.update({key: value})


@pytest.mark.parametrize("block, name, change, message", [
    (False, "net", _set("comment", 1), "network file has unknown keys: comment"),
    (False, "net", lambda obj: obj["edges"].__setitem__(0, [1]),
     "edges[0] must be a [tail, head] pair, got [1]"),
    (False, "net", _set("subrate_sinks", [6]),
     "subrate_sinks: nodes listed as both sink and subrate sink: [6]"),
    (False, "code", _set("p", 5), "p, rate: code is for GF(5) rate 2"),
    (False, "code", lambda obj: obj["gek"]["6"].append(0),
     "gek.6: kernel for edge 6 has length 3, want 2"),
    (False, "code", lambda obj: obj["lek"].pop("5"),
     "lek: code has no local kernel for node 5"),
    (False, "code", lambda obj: obj["lek"]["5"].update(x=1), "lek.5 has unknown keys: x"),
    (False, "code", lambda obj: obj["lek"]["5"].update({"in": [7]}),
     "lek.5: local kernel of 5 lists different edges"),
    (False, "code", lambda obj: obj["lek"].update({"99": obj["lek"]["5"]}),
     "lek.99: code has a local kernel for '99', which is not a node"),
    (False, "code", lambda obj: obj["lek"]["1"].update({"in": [-2.0, -1.0]}),
     "lek.1: local kernel of 1 lists different edges"),
    (False, "code", lambda obj: obj["lek"]["3"].update({"in": [True]}),
     "lek.3: local kernel of 3 lists different edges"),
    (False, "plan", _set("kind", "x"), 'kind: plan file must have "kind"'),
    (False, "plan", _set("extra", 1), "plan file has unknown keys: extra"),
    (True, "plan", _set("l", 0), "l: block plan needs l >= 1"),
    (False, "plan", _set("p", 5), "p, rate: plan is for GF(5) rate 2"),
    (False, "plan", lambda obj: obj.pop("sinks"), "sinks: plan lacks per-sink decoders"),
    (True, "plan", lambda obj: obj["sinks"].pop("12"),
     "sinks: plan has no decoders for subrate sink 12"),
    (False, "plan", lambda obj: obj["sinks"]["8"].update(bogus=1),
     "sinks.8 has unknown keys: bogus"),
    (True, "plan", lambda obj: obj["sinks"]["11"].pop("rate"), "sinks.11 is missing keys: rate"),
    (False, "plan", lambda obj: obj["sinks"]["8"].update(member="x"),
     'sinks.8.member must be an integer, got "x"'),
    (True, "plan", lambda obj: obj["sinks"]["11"].update(member=3),
     "sinks.11.member must be in range(3), got 3"),
    (False, "plan", _set("members", {}), "members must be a list, got {}"),
    (False, "plan", _set("members", [1, 2, 3]), "members[0] must be a JSON object"),
    (True, "plan", lambda obj: obj["members"][1].pop("rate"), "members[1] is missing keys: rate"),
    (False, "plan", _set("spanner", "x"), 'spanner must be a list, got "x"'),
    (False, "plan", _set("spanner", [[1, 0, 0]]), "spanner vectors must have length 2"),
    (False, "plan", _set("i_bar", {"a": 1}), 'i_bar must be a list, got {"a": 1}'),
    (True, "plan", _set("blocks", [[0], ["a"]]), 'blocks[1] must be an integer, got "a"'),
    (False, "net", _set("field", 4), "field: field order must be prime, got 4"),
    (False, "net", _set("source", 9), "source: source is not a node"),
    (False, "net", lambda obj: obj["edges"].append([2, 9]),
     "edges: edge endpoint not a node: (2, 9)"),
    (False, "net", lambda obj: obj["edges"].append([2, 1]),
     "edges: source must have no incoming real edges"),
    (False, "net", _set("rate", 0), "rate: rate must be >= 1"),
    (False, "net", _set("sinks", [6, 9]), "sinks: 9 is not a node other than the source"),
    (False, "net", _set("sinks", [6, 1]), "sinks: 1 is not a node other than the source"),
    (False, "net", _set("subrate_sinks", ["8"]),
     "subrate_sinks: '8' is not a node other than the source"),
    (False, "net", lambda obj: obj["nodes"].append(True),
     "nodes: node ids must be integers or strings, got true"),
    (False, "net", lambda obj: obj["edges"][0].__setitem__(1, 2.0),
     "edges: node ids must be integers or strings, got 2.0"),
    (False, "net", lambda obj: obj["nodes"].append("2"),
     "nodes: node ids must have distinct names, '2' repeats"),
    (False, "net", _set("sinks", [6, 7, 6]), "sinks: 6 repeats"),
    (False, "net", lambda obj: obj.pop("source"), "network file is missing keys: source"),
    (False, "code", lambda obj: obj["gek"]["6"].__setitem__(0, True),
     "gek.6 must be an integer, got true"),
    (False, "code", lambda obj: obj["gek"]["6"].__setitem__(0, 1.5),
     "gek.6 must be an integer, got 1.5"),
    (False, "code", lambda obj: obj["gek"].pop("6"),
     "gek keys are not exactly the network's edge ids"),
    (False, "code", _set("gek", [1]), "gek must be a JSON object"),
    (False, "code", lambda obj: obj["lek"]["5"].update(k=[[1, 1]]),
     "lek.5.k must have 1 rows, one per input, of 3 entries, one per output"),
    (False, "code", lambda obj: obj["lek"]["5"]["k"][0].__setitem__(0, True),
     "lek.5.k must be an integer, got true"),
    (False, "net", _set("nodes", {"1": 2}), 'nodes must be a list, got {"1": 2}'),
    (False, "net", _set("edges", "x"), 'edges must be a list, got "x"'),
    (False, "net", [1], "network file must be a JSON object"),
    (False, "code", _set("lek", [1]), "lek must be a JSON object"),
    (False, "plan", _set("sinks", [1]), "sinks must be a JSON object"),
    (False, "net", _set("rate", "2"), 'rate must be an integer, got "2"'),
    (False, "code", _set("rate", 2.0), "rate must be an integer, got 2.0"),
    (True, "plan", _set("l", 1.5), "l must be an integer, got 1.5"),
    (False, "plan", lambda obj: obj["sinks"]["8"].update(R=[[0], [1]]),
     "the nonzero columns of sinks.8.R must be the unit vectors of "
     "sinks.8.decoded_indices, in order"),
], ids=["net-keys", "net-edge", "net-both", "code-field", "code-gek", "code-lek-missing",
        "code-lek-keys", "code-lek-edges", "code-lek-not-a-node", "code-lek-float-ids",
        "code-lek-bool-ids", "plan-kind", "plan-keys", "plan-l", "plan-field",
        "plan-sinks", "plan-sink", "plan-sink-keys", "plan-sink-missing-keys",
        "plan-member", "plan-member-range", "plan-members", "plan-members-entries",
        "plan-members-keys", "plan-spanner", "plan-spanner-length", "plan-i-bar",
        "plan-blocks", "net-field", "net-source", "net-endpoint",
        "net-into-source", "net-rate", "net-sink", "net-sink-is-source", "net-subrate-sink",
        "net-node-true", "net-endpoint-float", "net-int-and-string-names", "net-sink-repeats",
        "net-missing-source", "code-gek-true", "code-gek-float", "code-gek-keys",
        "code-gek-table", "code-lek-shape", "code-lek-true", "net-nodes-list", "net-edges-list",
        "net-file-object", "code-lek-object", "plan-sinks-object", "net-rate-integer",
        "code-rate-integer", "plan-l-integer", "plan-unit-columns"])
def test_load_errors_name_their_file_and_field(tmp_path, capsys, block, name, change,
                                               message):
    files = dict(zip(("net", "code", "plan"), _pipeline_files(tmp_path, block)))
    if callable(change):
        _edit(files[name], change)
    else:
        # the whole file
        Path(files[name]).write_text(json.dumps(change))
    capsys.readouterr()
    assert main(["simulate", *files.values(), "--trials", "1"]) == 2
    _one_error_line(capsys, f"{files[name]}: {message}")


@pytest.mark.parametrize("value", [1.5, "a", True])
def test_non_integer_gems_entries_exit_2(tmp_path, capsys, value):
    mats = json.loads(json.dumps(THREE_PLANES_GEMS["mats"]))
    mats[1][2][0] = value
    gems = write(tmp_path, "bad.json", dict(THREE_PLANES_GEMS, mats=mats))
    assert main(["precode", "--gems", gems]) == 2
    _one_error_line(capsys, "bad.json", "mats[1] must be an integer")


@pytest.mark.parametrize("change, fragment", [
    ({"mats": 5}, "mats must be a list, got 5"),
    ({"mats": []}, "mats: need at least one matrix"),
    ({"mats": [[[1], [0]]]}, "mats: matrix has 2 rows, rate is 3"),
    ({"mats": [[[1], [0], [1, 0]]]}, "mats: ragged rows"),
    ({"mats": [[[1, 2], [1, 2], [0, 0]]]}, "mats: matrix columns are dependent"),
    ({"spanner": 5}, "spanner must be a list, got 5"),
    ({"spanner": [[1, 0]]}, "spanner vectors must have length 3"),
    ({"spanner": [5]}, "spanner must be a list, got 5"),
    ({"p": 4}, "p: field order must be prime, got 4"),
    ({"spanner": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
     "spanner: supplied vectors are not an exact spanner"),
    ({"spanner": [[2, 1, 1], [1, 1, 0], [1, 1, 1], [2, 2, 0]]},
     "spanner: supplied spanner vectors must be independent"),
], ids=["mats-int", "mats-empty", "mats-short", "mats-ragged", "mats-dependent",
        "spanner-int", "spanner-short", "spanner-vector-int", "p-composite",
        "spanner-not-exact", "spanner-dependent"])
def test_malformed_gems_exit_2(tmp_path, capsys, change, fragment):
    gems = write(tmp_path, "bad.json", dict(THREE_PLANES_GEMS, **change))
    assert main(["precode", "--gems", gems]) == 2
    _one_error_line(capsys, f"{gems}: {fragment}")


# fails fsrd_check: the supplied spanner is checked before it, so the
# answer is exit 2, not exit 3 or, under --block, a plan that ignores it
NOT_DECODABLE_WITH_A_BAD_SPANNER = {
    "p": 3,
    "rate": 3,
    "mats": [[[1], [0], [0]], [[0], [1], [0]], [[0], [0], [1]], [[1], [1], [0]]],
    "spanner": [[1, 1, 1]],
}


@pytest.mark.parametrize("block", [[], ["--block", "2"]], ids=["single-use", "block"])
def test_a_supplied_spanner_is_checked_before_feasibility(tmp_path, capsys, block):
    gems = write(tmp_path, "gems.json", NOT_DECODABLE_WITH_A_BAD_SPANNER)
    out = str(tmp_path / "plan.json")
    assert main(["precode", "--gems", gems, *block, "--out", out]) == 2
    _one_error_line(capsys, f"{gems}: spanner: supplied vectors are not an exact spanner")
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["precode", "simulate"])
def test_a_code_that_starves_a_sink_names_the_code_file(tmp_path, capsys, command):
    # node 5 forwards nothing, which is consistent but leaves sink 6 with
    # only its edge from node 2
    net, code, plan = _pipeline_files(tmp_path, block=False)

    def starve(obj):
        obj["lek"]["5"]["k"] = [[0, 0, 0]]
        for e in obj["lek"]["5"]["out"]:
            obj["gek"][str(e)] = [0, 0]

    _edit(code, starve)
    capsys.readouterr()
    assert main([command, net, code]) == 2
    _one_error_line(capsys, f"{code}: sink 6: 1 independent inputs, need 2")


@pytest.mark.parametrize("where, value", [
    ("gek", 1.5), ("gek", True), ("gek", "1"), ("lek", 1.5), ("lek", "a"),
])
def test_non_integer_code_entries_exit_2(tmp_path, capsys, where, value):
    net, code, plan = _pipeline_files(tmp_path, block=False)

    def change(obj):
        if where == "gek":
            obj["gek"]["6"][0] = value
        else:
            obj["lek"]["5"]["k"][0][0] = value

    _edit(code, change)
    capsys.readouterr()
    assert main(["simulate", net, code, plan, "--trials", "3"]) == 2
    field = "gek.6" if where == "gek" else "lek.5.k"
    _one_error_line(capsys, "code.json", f"{field} must be an integer")


@pytest.mark.parametrize("table, value", [("gek", [1]), ("lek", [1]), ("gek", "x")])
def test_malformed_code_tables_exit_2(tmp_path, capsys, table, value):
    net, code, plan = _pipeline_files(tmp_path, block=False)

    def change(obj):
        if value == "x":
            obj["gek"]["x"] = obj["gek"].pop("6")
        else:
            obj[table] = value

    _edit(code, change)
    capsys.readouterr()
    assert main(["simulate", net, code, plan, "--trials", "3"]) == 2
    _one_error_line(capsys, "code.json", table)


@pytest.mark.parametrize("block, name", [
    (False, "P"), (False, "D"), (False, "R"), (True, "P_hat"), (True, "D_hat"), (True, "R_hat"),
])
@pytest.mark.parametrize("value", [1.5, "a", True])
def test_non_integer_plan_entries_exit_2(tmp_path, capsys, block, name, value):
    net, code, plan = _pipeline_files(tmp_path, block)
    sink = "11" if block else "8"

    def change(obj):
        grid = obj[name] if name.startswith("P") else obj["sinks"][sink][name]
        grid[0][0] = value

    _edit(plan, change)
    capsys.readouterr()
    assert main(["simulate", net, code, plan, "--trials", "3"]) == 2
    field = name if name.startswith("P") else f"sinks.{sink}.{name}"
    _one_error_line(capsys, "plan.json", f"{field} must be an integer")


@pytest.mark.parametrize("block, indices", [
    (False, [2]), (False, [-1]), (False, [0, 0]), (False, [0.0]),
    (True, [0, 1, 2, 3, 9]), (True, [-1, 0, 1, 2, 3]), (True, [0, 0, 1, 2, 3]),
])
def test_bad_decoded_indices_exit_2(tmp_path, capsys, block, indices):
    net, code, plan = _pipeline_files(tmp_path, block)
    sink = "11" if block else "8"
    _edit(plan, lambda obj: obj["sinks"][sink].update(decoded_indices=indices))
    capsys.readouterr()
    assert main(["simulate", net, code, plan, "--trials", "3"]) == 2
    _one_error_line(capsys, "plan.json", f"sinks.{sink}.decoded_indices")


@pytest.mark.parametrize("p, r, omit, spanner", [
    (31, 5, (0, 1), [[0, 0, 0, 0, 1], [0, 0, 0, 1, 0], [0, 0, 1, 0, 0],
                     [1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]),
    (101, 6, (0, 3), [[0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0], [0, 0, 1, 0, 0, 0],
                      [0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]]),
])
def test_precode_coordinate_hyperplanes_over_large_fields(tmp_path, p, r, omit, spanner):
    # the pairwise intersection has p^(r-2) vectors; listing them took 22 s
    # for the GF(31)^5 pair, while the lines the construction uses are few
    mats = [[[int(a == j) for j in range(r) if j != i] for a in range(r)] for i in omit]
    gems = write(tmp_path, "gems.json", {"p": p, "rate": r, "mats": mats})
    out = str(tmp_path / "plan.json")
    t0 = time.perf_counter()
    assert main(["precode", "--gems", gems, "--out", out]) == 0
    assert time.perf_counter() - t0 < 5.0
    obj = read(out)
    assert obj["spanner"] == spanner
    assert obj["i_bar"] == [2, r - 2]


# ---------------------------------------------------------------- output files

def _out_commands(tmp_path):
    """One argv, without --out, for each command that writes an output."""
    net, code, plan = _pipeline_files(tmp_path, False)
    return {"code": ["code", net], "precode": ["precode", net, code],
            "simulate": ["simulate", net, code, plan, "--trials", "3"],
            "maxflow": ["maxflow", net, "6"], "rate-ratio": ["rate-ratio", "--max-sinks", "4"]}


@pytest.mark.parametrize("command", ["code", "precode", "simulate", "maxflow", "rate-ratio"])
def test_out_overwrites_a_longer_file_in_place(tmp_path, command):
    out = tmp_path / "out"
    argv = _out_commands(tmp_path)[command] + ["--out", str(out)]
    assert main(argv) == 0
    fresh = out.read_bytes()
    out.write_bytes(b"x" * 65536)
    inode = out.stat().st_ino
    assert main(argv) == 0
    assert out.read_bytes() == fresh
    assert out.stat().st_ino == inode


def test_out_file_modes(tmp_path):
    """A new output gets 0o666 less the umask; an existing one keeps its mode."""
    out = tmp_path / "curve.csv"
    argv = ["rate-ratio", "--max-sinks", "2", "--out", str(out)]
    old = os.umask(0o027)
    try:
        assert main(argv) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    out.chmod(0o600)
    assert main(argv) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o600


def test_out_through_a_symlink_writes_its_target(tmp_path):
    argv = ["rate-ratio", "--max-sinks", "4", "--out"]
    fresh = tmp_path / "fresh.csv"
    assert main(argv + [str(fresh)]) == 0
    target = tmp_path / "target.csv"
    target.write_bytes(b"x" * 65536)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert main(argv + [str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("command", ["rate-ratio", "code"])
def test_out_to_the_null_device(tmp_path, command):
    """A device cannot be cut to length; it is only written."""
    assert main(_out_commands(tmp_path)[command] + ["--out", os.devnull]) == 0


@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_an_out_that_cannot_be_opened_exits_2(tmp_path, capsys, where):
    out = str(tmp_path / "missing" / "out.csv" if where == "missing-dir" else tmp_path)
    assert main(["rate-ratio", "--max-sinks", "2", "--out", out]) == 2
    _one_error_line(capsys, out)


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
@pytest.mark.parametrize("command", ["rate-ratio", "maxflow"])
def test_out_to_dev_stdout_through_a_pipe(tmp_path, command):
    argv = _out_commands(tmp_path)[command]
    fresh = tmp_path / "fresh"
    assert main(argv + ["--out", str(fresh)]) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "srlnc.cli", *argv, "--out", "/dev/stdout"],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == fresh.read_bytes()


# ---------------------------------------------------------------- mutated inputs

_MUTANTS = [None, 0, 5, -1, 10 ** 6, "x", "1", "", 1.5, True, [], [1], [[1]], {}, {"a": 1}]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """The butterfly with its code and subrate plan, the fan network with
    its code and block plan, and a gems file, each with the commands that
    read it; a file's command lines name it as FILE."""
    cases = []
    for block in (False, True):
        base = tmp_path_factory.mktemp("block" if block else "subrate")
        net, code, plan = _pipeline_files(base, block)
        precode = ["precode", net, code] + (["--block", "3"] if block else [])
        simulate = ["simulate", net, code, plan, "--trials", "2"]
        runs = {net: [["code", net], ["maxflow", net, "11" if block else "8"], precode,
                      simulate],
                code: [precode, simulate],
                plan: [simulate]}
        for path, argvs in runs.items():
            cases.append((read(path), [[a if a != path else "FILE" for a in argv]
                                       for argv in argvs]))
    cases.append((THREE_PLANES_GEMS, [["precode", "--gems", "FILE"],
                                      ["precode", "--gems", "FILE", "--block", "2"]]))
    return cases


def _byte_mutant(data, obj, text: str) -> bytes:
    """`text`, the file's JSON, broken at the byte level so that no decoder
    accepts it: cut short; followed by the tail of a longer output, as an
    in-place rewrite killed before its cut leaves it; with a control byte
    (never valid in or between JSON tokens) or a non-ASCII byte (never
    valid UTF-8 between ASCII bytes) inserted; or nested 100 000 lists deep."""
    how = data.draw(st.sampled_from(["cut", "torn", "stray", "utf-8", "deep"]))
    raw = text.encode()
    at = data.draw(st.integers(0, len(raw)))
    if how == "cut":
        return raw[:min(at, len(raw) - 1)]
    if how == "torn":
        old = cli.canonical_json(obj).encode()
        assert len(old) >= len(raw) + 2 and old.endswith(b"}\n")
        return raw + old[data.draw(st.integers(len(raw), len(old) - 2)):]
    if how == "deep":
        return b"[" * 100_000 + raw + b"]" * 100_000
    byte = data.draw(st.sampled_from(sorted(set(range(32)) - set(b"\t\n\r"))
                                     if how == "stray" else range(0x80, 0x100)))
    return raw[:at] + bytes([byte]) + raw[at:]


@given(st.data())
@settings(max_examples=600, deadline=None)
def test_mutated_inputs_end_in_one_line_and_a_known_exit_code(fuzz_files, data):
    """A value swapped anywhere in a file, or the file broken below JSON;
    the latter must end in exit 2 naming the file."""
    obj, argvs = data.draw(st.sampled_from(fuzz_files))
    holder, key = None, None
    broken = data.draw(st.booleans())
    if broken:
        raw = _byte_mutant(data, obj, json.dumps(obj))
    else:
        mutant = json.loads(json.dumps(obj))
        # walk down from the root, stopping at each level with even odds, and
        # replace the value reached
        node = mutant
        while isinstance(node, (dict, list)) and node and (holder is None
                                                           or data.draw(st.booleans())):
            holder = node
            key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                            else range(len(node))))
            node = holder[key]
        holder[key] = data.draw(st.sampled_from(_MUTANTS))
        raw = json.dumps(mutant).encode()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutant.json")
        Path(path).write_bytes(raw)
        for argv in argvs:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main([path if a == "FILE" else a for a in argv])
            assert rc in (0, 2, 3, 4), (argv, key, rc)
            assert len(err.getvalue().splitlines()) == (rc != 0), (argv, key, err.getvalue())
            if broken:
                assert rc == 2 and err.getvalue().startswith(f"error: {path}: not valid JSON: "), \
                    (argv, err.getvalue())
