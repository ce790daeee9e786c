import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from srlnc import FieldSpec, Mat, lift_block
from srlnc.cli import main

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


def test_precode_gems_with_a_spanner_longer_than_the_rate(tmp_path, capsys):
    gems = write(tmp_path, "gems.json", FIVE_VECTOR_GEMS)
    assert main(["precode", "--gems", gems]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("infeasible: ")
    out = str(tmp_path / "plan.json")
    assert main(["precode", "--gems", gems, "--block", "2", "--out", out]) == 0
    obj = read(out)
    assert obj["kind"] == "block"
    field = FieldSpec(3)
    l = obj["l"]
    P_hat = Mat(field, obj["P_hat"])
    assert len(obj["members"]) == len(FIVE_VECTOR_GEMS["mats"])
    for grid, member in zip(FIVE_VECTOR_GEMS["mats"], obj["members"]):
        h = len(grid[0])
        lifted = lift_block(Mat(field, grid), l)
        D_hat = Mat(field, member["D_hat"], cols=l * h)
        R_hat = Mat(field, member["R_hat"], cols=l * h)
        assert P_hat @ lifted @ D_hat == R_hat


def test_precode_needs_a_network_or_gems(tmp_path, capsys):
    assert main(["precode"]) == 2
    assert "needs a network file" in capsys.readouterr().err


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


@pytest.mark.parametrize("block, name", [
    (False, "D"), (False, "R"), (True, "D_hat"), (True, "R_hat"),
], ids=["subrate-D", "subrate-R", "block-D_hat", "block-R_hat"])
def test_simulate_counts_failures_of_a_corrupted_plan(tmp_path, block, name):
    # both kinds are checked as y . D_hat = x . R_hat, so a wrong R counts too
    net, code, plan = _pipeline_files(tmp_path, block)
    sink, full = ("11", "10") if block else ("8", "6")

    def change(obj):
        grid = obj["sinks"][sink][name]
        grid[0][0] = (grid[0][0] + 1) % 3

    _edit(plan, change)
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


def test_simulate_exits_4_on_an_inconsistent_code(tmp_path, capsys):
    net, code = _inconsistent_code(tmp_path)
    assert main(["simulate", net, code, "--trials", "50"]) == 4
    assert "contract violation" in capsys.readouterr().err


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


@pytest.mark.parametrize("block", [False, True])
def test_non_square_precoder_exits_2(tmp_path, capsys, block):
    net, code, plan = _pipeline_files(tmp_path, block)
    name = "P_hat" if block else "P"
    _edit(plan, lambda obj: obj[name].pop())
    capsys.readouterr()
    assert main(["simulate", net, code, plan, "--trials", "3"]) == 2
    _one_error_line(capsys, "plan.json", f"{name} must be")


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


@pytest.mark.parametrize("value", [1.5, "a", True])
def test_non_integer_gems_entries_exit_2(tmp_path, capsys, value):
    mats = json.loads(json.dumps(THREE_PLANES_GEMS["mats"]))
    mats[1][2][0] = value
    gems = write(tmp_path, "bad.json", dict(THREE_PLANES_GEMS, mats=mats))
    assert main(["precode", "--gems", gems]) == 2
    _one_error_line(capsys, "bad.json", "mats[1] must be an integer")


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
