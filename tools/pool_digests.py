"""Compare two source trees' outputs on every op of the benchmark pools.

    python3 tools/pool_digests.py PARENT_TREE CHANGED_TREE

Each tree is a checkout with `src/` and `perfbench/`.  Each runs in its own
subprocess that imports that tree's `srlnc` and `perfbench/run.py`, builds
every pool with that tree's `WORKLOADS` (all four workloads at seed 701,
gem-block also at 711), and runs each op's stages through `Runner.call`,
after writing its inputs with `_write`.  Both trees use the same fixed work
directory, because the simulate report embeds its `--out` path.

Pool ops send 20 to 40 messages on correct plans, so every pool report
counts 0 failures.  Each tree therefore also runs `simulate` on the
sim-stream set-up's single-use and l=2 plans with `--trials` 0 and 513,
and with `--trials` 513 on that l=2 plan with one `D_hat` entry changed,
so that nonzero failure counts are compared too.

Valid files pass each loader's one-sweep type test, so the pools never
reach the entry-by-entry walk that words the load errors.  Each tree
therefore also runs `simulate` on the sim-stream set-up's l=2 network,
code and plan with the network or the code changed by one entry of
`MALFORMED_NET` or `MALFORMED_CODE`, eleven in all, so that the walk's
exit code and error line are compared too.

The pools hold at most five weak sinks, so each tree also runs `precode
--gems`, with and without `--block 2`, on the many-sink sets
`gen.feasible_gemset(random.Random(1000 * k + s), 5, 8, k)` of its own
`perfbench/gen.py`, for k in 8, 10, 12 and s in 1, 2, and on `probe_gems(k)`
for k in 14 and 16: k members of GF(5)^10, each spanned by a distinct
random proper subset of one random basis, drawn from `random.Random(3)`.
Only 975 and 2183 of their 2^k - 1 member intersections are nonzero, so
these sets compare the commonality levels and the guideline spanner where
most member sets meet in zero.  It also runs both on `one_column_gems(2000)`,
2000 distinct one-column members of GF(5)^12, whose 1 999 000 pairwise
intersections are refused before the first, so that a large set's
refusal line is compared too.

No pool plans past l = 2, so each tree also runs `precode --gems --block 3`
on the sets `gen.random_gemset(random.Random(s), 3, 4, 5)` for the first
ten seeds s whose best design has l = 3 (40 of the seeds 0..299 do, 243
stop at l = 1) and whose designs of up to three blocks number at most
200 000, so that scoring every design, as
`tests/helpers.reference_optimize_block_plan` does, also finishes within
its default budget.  Seed 60, left out, has 596 903 such designs.

Each tree also runs code, `precode --block 2` and simulate on
`gen.generalized_butterfly(31, 4, 4)`, whose weak sinks need the longest
exact spanner search of the butterfly family, and maxflow to every sink,
then the same three commands, on `REROUTE`, a literal network whose sink
t1 has max-flow 2, below its in-degree and the source's out-degree (3),
and is reached only by a second path that cancels flow on the first, so
that a wrong max-flow value shows as a differing digest.

Each tree also runs code at seeds 1 and 3, then `precode`, `precode
--block 2` and simulate, on `SAME_SPAN`, the rate-2 butterfly over GF(5)
with a second weak sink hanging off the hub: both weak sinks have one span,
in different bases at those seeds, so `precode` keeps one member and gives
the second sink its own decoder.

Each tree also runs the sets whose minimal exact spanner passes the
feasibility check but is dependent, no longer than the rate yet longer
than the dimension of the members' total span: `precode --gems`, with and
without `--block 2`, on `DEPENDENT_GEMS`, and code, `precode --block 2` and
simulate on `gen.layered_dag(rng, 3, 4, 4, 3, 2, 2, [rng.randrange(1, 4)
for _ in range(5)])` for `rng = random.Random(s)`, s in 94, 440 and 526.

Those eleven files reach few of the loaders' messages, and none of the
gems or plan file's, so each tree also runs `MUTANTS` seeded single-value
mutants of each of five files: the network, code and single-use plan of
`gen.generalized_butterfly(*MUTANT_SINGLE)`, the `--block 2` plan of
`gen.generalized_butterfly(*MUTANT_BLOCK)`, and `MUTANT_GEMS`.  Each
mutant replaces one value, anywhere in the file, by one of
`MUTANT_VALUES`, and runs through `simulate`, or `precode --gems` for the
gems file.

No pool op runs `code` over GF(2) and few over GF(3), so `FieldTooSmall`
refusals would go uncompared.  Each tree therefore also runs `code --seed
0`, then `precode`, on each of `FEASIBILITY_PROBE` layered DAGs,
`feasibility_probe(s)` for s below it: GF(2), GF(3) or GF(5), rate 3 or
4, one full-rate sink and three to five weak sinks, where whether
`precode` finds a single-use plan can depend on the code.  It also runs
`code` at seeds 0 to 19 on `weak_refusal()`, a GF(2) network with one
full-rate and six weak sinks that `code` refuses at every one of those
seeds, though it would code the full-rate sink alone.

The pools code at rate 5 or less, so each tree also runs `code` at seeds 0
to 2 on `large_rate_probe(p, r)` for each (p, r) of `LARGE_RATE`, rate 8 to
16: one full-rate sink and two weak sinks of max-flow r - 1, whose frontiers
leave a one-column completion, so that candidates accepted through it are
compared too.

Each tree also runs `precode --gems`, without `--block`, on draws 14, 291
and 1938 of `budget_probe`: sets that pass the feasibility check and have
no single-use precoder, and whose minimal exact spanner search stops at
its 200 000-node budget, so that refusals that must not wait for that
search are compared too.

Compared per op: each stage's exit code and stderr, and the sha256 of each
output file; per pool, the set-up's CLI calls and the files it left.  Every
op that differs is printed, and the exit status is 1 if any op differs.
The verdict line also gives each tree's `src/srlnc` and `cli.py` line
counts.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

POOLS = [("net-pipeline", 701), ("sim-stream", 701), ("gem-precode", 701),
         ("gem-block", 701), ("gem-block", 711)]
MANY_SINKS = [(k, s) for k in (8, 10, 12) for s in (1, 2)]
PROBE_SINKS = (14, 16)
ONE_COLUMN_MEMBERS = 2000
# gen.random_gemset(random.Random(s), 3, 4, 5) under --block 3: best design has l = 3
BLOCK3_SEEDS = (15, 16, 18, 23, 45, 65, 78, 79, 85, 94)
BUTTERFLY = (31, 4, 4)   # p, r, weak sinks
# Searched back from t1, in edge-id order, the first path is s-u1-v1-t1.
# Both edges v2-t1 need u1, so the second path is s-u2-v1, back over
# u1-v1, then u1-v2-t1; a search that cannot cancel flow stops at 1.  The
# weak sink w2 has in-degree 2 and max-flow 1.
REROUTE = {
    "field": 5, "rate": 2,
    "nodes": ["s", "u1", "u2", "u3", "v1", "v2", "t1", "t2", "w1", "w2", "w3"],
    "edges": [["v1", "t1"], ["u1", "v1"], ["u2", "v1"], ["s", "u1"], ["s", "u2"],
              ["u1", "v2"], ["v2", "t1"], ["s", "u3"], ["v2", "t1"], ["u3", "t2"],
              ["v1", "t2"], ["u3", "w1"], ["v2", "w2"], ["v2", "w2"], ["u2", "w3"]],
    "source": "s", "sinks": ["t1", "t2"], "subrate_sinks": ["w1", "w2", "w3"],
}
# weak sinks 8 and 9 both hang off hub 5, so their gems share one span
SAME_SPAN = {
    "field": 5, "rate": 2, "nodes": [1, 2, 3, 4, 5, 6, 7, 8, 9],
    "edges": [[1, 2], [1, 3], [2, 4], [2, 6], [3, 4], [3, 7], [4, 5], [5, 6], [5, 7],
              [5, 8], [5, 9]],
    "source": 1, "sinks": [6, 7], "subrate_sinks": [8, 9],
}
SAME_SPAN_SEEDS = (1, 3)   # code seeds at which sinks 8 and 9 get different bases
SIM_TRIALS = (0, 513)
# One change each to the sim-stream network or code file, (net, code) ->
# None, for each message that a failed one-sweep type test in `load_network`
# or `load_code` leaves to the entry-by-entry walk.  Edge 6 and the source's
# local kernel exist in every code; the source's has rows and columns.
MALFORMED_NET = {
    "node true": lambda net, code: net["nodes"].append(True),
    "endpoint float": lambda net, code: net["edges"][0].__setitem__(1, float(net["edges"][0][1])),
    "int and string names": lambda net, code: net["nodes"].append(str(net["nodes"][-1])),
    "sink repeats": lambda net, code: net["sinks"].append(net["sinks"][0]),
    "no source": lambda net, code: net.pop("source"),
}
MALFORMED_CODE = {
    "gek true": lambda net, code: code["gek"]["6"].__setitem__(0, True),
    "gek float": lambda net, code: code["gek"]["6"].__setitem__(0, 1.5),
    "gek keys": lambda net, code: code["gek"].pop("6"),
    "gek table": lambda net, code: code.update(gek=[1]),
    "lek shape": lambda net, code: code["lek"][str(net["source"])]["k"].pop(),
    "lek true": lambda net, code: code["lek"][str(net["source"])]["k"][0].__setitem__(0, True),
}
# Seeded single-value mutants: per file kind, MUTANTS copies of one file,
# each with one value, reached by walking down from the root and stopping
# at each level with even odds, replaced by one of MUTANT_VALUES.  The
# network, code and single-use plan are those of MUTANT_SINGLE; the
# `--block 2` plan is MUTANT_BLOCK's, which has no single-use plan.
MUTANTS = 600
MUTANT_VALUES = [None, 0, 5, -1, 10 ** 6, "x", "1", "", 1.5, True, [], [1], [[1]], {}, {"a": 1}]
MUTANT_SINGLE = (5, 3, 1)   # gen.generalized_butterfly p, r, weak sinks
MUTANT_BLOCK = (5, 3, 3)
MUTANT_GEMS = {"p": 3, "rate": 3, "mats": [[[1, 0], [1, 0], [0, 1]], [[1, 0], [0, 1], [0, 1]],
                                           [[1, 1], [1, 0], [0, 1]]],
               "spanner": [[2, 1, 1], [1, 1, 0], [1, 1, 1]]}
# fsrd_check passes and the guideline spanner fails; the minimal exact
# spanner has 4 vectors of rank 3
DEPENDENT_GEMS = {"p": 2, "rate": 4, "mats": [
    [[0], [1], [0], [1]], [[0, 0], [1, 1], [0, 0], [1, 0]], [[0], [1], [0], [0]],
    [[0], [0], [0], [1]], [[0, 1], [1, 0], [0, 1], [1, 1]]]}
# random.Random(s) seeds of the layered DAGs whose weak sinks have such a spanner
DEPENDENT_LAYERED_SEEDS = (94, 440, 526)
FEASIBILITY_PROBE = 150   # networks feasibility_probe(0..149)
BUDGET_PROBE_DRAWS = (14, 291, 1938)   # draws of budget_probe, counted from 1
WEAK_REFUSAL_CODE_SEEDS = range(20)
LARGE_RATE = ((3, 8), (3, 12), (7, 10), (5, 14), (31, 16))   # (p, r) of large_rate_probe
LARGE_RATE_CODE_SEEDS = range(3)


def feasibility_probe(s: int) -> dict:
    """Layered DAG `s` of the feasibility probe, as a network file."""
    import gen
    rng = random.Random(s)
    p, r = rng.choice([2, 3, 5]), rng.choice([3, 4])
    return gen.layered_dag(rng, p, r, rng.choice([4, 5]), rng.choice([3, 4]), 2, 1,
                           [rng.randrange(1, r) for _ in range(rng.choice([3, 4, 5]))])[0]


def budget_probe(n: int) -> dict:
    """Draw n of the probe rng = random.Random(2027), then per draw r, p
    and k from [5, 6, 7], [2, 3] and 3..8 and `gen.random_gemset(rng, p, r,
    k)`, as a gems file.  `tests/test_cli.py` writes out draw 14."""
    import gen
    rng = random.Random(2027)
    for _ in range(n):
        r, p, k = rng.choice([5, 6, 7]), rng.choice([2, 3]), rng.randint(3, 8)
        gems = gen.random_gemset(rng, p, r, k)
    return gems


def weak_refusal() -> dict:
    """GF(2), rate 3: 28 nodes, 53 edges, full-rate sink 21, weak sinks 22-27."""
    import gen
    rng = random.Random(361)
    p, r = rng.choice([2, 3]), rng.choice([2, 3])
    return gen.layered_dag(rng, p, r, rng.choice([4, 5]), rng.choice([3, 4]), 2, p - 1,
                           [rng.randrange(1, r) for _ in range(6)])[0]


def large_rate_probe(p: int, r: int) -> dict:
    """One full-rate sink and two weak sinks of max-flow r - 1, over three
    layers of r + 2 relays of in-degree 3, as a network file."""
    import gen
    return gen.layered_dag(random.Random(5), p, r, r + 2, 3, 3, 1, [r - 1, r - 1])[0]


def probe_gems(k: int, p: int = 5, r: int = 10) -> dict:
    """k members of GF(p)^r, each spanned by a distinct random proper subset
    of one random basis (full rank for the k used here), as a gems file.
    `tests/test_subrate.py` pins the plan of `probe_gems(18)` from this
    function, so the test and these entries describe the same sets."""
    rng = random.Random(3)
    basis = [[rng.randrange(p) for _ in range(r)] for _ in range(r)]
    subsets: List[tuple] = []
    while len(subsets) < k:
        sub = tuple(sorted(rng.sample(range(r), rng.randrange(1, r))))
        if sub not in subsets:
            subsets.append(sub)
    return {"p": p, "rate": r, "mats": [[[basis[j][i] for j in sub] for i in range(r)]
                                        for sub in subsets]}


def one_column_gems(k: int) -> dict:
    """k distinct nonzero one-column members of GF(5)^12, drawn from
    random.Random(1), as a gems file.  `tests/test_cli.py` draws its
    20 000-member set the same way."""
    rng = random.Random(1)
    cols: Dict[tuple, None] = {}
    while len(cols) < k:
        v = tuple(rng.randrange(5) for _ in range(12))
        if any(v):
            cols[v] = None
    return {"p": 5, "rate": 12, "mats": [[[x] for x in v] for v in cols]}


def _sha(path: Path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def digest_tree(tree: Path, work: Path) -> Dict[str, dict]:
    """Run in a fresh interpreter: every pool of `tree`, keyed by op."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import srlnc.cli
    import gen
    import run
    if Path(srlnc.cli.__file__).resolve().parent != (tree / "src" / "srlnc").resolve():
        raise SystemExit(f"pool_digests: imported srlnc from outside {tree}")
    runner = run.Runner(srlnc.cli)
    out: Dict[str, dict] = {}
    for name, seed in POOLS:
        pool_dir = work / f"{name}-{seed}"
        shutil.rmtree(pool_dir, ignore_errors=True)
        pool_dir.mkdir(parents=True)
        calls: List[list] = []

        def setup_call(argv):
            rc, msg = runner.call(argv)
            calls.append([argv, rc, msg])
            return rc, msg

        ops = run.WORKLOADS[name](random.Random(seed), pool_dir, setup_call)
        out[f"{name}@{seed} set-up"] = {
            "calls": calls, "files": {p.name: _sha(p) for p in sorted(pool_dir.iterdir())}}
        if name == "sim-stream":
            corrupt = json.loads((pool_dir / "stream-block.plan.json").read_text())
            entry = corrupt["sinks"][min(corrupt["sinks"])]
            entry["D_hat"][0][0] = (entry["D_hat"][0][0] + 1) % corrupt["p"]
            run._write(pool_dir / "stream-corrupt.plan.json", corrupt)
            # (network, plan, trials)
            runs = [(kind, kind, trials) for kind in ("single", "block") for trials in SIM_TRIALS]
            runs.append(("block", "corrupt", 513))
            for net_kind, kind, trials in runs:
                report = pool_dir / "trials.report.json"
                report.unlink(missing_ok=True)
                rc, msg = runner.call(
                    ["simulate", str(pool_dir / f"stream-{net_kind}.net.json"),
                     str(pool_dir / "stream.code.json"),
                     str(pool_dir / f"stream-{kind}.plan.json"),
                     "--trials", str(trials), "--out", str(report)])
                out[f"{name}@{seed} {kind} --trials {trials}"] = {
                    "stages": [[rc, msg]], "outputs": {report.name: _sha(report)}}
            out.update(_malformed(runner, pool_dir, f"{name}@{seed}"))
        for i, op in enumerate(ops):
            for path in op.outputs:
                path.unlink(missing_ok=True)
            for path, obj in op.inputs.items():
                run._write(path, obj)
            stages = []
            for argv in op.stages:
                rc, msg = runner.call(argv)
                stages.append([rc, msg])
                if rc != 0:
                    break
            out[f"{name}@{seed} #{i} {op.label}"] = {
                "stages": stages, "outputs": {p.name: _sha(p) for p in op.outputs}}
    many = work / "many-sinks"
    shutil.rmtree(many, ignore_errors=True)
    many.mkdir(parents=True)
    sets = [(f"many-sinks k={k} s={s}", f"gems-{k}-{s}.json",
             gen.feasible_gemset(random.Random(1000 * k + s), 5, 8, k)) for k, s in MANY_SINKS]
    sets += [(f"probe p=5 r=10 k={k}", f"probe-{k}.json", probe_gems(k)) for k in PROBE_SINKS]
    sets.append(("dependent spanner p=2 r=4 k=5", "dependent.json", DEPENDENT_GEMS))
    sets.append((f"one-column p=5 r=12 k={ONE_COLUMN_MEMBERS}", "one-column.json",
                 one_column_gems(ONE_COLUMN_MEMBERS)))
    for label, name, obj in sets:
        gems = run._write(many / name, obj)
        for block in ([], ["--block", "2"]):
            plan = many / "plan.json"
            plan.unlink(missing_ok=True)
            rc, msg = runner.call(["precode", "--gems", str(gems), *block, "--out", str(plan)])
            out[f"{label} {' '.join(block)}".rstrip()] = {
                "stages": [[rc, msg]], "outputs": {plan.name: _sha(plan)}}
    for n in BUDGET_PROBE_DRAWS:
        gems = run._write(many / f"budget-{n}.json", budget_probe(n))
        out[f"budget probe draw={n}"] = _stages(
            runner, [["precode", "--gems", gems, "--out", many / "plan.json"]], [many / "plan.json"])
    for s in BLOCK3_SEEDS:
        gems = run._write(many / f"random-{s}.json",
                          gen.random_gemset(random.Random(s), 3, 4, 5))
        plan = many / "plan.json"
        plan.unlink(missing_ok=True)
        rc, msg = runner.call(["precode", "--gems", str(gems), "--block", "3",
                               "--out", str(plan)])
        out[f"random p=3 r=4 k=5 s={s} --block 3"] = {
            "stages": [[rc, msg]], "outputs": {plan.name: _sha(plan)}}
    run._write(many / "bfly.net.json", gen.generalized_butterfly(*BUTTERFLY)[0])
    out["butterfly p={} r={} w={}".format(*BUTTERFLY)] = _pipeline(runner, many, "bfly", [])
    for s in DEPENDENT_LAYERED_SEEDS:
        rng = random.Random(s)
        run._write(many / f"layered-{s}.net.json",
                   gen.layered_dag(rng, 3, 4, 4, 3, 2, 2, [rng.randrange(1, 4) for _ in range(5)])[0])
        out[f"layered p=3 r=4 s={s}"] = _pipeline(runner, many, f"layered-{s}", [])
    for s in SAME_SPAN_SEEDS:
        run._write(many / f"same-span-{s}.net.json", SAME_SPAN)
        out[f"same-span seed={s}"] = _pipeline(runner, many, f"same-span-{s}", [], seed=s)
    run._write(many / "reroute.net.json", REROUTE)
    out["reroute"] = _pipeline(runner, many, "reroute",
                               REROUTE["sinks"] + REROUTE["subrate_sinks"])
    code, plan = many / "probe.code.json", many / "probe.plan.json"
    for s in range(FEASIBILITY_PROBE):
        net = run._write(many / "probe.net.json", feasibility_probe(s))
        out[f"feasibility probe s={s}"] = _stages(
            runner, [["code", net, "--seed", 0, "--out", code],
                     ["precode", net, code, "--out", plan]], [code, plan])
    net = run._write(many / "weak-refusal.net.json", weak_refusal())
    for seed in WEAK_REFUSAL_CODE_SEEDS:
        out[f"weak refusal seed={seed}"] = _stages(
            runner, [["code", net, "--seed", seed, "--out", code]], [code])
    for p, r in LARGE_RATE:
        net = run._write(many / f"large-rate-{p}-{r}.net.json", large_rate_probe(p, r))
        for seed in LARGE_RATE_CODE_SEEDS:
            out[f"large rate p={p} r={r} seed={seed}"] = _stages(
                runner, [["code", net, "--seed", seed, "--out", code]], [code])
    out.update(_mutants(runner, work / "mutants"))
    return out


def _mutants(runner, work: Path) -> Dict[str, dict]:
    """`simulate` with the network, code, single-use plan or `--block 2`
    plan, or `precode --gems` with the gems file, replaced by each of its
    `MUTANTS` seeded single-value mutants: each run's exit code, error
    line and output."""
    import gen
    import run
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    files = {}
    for label, shape, precode in (("single", MUTANT_SINGLE, []),
                                  ("block", MUTANT_BLOCK, ["--block", "2"])):
        net, code, plan = (work / f"{label}.{kind}.json" for kind in ("net", "code", "plan"))
        run._write(net, gen.generalized_butterfly(*shape)[0])
        for argv in (["code", net, "--out", code], ["precode", net, code, *precode, "--out", plan]):
            rc, msg = runner.call([str(a) for a in argv])
            if rc != 0:
                raise SystemExit(f"pool_digests: mutant set-up {argv[0]} exited {rc}: {msg}")
        files[label] = net, code, plan
    net, code, plan = files["single"]
    mutant, out_file = work / "mutant.json", work / "mutant.out.json"
    kinds = {"network": (net, ["simulate", mutant, code, plan]),
             "code": (code, ["simulate", net, mutant, plan]),
             "single-use plan": (plan, ["simulate", net, code, mutant]),
             "block plan": (files["block"][2], ["simulate", *files["block"][:2], mutant]),
             "gems": (run._write(work / "gems.json", MUTANT_GEMS), ["precode", "--gems", mutant])}
    out = {}
    for k, (label, (source, argv)) in enumerate(kinds.items()):
        for i in range(MUTANTS):
            rng = random.Random(1000 * k + i)
            obj = json.loads(source.read_text(encoding="utf-8"))
            holder, key, node = None, None, obj
            while (isinstance(node, (dict, list)) and node
                   and (holder is None or rng.random() < 0.5)):
                holder = node
                key = rng.choice(sorted(node) if isinstance(node, dict) else range(len(node)))
                node = holder[key]
            holder[key] = rng.choice(MUTANT_VALUES)
            run._write(mutant, obj)
            out_file.unlink(missing_ok=True)
            rc, msg = runner.call([str(a) for a in argv] + ["--out", str(out_file)])
            out[f"mutant {label} #{i}"] = {"stages": [[rc, msg]],
                                           "outputs": {out_file.name: _sha(out_file)}}
    return out


def _malformed(runner, pool_dir: Path, label: str) -> Dict[str, dict]:
    """`simulate` on the sim-stream block network, code and plan, with one
    of the two files changed by each entry of `MALFORMED_NET` and
    `MALFORMED_CODE`: each run's exit code and error line."""
    out = {}
    for which, changes in (("net", MALFORMED_NET), ("code", MALFORMED_CODE)):
        for what, change in changes.items():
            files = {"net": json.loads((pool_dir / "stream-block.net.json").read_text()),
                     "code": json.loads((pool_dir / "stream.code.json").read_text())}
            change(files["net"], files["code"])
            bad = pool_dir / f"malformed.{which}.json"
            bad.write_text(json.dumps(files[which]), encoding="utf-8")
            net = bad if which == "net" else pool_dir / "stream-block.net.json"
            code = bad if which == "code" else pool_dir / "stream.code.json"
            report = pool_dir / "malformed.report.json"
            report.unlink(missing_ok=True)
            rc, msg = runner.call(["simulate", str(net), str(code),
                                   str(pool_dir / "stream-block.plan.json"), "--trials", "1",
                                   "--out", str(report)])
            out[f"{label} malformed {which}: {what}"] = {
                "stages": [[rc, msg]], "outputs": {report.name: _sha(report)}}
    return out


def _pipeline(runner, work: Path, name: str, maxflow_sinks: list,
              seed: Optional[int] = None) -> dict:
    """maxflow to each of `maxflow_sinks`, then code, `precode --block 2`
    and simulate on the network file `work/NAME.net.json`, up to the first
    stage that fails.  With `seed`, code runs at that `--seed` and a
    `precode` without `--block` runs before the block one."""
    net = work / f"{name}.net.json"
    code, single, plan, report = (work / f"{name}.{kind}.json"
                                  for kind in ("code", "single", "plan", "report"))
    flows = {t: work / f"{name}.maxflow-{t}.json" for t in maxflow_sinks}
    argvs = [["maxflow", net, t, "--out", path] for t, path in flows.items()]
    if seed is None:
        argvs.append(["code", net, "--out", code])
    else:
        argvs += [["code", net, "--seed", seed, "--out", code],
                  ["precode", net, code, "--out", single]]
    argvs += [["precode", net, code, "--block", "2", "--out", plan],
              ["simulate", net, code, plan, "--out", report]]
    outputs = [*flows.values(), code, *([single] if seed is not None else []), plan, report]
    return _stages(runner, argvs, outputs)


def _stages(runner, argvs: list, outputs: List[Path]) -> dict:
    """Run `argvs` in order, up to the first that fails, after deleting
    `outputs`: each stage's exit code and error line, and the sha256 of
    each output."""
    for path in outputs:
        path.unlink(missing_ok=True)
    stages = []
    for argv in argvs:
        rc, msg = runner.call([str(a) for a in argv])
        stages.append([rc, msg])
        if rc != 0:
            break
    return {"stages": stages, "outputs": {p.name: _sha(p) for p in outputs}}


def _src_lines(tree: Path, pattern: str = "*.py") -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in (tree / "src" / "srlnc").glob(pattern))


def _run_tree(tree: Path, work: Path) -> Dict[str, dict]:
    proc = subprocess.run([sys.executable, __file__, "--digest", str(tree), str(work)],
                          capture_output=True, text=True, cwd=tree)
    if proc.returncode != 0:
        raise SystemExit(f"pool_digests: {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv: List[str]) -> int:
    if len(argv) == 3 and argv[0] == "--digest":
        json.dump(digest_tree(Path(argv[1]).resolve(), Path(argv[2])), sys.stdout)
        return 0
    if len(argv) != 2:
        print("usage: python3 tools/pool_digests.py PARENT_TREE CHANGED_TREE", file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix="pool_digests-"))
    try:
        parent, changed = (_run_tree(Path(t).resolve(), work) for t in argv)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    differ = 0
    for key in list(parent) + [k for k in changed if k not in parent]:
        if parent.get(key) != changed.get(key):
            differ += 1
            print(f"differs: {key}\n  parent:  {json.dumps(parent.get(key))}\n"
                  f"  changed: {json.dumps(changed.get(key))}")
    lines = {pattern: " and ".join(f"{_src_lines(Path(t), pattern)} {name}"
                                   for t, name in zip(argv, ("parent", "changed")))
             for pattern in ("*.py", "cli.py")}
    print(f"{len(parent)} parent and {len(changed)} changed entries compared, {differ} differ; "
          f"src/srlnc lines: {lines['*.py']}; cli.py lines: {lines['cli.py']}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
