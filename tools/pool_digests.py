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

The pools hold at most five weak sinks, so each tree also runs `precode
--gems`, with and without `--block 2`, on the many-sink sets
`gen.feasible_gemset(random.Random(1000 * k + s), 5, 8, k)` of its own
`perfbench/gen.py`, for k in 8, 10, 12 and s in 1, 2, and on `probe_gems(k)`
for k in 14 and 16: k members of GF(5)^10, each spanned by a distinct
random proper subset of one random basis, drawn from `random.Random(3)`.
Only 975 and 2183 of their 2^k - 1 member intersections are nonzero, so
these sets compare the commonality levels and the guideline spanner where
most member sets meet in zero.

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

Compared per op: each stage's exit code and stderr, and the sha256 of each
output file; per pool, the set-up's CLI calls and the files it left.  Every
op that differs is printed, and the exit status is 1 if any op differs.
The verdict line also gives each tree's `src/srlnc` line count.
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
# fsrd_check passes and the guideline spanner fails; the minimal exact
# spanner has 4 vectors of rank 3
DEPENDENT_GEMS = {"p": 2, "rate": 4, "mats": [
    [[0], [1], [0], [1]], [[0, 0], [1, 1], [0, 0], [1, 0]], [[0], [1], [0], [0]],
    [[0], [0], [0], [1]], [[0, 1], [1, 0], [0, 1], [1, 1]]]}
# random.Random(s) seeds of the layered DAGs whose weak sinks have such a spanner
DEPENDENT_LAYERED_SEEDS = (94, 440, 526)


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
    for label, name, obj in sets:
        gems = run._write(many / name, obj)
        for block in ([], ["--block", "2"]):
            plan = many / "plan.json"
            plan.unlink(missing_ok=True)
            rc, msg = runner.call(["precode", "--gems", str(gems), *block, "--out", str(plan)])
            out[f"{label} {' '.join(block)}".rstrip()] = {
                "stages": [[rc, msg]], "outputs": {plan.name: _sha(plan)}}
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
    stages = []
    for argv in argvs:
        rc, msg = runner.call([str(a) for a in argv])
        stages.append([rc, msg])
        if rc != 0:
            break
    outputs = [*flows.values(), code, *([single] if seed is not None else []), plan, report]
    return {"stages": stages, "outputs": {p.name: _sha(p) for p in outputs}}


def _src_lines(tree: Path) -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in (tree / "src" / "srlnc").glob("*.py"))


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
    lines = " and ".join(f"{_src_lines(Path(t))} {name}" for t, name in zip(argv, ("parent", "changed")))
    print(f"{len(parent)} parent and {len(changed)} changed entries compared, {differ} differ; "
          f"src/srlnc lines: {lines}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
