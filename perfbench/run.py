"""srlnc benchmark: one workload per run, closed loop, single thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  The harness imports `srlnc` from `src/` next
to this directory, generates the workload's inputs from `--seed`, and calls
the CLI in process (`srlnc.cli.main`) one op at a time until the ops' own
wall time adds up to `--seconds`; reported times are scaled to a reference
host speed (see `HostSpeed`).  Every op's output is checked with the
plain-integer code in `check.py`; an op seen again on a later pass over the
input pool must give byte-identical output.

`--trace 0` prints the end-to-end metrics.  `--trace 1` first measures
untraced for half the time, then installs `tracer.Tracer` and runs whole
passes over (the front of) the pool for at least the other half; it prints
per-layer metrics (per pass, so counts repeat exactly at a fixed seed) and
the tracing overhead on each end-to-end metric.  The last stdout line is
the result JSON; the line before it, also written to `.perfbench/`, holds the
full report.  See NOTES.md for the workloads and why they were chosen.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

import check  # noqa: E402  (HERE is on sys.path as the script directory)
import gen  # noqa: E402
import gf  # noqa: E402

# ---------------------------------------------------------------- ops


@dataclass
class Verdict:
    wrong: Optional[str] = None     # why the output is incorrect, if it is
    msgs: int = 0                   # network uses pushed through and checked


@dataclass
class Op:
    label: str
    inputs: Dict[Path, object]      # JSON files written before the op, untimed
    stages: List[List[str]]         # CLI argv lists, run in order
    outputs: List[Path]             # files the stages write
    verify: Callable[[], Verdict]
    # edges the first stage's code gave a nonzero kernel, for ops that build one
    coded_edges: Optional[Callable[[], int]] = None
    # whether this op's input can hit the known `Singular: not square` defect
    known_defect: bool = False


@dataclass
class Record:
    label: str
    seconds: float
    outcome: str                    # solved | infeasible | known-defect | failed
    why: str = ""
    msgs: int = 0
    wrong: bool = False
    scale: float = 1.0              # host-speed factor in force when the op ran


# The known defect (see NOTES.md): `build_precoder` gets a minimal spanner
# with more vectors than the rate and raises `Singular: not square: r x n`,
# n > r, so `precode --gems --block` exits 2 on a valid input.
KNOWN_DEFECT = re.compile(r"error: not square: (\d+)x(\d+)")


def is_known_defect(rc: int, msg: str) -> bool:
    m = KNOWN_DEFECT.fullmatch(msg)
    return rc == 2 and m is not None and int(m.group(2)) > int(m.group(1))


class OpTimeout(BaseException):
    """Raised by SIGALRM when an op exceeds its budget; a BaseException so
    that no handler inside the program can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


class Runner:
    """Runs ops against the CLI with a wall-clock budget per op."""

    def __init__(self, cli):
        self.cli = cli
        self.first: Dict[int, Tuple[str, Verdict]] = {}   # op index -> (output digest, verdict)
        self.coded_edges: Dict[int, int] = {}              # op index -> edges coded

    def call(self, argv: List[str]) -> Tuple[int, str]:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:   # argparse rejects the command line
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, err.getvalue().strip()

    def run(self, index: int, op: Op) -> Record:
        for path, obj in op.inputs.items():
            _write(path, obj)
        rc, msg, crash, done = 0, "", "", 0
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
            try:
                for argv in op.stages:
                    rc, msg = self.call(argv)
                    if rc != 0:
                        break
                    done += 1
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            crash = f"timed out at {BUDGET_S:g} s"
        except Exception:  # an uncaught exception is a failed op, not a crash of the harness
            crash = "uncaught " + traceback.format_exc(limit=1).strip().splitlines()[-1]
        dt = time.perf_counter() - t0
        if op.coded_edges is not None and done and index not in self.coded_edges:
            self.coded_edges[index] = op.coded_edges()
        if crash:
            return Record(op.label, dt, "failed", crash)
        if rc == 3:
            return Record(op.label, dt, "infeasible", msg)
        if op.known_defect and is_known_defect(rc, msg):
            return Record(op.label, dt, "known-defect", msg)
        if rc != 0:
            return Record(op.label, dt, "failed", f"exit {rc}: {msg}")
        digest = hashlib.sha256(b"".join(p.read_bytes() for p in op.outputs)).hexdigest()
        if index not in self.first:
            self.first[index] = (digest, op.verify())
        first, verdict = self.first[index]
        if first != digest:
            return Record(op.label, dt, "failed", "output differs from the first pass", wrong=True)
        if verdict.wrong:
            return Record(op.label, dt, "failed", verdict.wrong, wrong=True)
        return Record(op.label, dt, "solved", msgs=verdict.msgs)


# ---------------------------------------------------------------- workloads


def _write(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _spread(ops: List[Op], rng: random.Random) -> List[Op]:
    """Interleave so every class is spread evenly over the pass: a run that
    stops part-way through a pass still sees the pass's mix."""
    groups: Dict[str, List[Op]] = {}
    for op in ops:
        groups.setdefault(op.label.split("#")[0], []).append(op)
    keyed = []
    for members in groups.values():
        offset = rng.random()
        keyed += [((i + offset) / len(members), op.label, op) for i, op in enumerate(members)]
    return [op for _, _, op in sorted(keyed, key=lambda k: k[:2])]


def _pipeline_op(work: Path, label: str, net: dict, flows: Dict[int, int],
                 code_seed: int, trials: int, sim_seed: int) -> Op:
    nf = work / "net.json"
    cf, pf, rf = work / "code.json", work / "plan.json", work / "report.json"

    def verify() -> Verdict:
        code, plan, report = _load(cf), _load(pf), _load(rf)
        why = (check.check_code(net, code)
               or check.check_plan_for_network(net, code, plan, flows)
               or check.check_report(net, report, trials))
        if why is None and report["seed"] != sim_seed:
            why = "report seed differs from the request"
        l = 1 if plan["kind"] == "subrate" else plan["l"]
        return Verdict(why, trials * l)

    def coded_edges() -> int:
        return sum(1 for e, v in _load(cf)["gek"].items() if int(e) >= 0 and any(v))

    stages = [["code", str(nf), "--seed", str(code_seed), "--out", str(cf)],
              ["precode", str(nf), str(cf), "--block", str(PIPELINE_BLOCK), "--out", str(pf)],
              ["simulate", str(nf), str(cf), str(pf), "--trials", str(trials),
               "--seed", str(sim_seed), "--out", str(rf)]]
    return Op(label, {nf: net}, stages, [cf, pf, rf], verify, coded_edges)


# Generalized butterflies as (r, p, weak sinks).  They cover the cheap
# construction paths, block fallbacks (r=3 with 3 weak sinks, r=4 with 4)
# and the p^r cap of the exact spanner search (exit 3 at r=3, p=31 and at
# r=4, p>=11 with 4 weak sinks).  r=4, p=31 lists 31^4 = 923521 candidates
# at the bottleneck (about 0.6 s); the six r=4, p=23 members (23^4 =
# 279841, about 0.2 s) make 15% of the pass so that op_ms_p90 falls inside
# them, and keep the pass short enough for well over 100 ops per run.
PIPELINE_BUTTERFLIES = [(3, 5, 2), (3, 7, 3), (3, 11, 3), (3, 13, 2), (3, 19, 2), (3, 31, 2),
                        (3, 31, 3), (4, 5, 3), (4, 5, 4), (4, 7, 4), (4, 13, 3), (4, 13, 4),
                        (4, 31, 2), (5, 7, 3), (5, 7, 4)]
PIPELINE_BOTTLENECK = [(4, 23, 2), (4, 23, 3), (4, 23, 4)] * 2
PIPELINE_DAGS = 20
PIPELINE_PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31]
PIPELINE_SHAPES = [(6, 4, 2), (7, 5, 2), (8, 5, 3), (8, 6, 3)]   # width, layers, in-degree
PIPELINE_WEAK = [[1], [2], [1, 2], [2, 2]]                        # weak sinks' in-degrees
PIPELINE_TRIALS = 20
PIPELINE_BLOCK = 2


def setup_net_pipeline(rng: random.Random, work: Path, cli_call) -> List[Op]:
    ops = []
    for i, (r, p, weak) in enumerate(PIPELINE_BUTTERFLIES + PIPELINE_BOTTLENECK):
        net, flows = gen.generalized_butterfly(p, r, weak)
        ops.append(_pipeline_op(work, f"bfly-r{r}-p{p}-w{weak}#{i}", net, flows,
                                rng.randrange(1 << 16), PIPELINE_TRIALS, rng.randrange(1 << 16)))
    # Layered random DAGs: coded edges have at most 3 predecessors, so
    # construction stays cheap and the time spreads over max_flow, the
    # spanner, simulate and the JSON round trips.  At most two weak sinks,
    # which is always fully decodable, so every DAG op should be solved.
    # Rate, field, shape and weak sinks cycle through fixed lists and only
    # the wiring is random, so the pass's cost mix is the same for every seed.
    for i in range(PIPELINE_DAGS):
        r = 3 + i % 3
        p = PIPELINE_PRIMES[i % len(PIPELINE_PRIMES)]
        width, layers, indeg = PIPELINE_SHAPES[i % len(PIPELINE_SHAPES)]
        weak = PIPELINE_WEAK[i // len(PIPELINE_SHAPES) % len(PIPELINE_WEAK)]
        net, flows = gen.layered_dag(rng, p, r, width, layers, indeg, 2 + i % 2, weak)
        ops.append(_pipeline_op(work, f"dag-r{r}#{i}", net, flows, rng.randrange(1 << 16),
                                PIPELINE_TRIALS, rng.randrange(1 << 16)))
    return _spread(ops, rng)


# One large layered DAG: r=4 over GF(7), 10 relays per layer, 11 layers,
# in-degree 3: 330 relay edges plus sinks, 374 edges in all.  p=7 because
# the block fallback's exact spanner search refuses p^r > 10000.  24
# candidate weak sinks hear one relay each (many carry the same line, so a
# draw rarely has fewer than five distinct ones); the code is built for all
# of them, and the first five whose kernels span distinct lines are used.  Five distinct lines in GF(7)^4 need five spanner vectors, more
# than r, so they are never fully decodable, and the spanner search over
# lines is cheap, which keeps set-up time steady from seed to seed.  Ops
# alternate a single-use plan (the first two of the five) and an l=2 block
# plan (all five).  Block ops take half the trials, so every op pushes the
# same number of messages and the two kinds cost about the same.
STREAM_SHAPE = dict(p=7, r=4, width=10, layers=11, indeg=3, n_sinks=4)
STREAM_WEAK_CANDIDATES = 24
STREAM_WEAK = 5
STREAM_TRIALS = 40
STREAM_OPS_PER_PASS = 8


def setup_sim_stream(rng: random.Random, work: Path, cli_call) -> List[Op]:
    s = STREAM_SHAPE
    cf = work / "stream.code.json"
    for _ in range(20):
        net, flows = gen.layered_dag(rng, s["p"], s["r"], s["width"], s["layers"], s["indeg"],
                                     s["n_sinks"], [1] * STREAM_WEAK_CANDIDATES)
        nf = _write(work / "stream-all.net.json", net)
        rc, msg = cli_call(["code", str(nf), "--seed", str(rng.randrange(1 << 16)),
                            "--out", str(cf)])
        if rc != 0:
            raise RuntimeError(f"sim-stream set-up: code exited {rc}: {msg}")
        gek = _load(cf)["gek"]
        chosen, lines = [], set()
        for e, (_, head) in enumerate(net["edges"]):
            if head not in net["subrate_sinks"]:
                continue
            line = gf.span_key(s["p"], [gek[str(e)]])
            if line and line not in lines:
                chosen.append(head)
                lines.add(line)
        if len(chosen) >= STREAM_WEAK:
            break
    else:
        raise RuntimeError("sim-stream set-up: no draw gave five distinct weak lines")
    block = dict(net, subrate_sinks=chosen[:STREAM_WEAK])
    single = dict(net, subrate_sinks=chosen[:2])
    nb = _write(work / "stream-block.net.json", block)
    ns = _write(work / "stream-single.net.json", single)
    bpf, spf = work / "stream-block.plan.json", work / "stream-single.plan.json"
    for argv in (["precode", str(nb), str(cf), "--block", "2", "--out", str(bpf)],
                 ["precode", str(ns), str(cf), "--out", str(spf)]):
        rc, msg = cli_call(argv)
        if rc != 0:
            raise RuntimeError(f"sim-stream set-up: precode exited {rc}: {msg}")
    if _load(bpf)["kind"] != "block":
        raise RuntimeError("sim-stream set-up: five distinct lines gave a single-use plan")

    rf = work / "report.json"
    ops = []
    for i in range(STREAM_OPS_PER_PASS):
        kind, n, pf = ("single", ns, spf) if i % 2 == 0 else ("block", nb, bpf)
        listing = single if kind == "single" else block
        trials = STREAM_TRIALS if kind == "single" else STREAM_TRIALS // 2
        sim_seed = rng.randrange(1 << 16)

        def verify(listing=listing, trials=trials, pf=pf) -> Verdict:
            code, plan = _load(cf), _load(pf)
            l = 1 if plan["kind"] == "subrate" else plan["l"]
            why = (check.check_code(listing, code)
                   or check.check_plan_for_network(listing, code, plan, flows)
                   or check.check_report(listing, _load(rf), trials))
            return Verdict(why, trials * l)

        ops.append(Op(f"stream-{kind}#{i}", {},
                      [["simulate", str(n), str(cf), str(pf), "--trials", str(trials),
                        "--seed", str(sim_seed), "--out", str(rf)]], [rf], verify))
    return ops


def _gems_op(work: Path, label: str, gems: dict, block: bool) -> Op:
    gf_path = work / "gems.json"
    pf = work / "plan.json"
    argv = ["precode", "--gems", str(gf_path), "--out", str(pf)]
    if block:
        argv[3:3] = ["--block", "2"]

    def verify() -> Verdict:
        plan = _load(pf)
        why = check.check_gems_plan(gems, plan)
        if why is None and not block and plan["kind"] != "subrate":
            why = "a fully decodable set did not get a single-use plan"
        return Verdict(why)

    return Op(label, {gf_path: gems}, [argv], [pf], verify, known_defect=block)


# Pairs of coordinate hyperplanes (the pair is drawn from the seed): the
# spanner enumerates all p^(r-2) vectors of the intersection.  Nine of each
# class make 20% of the pass; their cost order 11^5 < 31^4 < 13^5 puts
# op_ms_p90 in the middle of the 31^4 class.  The random fully decodable
# sets (milliseconds each, FEASIBLE_PER_CLASS per (r, p, k) below) set
# op_ms_p50.  Their cost varies tenfold from draw to draw within a class, so
# with one set per class op_ms_p50 moved by 17% from seed to seed; three per
# class narrow that.  r=5 only with p=5, since r=5 at p >= 11 has a tail (up
# to 0.7 s) that would blur the two groups.
HYPERPLANES = [(11, 5), (31, 4), (13, 5)] * 9
FEASIBLE_CLASSES = [(3, 5), (3, 7), (3, 11), (3, 13), (4, 5), (4, 7), (4, 11), (4, 13), (5, 5)]
FEASIBLE_KS = (2, 3, 4, 5)
FEASIBLE_PER_CLASS = 3


def setup_gem_precode(rng: random.Random, work: Path, cli_call) -> List[Op]:
    ops = []
    for i, (p, r) in enumerate(HYPERPLANES):
        omit = rng.sample(range(r), 2)
        ops.append(_gems_op(work, f"hyper-{p}^{r}#{i}", gen.coordinate_hyperplanes(p, r, omit), False))
    for r, p in FEASIBLE_CLASSES:
        for k in FEASIBLE_KS:
            for j in range(FEASIBLE_PER_CLASS):
                ops.append(_gems_op(work, f"feasible-r{r}-k{k}#{p}.{j}",
                                    gen.feasible_gemset(rng, p, r, k), False))
    return _spread(ops, rng)


# Random GemSets as (r, p, k, sets per pass).  The spanner search makes
# costs heavy-tailed, and the pass is one run's worth of work, so a class's
# count sets how much its tail moves ops_per_s from seed to seed: the
# cheap r=3 classes fill the pass, the tailed ones come in small numbers.
# r=4, p=3, k=4 (mean 0.24 s, sd 0.5 s, max 3.8 s) is the class named for
# the known Singular defect; r=3, p=3, k=4 and k=5 show the same defect
# (a 4-vector minimal spanner with r=3).  None of these sets is filtered.
# r=4 is kept only at p=3: at p=5 the search takes seconds (median 1.4 s,
# some over 10 s at k=4), which would put ops at the budget.
BLOCK_CLASSES = [(3, 3, 3, 200), (3, 3, 4, 200), (3, 3, 5, 200), (3, 5, 3, 200),
                 (3, 5, 4, 200), (3, 5, 5, 100), (3, 7, 3, 200), (3, 7, 4, 100),
                 (3, 7, 5, 8), (4, 3, 3, 16), (4, 3, 4, 4)]


def setup_gem_block(rng: random.Random, work: Path, cli_call) -> List[Op]:
    ops = []
    for r, p, k, count in BLOCK_CLASSES:
        for i in range(count):
            ops.append(_gems_op(work, f"rand-r{r}-p{p}-k{k}#{i}", gen.random_gemset(rng, p, r, k), True))
    return _spread(ops, rng)


# Set-up functions take (rng, work dir, CLI call) and return the input pool.
WORKLOADS = {"net-pipeline": setup_net_pipeline, "sim-stream": setup_sim_stream,
             "gem-precode": setup_gem_precode, "gem-block": setup_gem_block}

# ---------------------------------------------------------------- host speed

# A shared virtual machine's speed drifts (by a third or more over minutes
# on a 2-vCPU x86_64 VM), and a fixed pure-Python kernel slows down with
# it.  Every time metric is therefore scaled by REF_S / (the kernel's
# current time), which reads it as wall time on a host where the kernel
# takes REF_S, about its median on that VM.  Raw wall times are in the
# report under "raw_end_to_end".
REF_S = 0.003
REF_EVERY_S = 0.1       # op time between kernel samples


class HostSpeed:
    """Tracks how fast the host runs the reference kernel right now."""

    def __init__(self):
        rng = random.Random(0)
        self.matrix = [[rng.randrange(31) for _ in range(30)] for _ in range(30)]
        self.obj = {"rows": [[rng.randrange(31) for _ in range(30)] for _ in range(60)]}
        self.recent: List[float] = []
        self.sample()

    def _kernel_s(self) -> float:
        t0 = time.perf_counter()
        gf.rref(31, self.matrix)
        json.loads(json.dumps(self.obj))
        return time.perf_counter() - t0

    def sample(self) -> None:
        now = statistics.median(self._kernel_s() for _ in range(3))
        self.recent = (self.recent + [now])[-3:]

    def factor(self) -> float:
        return REF_S / statistics.median(self.recent)


# ---------------------------------------------------------------- metrics


def _quantile(sorted_vals: List[float], q: float) -> float:
    """Nearest-rank quantile."""
    return sorted_vals[max(1, math.ceil(q * len(sorted_vals))) - 1]


def end_to_end(records: List[Record], setup_s: float, scaled: bool) -> dict:
    times = sorted(r.seconds * (r.scale if scaled else 1.0) * 1e3 for r in records)
    busy_s = sum(times) / 1e3
    n = len(records)
    msgs = sum(r.msgs for r in records)
    solved = sum(r.outcome == "solved" for r in records)
    failed = sum(r.outcome == "failed" for r in records)
    defect = sum(r.outcome == "known-defect" for r in records)
    return {
        "ops_per_s": {"value": n / busy_s, "unit": "op/s", "n": n},
        "op_ms_p50": {"value": _quantile(times, 0.50), "unit": "ms", "n": n},
        "op_ms_p90": {"value": _quantile(times, 0.90), "unit": "ms", "n": n},
        "msgs_per_s": {"value": msgs / busy_s, "unit": "msg/s", "n": msgs},
        "solved_frac": {"value": solved / n, "unit": "ratio", "n": n},
        "failed_frac": {"value": (failed + defect) / n, "unit": "ratio", "n": n},
        "known_defect_frac": {"value": defect / n, "unit": "ratio", "n": n},
        "setup_s": {"value": setup_s, "unit": "s", "n": SETUP_REPEATS},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB", "n": 1},
    }


def per_layer(snap: dict, passes: int, coded_edges: int) -> dict:
    """Per-pass layer metrics from a tracer snapshot."""
    funcs, callers = snap["functions"], snap["callers"]
    out: Dict[str, dict] = {}

    def put(name: str, value: float, unit: str):
        out[name] = {"value": value / passes if unit != "ratio" else value, "unit": unit}

    for fn, st in funcs.items():
        put(f"{fn}.calls", st["calls"], "count")
        put(f"{fn}.items", st["items"], "count")
        put(f"{fn}.self_ms", st["self_ms"], "ms")
        put(f"{fn}.total_ms", st["total_ms"], "ms")
        for who, n in callers.get(fn, {}).items():
            put(f"{fn}.from_{who}.calls", n, "count")
    ranks = snap["nested"].get(("linalg.rank_of_vectors", "multicast.build_multicast"), 0)
    put("multicast.rank_calls_per_edge", ranks / passes / coded_edges if coded_edges else 0.0,
        "ratio")
    bs = funcs.get("subrate.build_spanner")
    put("subrate.build_spanner.ok_ratio", bs["returns"] / bs["calls"] if bs else 0.0, "ratio")
    return out


# ---------------------------------------------------------------- running a workload

SETUP_REPEATS = 5
BUDGET_S = 20.0     # per op; the slowest chosen op class stays under 5 s
# A traced run passes over at most this many ops from the front of the pool
# (the pools are interleaved, so the front has the pool's mix), which keeps
# a whole traced pass short even if the program gets much slower.
TRACE_POOL_MAX = 480


def import_srlnc():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "srlnc" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no srlnc sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import srlnc.cli
    if Path(srlnc.cli.__file__).resolve().parent != SRC / "srlnc":
        raise SystemExit("perfbench: imported srlnc from outside this checkout")
    return srlnc.cli


IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import srlnc.cli; "
                "print(time.perf_counter() - t0)")


def import_times(speed: HostSpeed) -> Tuple[float, float]:
    """Median scaled and raw time to import `srlnc.cli` in a fresh
    interpreter, over SETUP_REPEATS interpreters.  The in-process import
    happens once, so it gives a single, noisy sample."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        raw.append(float(proc.stdout))
        scaled.append(raw[-1] * speed.factor())
    return statistics.median(scaled), statistics.median(raw)


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "srlnc").glob("*.py")))


def do_setup(setup: Callable, seed: int, work: Path, runner: Runner,
             speed: HostSpeed) -> Tuple[List[Op], float, float]:
    """Set up SETUP_REPEATS times from the same seed; keep the last pool and
    the median scaled and raw times.  The pools must be identical."""
    scaled, raw, ops, labels = [], [], None, None
    for rep in range(SETUP_REPEATS):
        rng = random.Random(seed)
        rep_dir = work / f"setup{rep}"
        rep_dir.mkdir()
        speed.sample()
        t0 = time.perf_counter()
        ops = setup(rng, rep_dir, runner.call)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * speed.factor())
        got = [op.label for op in ops]
        if labels is not None and got != labels:
            raise RuntimeError("set-up is not deterministic for this seed")
        labels = got
    return ops, statistics.median(scaled), statistics.median(raw)


def measure(runner: Runner, ops: List[Op], seconds: float, whole_passes: bool,
            speed: HostSpeed, tracer=None) -> Tuple[List[Record], int]:
    """Closed loop over the pool until the ops' wall time reaches `seconds`.

    With `whole_passes`, stop only at the end of a pass (at least one).
    Returns the records and the number of whole passes made."""
    records: List[Record] = []
    busy = since_sample = 0.0
    i = 0
    while not (busy >= seconds and (not whole_passes or i % len(ops) == 0)):
        if since_sample >= REF_EVERY_S:
            speed.sample()
            since_sample = 0.0
        idx = i % len(ops)
        if tracer is not None:
            tracer.op_id = i
        rec = runner.run(idx, ops[idx])
        rec.scale = speed.factor()
        records.append(rec)
        busy += rec.seconds
        since_sample += rec.seconds
        i += 1
    return records, i // len(ops)


def summarize(records: List[Record]) -> dict:
    outcomes: Dict[str, int] = {}
    reasons: Dict[str, List[str]] = {}
    for r in records:
        outcomes[r.outcome] = outcomes.get(r.outcome, 0) + 1
        if r.outcome != "solved":
            labels = reasons.setdefault(r.why[:120], [])
            if r.label not in labels and len(labels) < 5:
                labels.append(r.label)
    return {"outcomes": outcomes, "reasons": reasons}


def bench_metrics() -> Tuple[Dict[str, str], Dict[str, str]]:
    """Units of the gated end-to-end and per-layer metrics, by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    speed = HostSpeed()
    t_start = time.perf_counter()
    cli = import_srlnc()
    import_s = time.perf_counter() - t_start
    e2e_units, layer_units = bench_metrics()
    signal.signal(signal.SIGALRM, _alarm)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        runner = Runner(cli)
        import_med, import_raw = import_times(speed)
        ops, setup_med, setup_raw = do_setup(WORKLOADS[name], seed, work, runner, speed)
        setup_s = import_med + setup_med
        report = {"workload": name, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "pool_ops": len(ops), "budget_s": BUDGET_S,
                  "context": {"src_srlnc_lines": src_line_count(),
                              "python": platform.python_version(),
                              "nproc": os.cpu_count(), "machine": platform.machine(),
                              "import_s_in_process": import_s}}
        phase = seconds / 2 if trace else seconds
        records, _ = measure(runner, ops, phase, False, speed)
        e2e = end_to_end(records, setup_s, scaled=True)
        report["end_to_end"] = e2e
        report["raw_end_to_end"] = end_to_end(records, import_raw + setup_raw, scaled=False)
        report["untraced"] = summarize(records)
        all_records = list(records)
        if trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
            try:
                t_records, t_passes = measure(runner, ops[:TRACE_POOL_MAX], phase, True,
                                              speed, tracer)
            finally:
                tracer.uninstall()
            snap = tracer.snapshot()
            coded = sum(n for i, n in runner.coded_edges.items() if i < TRACE_POOL_MAX)
            layers = per_layer(snap, t_passes, coded)
            traced_e2e = end_to_end(t_records, setup_s, scaled=True)
            report["traced"] = summarize(t_records)
            report["traced"]["passes"] = t_passes
            report["per_layer"] = layers
            report["tracing_overhead"] = {
                k: {"untraced": e2e[k]["value"], "traced": traced_e2e[k]["value"],
                    "difference": traced_e2e[k]["value"] - e2e[k]["value"], "unit": e2e[k]["unit"]}
                for k in e2e if k not in ("setup_s", "peak_rss_mb")}
            tracer.write_spans(str(OUT / f"spans_{name}_seed{seed}.json"))
            all_records += t_records
            # A function the pass never called has no stats: 0 calls, 0 ms.
            metrics = {n: {"value": layers[n]["value"] if n in layers else 0.0, "unit": u}
                       for n, u in layer_units.items()}
        else:
            metrics = {n: {"value": e2e[n]["value"], "unit": u} for n, u in e2e_units.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["metrics"] = metrics
    result = {"correct": not any(r.wrong for r in all_records),
              "attempted": len(all_records),
              "failed": sum(r.outcome == "failed" for r in all_records),
              "metrics": metrics}
    _print_table(report, result)
    line = json.dumps(report, sort_keys=True)
    (OUT / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    print(json.dumps(result))
    return 0


def _print_table(report: dict, result: dict) -> None:
    print(f"# {report['workload']} seed={report['seed']} pool={report['pool_ops']} ops"
          f"  srlnc lines={report['context']['src_srlnc_lines']}")
    print(f"  checked: correct={result['correct']} attempted={result['attempted']}"
          f" failed={result['failed']}")
    for k, m in report["end_to_end"].items():
        print(f"  {k:<17} {m['value']:>12.4f} {m['unit']:<6} n={m['n']}")
    for k, m in report.get("tracing_overhead", {}).items():
        print(f"  overhead {k:<13} {m['difference']:>+12.4f} {m['unit']}")


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    rc = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write("\n".join(l for l in proc.stdout.splitlines() if not l.startswith("{")) + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            rc = proc.returncode
    return rc


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
