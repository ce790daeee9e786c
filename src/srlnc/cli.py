"""Batch front-end: network files in; codes, plans, and reports out.

Every output is canonical JSON (sorted keys, two-space indent, trailing
newline), so a rerun with the same inputs and seed is byte-identical.
Exit codes: 0 ok, 2 bad input, 3 infeasible, 4 broken internal contract.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import random
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .advisor import rate_ratio_curve
from .blockcode import (
    BlockPlan,
    BlockSinkPlan,
    InfeasibleDesign,
    block_decoder_for,
    optimize_block_plan,
)
from .fields import FieldSpec
from .linalg import ContractViolation, Mat, row_times
from .multicast import (
    FieldTooSmall,
    Gem,
    LinearCode,
    RateExceedsSourceDegree,
    build_multicast,
    decode_full_rate,
    extract_gem,
    simulate,
)
from .netgraph import Network, max_flow
from .subrate import (
    ConstructionFailed,
    GemSet,
    NotFullyDecodable,
    SearchSpaceTooLarge,
    SubRatePlan,
    build_precoder,
    decoder_for,
)


# ---------------------------------------------------------------- loading

def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _check_keys(obj, required: Sequence[str], optional: Sequence[str], what: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"{what} has unknown keys: {', '.join(unknown)}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ValueError(f"{what} is missing keys: {', '.join(missing)}")


def _integer(path: str, field: str, value) -> int:
    """A JSON integer; floats, booleans and strings are rejected, not cast."""
    if type(value) is not int:
        raise ValueError(f"{path}: {field} must be an integer, got {json.dumps(value)}")
    return value


def _list(path: str, field: str, value) -> list:
    """A JSON list; an object, a string or a scalar is rejected, not iterated."""
    if not isinstance(value, list):
        raise ValueError(f"{path}: {field} must be a list, got {json.dumps(value)}")
    return value


def _integers(path: str, field: str, values) -> list:
    """A JSON list of integers, each checked as `_integer` checks a scalar."""
    for x in _list(path, field, values):
        _integer(path, field, x)
    return values


def _matrix(path: str, field: str, grid) -> list:
    """A JSON list of rows of integers."""
    if not isinstance(grid, list):
        raise ValueError(f"{path}: {field} must be a list of rows, got {json.dumps(grid)}")
    for row in grid:
        _integers(path, field, row)
    return grid


def load_network(path: str) -> Tuple[Network, List, List]:
    """Parse a network file; returns (net, full-rate sinks, sub-rate sinks)."""
    obj = _load_json(path)
    _check_keys(obj, ["field", "rate", "nodes", "edges", "source", "sinks"],
                ["subrate_sinks"], "network file")
    field = FieldSpec(_integer(path, "field", obj["field"]))
    rate = _integer(path, "rate", obj["rate"])
    nodes = _list(path, "nodes", obj["nodes"])
    edges = []
    for e in _list(path, "edges", obj["edges"]):
        if not isinstance(e, list) or len(e) != 2:
            raise ValueError(f"edge must be a [tail, head] pair: {e!r}")
        edges.append((e[0], e[1]))
    sinks = _list(path, "sinks", obj["sinks"])
    subrate_sinks = _list(path, "subrate_sinks", obj.get("subrate_sinks", []))
    both = [t for t in subrate_sinks if t in sinks]
    if both:
        raise ValueError(f"nodes listed as both sink and subrate sink: {both}")
    net = Network(nodes, edges, obj["source"], sinks + subrate_sinks, rate, field)
    return net, sinks, subrate_sinks


def code_to_obj(net: Network, code: LinearCode) -> dict:
    return {
        "p": net.field.p,
        "rate": code.rate,
        "gek": {str(e): list(v) for e, v in code.gek.items()},
        "lek": {
            str(n): {
                "in": sorted(net.in_edges[n]),
                "out": sorted(net.out_edges[n]),
                "k": code.lek[n].to_lists(),
            }
            for n in net.nodes
        },
    }


def load_code(path: str, net: Network) -> LinearCode:
    obj = _load_json(path)
    _check_keys(obj, ["p", "rate", "gek", "lek"], [], "code file")
    p = net.field.p
    r = net.rate
    if _integer(path, "p", obj["p"]) != p or _integer(path, "rate", obj["rate"]) != r:
        raise ValueError(f"code is for GF({obj['p']}) rate {obj['rate']}, "
                         f"network wants GF({p}) rate {r}")
    for table in ("gek", "lek"):
        if not isinstance(obj[table], dict):
            raise ValueError(f"{path}: {table} must be a JSON object")
    edge_ids = {str(e): e for e in range(-r, len(net.edges))}
    if set(obj["gek"]) != set(edge_ids):
        raise ValueError(f"{path}: gek keys are not exactly the network's edge ids")
    gek: Dict[int, Tuple[int, ...]] = {}
    for key, vec in obj["gek"].items():
        if len(_integers(path, f"gek.{key}", vec)) != r:
            raise ValueError(f"kernel for edge {key} has length {len(vec)}, want {r}")
        gek[edge_ids[key]] = tuple(x % p for x in vec)
    lek: Dict = {}
    for n in net.nodes:
        entry = obj["lek"].get(str(n))
        if entry is None:
            raise ValueError(f"code has no local kernel for node {n!r}")
        _check_keys(entry, ["in", "out", "k"], [], f"local kernel of {n!r}")
        ins = sorted(net.in_edges[n])
        outs = sorted(net.out_edges[n])
        if entry["in"] != ins or entry["out"] != outs:
            raise ValueError(f"local kernel of {n!r} lists different edges than the network")
        lek[n] = Mat(net.field, _matrix(path, f"lek.{n}.k", entry["k"]), cols=len(outs))
    return LinearCode(rate=r, gek=gek, lek=lek)


def load_gems(path: str) -> Tuple[GemSet, Optional[List[Tuple[int, ...]]]]:
    obj = _load_json(path)
    _check_keys(obj, ["p", "rate", "mats"], ["spanner"], "gems file")
    field = FieldSpec(_integer(path, "p", obj["p"]))
    rate = _integer(path, "rate", obj["rate"])
    mats = [Mat(field, _matrix(path, f"mats[{i}]", grid)) for i, grid in enumerate(obj["mats"])]
    gems = GemSet(mats, rate)
    spanner = None
    if "spanner" in obj:
        spanner = [tuple(_integer(path, "spanner", x) for x in v) for v in obj["spanner"]]
    return gems, spanner


# ---------------------------------------------------------------- output

def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _digest(path: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _frac_str(f) -> str:
    return f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------- plans

def _sink_obj(sp) -> dict:
    """One sink's decoders: D and R of a single-use plan, or D_hat, R_hat
    and the rate of a block plan."""
    if isinstance(sp, BlockSinkPlan):
        return {"D_hat": sp.D_hat.to_lists(), "R_hat": sp.R_hat.to_lists(),
                "decoded_indices": list(sp.decoded_indices), "rate": _frac_str(sp.rate)}
    return {"D": sp.D.to_lists(), "R": sp.R.to_lists(),
            "decoded_indices": list(sp.decoded_indices)}


def plan_to_obj(p: int, rate: int, plan: Union[SubRatePlan, BlockPlan],
                sink_entries: Optional[dict] = None) -> dict:
    if isinstance(plan, BlockPlan):
        obj = {"kind": "block", "l": plan.l, "P_hat": plan.P_hat.to_lists(),
               "spanner": [list(v) for v in plan.design.spanner],
               "blocks": [list(b) for b in plan.design.blocks]}
    else:
        obj = {"kind": "subrate", "P": plan.P.to_lists(), "i_bar": list(plan.i_bar),
               "spanner": [list(v) for v in plan.spanner]}
    obj.update(p=p, rate=rate, members=[_sink_obj(sp) for sp in plan.sinks])
    if sink_entries is not None:
        obj["sinks"] = sink_entries
    return obj


def _subrate_gems(net: Network, code: LinearCode, sinks: Sequence, subrate_sinks: Sequence
                  ) -> Tuple[GemSet, List[Gem], List[Mat]]:
    """GemSet over the sub-rate sinks plus the full-rate matrices to protect."""
    r = net.rate
    full_rate: List[Mat] = []
    for t in sinks:
        g = extract_gem(code, net, t)
        if g.matrix.cols < r:
            raise ValueError(f"sink {t!r} has max-flow below the rate; "
                             f"list it under subrate_sinks")
        full_rate.append(g.matrix)
    sub_gems: List[Gem] = []
    for t in subrate_sinks:
        g = extract_gem(code, net, t)
        if g.matrix.cols >= r:
            raise ValueError(f"subrate sink {t!r} reaches the full rate; "
                             f"list it under sinks")
        sub_gems.append(g)
    if not sub_gems:
        raise ValueError("no subrate_sinks to precode for")
    gems = GemSet([g.matrix for g in sub_gems], r)
    return gems, sub_gems, full_rate


# ---------------------------------------------------------------- commands

def _resolve_node(net: Network, name: str):
    """argv gives strings; network files may name nodes with ints."""
    for n in net.nodes:
        if str(n) == name:
            return n
    return name


def cmd_maxflow(args) -> int:
    net, _, _ = load_network(args.file)
    res = max_flow(net, _resolve_node(net, args.sink))
    obj = {"value": res.value, "paths": [list(p) for p in res.paths]}
    _emit(canonical_json(obj), args.out)
    return 0


def cmd_code(args) -> int:
    net, sinks, subrate_sinks = load_network(args.file)
    code = build_multicast(net, sinks + subrate_sinks, seed=args.seed)
    _emit(canonical_json(code_to_obj(net, code)), args.out)
    return 0


def cmd_precode(args) -> int:
    if args.block is not None and args.block < 1:
        raise ValueError(f"--block must be at least 1, got {args.block}")
    if args.gems is not None:
        gems, spanner = load_gems(args.gems)
        p = gems.field.p
        rate = gems.rate
        sub_gems = None
        full_rate: List[Mat] = []
        sink_ids = None
    else:
        if args.file is None or args.code is None:
            raise ValueError("precode needs a network file and a code file, or --gems")
        net, sinks, subrate_sinks = load_network(args.file)
        code = load_code(args.code, net)
        gems, sub_gems, full_rate = _subrate_gems(net, code, sinks, subrate_sinks)
        spanner = None
        p = net.field.p
        rate = net.rate
        sink_ids = [str(t) for t in subrate_sinks]

    try:
        plan = build_precoder(gems, full_rate=full_rate, spanner=spanner)
        same_span_decoder = decoder_for
    except NotFullyDecodable:
        if args.block is None:
            raise
        plan = optimize_block_plan(gems, l_max=args.block)
        same_span_decoder = block_decoder_for

    entries = None
    if sub_gems is not None:
        entries = {}
        for pos, g in enumerate(sub_gems):
            m = gems.source_map[pos]
            sp = (plan.sinks[m] if g.matrix == gems.mats[m]
                  else same_span_decoder(plan, m, g.matrix))
            entries[sink_ids[pos]] = {"member": m, **_sink_obj(sp)}
    _emit(canonical_json(plan_to_obj(p, rate, plan, entries)), args.out)
    return 0


def _load_plan(path: str, net: Network) -> Tuple[int, list, dict]:
    """A plan file read as the block plan over l uses that it is:
    (l, P_hat, {sink: (D_hat, R_hat, decoded_indices)}).  A subrate plan is
    the l = 1 case, its P, D and R read as P_hat, D_hat and R_hat.  P_hat
    must be square of side l * rate, every matrix entry an integer, and the
    decoded indices distinct coordinates of the l * rate block message."""
    obj = _load_json(path)
    if not isinstance(obj, dict) or obj.get("kind") not in ("subrate", "block"):
        raise ValueError('plan file must have "kind": "subrate" or "block"')
    if obj["kind"] == "subrate":
        _check_keys(obj, ["kind", "p", "rate", "P", "i_bar", "spanner", "members"],
                    ["sinks"], "plan file")
        l = 1
        precoder, dec, ret = "P", "D", "R"
    else:
        _check_keys(obj, ["kind", "p", "rate", "l", "P_hat", "spanner", "blocks",
                          "members"], ["sinks"], "plan file")
        l = _integer(path, "l", obj["l"])
        precoder, dec, ret = "P_hat", "D_hat", "R_hat"
        if l < 1:
            raise ValueError("block plan needs l >= 1")
    if _integer(path, "p", obj["p"]) != net.field.p or _integer(path, "rate", obj["rate"]) != net.rate:
        raise ValueError(f"plan is for GF({obj['p']}) rate {obj['rate']}, "
                         f"network wants GF({net.field.p}) rate {net.rate}")
    if "sinks" not in obj:
        raise ValueError("plan lacks per-sink decoders; build it from a network file")
    width = l * net.rate
    P_hat = _matrix(path, precoder, obj[precoder])
    if len(P_hat) != width or any(len(row) != width for row in P_hat):
        raise ValueError(f"{path}: {precoder} must be {width} by {width}")
    if not isinstance(obj["sinks"], dict):
        raise ValueError(f"{path}: sinks must be a JSON object")
    sinks = {}
    for t, entry in obj["sinks"].items():
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: sinks.{t} must be a JSON object")
        D_hat = _matrix(path, f"sinks.{t}.{dec}", entry.get(dec))
        R_hat = _matrix(path, f"sinks.{t}.{ret}", entry.get(ret))
        idxs = _integers(path, f"sinks.{t}.decoded_indices", entry.get("decoded_indices"))
        if len(set(idxs)) != len(idxs) or not all(0 <= j < width for j in idxs):
            raise ValueError(f"{path}: sinks.{t}.decoded_indices must be distinct "
                             f"and in range({width}), got {json.dumps(idxs)}")
        sinks[t] = (D_hat, R_hat, idxs)
    return l, P_hat, sinks


def cmd_simulate(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be at least 0, got {args.trials}")
    net, sinks, subrate_sinks = load_network(args.file)
    code = load_code(args.code, net)
    field = net.field
    r = net.rate
    if args.plan is None:
        # one use of the network, messages sent uncoded, no sub-rate decoders
        l, p_blocks, entries = 1, [None], {}
    else:
        l, P_rows, entries = _load_plan(args.plan, net)
        for t in subrate_sinks:
            if str(t) not in entries:
                raise ValueError(f"plan has no decoders for subrate sink {t!r}")
        P_hat = Mat(field, P_rows)
        p_blocks = [_diag_block(P_hat, field, bi, r) for bi in range(l)]

    full_gems = {t: extract_gem(code, net, t) for t in sinks}
    sub_gems = {t: extract_gem(code, net, t) for t in subrate_sinks}
    flows = {t: max_flow(net, t).value for t in sinks + subrate_sinks}
    failures = {t: 0 for t in sinks + subrate_sinks}
    decodable = {t: l * r if t in sinks else 0 for t in sinks + subrate_sinks}
    decoders = {}
    for t in subrate_sinks:
        if str(t) in entries:
            D_hat, R_hat, idxs = entries[str(t)]
            cols = l * sub_gems[t].matrix.cols
            decoders[t] = (Mat(field, D_hat, cols=cols), Mat(field, R_hat, cols=cols))
            decodable[t] = len(idxs)
    rng = random.Random(args.seed)
    for _ in range(args.trials):
        x_hat = tuple(rng.randrange(field.p) for _ in range(l * r))
        received = {t: [] for t in decoders}
        for bi, P in enumerate(p_blocks):
            v = x_hat[bi * r:(bi + 1) * r]
            trace = simulate(net, code, P, v)
            for t in sinks:
                g = full_gems[t]
                y = tuple(trace.edge_symbols[e] for e in g.used_edges)
                if decode_full_rate(g, P, y) != v:
                    failures[t] += 1
            for t in decoders:
                received[t].extend(trace.edge_symbols[e] for e in sub_gems[t].used_edges)
        for t, (D_hat, R_hat) in decoders.items():
            if row_times(received[t], D_hat) != row_times(x_hat, R_hat):
                failures[t] += 1

    report = {
        "command": "simulate",
        "inputs": {
            "network": _digest(args.file),
            "code": _digest(args.code),
            "plan": _digest(args.plan),
        },
        "seed": args.seed,
        "trials": args.trials,
        "outputs": [args.out] if args.out is not None else [],
        "sinks": [
            {
                "sink": str(t),
                "h": flows[t],
                "decodable": decodable[t],
                "rate": _frac_str(Fraction(decodable[t], l)),
                "failures": failures[t],
            }
            for t in sinks + subrate_sinks
        ],
    }
    _emit(canonical_json(report), args.out)
    return 0


def _diag_block(P_hat: Mat, field: FieldSpec, bi: int, r: int) -> Mat:
    rows = [P_hat.data[bi * r + i][bi * r:(bi + 1) * r] for i in range(r)]
    return Mat(field, rows, cols=r)


def cmd_rate_ratio(args) -> int:
    rows = ["num_sinks,bound_num,bound_den"]
    for n, bound in rate_ratio_curve(args.max_sinks):
        rows.append(f"{n},{bound.numerator},{bound.denominator}")
    _emit("\n".join(rows) + "\n", args.out)
    return 0


# ---------------------------------------------------------------- wiring

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built on the first `main` call and kept for the rest of the process."""
    ap = argparse.ArgumentParser(prog="srlnc",
                                 description="linear multicast codes with sub-rate precoding")
    sub = ap.add_subparsers(dest="command", required=True)

    mf = sub.add_parser("maxflow", help="edge-disjoint path count to one sink")
    mf.add_argument("file")
    mf.add_argument("sink")
    mf.add_argument("--out")
    mf.set_defaults(func=cmd_maxflow)

    co = sub.add_parser("code", help="construct a multicast code")
    co.add_argument("file")
    co.add_argument("--seed", type=int, default=0)
    co.add_argument("--out")
    co.set_defaults(func=cmd_code)

    pc = sub.add_parser("precode", help="sub-rate precoder, or block plan fallback")
    pc.add_argument("file", nargs="?")
    pc.add_argument("code", nargs="?")
    pc.add_argument("--gems", help="matrix fixture file replacing network + code")
    pc.add_argument("--block", type=int, metavar="L_MAX",
                    help="fall back to a block plan of length <= L_MAX")
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_precode)

    si = sub.add_parser("simulate", help="round-trip random messages, report per sink")
    si.add_argument("file")
    si.add_argument("code")
    si.add_argument("plan", nargs="?")
    si.add_argument("--trials", type=int, default=100)
    si.add_argument("--seed", type=int, default=0)
    si.add_argument("--out")
    si.set_defaults(func=cmd_simulate)

    rr = sub.add_parser("rate-ratio", help="sink-count vs rate-ratio bound, CSV")
    rr.add_argument("--max-sinks", type=int, required=True)
    rr.add_argument("--out")
    rr.set_defaults(func=cmd_rate_ratio)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    # looked up by name, so a command re-bound after the parser was built
    # (as the benchmark tracer re-binds them) is the one that runs
    func = globals()[args.func.__name__]
    try:
        return func(args)
    except (FieldTooSmall, RateExceedsSourceDegree, NotFullyDecodable,
            SearchSpaceTooLarge, InfeasibleDesign) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ContractViolation, ConstructionFailed) as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
