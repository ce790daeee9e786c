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
import os
import random
import stat
import sys
from collections import Counter
from fractions import Fraction
from itertools import chain, count, repeat
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional, Sequence, Tuple

from .advisor import rate_ratio_curve
from .blockcode import (
    BlockPlan,
    BlockSinkPlan,
    SpannerRejected,
    build_block_plan,
    build_precoder,
    lift_block,
    optimize_block_plan,
)
from .fields import FieldSpec
from .linalg import ContractViolation, Mat, rank, row_times
from .multicast import (
    CodeInvalidForSink,
    FieldTooSmall,
    Gem,
    LinearCode,
    RateExceedsSourceDegree,
    build_multicast,
    extract_gem,
    simulate,
)
from .netgraph import Network, max_flow
from .subrate import GemSet, NotFullyDecodable, SearchSpaceTooLarge


# ---------------------------------------------------------------- loading

_STR = frozenset([str])
_CONSTANTS = {None: "null", True: "true", False: "false"}
_LEK_KEYS = frozenset(["in", "out", "k"])
# leaf kinds of `_check`, exact types: true and 1.0 are not integers;
# `[_JSON]` is a list whose entries the caller checks or names itself
_INT = frozenset([int])
_NODE = frozenset([int, str])
_OBJECT = frozenset([dict])
_JSON = frozenset([int, float, str, bool, type(None), list, dict])


def _load_json(path: str):
    """Syntax errors, trailing data, invalid UTF-8 and nesting too deep to
    decode all raise ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None


def _check(path: str, field, value, kind):
    """The leaves of `value`, which must have `kind`: a set of leaf types,
    or `[kind]` for a JSON list of that kind.  A leaf or a flat list is
    returned as it is.  Each list level is tested in one sweep; only a
    value that fails is walked, to name its first bad entry.  `field`
    names `value` and all it holds, or is an iterable naming each entry
    of the list `value` in turn."""
    if type(kind) is frozenset:
        if type(value) in kind:
            return value
        if kind is _OBJECT:
            raise ValueError(f"{path}: {field} must be a JSON object")
        if kind is _NODE:
            raise ValueError(f"{path}: {field}: node ids must be integers or strings, "
                             f"got {json.dumps(value)}")
        raise ValueError(f"{path}: {field} must be an integer, got {json.dumps(value)}")
    if type(value) is not list:
        raise ValueError(f"{path}: {field} must be a list, got {json.dumps(value)}")
    leaves, inner = value, kind[0]
    while type(inner) is list and all([type(x) is list for x in leaves]):
        leaves, inner = list(chain.from_iterable(leaves)), inner[0]
    if type(inner) is frozenset and inner.issuperset(map(type, leaves)):
        return leaves
    # some entry fails the sweep, so this raises
    for name, x in zip(repeat(field) if type(field) is str else field, value):
        _check(path, name, x, kind[0])


def _check_keys(path: str, obj, required: Sequence[str], optional: Sequence[str],
                what: str) -> None:
    _check(path, what, obj, _OBJECT)
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"{path}: {what} has unknown keys: {', '.join(unknown)}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ValueError(f"{path}: {what} is missing keys: {', '.join(missing)}")


def _field(path: str, key: str, value) -> FieldSpec:
    """GF(p) for a JSON integer p that is prime."""
    p = _check(path, key, value, _INT)
    try:
        return FieldSpec(p)
    except ValueError as exc:
        raise ValueError(f"{path}: {key}: {exc}") from None


def _rate_matches(path: str, obj: dict, net: Network, what: str) -> None:
    """A code or plan file's p and rate must be the network's."""
    p, r = net.field.p, net.rate
    if _check(path, "p", obj["p"], _INT) != p or _check(path, "rate", obj["rate"], _INT) != r:
        raise ValueError(f"{path}: p, rate: {what} is for GF({obj['p']}) rate {obj['rate']}, "
                         f"network wants GF({p}) rate {r}")


def _spanner(path: str, value, rate: int) -> list:
    """A gems or plan file's spanner: a list of length-`rate` integer vectors."""
    _check(path, "spanner", value, [[_INT]])
    if any(len(v) != rate for v in value):
        raise ValueError(f"{path}: spanner vectors must have length {rate}")
    return value


def load_network(path: str) -> Tuple[Network, List, List]:
    """Parse a network file; returns (net, full-rate sinks, sub-rate sinks).
    `_check` types each table whole, in the order nodes, edges, sinks,
    subrate_sinks, source, and sets test the names and sinks, so checks
    take time linear in the file."""
    obj = _load_json(path)
    _check_keys(path, obj, ["field", "rate", "nodes", "edges", "source", "sinks"],
                ["subrate_sinks"], "network file")
    field = _field(path, "field", obj["field"])
    rate = _check(path, "rate", obj["rate"], _INT)
    nodes = _check(path, "nodes", obj["nodes"], [_NODE])
    names = list(map(str, nodes))
    if len(set(names)) < len(names):
        # a Counter lists names in order of first appearance
        dup = next(name for name, count in Counter(names).items() if count > 1)
        raise ValueError(f"{path}: nodes: node ids must have distinct names, {dup!r} repeats")
    edges = _check(path, "edges", obj["edges"], [_JSON])
    bad = [i for i, e in enumerate(edges) if type(e) is not list or len(e) != 2]
    if bad:
        raise ValueError(f"{path}: edges[{bad[0]}] must be a [tail, head] pair, "
                         f"got {json.dumps(edges[bad[0]])}")
    # tails and heads alternate
    ends = _check(path, "edges", list(chain.from_iterable(edges)), [_NODE])
    sinks = _check(path, "sinks", obj["sinks"], [_NODE])
    subrate_sinks = _check(path, "subrate_sinks", obj.get("subrate_sinks", []), [_NODE])
    full = set(sinks)
    both = [t for t in subrate_sinks if t in full]
    if both:
        raise ValueError(f"{path}: subrate_sinks: nodes listed as both sink and "
                         f"subrate sink: {both}")
    source = _check(path, "source", obj["source"], _NODE)
    # `Network` checks the sinks too, but sees both lists as one
    node_set = set(nodes)
    for key, listed in (("sinks", sinks), ("subrate_sinks", subrate_sinks)):
        first: dict = {}
        for i, t in enumerate(listed):
            if t not in node_set or t == source:
                raise ValueError(f"{path}: {key}: {t!r} is not a node other than the source")
            if first.setdefault(t, i) != i:
                raise ValueError(f"{path}: {key}: {t!r} repeats")
    # checked before `Network` makes `rate` imaginary links, so a huge rate
    # fails at once; `code` would refuse it anyway
    degree = ends[::2].count(source)
    if source in node_set and rate > degree:
        raise RateExceedsSourceDegree(f"rate {rate} > source out-degree {degree}")
    try:
        net = Network(nodes, edges, source, sinks + subrate_sinks, rate, field)
    except ValueError as exc:
        # its messages start with the field at fault
        raise ValueError(f"{path}: {exc}") from None
    return net, sinks, subrate_sinks


def code_to_obj(net: Network, code: LinearCode) -> dict:
    return {
        "p": net.field.p,
        "rate": code.rate,
        "gek": {str(e): list(v) for e, v in code.gek.items()},
        "lek": {
            str(n): {
                "in": net.in_edges[n],
                "out": net.out_edges[n],
                "k": code.lek[n].to_lists(),
            }
            for n in net.nodes
        },
    }


def load_code(path: str, net: Network) -> LinearCode:
    """Parse a code file for `net` and check its kernels.  `_check` types
    all of `gek`, then all the `lek` matrices, and hands back their
    entries, which are reduced mod p only if one lies outside [0, p)."""
    obj = _load_json(path)
    _check_keys(path, obj, ["p", "rate", "gek", "lek"], [], "code file")
    _rate_matches(path, obj, net, "code")
    p, r = net.field.p, net.rate
    gek_obj = _check(path, "gek", obj["gek"], _OBJECT)
    lek_obj = _check(path, "lek", obj["lek"], _OBJECT)
    keys = list(map(str, range(-r, len(net.edges))))
    if gek_obj.keys() != set(keys):
        raise ValueError(f"{path}: gek keys are not exactly the network's edge ids")
    vecs = list(map(gek_obj.__getitem__, keys))
    flat = _check(path, (f"gek.{key}" for key in keys), vecs, [[_INT]])
    if set(map(len, vecs)) != {r}:
        key, vec = next((key, vec) for key, vec in zip(keys, vecs) if len(vec) != r)
        raise ValueError(f"{path}: gek.{key}: kernel for edge {key} has length "
                         f"{len(vec)}, want {r}")
    if min(flat) < 0 or max(flat) >= p:
        vecs = [[x % p for x in vec] for vec in vecs]
    gek = dict(zip(range(-r, len(net.edges)), map(tuple, vecs)))
    entries = list(map(lek_obj.get, map(str, net.nodes)))
    ins = list(map(net.in_edges.__getitem__, net.nodes))
    outs = list(map(net.out_edges.__getitem__, net.nodes))
    ok = all([type(entry) is dict and entry.keys() == _LEK_KEYS for entry in entries])
    if ok:
        lists = [entry["in"] for entry in entries] + [entry["out"] for entry in entries]
        # == alone would take 1.0 or true for the edge id 1
        ok = lists == ins + outs and _INT.issuperset(map(type, chain.from_iterable(lists)))
    if not ok:
        for n, entry, i, o in zip(net.nodes, entries, ins, outs):
            if entry is None:
                raise ValueError(f"{path}: lek: code has no local kernel for node {n!r}")
            _check_keys(path, entry, ["in", "out", "k"], [], f"lek.{n}")
            if (entry["in"] != i or entry["out"] != o
                    or not _INT.issuperset(map(type, entry["in"] + entry["out"]))):
                raise ValueError(f"{path}: lek.{n}: local kernel of {n!r} lists different "
                                 f"edges than the network")
    ks = [entry["k"] for entry in entries]
    flat = _check(path, (f"lek.{n}.k" for n in net.nodes), ks, [[[_INT]]])
    if (list(map(len, ks)) != list(map(len, ins))
            or not all([len(row) == len(o) for k, o in zip(ks, outs) for row in k])):
        n, i, o = next((n, i, o) for n, k, i, o in zip(net.nodes, ks, ins, outs)
                       if len(k) != len(i) or any(len(row) != len(o) for row in k))
        raise ValueError(f"{path}: lek.{n}.k must have {len(i)} rows, one per "
                         f"input, of {len(o)} entries, one per output")
    if len(lek_obj) != len(entries):
        extra = min(set(lek_obj) - {str(n) for n in net.nodes})
        raise ValueError(f"{path}: lek.{extra}: code has a local kernel for {extra!r}, "
                         f"which is not a node")
    if min(flat, default=0) < 0 or max(flat, default=0) >= p:
        ks = [[[x % p for x in row] for row in k] for k in ks]
    # every entry's type and every shape are checked above
    lek = {n: Mat._of(net.field, tuple(map(tuple, k)), len(o))
           for n, k, o in zip(net.nodes, ks, outs)}
    code = LinearCode(rate=r, gek=gek, lek=lek)
    _check_consistent(net, code)
    return code


def _check_consistent(net: Network, code: LinearCode) -> None:
    """Sent the r unit rows, every edge e must carry its global kernel f_e:
    by induction over the topological order, exactly when every local
    kernel maps its inputs' global kernels to its outputs'.  Names the
    first edge that differs, in `simulate`'s order.  Only a loaded code
    needs it: `build_multicast` makes consistent ones."""
    sym = simulate(net, code, Mat.identity(net.field, code.rate).data)
    bad = next((e for e, s in sym.items() if s != code.gek[e]), None)
    if bad is not None:
        raise ContractViolation(f"encoding kernels inconsistent at edge {bad}")


def load_gems(path: str) -> Tuple[GemSet, Optional[List[Tuple[int, ...]]]]:
    """Parse a gems file: (member set, the supplied spanner or None)."""
    obj = _load_json(path)
    _check_keys(path, obj, ["p", "rate", "mats"], ["spanner"], "gems file")
    field = _field(path, "p", obj["p"])
    rate = _check(path, "rate", obj["rate"], _INT)
    grids = _check(path, "mats", obj["mats"], [_JSON])
    _check(path, (f"mats[{i}]" for i in count()), grids, [[[_INT]]])
    try:
        gems = GemSet([Mat(field, grid) for grid in grids], rate)
    except ValueError as exc:
        raise ValueError(f"{path}: mats: {exc}") from None
    spanner = None
    if "spanner" in obj:
        spanner = [tuple(v) for v in _spanner(path, obj["spanner"], rate)]
    return gems, spanner


# ---------------------------------------------------------------- output

def canonical_json(obj) -> str:
    """The bytes of json.dumps(obj, sort_keys=True, indent=2) + newline,
    for dicts with str keys, lists, tuples, str, int, bool and None; any
    other value raises TypeError."""
    return _json(obj, "\n") + "\n"


def _json(obj, nl: str) -> str:
    """`obj` encoded as by `canonical_json`, its nested lines starting `nl`."""
    t = type(obj)
    if t is int:
        return int.__repr__(obj)
    if t is str:
        return encode_basestring_ascii(obj)
    inner = nl + "  "
    if t is list or t is tuple:
        items = [_json(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + nl + "]" if obj else "[]"
    if t is dict:
        if not _STR.issuperset(map(type, obj)):
            raise TypeError("canonical_json: dict keys must be str")
        items = [encode_basestring_ascii(k) + ": " + _json(obj[k], inner) for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + nl + "}" if obj else "{}"
    if t is bool or obj is None:
        return _CONSTANTS[obj]
    raise TypeError(f"canonical_json: {t.__name__} is not JSON serializable")


def _emit(text: str, out: Optional[str]) -> None:
    """Write `text` to stdout, or to the file `out` in place and then cut to
    length.  Opening an existing file with O_TRUNC would make ext4 start
    writeback on close (its auto_da_alloc heuristic), about ten times the
    cost of the write itself.  Not atomic: a process killed between the
    write and the cut leaves the new text followed by the old tail, which
    every loader refuses.  Pipes and devices such as /dev/null are written
    only; they cannot be cut."""
    if out is None:
        sys.stdout.write(text)
        return
    with os.fdopen(os.open(out, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            os.ftruncate(fh.fileno(), fh.tell())


def _digest(path: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _frac_str(f) -> str:
    return f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------- plans

def _sink_obj(plan: BlockPlan, sp: BlockSinkPlan) -> dict:
    """One sink's decoders: D and R of a single-use plan, or D_hat, R_hat
    and the rate of a block plan."""
    if plan.i_bar is not None:
        return {"D": sp.D_hat.to_lists(), "R": sp.R_hat.to_lists(),
                "decoded_indices": list(sp.decoded_indices)}
    return {"D_hat": sp.D_hat.to_lists(), "R_hat": sp.R_hat.to_lists(),
            "decoded_indices": list(sp.decoded_indices), "rate": _frac_str(sp.rate)}


def plan_to_obj(plan: BlockPlan, sink_entries: Optional[dict] = None) -> dict:
    """A single-use plan (one with `i_bar`) is written as "kind": "subrate",
    its P_hat as P; any other as "kind": "block".  p and the rate are read
    off P_hat, which is l * rate square."""
    if plan.i_bar is not None:
        obj = {"kind": "subrate", "P": plan.P_hat.to_lists(), "i_bar": list(plan.i_bar)}
    else:
        obj = {"kind": "block", "l": plan.l, "P_hat": plan.P_hat.to_lists(),
               "blocks": [list(b) for b in plan.design.blocks]}
    obj.update(p=plan.P_hat.field.p, rate=plan.P_hat.rows // plan.l,
               spanner=[list(v) for v in plan.design.spanner],
               members=[_sink_obj(plan, sp) for sp in plan.sinks])
    if sink_entries is not None:
        obj["sinks"] = sink_entries
    return obj


def _sink_gems(path: str, code_path: str, net: Network, code: LinearCode, sinks: Sequence,
               subrate_sinks: Sequence) -> Dict[object, Gem]:
    """Each sink's gem; a sink must reach the rate, a subrate sink must not.
    Errors name the network file `path`, or the code file for a starved sink."""
    gems = {}
    full = set(sinks)
    for t in sinks + subrate_sinks:
        try:
            gems[t] = extract_gem(code, net, t)
        except CodeInvalidForSink as exc:
            raise ValueError(f"{code_path}: {exc}") from None
        if t in full and gems[t].matrix.cols < net.rate:
            raise ValueError(f"{path}: sinks: sink {t!r} has max-flow below the rate; "
                             f"list it under subrate_sinks")
        if t not in full and gems[t].matrix.cols >= net.rate:
            raise ValueError(f"{path}: subrate_sinks: subrate sink {t!r} reaches the full "
                             f"rate; list it under sinks")
    return gems


# ---------------------------------------------------------------- commands

def _resolve_node(net: Network, name: str):
    """argv gives strings; network files may name nodes with ints."""
    return next((n for n in net.nodes if str(n) == name), name)


def cmd_maxflow(args) -> int:
    net, _, _ = load_network(args.file)
    t = _resolve_node(net, args.sink)
    if t not in net.nodes or t == net.source:
        raise ValueError(f"{args.file}: sink argument {args.sink!r} is not a node "
                         f"other than the source")
    res = max_flow(net, t)
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
        if args.file is not None or args.code is not None:
            raise ValueError("precode takes a network file and a code file, or --gems, "
                             "not both")
        gems, spanner = load_gems(args.gems)
        sub_gems = None
    else:
        if args.file is None or args.code is None:
            raise ValueError("precode needs a network file and a code file, or --gems")
        net, sinks, subrate_sinks = load_network(args.file)
        code = load_code(args.code, net)
        gem_of = _sink_gems(args.file, args.code, net, code, sinks, subrate_sinks)
        if not subrate_sinks:
            raise ValueError(f"{args.file}: subrate_sinks: no subrate sinks to precode for")
        for t in subrate_sinks:
            if gem_of[t].h == 0:
                raise ValueError(f"{args.file}: subrate_sinks: subrate sink {t!r} has "
                                 f"max-flow 0 and can decode nothing")
        # node ids have distinct names, so no two sinks share a key
        sub_gems = {str(t): gem_of[t] for t in subrate_sinks}
        gems = GemSet([g.matrix for g in sub_gems.values()], net.rate)
        spanner = None

    try:
        plan = build_precoder(gems, spanner=spanner)
    except NotFullyDecodable:
        if args.block is None:
            raise
        plan = optimize_block_plan(gems, l_max=args.block)
    except SpannerRejected as exc:
        raise ValueError(f"{args.gems}: spanner: {exc}") from None

    entries = None
    if sub_gems is not None:
        entries = {}
        for pos, (t, g) in enumerate(sub_gems.items()):
            m = gems.source_map[pos]
            # a sink whose span duplicates member m in another basis gets its
            # own decoders from the same design, whose P_b depend on nothing
            # else: the same P_hat and decoded coordinates, its own D_hat
            sp = (plan.sinks[m] if g.matrix == gems.mats[m]
                  else build_block_plan(GemSet([g.matrix], net.rate), plan.design).sinks[0])
            entries[t] = {"member": m, **_sink_obj(plan, sp)}
    _emit(canonical_json(plan_to_obj(plan, entries)), args.out)
    return 0


def _load_plan(path: str, net: Network, widths: Dict[str, int]) -> Tuple[int, Mat, dict]:
    """A plan file read as the block plan over l uses that it is:
    (l, P_hat, {sink: (D_hat, R_hat, decoded_indices)}) for the sinks named
    in `widths`, which maps each to its h.  A subrate plan is the l = 1
    case, its P, D and R read as P_hat, D_hat and R_hat.

    `_check` types each table as `precode` writes it: integer matrices,
    a `spanner` of length-rate integer vectors (`_spanner`), an `i_bar`
    of integers or `blocks` of integer lists.  P_hat must be invertible,
    of side l * rate; each entry of `members` and of `sinks` holding the
    decoder keys `precode` writes, a sink entry also its member, an index
    into `members`; the decoded indices distinct coordinates of the
    l * rate block message; D_hat (l * h) by (l * h) and R_hat (l * rate)
    by (l * h), with the unit vectors of the decoded indices, in order,
    as its nonzero columns."""
    obj = _load_json(path)
    if not isinstance(obj, dict) or obj.get("kind") not in ("subrate", "block"):
        raise ValueError(f'{path}: kind: plan file must have "kind": "subrate" or "block"')
    if obj["kind"] == "subrate":
        _check_keys(path, obj, ["kind", "p", "rate", "P", "i_bar", "spanner", "members"],
                    ["sinks"], "plan file")
        l = 1
        precoder, dec, ret = "P", "D", "R"
        entry_keys = ["member", "D", "R", "decoded_indices"]
    else:
        _check_keys(path, obj, ["kind", "p", "rate", "l", "P_hat", "spanner", "blocks",
                                "members"], ["sinks"], "plan file")
        l = _check(path, "l", obj["l"], _INT)
        precoder, dec, ret = "P_hat", "D_hat", "R_hat"
        entry_keys = ["member", "D_hat", "R_hat", "decoded_indices", "rate"]
        if l < 1:
            raise ValueError(f"{path}: l: block plan needs l >= 1")
    field = net.field
    _rate_matches(path, obj, net, "plan")
    if "sinks" not in obj:
        raise ValueError(f"{path}: sinks: plan lacks per-sink decoders; "
                         f"build it from a network file")
    _spanner(path, obj["spanner"], net.rate)
    if obj["kind"] == "subrate":
        _check(path, "i_bar", obj["i_bar"], [_INT])
    else:
        blocks = _check(path, "blocks", obj["blocks"], [_JSON])
        _check(path, (f"blocks[{i}]" for i in count()), blocks, [[_INT]])
    for i, member in enumerate(_check(path, "members", obj["members"], [_JSON])):
        # a sink entry's keys but "member"
        _check_keys(path, member, entry_keys[1:], [], f"members[{i}]")
    width = l * net.rate
    P_rows = obj[precoder]
    _check(path, precoder, P_rows, [[_INT]])
    if len(P_rows) != width or any(len(row) != width for row in P_rows):
        raise ValueError(f"{path}: {precoder} must be {width} by {width}")
    P_hat = Mat(field, P_rows)
    if rank(P_hat) < width:
        raise ValueError(f"{path}: {precoder} must be invertible")
    _check(path, "sinks", obj["sinks"], _OBJECT)
    members = len(obj["members"])
    sinks = {}
    for t, entry in obj["sinks"].items():
        _check_keys(path, entry, entry_keys, [], f"sinks.{t}")
        if not 0 <= _check(path, f"sinks.{t}.member", entry["member"], _INT) < members:
            raise ValueError(f"{path}: sinks.{t}.member must be in range({members}), "
                             f"got {entry['member']}")
        D_rows, R_rows, idxs = entry[dec], entry[ret], entry["decoded_indices"]
        _check(path, f"sinks.{t}.{dec}", D_rows, [[_INT]])
        _check(path, f"sinks.{t}.{ret}", R_rows, [[_INT]])
        _check(path, f"sinks.{t}.decoded_indices", idxs, [_INT])
        if len(set(idxs)) != len(idxs) or not all(0 <= j < width for j in idxs):
            raise ValueError(f"{path}: sinks.{t}.decoded_indices must be distinct "
                             f"and in range({width}), got {json.dumps(idxs)}")
        if t not in widths:
            continue
        cols = l * widths[t]
        if len(D_rows) != cols or any(len(row) != cols for row in D_rows):
            raise ValueError(f"{path}: sinks.{t}.{dec} must be {cols} by {cols}")
        if len(R_rows) != width or any(len(row) != cols for row in R_rows):
            raise ValueError(f"{path}: sinks.{t}.{ret} must be {width} by {cols}")
        R_hat = Mat(field, R_rows, cols=cols)
        units = [tuple(int(i == j) for i in range(width)) for j in idxs]
        if [c for c in R_hat.columns() if any(c)] != units:
            raise ValueError(f"{path}: the nonzero columns of sinks.{t}.{ret} must be the "
                             f"unit vectors of sinks.{t}.decoded_indices, in order")
        sinks[t] = (Mat(field, D_rows, cols=cols), R_hat, idxs)
    return l, P_hat, sinks


def _count_failures(l: int, P_hat: Mat, gems: Dict[object, Gem],
                    decoders: Dict[object, Tuple[Mat, Mat]], trials: int,
                    seed: int) -> Dict[object, int]:
    """Per weak sink of `decoders`, how many of `trials` random block
    messages x_hat, drawn from random.Random(seed), fail y @ D_hat = x_hat @
    R_hat on the symbols y the sink receives.  `load_code` checked that every
    edge e carries x @ f_e, so y = x_hat @ P_hat @ lift(B_t) and the check is
    x_hat @ M_t = x_hat @ R_hat for M_t = P_hat @ lift(B_t) @ D_hat.  A sink
    with M_t = R_hat never fails, and messages are drawn only if some sink
    can fail, so the cost grows with `trials` only for sinks that fail."""
    failing = {}
    for t, (D_hat, R_hat) in decoders.items():
        M = P_hat @ lift_block(gems[t].matrix, l) @ D_hat
        if M != R_hat:
            failing[t] = (M, R_hat)
    failures = dict.fromkeys(decoders, 0)
    if failing:
        rng = random.Random(seed)
        p, width = P_hat.field.p, P_hat.rows
        for _ in range(trials):
            x_hat = tuple(rng.randrange(p) for _ in range(width))
            for t, (M, R_hat) in failing.items():
                if row_times(x_hat, M) != row_times(x_hat, R_hat):
                    failures[t] += 1
    return failures


def cmd_simulate(args) -> int:
    """Count per sink how many of --trials random block messages x_hat,
    each sent as x = x_hat @ P_hat over l uses of the network, the sink
    would fail to decode as y @ D_hat = x_hat @ R_hat.  The count is exact,
    and costs no work per message for a sink that cannot fail.  A
    full-rate sink decodes the whole block and costs nothing: its B_t is r
    by r of rank r and P_hat is invertible, so D_hat = (P_hat @ lift(B_t))^-1
    and R_hat = I give M_t = R_hat, and it never fails."""
    if args.trials < 0:
        raise ValueError(f"--trials must be at least 0, got {args.trials}")
    net, sinks, subrate_sinks = load_network(args.file)
    code = load_code(args.code, net)
    r = net.rate
    gems = _sink_gems(args.file, args.code, net, code, sinks, subrate_sinks)
    if args.plan is None:
        # one use of the network, messages sent uncoded, no sub-rate decoders
        l, P_hat, entries = 1, Mat.identity(net.field, r), {}
    else:
        widths = {str(t): gems[t].matrix.cols for t in subrate_sinks}
        l, P_hat, entries = _load_plan(args.plan, net, widths)
        # a subrate sink with max-flow 0 decodes nothing, so it needs no entry
        for t in subrate_sinks:
            if str(t) not in entries and gems[t].h:
                raise ValueError(f"{args.plan}: sinks: plan has no decoders for "
                                 f"subrate sink {t!r}")
    decoders = {}
    decodable = {**dict.fromkeys(sinks, l * r), **dict.fromkeys(subrate_sinks, 0)}
    for t in subrate_sinks:
        if str(t) in entries:
            D_hat, R_hat, idxs = entries[str(t)]
            decoders[t] = (D_hat, R_hat)
            decodable[t] = len(idxs)
    failures = _count_failures(l, P_hat, gems, decoders, args.trials, args.seed)

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
                "h": gems[t].h,
                "decodable": decodable[t],
                "rate": _frac_str(Fraction(decodable[t], l)),
                "failures": failures.get(t, 0),
            }
            for t in sinks + subrate_sinks
        ],
    }
    _emit(canonical_json(report), args.out)
    return 0


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
    except (FieldTooSmall, RateExceedsSourceDegree, NotFullyDecodable, SearchSpaceTooLarge) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
