"""Independent checks of the CLI's outputs, in plain integer arithmetic.

Each function returns None when the output is right and a one-line reason
when it is not.  Nothing here imports `srlnc`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from gf import block_diag, columns, from_columns, matmul, rank, span_key, unit


def _is_invertible(p: int, m: List[List[int]]) -> bool:
    return len(m) > 0 and all(len(row) == len(m) for row in m) and rank(p, m) == len(m)


def check_code(net: dict, code: dict) -> Optional[str]:
    """Kernel consistency: every edge's global kernel is its node's local
    combination of the incoming kernels, and imaginary links are units."""
    p, r = net["field"], net["rate"]
    if code["p"] != p or code["rate"] != r:
        return "code field or rate differs from the network"
    gek = {int(e): tuple(v) for e, v in code["gek"].items()}
    for j in range(r):
        if gek.get(-(j + 1)) != unit(r, j):
            return f"imaginary link {-(j + 1)} is not e_{j}"
    ins: Dict[int, List[int]] = {n: [] for n in net["nodes"]}
    outs: Dict[int, List[int]] = {n: [] for n in net["nodes"]}
    for e, (t, h) in enumerate(net["edges"]):
        outs[t].append(e)
        ins[h].append(e)
    ins[net["source"]] = list(range(-r, 0))
    for n in net["nodes"]:
        entry = code["lek"][str(n)]
        if entry["in"] != sorted(ins[n]) or entry["out"] != sorted(outs[n]):
            return f"local kernel of node {n} lists the wrong edges"
        k = entry["k"]
        for jc, e in enumerate(entry["out"]):
            want = tuple(sum(k[ji][jc] * gek[d][i] for ji, d in enumerate(entry["in"])) % p
                         for i in range(r))
            if gek.get(e) != want:
                return f"edge {e} kernel disagrees with its node's local kernel"
    return None


def sink_matrix(net: dict, code: dict, t: int, h: int) -> List[List[int]]:
    """B_t: the first h rank-raising incoming kernels by ascending edge id,
    the same selection the CLI documents for a sink's decoding matrix."""
    p, r = net["field"], net["rate"]
    gek = {int(e): tuple(v) for e, v in code["gek"].items()}
    picked: List[tuple] = []
    for e, (_, head) in enumerate(net["edges"]):
        if head == t and len(picked) < h and rank(p, picked + [gek[e]]) > len(picked):
            picked.append(gek[e])
    return from_columns(picked, r)


def check_subrate_member(p: int, r: int, P, B, D, R, idxs) -> Optional[str]:
    h = len(B[0])
    if len(idxs) != h or len(set(idxs)) != h or not all(0 <= i < r for i in idxs):
        return f"decoded indices {idxs} are not {h} distinct message positions"
    if not _is_invertible(p, D):
        return "D is not an invertible h x h matrix"
    if matmul(p, matmul(p, P, B), D) != R:
        return "P.B.D != R"
    if columns(R) != [unit(r, i) for i in idxs]:
        return "R is not the identity columns of the decoded indices"
    return None


def check_block_member(p: int, r: int, l: int, P_hat, B, D_hat, R_hat, idxs,
                       rate: str) -> Optional[str]:
    if len(set(idxs)) != len(idxs) or not all(0 <= i < l * r for i in idxs):
        return f"decoded indices {idxs} are not distinct block positions"
    if matmul(p, matmul(p, P_hat, block_diag([B] * l)), D_hat) != R_hat:
        return "P_hat.lift(B).D_hat != R_hat"
    # R_hat keeps, per block, the decoded identity columns followed by zero
    # columns, so compare its nonzero columns against the decoded indices.
    nonzero = [c for c in columns(R_hat) if any(c)]
    if nonzero != [unit(l * r, i) for i in idxs]:
        return "R_hat's nonzero columns are not the decoded identity columns"
    if Fraction(rate) != Fraction(len(idxs), l):
        return f"rate {rate} is not {len(idxs)}/{l}"
    return None


def _diagonal_blocks(P_hat, r: int, l: int):
    return [[row[b * r:(b + 1) * r] for row in P_hat[b * r:(b + 1) * r]] for b in range(l)]


def check_plan_for_network(net: dict, code: dict, plan: dict,
                           flows: Dict[int, int]) -> Optional[str]:
    """Per-sink decoders of a plan built from a network file.

    Full-rate sinks must keep rank r under P (under every diagonal block of
    P_hat for a block plan); each sub-rate sink's entry must satisfy its
    decoding contract for B_t rebuilt from the code.
    """
    p, r = net["field"], net["rate"]
    if plan["p"] != p or plan["rate"] != r:
        return "plan field or rate differs from the network"
    if sorted(plan["sinks"]) != sorted(str(t) for t in net["subrate_sinks"]):
        return "plan does not list exactly the network's sub-rate sinks"
    if plan["kind"] == "subrate":
        l, P = 1, plan["P"]
        blocks = [P]
    else:
        l, P = plan["l"], plan["P_hat"]
        if not _is_invertible(p, P) or len(P) != l * r:
            return "P_hat is not an invertible lr x lr matrix"
        blocks = _diagonal_blocks(P, r, l)
        if block_diag(blocks) != P:
            return "P_hat is not block diagonal"
    for blk in blocks:
        if not _is_invertible(p, blk) or len(blk) != r:
            return "precoder block is not an invertible r x r matrix"
    for t in net["sinks"]:
        B = sink_matrix(net, code, t, r)
        if any(rank(p, columns(matmul(p, blk, B))) != r for blk in blocks):
            return f"full-rate sink {t} loses rank under the precoder"
    for t in net["subrate_sinks"]:
        h = min(flows[t], r)
        B = sink_matrix(net, code, t, h)
        e = plan["sinks"][str(t)]
        if plan["kind"] == "subrate":
            why = check_subrate_member(p, r, P, B, e["D"], e["R"], e["decoded_indices"])
        else:
            why = check_block_member(p, r, l, P, B, e["D_hat"], e["R_hat"],
                                     e["decoded_indices"], e["rate"])
        if why:
            return f"sink {t}: {why}"
    return None


def distinct_members(p: int, mats: Sequence[List[List[int]]]) -> List[List[List[int]]]:
    """The member matrices a GemSet keeps: first of each distinct column span."""
    seen, kept = set(), []
    for m in mats:
        key = span_key(p, columns(m))
        if key not in seen:
            seen.add(key)
            kept.append(m)
    return kept


def check_gems_plan(gems: dict, plan: dict) -> Optional[str]:
    """A `precode --gems` output: members parallel to the distinct spans."""
    p, r = gems["p"], gems["rate"]
    mats = distinct_members(p, gems["mats"])
    if plan["p"] != p or plan["rate"] != r or len(plan["members"]) != len(mats):
        return "plan does not match the fixture's field, rate or member count"
    if plan["kind"] == "subrate":
        if not _is_invertible(p, plan["P"]) or len(plan["P"]) != r:
            return "P is not an invertible r x r matrix"
        for i, (B, m) in enumerate(zip(mats, plan["members"])):
            why = check_subrate_member(p, r, plan["P"], B, m["D"], m["R"], m["decoded_indices"])
            if why:
                return f"member {i}: {why}"
        return None
    l, P_hat = plan["l"], plan["P_hat"]
    if len(P_hat) != l * r or not _is_invertible(p, P_hat):
        return "P_hat is not an invertible lr x lr matrix"
    for i, (B, m) in enumerate(zip(mats, plan["members"])):
        why = check_block_member(p, r, l, P_hat, B, m["D_hat"], m["R_hat"],
                                 m["decoded_indices"], m["rate"])
        if why:
            return f"member {i}: {why}"
    return None


def check_report(net: dict, report: dict, trials: int) -> Optional[str]:
    """A `simulate` report: every sink listed once, with zero failures."""
    want = sorted(str(t) for t in net["sinks"] + net["subrate_sinks"])
    got = sorted(s["sink"] for s in report["sinks"])
    if report["trials"] != trials or got != want:
        return "report does not cover every sink for the requested trials"
    bad = [s["sink"] for s in report["sinks"] if s["failures"]]
    if bad:
        return f"decoding failures at sinks {bad}"
    return None
