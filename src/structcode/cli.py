"""Command-line front end.

Exit codes: 0 success or checked-true, 1 checked-false or refuted,
2 usage/parse/I-O error, 3 precondition violation on valid input.
Payloads are JSON on standard output, byte-stable for fixed inputs and
seed; ``--pretty`` switches to indented rendering.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import formats
from .backforth import distinguishing_move, interval_equiv, phi_pair, phi_tuple
from .codings import (OMEGA, daisy_decode, daisy_encode, shuffle_build,
                      shuffle_decode, Block, ShuffleFragment)
from .core import (Digraph, FinLinOrder, LoopedDigraph, MalformedInputError,
                   StructError, UGraph, classify, ident_key)
from .fslin import (block_of, fs_compare, fs_element, fs_enumerate,
                    lg_certify, lg_concat_certify, mentions,
                    min_length_in_interval, shape, shape_formulas, shift_tuple)
from .interp import builtin_int_in_nat, check_interpretation, marker_interp, trivial_interp
from .marker import MarkerStreamDecoder, marker_decode, marker_encode

SCHEMA = 1


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}")


class UsageError(Exception):
    pass


def _parse(where, parse, text):
    try:
        return parse(text)
    except MalformedInputError as exc:
        # unparsable input is a usage error, not a precondition failure
        raise UsageError(f"{where}: {exc}")


def _parse_file(path, parse):
    return _parse(path, parse, _read(path))


def load_graph(path, cls=Digraph):
    """A graph file as a ``cls``: Digraph, or UGraph."""
    vertices, edges, order = _parse_file(path, formats.parse_struct_text)
    if order is not None:
        raise MalformedInputError(f"{path}: expected a graph, found an order")
    return cls(vertices, edges)


def load_struct(path):
    """A graph file becomes a digraph (loops allowed), an order file an order."""
    vertices, edges, order = _parse_file(path, formats.parse_struct_text)
    if order is not None:
        if vertices or edges:
            raise MalformedInputError(f"{path}: order files take only o lines")
        return FinLinOrder(order)
    return LoopedDigraph(vertices, edges)


def _graph_payload(g):
    if isinstance(g, UGraph):
        edges = {tuple(sorted(e, key=ident_key)) for e in g.undirected_edges()}
    else:
        edges = g.relations["E"]
    return {"schema": SCHEMA,
            "vertices": sorted(g.universe, key=ident_key),
            "edges": [list(e) for e in sorted(
                edges, key=lambda e: tuple(map(ident_key, e)))]}


def _json_arg(raw, what):
    try:
        return json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise UsageError(f"bad {what} JSON: {exc}")


def _element(g, data):
    """A malformed element is a usage error, a non-member a precondition one."""
    try:
        items = formats.element_items_from_json(data)
    except MalformedInputError as exc:
        raise UsageError(f"bad element: {exc}")
    return fs_element(g, items)


def _elem_arg(g, raw):
    return _element(g, _json_arg(raw, "element"))


def _tuple_arg(g, raw):
    data = _json_arg(raw, "tuple")
    if not isinstance(data, list):
        raise UsageError("tuple must be a JSON list of elements")
    return tuple(_element(g, d) for d in data)


def _vertex_tuple(ids):
    return tuple(formats.parse_ident(t) for t in ids.split(",") if t != "")


def _shape_payload(s):
    return {"order": list(s.order),
            "gaps": [g if g is not None else "inf" for g in s.gaps],
            "blocks": [list(b) for b in s.blocks],
            "half_lengths": list(s.half_lengths),
            "min_half": list(s.min_half)}


def _formula_payload(phi):
    kind, lvl = classify(phi)
    return {"formula": formats.formula_to_sexpr(phi), "level": f"{kind} {lvl}"}


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (exit_code, payload-or-None)


def cmd_marker(args):
    if args.action == "encode":
        code = marker_encode(load_graph(args.file))
        payload = _graph_payload(code.graph)
        if args.tags:
            payload["tags"] = {str(v): list(map(str, tag))
                               for v, tag in code.provenance.items()}
        return 0, payload
    if args.action == "decode":
        g = marker_decode(load_graph(args.file, UGraph))
        return 0, _graph_payload(g)
    # stream-decode: each stdin line is read as graph-file lines and its
    # facts fed in; decoded facts go out as they stabilize
    dec = MarkerStreamDecoder()
    for n, raw in enumerate(sys.stdin, start=1):
        vertices, edges, order = _parse(f"stdin line {n}",
                                        formats.parse_struct_text, raw)
        if order is not None:
            raise UsageError(f"stdin line {n}: o records are not facts")
        for fact in [("v", v) for v in vertices] + [("e", *e) for e in edges]:
            for out in dec.feed(fact):
                print(" ".join(str(x) for x in out), flush=True)
    return 0, None


def cmd_fs(args):
    g = load_graph(args.graph)
    if args.action == "member":
        try:
            fs_element(g, formats.element_items_from_json(
                _json_arg(args.elems[0], "element")))
        except MalformedInputError as exc:
            return 1, {"member": False, "reason": str(exc)}
        return 0, {"member": True}
    if args.action == "compare":
        c = fs_compare(_elem_arg(g, args.elems[0]), _elem_arg(g, args.elems[1]))
        return 0, {"compare": c}
    if args.action == "mentions":
        return 0, {"mentions": list(mentions(_elem_arg(g, args.elems[0])))}
    if args.action == "block":
        m, k = block_of(g, _elem_arg(g, args.elems[0]))
        return 0, {"size": m, "position": k}
    if args.action == "minlen":
        k, w = min_length_in_interval(g, _elem_arg(g, args.elems[0]),
                                      _elem_arg(g, args.elems[1]))
        return 0, {"k": k, "witness": formats.element_to_json(w)}
    if args.action == "shape":
        elems = tuple(_elem_arg(g, e) for e in args.elems)
        s = shape(g, elems)
        payload = _shape_payload(s)
        if args.formulas:
            fs = shape_formulas(s)
            payload["sigma"] = _formula_payload(fs.sigma)
            payload["pi"] = _formula_payload(fs.pi)
        return 0, payload
    if args.action == "enumerate":
        elems = fs_enumerate(g, args.half_len, args.max_exp)
        return 0, {"count": len(elems),
                   "elements": [formats.element_to_json(e) for e in elems]}
    if args.action == "shift":
        elems = tuple(_elem_arg(g, e) for e in args.elems)
        res = shift_tuple(g, elems, _elem_arg(g, args.past), side=args.side)
        return 0, {"elements": [formats.element_to_json(e) for e in res.elements],
                   "separator": formats.element_to_json(res.separator),
                   "map": {str(k): str(v) for k, v in res.map.seeds.items()}}
    t1 = _tuple_arg(g, args.tuple_a)
    t2 = _tuple_arg(g, args.tuple_b)
    if args.tuple_a2 or args.tuple_b2:
        if not (args.tuple_a2 and args.tuple_b2):
            raise UsageError("--tuple-a2 and --tuple-b2 go together")
        cert = lg_concat_certify(
            g, (t1, _tuple_arg(g, args.tuple_a2)),
            (t2, _tuple_arg(g, args.tuple_b2)), args.gamma)
    else:
        cert = lg_certify(g, t1, t2, args.gamma)
    code = 1 if cert.verdict == "Distinguished" else 0
    return code, {"verdict": cert.verdict,
                  "evidence": json.loads(json.dumps(cert.evidence, default=str))}


def cmd_bnf(args):
    if args.action == "equiv":
        a, b = load_struct(args.files[0]), load_struct(args.files[1])
        ta, tb = _vertex_tuple(args.tuple_a), _vertex_tuple(args.tuple_b)
        witness = distinguishing_move(a, ta, b, tb, args.gamma, args.bound)
        payload = {"equivalent": witness is None, "gamma": args.gamma}
        if witness is not None:
            payload["witness"] = json.loads(json.dumps(witness, default=str))
        return (0 if witness is None else 1), payload
    if args.action == "formula":
        phi = phi_tuple(load_struct(args.files[0]),
                        _vertex_tuple(args.tuple_a), args.gamma, args.bound)
        return 0, _formula_payload(phi)
    if args.action == "pair":
        a = load_struct(args.files[0])
        bound = len(a.universe) if args.bound is None else args.bound
        phi = phi_pair(a.signature, args.length, args.gamma, bound)
        return 0, _formula_payload(phi)
    a, b = load_struct(args.files[0]), load_struct(args.files[1])
    ta, tb = _vertex_tuple(args.tuple_a), _vertex_tuple(args.tuple_b)
    verdict, per = interval_equiv(a, ta, b, tb, args.gamma)
    return (0 if verdict else 1), {"equivalent": verdict, "intervals": per}


def _report(rep):
    """(exit code, payload) for an interpretation report."""
    return (0 if rep.passed else 1), {
        "passed": rep.passed,
        "classes": rep.class_count,
        "domain_size": rep.domain_size,
        "failures": json.loads(json.dumps(rep.failures, default=str)),
        "iso": None if rep.iso is None
        else {str(k): str(v) for k, v in rep.iso.items()},
        "notes": rep.notes}


def cmd_interp(args):
    if args.action == "check":
        carrier = load_struct(args.carrier)
        target = load_struct(args.target)
        spec = _parse_file(args.spec, formats.parse_interp_spec)
        return _report(check_interpretation(carrier, spec, target,
                                            args.max_arity, seed=args.seed))
    if args.action == "int":
        carrier, spec, target = builtin_int_in_nat(args.n)
        return _report(check_interpretation(carrier, spec, target, 2,
                                            seed=args.seed))
    if args.action == "trivial":
        target = load_struct(args.target)
        carrier = load_struct(args.carrier)
        return _report(trivial_interp(target, carrier)[1])
    carrier, spec, target = marker_interp(load_graph(args.graph))
    return _report(check_interpretation(carrier, spec, target, 1,
                                        seed=args.seed))


def _parse_set(raw):
    if not raw:
        return set()
    try:
        return {int(x) for x in raw.split(",") if x != ""}
    except ValueError:
        raise UsageError(f"bad number list {raw!r}")


def cmd_daisy(args):
    if args.action == "encode":
        g = daisy_encode(_parse_set(args.set), args.bound)
        return 0, _graph_payload(g)
    s, bound = daisy_decode(load_graph(args.file, UGraph))
    return 0, {"set": sorted(s), "bound": bound}


def _fragment_payload(f):
    return {"schema": SCHEMA, "labels": list(f.labels),
            "omega": f.include_omega, "resolution": f.resolution,
            "offset": f.offset, "marked": f.marked,
            "blocks": [{"point": str(b.point), "label": b.label,
                        "size": b.size, "omega_prefix": b.omega_prefix}
                       for b in f.blocks]}


def _fragment_from_text(text):
    def check(v, ok, what):
        if not ok(v):
            raise TypeError(f"{v!r} is not {what}")
        return v

    def typed(v, kind):
        return check(v, lambda x: type(x) is kind, f"a JSON {kind.__name__}")

    try:
        data = json.loads(text)
        labels = tuple(check(x, lambda x: type(x) is int and x >= 0, "a natural")
                       for x in typed(data["labels"], list))
        omega = typed(data["omega"], bool)

        def label(v):
            return type(v) is int and v in labels or omega and v == OMEGA

        blocks = tuple(Block(formats.dyadic_from_json(b["point"]),
                             check(b["label"], label, "a fragment label"),
                             typed(b["size"], int),
                             typed(b["omega_prefix"], bool))
                       for b in data["blocks"])
        return ShuffleFragment(labels, omega, typed(data["resolution"], int),
                               typed(data["offset"], int), blocks,
                               typed(data.get("marked", True), bool))
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        # ValueError covers bad JSON and malformed dyadic points,
        # RecursionError JSON nested past Python's recursion limit
        raise MalformedInputError(f"bad fragment: {exc}")


def cmd_shuffle(args):
    if args.action == "build":
        labels = sorted(_parse_set(args.labels))
        f = shuffle_build(labels, args.omega, args.resolution)
        return 0, _fragment_payload(f)
    report = shuffle_decode(_parse_file(args.file, _fragment_from_text))
    return 0, {"report": {str(n): v for n, v in report.items()}}


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="structcode",
                                description="Concrete codings between graphs, "
                                            "orders and arithmetic.")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for any sampled checks")
    p.add_argument("--pretty", action="store_true",
                   help="indent the JSON payload")
    sub = p.add_subparsers(dest="command", required=True)
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("--graph", required=True)
    gamma = argparse.ArgumentParser(add_help=False)
    gamma.add_argument("--gamma", type=int, required=True)

    m = sub.add_parser("marker", help="digraph-in-graph coding")
    ms = m.add_subparsers(dest="action", required=True)
    enc = ms.add_parser("encode")
    enc.add_argument("file")
    enc.add_argument("--tags", action="store_true",
                     help="include construction role tags")
    ms.add_parser("decode").add_argument("file")
    ms.add_parser("stream-decode")

    f = sub.add_parser("fs", help="order elements built from a digraph")
    fsub = f.add_subparsers(dest="action", required=True)
    for name, nargs in (("member", 1), ("compare", 2), ("mentions", 1),
                        ("block", 1), ("minlen", 2)):
        fsub.add_parser(name, parents=[graph]).add_argument(
            "elems", nargs=nargs, metavar="ELEM")
    sp = fsub.add_parser("shape", parents=[graph])
    sp.add_argument("--formulas", action="store_true")
    sp.add_argument("elems", nargs="+", metavar="ELEM")
    sp = fsub.add_parser("enumerate", parents=[graph])
    sp.add_argument("--half-len", type=int, default=1)
    sp.add_argument("--max-exp", type=int, default=3)
    sp = fsub.add_parser("shift", parents=[graph])
    sp.add_argument("--past", required=True, metavar="ELEM")
    sp.add_argument("--side", choices=("left", "right"), default="right")
    sp.add_argument("elems", nargs="+", metavar="ELEM")
    sp = fsub.add_parser("certify", parents=[graph, gamma])
    sp.add_argument("--tuple-a", required=True)
    sp.add_argument("--tuple-b", required=True)
    sp.add_argument("--tuple-a2")
    sp.add_argument("--tuple-b2")

    b = sub.add_parser("bnf", help="back-and-forth games and formulas")
    bs = b.add_subparsers(dest="action", required=True)
    sp = bs.add_parser("equiv", parents=[gamma])
    sp.add_argument("--bound", type=int)
    sp.add_argument("--tuple-a", default="", help="comma-separated vertex ids")
    sp.add_argument("--tuple-b", default="")
    sp.add_argument("files", nargs=2, metavar="STRUCT")
    sp = bs.add_parser("formula", parents=[gamma])
    sp.add_argument("--bound", type=int)
    sp.add_argument("--tuple-a", default="", help="comma-separated vertex ids")
    sp.add_argument("files", nargs=1, metavar="STRUCT")
    sp = bs.add_parser("pair", parents=[gamma])
    sp.add_argument("--length", type=int, required=True)
    sp.add_argument("--bound", type=int)
    sp.add_argument("files", nargs=1, metavar="STRUCT")
    sp = bs.add_parser("intervals", parents=[gamma])
    sp.add_argument("--tuple-a", default="")
    sp.add_argument("--tuple-b", default="")
    sp.add_argument("files", nargs=2, metavar="ORDER")

    i = sub.add_parser("interp", help="interpretation checking")
    isub = i.add_subparsers(dest="action", required=True)
    sp = isub.add_parser("check")
    sp.add_argument("--carrier", required=True)
    sp.add_argument("--spec", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--max-arity", type=int, required=True)
    sp = isub.add_parser("int")
    sp.add_argument("--n", type=int, required=True)
    sp = isub.add_parser("trivial")
    sp.add_argument("--target", required=True)
    sp.add_argument("--carrier", required=True)
    isub.add_parser("marker", parents=[graph])

    d = sub.add_parser("daisy", help="set-in-graph coding")
    ds = d.add_subparsers(dest="action", required=True)
    sp = ds.add_parser("encode")
    sp.add_argument("--set", default="")
    sp.add_argument("--bound", type=int, required=True)
    ds.add_parser("decode").add_argument("file")

    s = sub.add_parser("shuffle", help="dense shuffle fragments")
    ss = s.add_subparsers(dest="action", required=True)
    sp = ss.add_parser("build")
    sp.add_argument("--labels", default="")
    sp.add_argument("--omega", action="store_true")
    sp.add_argument("--resolution", type=int, required=True)
    ss.add_parser("decode").add_argument("file")

    return p


PARSER = build_parser()
HANDLERS = {"marker": cmd_marker, "fs": cmd_fs, "bnf": cmd_bnf,
            "interp": cmd_interp, "daisy": cmd_daisy, "shuffle": cmd_shuffle}


def main(argv=None):
    args = PARSER.parse_args(argv)
    try:
        code, payload = HANDLERS[args.command](args)
    except (UsageError, UnicodeDecodeError) as exc:
        # an input file or stdin that is not UTF-8 is malformed input
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except (StructError, RecursionError) as exc:
        # a formula nested past Python's recursion limit cannot be compiled,
        # evaluated or printed: a precondition failure on valid input
        print(json.dumps({"error": str(exc)}))
        return 3
    if payload is not None:
        if args.pretty:
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    return code


if __name__ == "__main__":
    sys.exit(main())
