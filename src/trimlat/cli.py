"""Command-line front end.

Verbs: gen, check, galois, rowmotion, complex, verify-figures, export.
Lattices travel between commands as Hasse-diagram JSON on stdin/stdout, so
invocations compose:  trimlat gen boolean 2 | trimlat check --all -

Exit codes: 0 ok, 1 assertion/figure mismatch, 2 input error, 3 size cap.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import InputError, SizeLimitExceeded, TrimlatError
from .generators import FAMILIES, STRING_FAMILIES
from .poset import DEFAULT_MAX_ELEMENTS

# Each verb imports what it needs when it runs: `gen` of an integer family
# loads no lattice module, and no verb reads meet/join tables, so none
# loads numpy.


def _load_lattice(args):
    from .io import lattice_from_json, load_json_path

    return lattice_from_json(load_json_path(args.path), args.max_elements)


def _emit(obj, as_json: bool, human: str) -> None:
    if as_json:
        print(json.dumps(obj, sort_keys=True))
    else:
        print(human)


def _labelling_for(l):
    """Left-modular labelling for trim input, semidistributive labelling
    otherwise; the label poset is only available in the trim case."""
    from .labelling import left_modular_labelling, semidistributive_labelling
    from .lattice import is_semidistributive, is_trim

    if is_trim(l):
        return left_modular_labelling(l)
    if is_semidistributive(l):
        return semidistributive_labelling(l).gamma_j
    raise InputError("rowmotion needs a trim or semidistributive lattice")


def cmd_gen(args) -> int:
    from .generators import FamilySpec, family_order
    from .io import poset_to_json

    params = tuple(args.params)
    if args.family not in STRING_FAMILIES:
        try:
            params = tuple(map(int, params))
        except ValueError as exc:
            raise InputError(f"bad parameters for family {args.family!r}: {exc}") from exc
    order = family_order(FamilySpec(args.family, params), args.max_elements)
    print(json.dumps(poset_to_json(order.poset), sort_keys=True))
    return 0


def _property_matrix(l) -> dict:
    from .galois import _fmt_set, first_non_overlapping_cover
    from .lattice import (is_distributive, is_extremal, is_left_modular_lattice,
                          is_semidistributive, length)

    semi, semi_wit = is_semidistributive(l, witness=True)
    dist, dist_wit = is_distributive(l, witness=True)
    ext = is_extremal(l)
    non_overlap = first_non_overlapping_cover(l) if ext else None
    trim = ext and non_overlap is None
    # trim is extremal and left modular
    lm = trim if ext else is_left_modular_lattice(l) is not None
    out = {
        "elements": l.n,
        "length": length(l),
        "join_irreducibles": len(l.join_irr),
        "meet_irreducibles": len(l.meet_irr),
        "distributive": dist,
        "extremal": ext,
        "left_modular": lm,
        "semidistributive": semi,
        "trim": trim,
    }
    witness = {}
    if not dist:
        x, y, z = dist_wit
        witness["distributive"] = f"triple x={x}, y={y}, z={z}"
    if not semi:
        side, x, y, z = semi_wit
        witness["semidistributive"] = f"{side} cancellation fails at x={x}, y={y}, z={z}"
    if not ext:
        witness["extremal"] = (f"length {out['length']} vs {out['join_irreducibles']} "
                               f"join- and {out['meet_irreducibles']} meet-irreducibles")
    if not lm:
        witness["left_modular"] = "no maximal chain of left-modular elements"
    if non_overlap is not None:
        y, z, ym, zj = non_overlap
        witness["trim"] = (f"non-overlapping cover {y} -> {z}: "
                           f"{_fmt_set(ym)} ∩ {_fmt_set(zj)} = ∅")
    elif not ext:
        witness["trim"] = "not extremal"
    out["witness"] = witness
    return out


def cmd_check(args) -> int:
    from .lattice import length

    l = _load_lattice(args)
    if not args.all:
        ln = length(l)
        _emit({"elements": l.n, "length": ln, "lattice": True},
              args.json, f"ok: lattice with {l.n} elements, length {ln}")
        return 0
    m = _property_matrix(l)
    if args.json:
        print(json.dumps(m, sort_keys=True))
        return 0
    print(f"elements: {m['elements']}")
    print(f"length: {m['length']}")
    for key in ("distributive", "extremal", "left_modular", "semidistributive", "trim"):
        line = f"{key.replace('_', '-')}: {'true' if m[key] else 'false'}"
        if key in m["witness"]:
            line += f"  ({m['witness'][key]})"
        print(line)
    return 0


def cmd_galois(args) -> int:
    from .galois import galois_graph, index_irreducibles

    l = _load_lattice(args)
    idx = index_irreducibles(l)
    g = galois_graph(l, idx)
    # one label's edges at a time, as a chain has n^2/2 of them; the JSON is
    # json.dumps(io.galois_to_json(g), sort_keys=True)
    head, sep, tail = ("[{}, ", ", ", "]") if args.json else ("{}->", " ", "")
    write, lead = sys.stdout.write, ""
    write('{"edges": [' if args.json else f"vertices: {g.n}\nedges: ")
    for i, ks in g.edge_rows():
        if ks:
            pre = head.format(i)
            write(lead + sep.join([pre + k + tail for k in map(str, ks)]))
            lead = sep
    if args.json:
        print(f'], "n": {g.n}}}')
        return 0
    print()
    print("join-irreducibles: " + " ".join(
        f"j{i + 1}={idx.j[i]}" for i in range(idx.n)))
    print("meet-irreducibles: " + " ".join(
        f"m{i + 1}={idx.m[i]}" for i in range(idx.n)))
    return 0


def cmd_rowmotion(args) -> int:
    from .rowmotion import rowmotion_global

    l = _load_lattice(args)
    labelling = _labelling_for(l)
    if args.trace:
        return _run_trace(l, labelling, args)
    row = rowmotion_global(l, labelling)
    if args.order and not args.orbits:
        _emit({"order": row.order}, args.json, f"order={row.order}")
        return 0
    payload = {"cycle_type": list(row.cycle_type), "order": row.order}
    human = f"cycle_type=[{','.join(map(str, row.cycle_type))}] order={row.order}"
    if args.orbits and not args.json:
        human += "\n" + "\n".join(
            "orbit: " + " ".join(map(str, cyc)) for cyc in row.cycles)
    _emit(payload, args.json, human)
    return 0


def _run_trace(l, labelling, args) -> int:
    from .rowmotion import slow_trace

    if args.element is None or args.ext is None:
        raise InputError("trace needs --element and --ext")
    try:
        ext = tuple(int(t) for t in args.ext.split(",")) if args.ext else ()
    except ValueError as exc:
        raise InputError(f"bad --ext list: {args.ext}") from exc
    if not (0 <= args.element < l.n):
        raise InputError(f"element {args.element} out of range")
    steps = slow_trace(l, labelling, ext, args.element)
    if args.json:
        print(json.dumps({"start": args.element,
                          "steps": [[lab, el] for lab, el in steps]}))
        return 0
    cur = args.element
    print(f"start: {cur}")
    for lab, el in steps:
        note = "stay" if el == cur else f"walk to {el}"
        print(f"flip {lab}: {note}")
        cur = el
    print(f"end: {cur}")
    return 0


def cmd_complex(args) -> int:
    from .complexes import (complement_check, independence_complex, independent_sets,
                            is_flag, undirected)
    from .galois import _fmt_set, galois_graph

    l = _load_lattice(args)
    comp = independence_complex(l)
    g = galois_graph(l)
    ind = independent_sets(undirected(g), args.max_elements)
    faces = sorted(sorted(f) for f in comp.faces)
    payload = {
        "faces": faces,
        "flag": is_flag(comp),
        "complement_partition": complement_check(l),
        "independent_sets": len(ind),
        "elements": l.n,
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(f"faces ({len(faces)}): " + " ".join(_fmt_set(f) for f in faces))
    print(f"flag: {str(payload['flag']).lower()}")
    print(f"complement-partition: {str(payload['complement_partition']).lower()}")
    print(f"independent-sets: {payload['independent_sets']} (elements: {l.n})")
    return 0


def cmd_verify_figures(args) -> int:
    from .figures import verify_figures

    results = verify_figures()
    bad = 0
    for name, failures in results:
        if failures:
            bad += 1
            print(f"FAIL {name}: " + "; ".join(failures))
        else:
            print(f"PASS {name}")
    print(f"{len(results) - bad}/{len(results)} figure checks passed")
    return 1 if bad else 0


def cmd_export(args) -> int:
    from .complexes import SimpleGraph, canonical_join_graph, independence_complex
    from .galois import galois_graph
    from .io import dot_galois, dot_hasse, dot_simple

    l = _load_lattice(args)
    if args.dot == "hasse":
        sys.stdout.write(dot_hasse(l))
    elif args.dot == "galois":
        sys.stdout.write(dot_galois(galois_graph(l)))
    elif args.dot == "indep":
        comp = independence_complex(l)
        g = SimpleGraph(len(l.join_irr), comp.skeleton_edges())
        sys.stdout.write(dot_simple(g, "independence"))
    elif args.dot == "cjg":
        sys.stdout.write(dot_simple(canonical_join_graph(l), "canonical_join"))
    return 0


def _add_common(p: argparse.ArgumentParser, suppress: bool) -> None:
    # the flags are accepted both before and after the verb; the subparser
    # copies use SUPPRESS so an omitted flag keeps the top-level value
    defaults = (argparse.SUPPRESS,) * 2 if suppress else (DEFAULT_MAX_ELEMENTS, False)
    p.add_argument("--max-elements", type=int, default=defaults[0],
                   help="element cap for enumerations and JSON input (default 100000)")
    p.add_argument("--json", action="store_true", default=defaults[1],
                   help="machine-readable JSON output")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="trimlat",
        description="Exact toolkit for trim lattices, Galois graphs, and rowmotion.")
    _add_common(ap, suppress=False)
    sub = ap.add_subparsers(dest="verb", required=True)

    def add_parser(name, **kw):
        p = sub.add_parser(name, **kw)
        _add_common(p, suppress=True)
        return p

    p = add_parser("gen", help="generate a family lattice as JSON")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("params", nargs="*", help="family parameters (ints, path, or name)")
    p.set_defaults(func=cmd_gen)

    p = add_parser("check", help="validate a lattice and report its properties")
    p.add_argument("path", nargs="?", default="-")
    p.add_argument("--all", action="store_true", help="full property matrix")
    p.set_defaults(func=cmd_check)

    p = add_parser("galois", help="Galois graph and irreducible indexing")
    p.add_argument("path", nargs="?", default="-")
    p.set_defaults(func=cmd_galois)

    p = add_parser("rowmotion", help="rowmotion orbits, order, or trace")
    p.add_argument("path", nargs="?", default="-")
    p.add_argument("--orbits", action="store_true", help="print the orbits")
    p.add_argument("--order", action="store_true", help="print only the order")
    p.add_argument("--trace", action="store_true", help="slow-motion walk of one element")
    p.add_argument("--element", type=int, default=None)
    p.add_argument("--ext", type=str, default=None, help="comma-separated label order")
    p.set_defaults(func=cmd_rowmotion)

    p = add_parser("complex", help="independence complex of a trim lattice")
    p.add_argument("path", nargs="?", default="-")
    p.set_defaults(func=cmd_complex)

    p = add_parser("verify-figures", help="replay all figure assertions")
    p.set_defaults(func=cmd_verify_figures)

    p = add_parser("export", help="DOT export")
    p.add_argument("path", nargs="?", default="-")
    p.add_argument("--dot", choices=("hasse", "galois", "indep", "cjg"), required=True)
    p.set_defaults(func=cmd_export)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except SizeLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, TrimlatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
