"""JSON and DOT serialization: posets and lattices as Hasse-diagram cover
lists, Galois graphs as 1-based edge lists, labelled diagrams, and DOT
exports.  Loaders validate eagerly and raise InputError on malformed data.
"""

from __future__ import annotations

import json

from .complexes import SimpleGraph
from .errors import InputError, SizeLimitExceeded
from .galois import GaloisGraph
from .lattice import Lattice, lattice_from_poset
from .poset import DEFAULT_MAX_ELEMENTS, Poset, poset_from_relations


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InputError(msg)


def poset_from_json(obj) -> Poset:
    """Accepts {"n": int, "covers": [[a, b], ...]} with 0-based indices.
    Arbitrary relations are tolerated and reduced."""
    _require(isinstance(obj, dict), "expected a JSON object")
    _require(isinstance(obj.get("n"), int) and obj["n"] >= 0, "bad or missing 'n'")
    covers = obj.get("covers")
    _require(isinstance(covers, list), "bad or missing 'covers'")
    for e in covers:
        if not (isinstance(e, list) and len(e) == 2 and isinstance(e[0], int)
                and isinstance(e[1], int)):
            raise InputError(f"bad cover entry {e}")
    try:
        return poset_from_relations(obj["n"], covers)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def poset_to_json(p: Poset) -> dict:
    return {"n": p.n, "covers": [list(c) for c in p.covers]}


def lattice_from_json(obj, max_elements: int = DEFAULT_MAX_ELEMENTS) -> Lattice:
    """Same wire format as posets; additionally validates the lattice
    axioms (unique meets and joins).  Raises SizeLimitExceeded before
    building anything when 'n' exceeds max_elements."""
    n = obj.get("n") if isinstance(obj, dict) else None
    if isinstance(n, int) and n > max_elements:
        raise SizeLimitExceeded(n, max_elements, "lattice elements")
    return lattice_from_poset(poset_from_json(obj))


def lattice_to_json(l: Lattice) -> dict:
    return poset_to_json(l.poset)


def galois_from_json(obj) -> GaloisGraph:
    """Accepts {"n": int, "edges": [[i, k], ...]} with 1-based labels and
    i > k enforced."""
    _require(isinstance(obj, dict), "expected a JSON object")
    _require(isinstance(obj.get("n"), int) and obj["n"] >= 0, "bad or missing 'n'")
    edges = obj.get("edges")
    _require(isinstance(edges, list), "bad or missing 'edges'")
    out = set()
    for e in edges:
        _require(isinstance(e, list) and len(e) == 2
                 and all(isinstance(v, int) for v in e), f"bad edge entry {e}")
        i, k = e
        _require(1 <= k < i <= obj["n"], f"edge {i}->{k} must have n >= i > k >= 1")
        out.add((i, k))
    return GaloisGraph(obj["n"], frozenset(out))


def galois_to_json(g: GaloisGraph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.sorted_edges()]}


def labelled_from_json(obj) -> tuple[Lattice, dict]:
    """Accepts {"n": int, "covers": [[a, b, label], ...]}; the covers must
    already be a Hasse diagram of a lattice."""
    _require(isinstance(obj, dict), "expected a JSON object")
    covers = obj.get("covers")
    _require(isinstance(covers, list), "bad or missing 'covers'")
    bare = {"n": obj.get("n"), "covers": [[e[0], e[1]] for e in covers
                                          if isinstance(e, list) and len(e) == 3]}
    _require(len(bare["covers"]) == len(covers), "each cover needs [a, b, label]")
    lat = lattice_from_json(bare)
    labels = {(e[0], e[1]): e[2] for e in covers}
    _require(set(labels) == set(lat.covers),
             "labelled covers are not the Hasse diagram of the lattice")
    return lat, labels


def labelled_to_json(l: Lattice, labelling) -> dict:
    from .labelling import _label_dict

    labels = _label_dict(labelling)
    return {
        "n": l.n,
        "covers": [[a, b, labels[(a, b)]] for a, b in l.covers],
    }


def load_json_path(path: str):
    """Read a JSON document from a file path, or stdin when path is '-'."""
    import sys

    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def dot_hasse(l: Lattice) -> str:
    """DOT for the Hasse diagram, bottom-up."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for x in range(l.n):
        lines.append(f'  e{x} [label="{l.name_of(x)}"];')
    for a, b in l.covers:
        lines.append(f"  e{a} -> e{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_galois(g: GaloisGraph) -> str:
    lines = ["digraph galois {"]
    for v in range(1, g.n + 1):
        lines.append(f'  v{v} [label="{v}"];')
    for i, k in g.sorted_edges():
        lines.append(f"  v{i} -> v{k};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_simple(g: SimpleGraph, name: str = "graph0") -> str:
    lines = [f"graph {name} {{"]
    for v in range(1, g.n + 1):
        lines.append(f'  v{v} [label="{v}"];')
    for a, b in sorted(g.edges):
        lines.append(f"  v{a} -- v{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
