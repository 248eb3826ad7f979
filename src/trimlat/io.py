"""JSON and DOT serialization: posets and lattices as Hasse-diagram cover
lists, Galois graphs as 1-based edge lists, and DOT exports.  Loaders
validate eagerly and raise InputError on malformed data; those that build
a lattice or a graph import its module when called.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .errors import InputError, SizeLimitExceeded
from .poset import DEFAULT_MAX_ELEMENTS, Poset, poset_from_relations

if TYPE_CHECKING:
    from .complexes import SimpleGraph
    from .galois import GaloisGraph
    from .lattice import Lattice


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InputError(msg)


def poset_from_json(obj) -> Poset:
    """Accepts {"n": int, "covers": [[a, b], ...]} with 0-based indices.
    Arbitrary relations are tolerated and reduced.  Integers are tested by
    exact type, as JSON true and false load as bool, an int subclass."""
    _require(isinstance(obj, dict), "expected a JSON object")
    _require(type(obj.get("n")) is int and obj["n"] >= 0, "bad or missing 'n'")
    covers = obj.get("covers")
    _require(isinstance(covers, list), "bad or missing 'covers'")
    for e in covers:
        if not (isinstance(e, list) and len(e) == 2 and type(e[0]) is int
                and type(e[1]) is int):
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
    from .lattice import lattice_from_poset

    n = obj.get("n") if isinstance(obj, dict) else None
    if type(n) is int and n > max_elements:
        raise SizeLimitExceeded(n, max_elements, "lattice elements")
    return lattice_from_poset(poset_from_json(obj))


def lattice_to_json(l: Lattice) -> dict:
    return poset_to_json(l.poset)


def galois_from_json(obj, max_elements: int = DEFAULT_MAX_ELEMENTS) -> GaloisGraph:
    """Accepts {"n": int, "edges": [[i, k], ...]} with 1-based labels and
    n >= i > k >= 1, which :class:`trimlat.galois.GaloisGraph` checks.
    Raises SizeLimitExceeded before building anything when the graph's
    lattice, of at least n + 1 elements, exceeds max_elements."""
    from .galois import GaloisGraph

    _require(isinstance(obj, dict), "expected a JSON object")
    _require(type(obj.get("n")) is int and obj["n"] >= 0, "bad or missing 'n'")
    if obj["n"] + 1 > max_elements:
        raise SizeLimitExceeded(obj["n"] + 1, max_elements, "maximal orthogonal pairs")
    edges = obj.get("edges")
    _require(isinstance(edges, list), "bad or missing 'edges'")
    for e in edges:
        _require(isinstance(e, list) and len(e) == 2
                 and all(type(v) is int for v in e), f"bad edge entry {e}")
    try:
        return GaloisGraph(obj["n"], edges)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def galois_to_json(g: GaloisGraph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.sorted_edges()]}


def load_json_path(path: str):
    """Read a JSON document from a file path, or stdin when path is '-'.
    A path that is not a str (an int would open a file descriptor, and
    closing it would close that descriptor) is an InputError."""
    import sys

    _require(isinstance(path, str), f"a path must be a string, not {path!r}")
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _dot(head: str, prefix: str, nodes, edges, arrow: str) -> str:
    lines = [head, *(f'  {prefix}{v} [label="{v}"];' for v in nodes),
             *(f"  {prefix}{a} {arrow} {prefix}{b};" for a, b in edges), "}"]
    return "\n".join(lines) + "\n"


def dot_hasse(l: Lattice) -> str:
    """DOT for the Hasse diagram, bottom-up."""
    return _dot("digraph hasse {\n  rankdir=BT;", "e", range(l.n), l.covers, "->")


def dot_galois(g: GaloisGraph) -> str:
    return _dot("digraph galois {", "v", range(1, g.n + 1), g.sorted_edges(), "->")


def dot_simple(g: SimpleGraph, name: str = "graph0") -> str:
    return _dot(f"graph {name} {{", "v", range(1, g.n + 1), g.sorted_edges(), "--")
