"""Constructors for the example lattice families and the shipped figure
fixtures: Boolean lattices, products of chains, type-A root-poset ideals,
Tamari lattices by tree rotation, rational Dyck-path lattices, weak order on
the symmetric group, and lattices loaded from Galois-graph files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from importlib import resources
from itertools import permutations
from math import factorial, gcd

from .errors import InputError, SizeLimitExceeded
from .galois import GaloisGraph, lattice_from_graph
from .io import galois_from_json, lattice_from_json
from .lattice import Lattice, lattice_from_poset
from .poset import (
    DEFAULT_MAX_ELEMENTS,
    Poset,
    order_ideals,
    poset_from_relations,
)

WEAK_ORDER_CAP = 7


def antichain_poset(n: int) -> Poset:
    return poset_from_relations(n, [])


def boolean(n: int, max_elements: int = DEFAULT_MAX_ELEMENTS) -> Lattice:
    """The Boolean lattice B_n = J(antichain on n), with 2^n elements."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if 2 ** n > max_elements:
        raise SizeLimitExceeded(2 ** n, max_elements, "Boolean lattice")
    return order_ideals(antichain_poset(n), max_elements)


def product_of_chains_poset(*sizes: int) -> Poset:
    """The product poset [a] x [b] x ... (each factor a chain)."""
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("need at least one chain, all sizes >= 1")
    elems = [()]
    for s in sizes:
        elems = [e + (i,) for e in elems for i in range(s)]
    index = {e: i for i, e in enumerate(elems)}
    rels = []
    for e in elems:
        for pos in range(len(sizes)):
            if e[pos] + 1 < sizes[pos]:
                f = e[:pos] + (e[pos] + 1,) + e[pos + 1:]
                rels.append((index[e], index[f]))
    return poset_from_relations(len(elems), rels)


def chain_product(*sizes: int, max_elements: int = DEFAULT_MAX_ELEMENTS) -> Lattice:
    """J of a product of chains; for two factors [a] x [b] this has
    binomial(a+b, a) elements."""
    return order_ideals(product_of_chains_poset(*sizes), max_elements)


def root_poset_A(n: int) -> Poset:
    """Positive roots of type A_n as the staircase poset: intervals [i, j]
    with 1 <= i <= j <= n ordered by containment."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # roots sorted by height so the index order is a linear extension
    elems = sorted(((i, j) for i in range(1, n + 1) for j in range(i, n + 1)),
                   key=lambda e: (e[1] - e[0], e[0]))
    index = {e: k for k, e in enumerate(elems)}
    rels = []
    for (i, j) in elems:
        if i > 1:
            rels.append((index[(i, j)], index[(i - 1, j)]))
        if j < n:
            rels.append((index[(i, j)], index[(i, j + 1)]))
    return poset_from_relations(len(elems), rels)


def root_ideals(n: int, max_elements: int = DEFAULT_MAX_ELEMENTS) -> Lattice:
    """J of the type-A_n root poset (Catalan(n+1) elements)."""
    return order_ideals(root_poset_A(n), max_elements)


def _trees(n: int):
    """All binary trees with n internal nodes (None is a leaf), in a fixed
    deterministic order."""
    if n == 0:
        yield None
        return
    for i in range(n):
        for left in _trees(i):
            for right in _trees(n - 1 - i):
                yield (left, right)


def _rotations(t):
    """Trees obtained from t by one right rotation ((A,B),C) -> (A,(B,C))."""
    if t is None:
        return
    left, right = t
    if left is not None:
        a, b = left
        yield (a, (b, right))
    for l2 in _rotations(left):
        yield (l2, right)
    for r2 in _rotations(right):
        yield (left, r2)


def tamari(n: int, max_elements: int = DEFAULT_MAX_ELEMENTS) -> Lattice:
    """The Tamari lattice on binary trees with n internal nodes, covers
    given by single right rotations (Catalan(n) elements)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    trees = list(_trees(n))
    if len(trees) > max_elements:
        raise SizeLimitExceeded(len(trees), max_elements, "Tamari lattice")
    index = {t: i for i, t in enumerate(trees)}
    rels = []
    for t in trees:
        for t2 in _rotations(t):
            rels.append((index[t], index[t2]))
    return lattice_from_poset(poset_from_relations(len(trees), rels))


def rational_dyck_poset(a: int, b: int) -> Poset:
    """The poset of boxes of the a x b rectangle lying entirely above the
    main diagonal, for coprime a and b.  Box (row i, column j) is above the
    diagonal iff b*i >= a*(j+1); boxes are ordered so that order ideals
    correspond to the lattice paths staying above the diagonal."""
    if a < 1 or b < 1:
        raise ValueError("a and b must be >= 1")
    if gcd(a, b) != 1:
        raise ValueError("a and b must be coprime")
    # (row, -column) sorts each box after everything below it in the order
    boxes = sorted(((i, j) for i in range(a) for j in range(b)
                    if b * i >= a * (j + 1)), key=lambda e: (e[0], -e[1]))
    index = {box: k for k, box in enumerate(boxes)}
    rels = []
    for (i, j) in boxes:
        for (i2, j2) in boxes:
            if (i, j) != (i2, j2) and i <= i2 and j >= j2:
                rels.append((index[(i, j)], index[(i2, j2)]))
    return poset_from_relations(len(boxes), rels)


def rational_dyck(a: int, b: int, max_elements: int = DEFAULT_MAX_ELEMENTS) -> Lattice:
    """The distributive lattice of rational Dyck paths in the a x b
    rectangle, ordered by inclusion."""
    return order_ideals(rational_dyck_poset(a, b), max_elements)


def weak_order_S(n: int, max_elements: int = DEFAULT_MAX_ELEMENTS) -> Lattice:
    """Right weak order on the symmetric group S_n: permutations ordered by
    containment of inversion sets; covers are adjacent transpositions.
    Raises SizeLimitExceeded before building when n > WEAK_ORDER_CAP or n!
    exceeds max_elements."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > WEAK_ORDER_CAP:
        raise SizeLimitExceeded(factorial(n), WEAK_ORDER_CAP,
                                f"weak order S_{n} (cap n <= {WEAK_ORDER_CAP})")
    if factorial(n) > max_elements:
        raise SizeLimitExceeded(factorial(n), max_elements, f"weak order S_{n}")
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    covers = []
    for p in perms:
        for k in range(n - 1):
            if p[k] < p[k + 1]:
                q = p[:k] + (p[k + 1], p[k]) + p[k + 2:]
                covers.append((index[p], index[q]))
    poset = poset_from_relations(len(perms), covers)
    names = tuple("".join(str(v + 1) for v in p) for p in perms)
    return lattice_from_poset(poset, names=names)


FIXTURE_ENV = "TRIMLAT_FIXTURES"


def _fixture_dir():
    override = os.environ.get(FIXTURE_ENV)
    if override:
        return override
    return resources.files("trimlat") / "fixtures"


def fixture_manifest() -> dict:
    base = _fixture_dir()
    if isinstance(base, str):
        with open(os.path.join(base, "manifest.json"), "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads((base / "manifest.json").read_text(encoding="utf-8"))


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(fixture_manifest()))


def fixture(name: str):
    """Load a shipped figure fixture: a Lattice for Hasse-diagram fixtures,
    a GaloisGraph for graph fixtures."""
    manifest = fixture_manifest()
    if name not in manifest:
        raise InputError(f"unknown fixture {name!r}; have {', '.join(sorted(manifest))}")
    entry = manifest[name]
    base = _fixture_dir()
    if isinstance(base, str):
        with open(os.path.join(base, entry["file"]), "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    else:
        obj = json.loads((base / entry["file"]).read_text(encoding="utf-8"))
    if entry["kind"] == "lattice":
        return lattice_from_json(obj)
    if entry["kind"] == "galois":
        return galois_from_json(obj)
    raise InputError(f"fixture {name!r} has unknown kind {entry['kind']!r}")


def fixture_lattice(name: str, max_elements: int = DEFAULT_MAX_ELEMENTS) -> Lattice:
    """Like :func:`fixture`, but graph fixtures are expanded into their
    lattices of maximal orthogonal pairs."""
    obj = fixture(name)
    if isinstance(obj, GaloisGraph):
        return lattice_from_graph(obj, max_elements)[0]
    return obj


FAMILIES = (
    "boolean",
    "chain-product",
    "root-ideals",
    "tamari",
    "rational-dyck",
    "weak-order",
    "order-ideals",
    "galois-file",
    "fixture",
)


@dataclass(frozen=True)
class FamilySpec:
    """A generator invocation: family name plus integer or path parameters."""

    family: str
    params: tuple


def build_family(spec: FamilySpec, max_elements: int = DEFAULT_MAX_ELEMENTS) -> Lattice:
    """Dispatch a FamilySpec to its generator, returning a Lattice."""
    fam, params = spec.family, spec.params
    try:
        if fam == "boolean":
            (n,) = params
            return boolean(n, max_elements)
        if fam == "chain-product":
            return chain_product(*params, max_elements=max_elements)
        if fam == "root-ideals":
            (n,) = params
            return root_ideals(n, max_elements)
        if fam == "tamari":
            (n,) = params
            return tamari(n, max_elements)
        if fam == "rational-dyck":
            a, b = params
            return rational_dyck(a, b, max_elements)
        if fam == "weak-order":
            (n,) = params
            return weak_order_S(n, max_elements=max_elements)
        if fam == "order-ideals":
            (path,) = params
            from .io import load_json_path, poset_from_json

            obj = load_json_path(path)
            # J(P) has at least n + 1 ideals (the chain of its prefixes
            # along a linear extension), so refuse before building P
            n = obj.get("n") if isinstance(obj, dict) else None
            if isinstance(n, int) and n + 1 > max_elements:
                raise SizeLimitExceeded(n + 1, max_elements, "order ideals")
            return order_ideals(poset_from_json(obj), max_elements)
        if fam == "galois-file":
            (path,) = params
            from .io import load_json_path

            return lattice_from_graph(galois_from_json(load_json_path(path)),
                                      max_elements)[0]
        if fam == "fixture":
            (name,) = params
            return fixture_lattice(name, max_elements)
    except (ValueError, TypeError) as exc:
        raise InputError(f"bad parameters for family {fam!r}: {exc}") from exc
    raise InputError(f"unknown family {fam!r}; have {', '.join(FAMILIES)}")
