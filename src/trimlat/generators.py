"""Constructors for the example lattice families and the shipped figure
fixtures: Boolean lattices, products of chains, type-A root-poset ideals,
Tamari lattices by tree rotation, rational Dyck-path lattices, weak order on
the symmetric group, and lattices loaded from Galois-graph files.
Each family produces its order once (:func:`family_order`), and ``gen``
prints it without loading numpy.
"""

from __future__ import annotations

import json
import os
from itertools import permutations, product
from math import comb, factorial, gcd, prod
from typing import TYPE_CHECKING, NamedTuple

from .errors import InputError, SizeLimitExceeded
from .poset import (
    DEFAULT_MAX_ELEMENTS,
    Poset,
    ideal_poset,
    order_ideals,
    poset_from_relations,
)

if TYPE_CHECKING:
    from .lattice import Lattice

WEAK_ORDER_CAP = 7
# a refused count past this many bits is named by its closed form, uncomputed
EXACT_COUNT_BITS = 64


def antichain_poset(n: int) -> Poset:
    return poset_from_relations(n, [])


def boolean(n: int, max_elements: int = DEFAULT_MAX_ELEMENTS) -> Lattice:
    """The Boolean lattice B_n = J(antichain on n), with 2^n elements."""
    return order_ideals(_boolean_poset(n, max_elements), max_elements)


def _boolean_poset(n: int, max_elements: int) -> Poset:
    """The antichain on n, refused when 2^n exceeds max_elements."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n >= max_elements.bit_length():  # 2^n > max_elements, decided on n
        raise SizeLimitExceeded(2 ** n if n < EXACT_COUNT_BITS else f"2^{n}",
                                max_elements, "Boolean lattice")
    return antichain_poset(n)


def _chain_product_size(*sizes: int) -> int:
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("need at least one chain, all sizes >= 1")
    return prod(sizes)


def product_of_chains_poset(*sizes: int) -> Poset:
    """The product poset [a] x [b] x ... (each factor a chain)."""
    _chain_product_size(*sizes)
    elems = list(product(*map(range, sizes)))
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
    return order_ideals(_family_poset("chain-product", sizes, max_elements), max_elements)


def _root_poset_size(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    return n * (n + 1) // 2


def root_poset_A(n: int) -> Poset:
    """Positive roots of type A_n as the staircase poset: intervals [i, j]
    with 1 <= i <= j <= n ordered by containment."""
    _root_poset_size(n)
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
    return order_ideals(_family_poset("root-ideals", (n,), max_elements), max_elements)


def _trees(n: int) -> list:
    """All binary trees with n internal nodes (None is a leaf), in a fixed
    deterministic order: by left subtree size, then left, then right.  The
    trees of each smaller size are built once and shared as subtrees."""
    by_size = [[None]]
    for k in range(1, n + 1):
        by_size.append([(l, r) for i in range(k) for l in by_size[i] for r in by_size[k - 1 - i]])
    return by_size[n]


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
    return _tamari(n, max_elements).lattice()


def _tamari(n: int, max_elements: int) -> FamilyOrder:
    if n < 1:
        raise ValueError("n must be >= 1")
    # 2^(n-1) <= Catalan(n) < 2^(2n): a large n is refused uncomputed
    if 2 * n > EXACT_COUNT_BITS and n - 1 >= max_elements.bit_length():
        raise SizeLimitExceeded(f"Catalan({n})", max_elements, "Tamari lattice")
    catalan = comb(2 * n, n) // (n + 1)  # the number of trees, refused before they are built
    if catalan > max_elements:
        raise SizeLimitExceeded(catalan, max_elements, "Tamari lattice")
    trees = _trees(n)
    index = {t: i for i, t in enumerate(trees)}
    rels = [(index[t], index[t2]) for t in trees for t2 in _rotations(t)]
    return FamilyOrder(poset_from_relations(len(trees), rels))


def _rational_dyck_size(a: int, b: int) -> int:
    if a < 1 or b < 1:
        raise ValueError("a and b must be >= 1")
    if gcd(a, b) != 1:
        raise ValueError("a and b must be coprime")
    return (a - 1) * (b - 1) // 2  # half the boxes that the diagonal misses


def rational_dyck_poset(a: int, b: int) -> Poset:
    """The poset of boxes of the a x b rectangle lying entirely above the
    main diagonal, for coprime a and b.  Box (row i, column j) is above the
    diagonal iff b*i >= a*(j+1); boxes are ordered so that order ideals
    correspond to the lattice paths staying above the diagonal.

    (i, j) <= (i2, j2) iff i <= i2 and j >= j2.  The boxes above the
    diagonal are an up-set of that grid order, so the steps to (i+1, j) and
    (i, j-1) stay among them and generate the order."""
    _rational_dyck_size(a, b)
    # (row, -column) sorts each box after everything below it in the order
    boxes = sorted(((i, j) for i in range(a) for j in range(b)
                    if b * i >= a * (j + 1)), key=lambda e: (e[0], -e[1]))
    index = {box: k for k, box in enumerate(boxes)}
    rels = [(index[box], index[nb]) for box in boxes
            for nb in ((box[0] + 1, box[1]), (box[0], box[1] - 1)) if nb in index]
    return poset_from_relations(len(boxes), rels)


def rational_dyck(a: int, b: int, max_elements: int = DEFAULT_MAX_ELEMENTS) -> Lattice:
    """The distributive lattice of rational Dyck paths in the a x b
    rectangle, ordered by inclusion."""
    return order_ideals(_family_poset("rational-dyck", (a, b), max_elements), max_elements)


# per family J(P): the builder of P, and |P|, which checks the parameters
_IDEAL_FAMILIES = {
    "chain-product": (product_of_chains_poset, _chain_product_size),
    "root-ideals": (root_poset_A, _root_poset_size),
    "rational-dyck": (rational_dyck_poset, _rational_dyck_size),
}


def _family_poset(fam: str, params, max_elements: int) -> Poset:
    """The poset P of the family J(P), refused before it is built when its
    ideals pass the cap: first by their least number, |P| + 1 (a linear
    extension's prefixes), then by their number, C(a+b, a) / over."""
    build, poset_size = _IDEAL_FAMILIES[fam]
    size = poset_size(*params)
    if size + 1 > max_elements:
        raise SizeLimitExceeded(size + 1, max_elements, f"{fam} ideals")
    if fam == "root-ideals":  # Catalan(n+1) = C(2n+2, n+1) / (n+2)
        a = b = params[0] + 1
        over, form = a + 1, f"Catalan({a})"
    elif len(params) > 2:  # three or more chain factors: the walk checks the cap
        return build(*params)
    else:  # J([a] x [b]), with [a] = [a] x [1]; rational Dyck paths: / (a+b)
        a, b = (*params, 1)[:2]
        over = a + b if fam == "rational-dyck" else 1
        form = f"C({a + b},{a})" + f"/{over}" * (over > 1)
    # 2^min(a,b) <= C(a+b, a) < 2^(a+b): a large count is refused uncomputed
    if a + b > EXACT_COUNT_BITS and min(a, b) - over.bit_length() >= max_elements.bit_length():
        raise SizeLimitExceeded(form, max_elements, f"{fam} ideals")
    count = comb(a + b, a) // over
    if count > max_elements:
        raise SizeLimitExceeded(count, max_elements, f"{fam} ideals")
    return build(*params)


def weak_order_S(n: int, max_elements: int = DEFAULT_MAX_ELEMENTS) -> Lattice:
    """Right weak order on the symmetric group S_n: permutations ordered by
    containment of inversion sets; covers are adjacent transpositions.
    Element i is the i-th permutation of range(n) in lexicographic order.
    Raises SizeLimitExceeded before building when n > WEAK_ORDER_CAP or n!
    exceeds max_elements."""
    return _weak_order(n, max_elements).lattice()


def _weak_order(n: int, max_elements: int) -> FamilyOrder:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > WEAK_ORDER_CAP:  # a cap on n, so n is the count it refuses
        raise SizeLimitExceeded(n, WEAK_ORDER_CAP, f"weak order S_{n} (cap n <= {WEAK_ORDER_CAP})")
    if factorial(n) > max_elements:
        raise SizeLimitExceeded(factorial(n), max_elements, f"weak order S_{n}")
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    covers = [(index[p], index[p[:k] + (p[k + 1], p[k]) + p[k + 2:]])
              for p in perms for k in range(n - 1) if p[k] < p[k + 1]]
    return FamilyOrder(poset_from_relations(len(perms), covers))


FIXTURE_ENV = "TRIMLAT_FIXTURES"


def _fixture_path(file: str):
    """A file of the fixture directory (TRIMLAT_FIXTURES, if set)."""
    override = os.environ.get(FIXTURE_ENV)
    if override:
        from pathlib import Path

        return Path(override) / file
    from importlib import resources

    return resources.files("trimlat") / "fixtures" / file


def _fixture_json(file: str):
    path = _fixture_path(file)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise InputError(f"cannot read fixture file {path}: {exc}") from exc


def fixture_manifest() -> dict:
    manifest = _fixture_json("manifest.json")
    if not isinstance(manifest, dict):
        raise InputError(f"fixture manifest {_fixture_path('manifest.json')} is not a JSON object")
    return manifest


def fixture(name: str):
    """Load a shipped figure fixture: a Lattice for Hasse-diagram fixtures,
    a GaloisGraph for graph fixtures."""
    from .io import galois_from_json, lattice_from_json

    manifest = fixture_manifest()
    if name not in manifest:
        raise InputError(f"unknown fixture {name!r}; have {', '.join(sorted(manifest))}")
    entry = manifest[name]
    kind = entry.get("kind") if isinstance(entry, dict) else None
    file = entry.get("file") if isinstance(entry, dict) else None
    if kind not in ("lattice", "galois") or not isinstance(file, str):
        raise InputError(f"fixture manifest {_fixture_path('manifest.json')}: entry {name!r} "
                         f"needs a \"file\" string and a \"kind\" (lattice or galois)")
    obj = _fixture_json(file)
    return lattice_from_json(obj) if kind == "lattice" else galois_from_json(obj)


def fixture_lattice(name: str, max_elements: int = DEFAULT_MAX_ELEMENTS) -> Lattice:
    """Like :func:`fixture`, but graph fixtures are expanded into their
    lattices of maximal orthogonal pairs."""
    from .galois import GaloisGraph, lattice_from_graph

    obj = fixture(name)
    if isinstance(obj, GaloisGraph):
        return lattice_from_graph(obj, max_elements)[0]
    return obj


FAMILIES = ("boolean", "chain-product", "root-ideals", "tamari", "rational-dyck",
            "weak-order", "order-ideals", "galois-file", "fixture")
# the families whose one parameter is a string (a path or a fixture name);
# every other family takes integers
STRING_FAMILIES = ("order-ideals", "galois-file", "fixture")


class FamilySpec(NamedTuple):
    """A generator invocation: family name plus integer or path parameters."""

    family: str
    params: tuple


class FamilyOrder(NamedTuple):
    """A family's order, before it is read as a lattice.  The order ideals
    of a poset form a lattice by construction, numbered by size from the
    empty ideal to the whole poset; every other order is validated."""

    poset: Poset
    ideals: bool = False

    def lattice(self) -> Lattice:
        from .lattice import Lattice, lattice_from_poset

        if self.ideals:
            return Lattice(self.poset, 0, self.poset.n - 1)
        return lattice_from_poset(self.poset)


def _ideals(q: Poset, max_elements: int) -> FamilyOrder:
    return FamilyOrder(ideal_poset(q, max_elements)[1], ideals=True)


def family_order(spec: FamilySpec,
                 max_elements: int = DEFAULT_MAX_ELEMENTS) -> FamilyOrder | Lattice:
    """Dispatch a FamilySpec to its generator.  The integer families and
    order-ideals give their order; galois-file and fixture give their
    lattice, which reading them builds."""
    fam, params = spec.family, spec.params
    try:
        if fam == "boolean":
            (n,) = params
            return _ideals(_boolean_poset(n, max_elements), max_elements)
        if fam in _IDEAL_FAMILIES:
            return _ideals(_family_poset(fam, params, max_elements), max_elements)
        if fam == "tamari":
            (n,) = params
            return _tamari(n, max_elements)
        if fam == "weak-order":
            (n,) = params
            return _weak_order(n, max_elements)
        if fam == "order-ideals":
            (path,) = params
            from .io import load_json_path, poset_from_json

            obj = load_json_path(path)
            # J(P) has at least n + 1 ideals, so refuse before building P; a JSON
            # boolean loads as a bool, an int subclass, and is no count
            n = obj.get("n") if isinstance(obj, dict) else None
            if type(n) is int and n + 1 > max_elements:
                raise SizeLimitExceeded(n + 1, max_elements, "order ideals")
            return _ideals(poset_from_json(obj), max_elements)
        if fam == "galois-file":
            (path,) = params
            from .galois import lattice_from_graph
            from .io import galois_from_json, load_json_path

            return lattice_from_graph(galois_from_json(load_json_path(path), max_elements),
                                      max_elements)[0]
        if fam == "fixture":
            (name,) = params
            return fixture_lattice(name, max_elements)
    except (ValueError, TypeError) as exc:
        raise InputError(f"bad parameters for family {fam!r}: {exc}") from exc
    raise InputError(f"unknown family {fam!r}; have {', '.join(FAMILIES)}")


def build_family(spec: FamilySpec, max_elements: int = DEFAULT_MAX_ELEMENTS) -> Lattice:
    """Dispatch a FamilySpec to its generator, returning a Lattice."""
    got = family_order(spec, max_elements)
    return got.lattice() if isinstance(got, FamilyOrder) else got
