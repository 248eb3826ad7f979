"""Independent references that the benchmark checks trimlat's outputs against.

Closed-form family sizes, known rowmotion orders, brute-force counts for the
seeded random inputs, oracles for the structural predicates that use other
algorithms than the library's, and re-checks of failure witnesses against the
meet/join tables.  Nothing here imports trimlat; the oracles only read a
lattice's tables and cover lists.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod

import numpy as np


class Mismatch(Exception):
    """An output disagrees with its reference."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise Mismatch(msg)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def rational_catalan(a: int, b: int) -> int:
    return comb(a + b, a) // (a + b)


def chain_product_size(*sizes: int) -> int:
    """Order ideals of a product of chains: a binomial for two factors,
    MacMahon's box formula for three."""
    if len(sizes) == 2:
        return comb(sizes[0] + sizes[1], sizes[0])
    a, b, c = sizes
    return int(prod(Fraction(i + j + k - 1, i + j + k - 2)
                    for i in range(1, a + 1) for j in range(1, b + 1)
                    for k in range(1, c + 1)))


FAMILY_SIZE = {
    "tamari": catalan,
    "boolean": lambda n: 2 ** n,
    "weak_order_S": factorial,
    "root_ideals": lambda n: catalan(n + 1),
    "chain_product": chain_product_size,
    "rational_dyck": rational_catalan,
}

# Rowmotion orders: 2n on Tamari (Kreweras complementation), 2 on Boolean
# lattices, 2(n+1) on type-A root ideals, a+b on J([a]x[b]), a+b-1 on
# rational Dyck lattices with a >= 3, and 9 = (m+1)h on the 2-Cambrian
# figure fixture.
ROWMOTION_ORDER = {
    "tamari": lambda n: 2 * n,
    "boolean": lambda n: 2,
    "root_ideals": lambda n: 2 * (n + 1),
    "chain_product": lambda a, b: a + b,
    "rational_dyck": lambda a, b: a + b - 1,
    "fig9_2cambrian": lambda: 9,
}


# --- seeded random inputs ---------------------------------------------------

def random_galois_edges(rng, vertices: int, edges: int) -> tuple:
    """`edges` distinct arrows i -> k with i > k on labels 1..vertices."""
    pairs = [(i, k) for i in range(2, vertices + 1) for k in range(1, i)]
    return tuple(sorted(rng.sample(pairs, edges)))


def count_max_orth_pairs(vertices: int, edges) -> int:
    """Brute force over all label sets X: X is the first half of a maximal
    orthogonal pair iff completing X to Y and Y back to X returns X."""
    full = (1 << vertices) - 1
    out = [0] * vertices
    inn = [0] * vertices
    for i, k in edges:
        out[i - 1] |= 1 << (k - 1)
        inn[k - 1] |= 1 << (i - 1)
    reach_out = [0] * (1 << vertices)
    reach_in = [0] * (1 << vertices)
    for s in range(1, 1 << vertices):
        low = (s & -s).bit_length() - 1
        reach_out[s] = reach_out[s & (s - 1)] | out[low]
        reach_in[s] = reach_in[s & (s - 1)] | inn[low]
    count = 0
    for x in range(1 << vertices):
        y = full & ~(x | reach_out[x])
        if full & ~(y | reach_in[y]) == x:
            count += 1
    return count


def random_poset_relations(rng, size: int, relations: int) -> tuple:
    """`relations` distinct relations a < b with a < b as integers, so the
    labelling is natural."""
    pairs = [(a, b) for b in range(size) for a in range(b)]
    return tuple(sorted(rng.sample(pairs, relations)))


def count_ideals(size: int, relations) -> int:
    """Down-closed subsets of a naturally labelled poset, counted by a
    depth-first search over the elements in label order."""
    below = [0] * size
    for a, b in relations:
        below[b] |= 1 << a
    return _count_down_sets(below, None)


def _count_down_sets(below, stop) -> int:
    """Count subsets S with below[i] a subset of S for each i in S; `below`
    must be indexed in a linear extension.  Stops early past `stop`."""
    count = 0
    stack = [(0, 0)]
    while stack:
        i, chosen = stack.pop()
        if i == len(below):
            count += 1
            if stop is not None and count > stop:
                return count
            continue
        stack.append((i + 1, chosen))
        if below[i] & ~chosen == 0:
            stack.append((i + 1, chosen | (1 << i)))
    return count


def random_linear_extension(rng, poset) -> tuple:
    """A uniformly chosen minimal element at each step; labels are 1-based
    (label i is poset element i - 1)."""
    remaining = (1 << poset.n) - 1
    out = []
    while remaining:
        mins = [x for x in range(poset.n) if (remaining >> x) & 1
                and poset.down_mask(x) & remaining == 1 << x]
        x = rng.choice(mins)
        out.append(x + 1)
        remaining ^= 1 << x
    return tuple(out)


# --- oracles read from the tables ------------------------------------------

def leq_matrix(lat) -> np.ndarray:
    meet = np.asarray(lat.meet)
    return meet == np.arange(lat.n)[:, None]


def lattice_length(lat) -> int:
    """Longest bottom-to-top chain, by dynamic programming over the covers
    in order of down-set size."""
    leq = leq_matrix(lat)
    order = np.argsort(leq.sum(axis=0), kind="stable")
    height = [0] * lat.n
    for v in order:
        for w in lat.upper_covers(int(v)):
            height[w] = max(height[w], height[v] + 1)
    return height[lat.top]


def is_semidistributive_ref(lat) -> bool:
    """kappa(j) = max{x : x >= j_*, x not >= j} exists for every
    join-irreducible j, and dually for every meet-irreducible
    (Freese-Jezek-Nation, Free Lattices, Thm 2.56)."""
    leq = leq_matrix(lat)
    for j in lat.join_irr:
        (lo,) = lat.lower_covers(j)
        k = leq[lo] & ~leq[j]
        if not leq[np.ix_(k, k)].all(axis=0).any():
            return False
    for m in lat.meet_irr:
        (hi,) = lat.upper_covers(m)
        k = leq[:, hi] & ~leq[:, m]
        if not leq[np.ix_(k, k)].all(axis=1).any():
            return False
    return True


def is_distributive_ref(lat) -> bool:
    """Birkhoff: x -> {join-irreducibles below x} is always injective into
    the order ideals of the join-irreducible poset, and onto exactly when
    the lattice is distributive, so compare the two counts."""
    leq = leq_matrix(lat)
    js = sorted(lat.join_irr, key=lambda j: int(leq[:, j].sum()))
    pos = {j: i for i, j in enumerate(js)}
    below = [0] * len(js)
    for j in js:
        for i in js:
            if i != j and leq[i, j]:
                below[pos[j]] |= 1 << pos[i]
    return _count_down_sets(below, stop=lat.n) == lat.n


def is_extremal_ref(lat) -> bool:
    n = lattice_length(lat)
    return len(lat.join_irr) == n and len(lat.meet_irr) == n


# --- witness re-checks -----------------------------------------------------

def check_distributive_witness(lat, wit) -> None:
    M, J = lat.meet, lat.join
    x, y, z = wit
    expect(M[x, J[y, z]] != J[M[x, y], M[x, z]],
           f"distributive witness {wit} satisfies the law")


def check_semidistributive_witness(lat, wit) -> None:
    side, x, y, z = wit
    A, B = (lat.join, lat.meet) if side == "join" else (lat.meet, lat.join)
    expect(A[x, y] == A[x, z] and A[x, B[y, z]] != A[x, y],
           f"semidistributive witness {wit} satisfies the law")


def check_left_modular_chain(lat, chain) -> None:
    xs = chain.elements
    expect(xs[0] == lat.bottom and xs[-1] == lat.top
           and all(xs[i + 1] in lat.upper_covers(xs[i]) for i in range(len(xs) - 1)),
           "left-modular chain is not saturated from bottom to top")
    M, J = lat.meet, lat.join
    ys, zs = np.array(lat.covers).T
    for x in xs:
        expect(bool((M[J[ys, x], zs] == J[ys, M[x, zs]]).all()),
               f"chain element {x} is not left modular")
