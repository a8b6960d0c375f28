"""Concrete builders: where chainmails and lattices come from.

Graphs, hypergraphs, finite topological spaces and connectivity spaces
each carry a notion of connected subset, and in every case the nonempty
connected subsets ordered by inclusion form a chainmail.  This module
houses those builders, the powerset and down-set lattice generators used
throughout the test suites, the seven-element counterexample chainmail,
and an exhaustive search deciding whether a given chainmail is the
connected-set poset of any connectivity space on a bounded point set.
"""

import itertools

from . import config
from .canonical import iter_bits
from .errors import AxiomViolation, SizeBudgetExceeded, TheoremViolation
from .lattice import CompleteLattice
from .mails import as_chainmail
from .poset import (Poset, _down_closed_masks, heights, lower_order,
                    validate_poset)


def _members_tuple(mask):
    return tuple(iter_bits(mask))


def _mask_of_members(members, points, axiom):
    mask = 0
    for x in members:
        x = int(x)
        if not 0 <= x < points:
            raise AxiomViolation(axiom, x)
        mask |= 1 << x
    return mask


def _set_label(mask, names=None):
    parts = [names[b] if names else str(b) for b in iter_bits(mask)]
    return "{" + ",".join(parts) + "}"


def _inclusion_poset(masks, names=None):
    """Poset of the given distinct subset-masks ordered by inclusion."""
    masks = sorted(masks)
    labels = [_set_label(m, names) for m in masks]
    return Poset(lower_order(masks, masks), labels)


# -- ground structures --------------------------------------------------------

class Graph:
    """A finite simple graph; loops are dropped, duplicate edges merged."""

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices, edges):
        vertices = int(vertices)
        if vertices < 0:
            raise AxiomViolation("vertex-count", vertices)
        kept = set()
        for edge in edges:
            a, b = edge
            a, b = int(a), int(b)
            for x in (a, b):
                if not 0 <= x < vertices:
                    raise AxiomViolation("edge-range", (a, b))
            if a != b:
                kept.add((min(a, b), max(a, b)))
        self.vertices = vertices
        self.edges = tuple(sorted(kept))

    def __repr__(self):
        return f"Graph(vertices={self.vertices}, edges={list(self.edges)})"

    def __eq__(self, other):
        return (isinstance(other, Graph)
                and self.vertices == other.vertices
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def adjacency(self):
        adj = [0] * self.vertices
        for a, b in self.edges:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return adj


class Hypergraph:
    """A finite hypergraph: a vertex set and a set of nonempty hyperedges."""

    __slots__ = ("vertices", "hyperedges")

    def __init__(self, vertices, hyperedges):
        vertices = int(vertices)
        if vertices < 0:
            raise AxiomViolation("vertex-count", vertices)
        masks = set()
        for edge in hyperedges:
            mask = _mask_of_members(edge, vertices, "hyperedge-range")
            if mask == 0:
                raise AxiomViolation("hyperedge-empty", tuple(edge))
            masks.add(mask)
        self.vertices = vertices
        self.hyperedges = tuple(_members_tuple(m) for m in sorted(masks))

    def __repr__(self):
        return (f"Hypergraph(vertices={self.vertices}, "
                f"hyperedges={[list(e) for e in self.hyperedges]})")

    def __eq__(self, other):
        return (isinstance(other, Hypergraph)
                and self.vertices == other.vertices
                and self.hyperedges == other.hyperedges)

    def __hash__(self):
        return hash((self.vertices, self.hyperedges))

    def edge_masks(self):
        return [_mask_of_members(e, self.vertices, "hyperedge-range")
                for e in self.hyperedges]


class FiniteTopology:
    """A topology on a finite point set, given by its family of open sets.

    Validation checks that the family contains the empty and the full
    set and is closed under pairwise union and intersection, which for a
    finite family is the whole definition.  The witness of a closure
    failure is the first offending pair of opens in ascending order.
    """

    __slots__ = ("points", "opens")

    def __init__(self, points, opens):
        points = int(points)
        if points < 0:
            raise AxiomViolation("point-count", points)
        full = (1 << points) - 1
        masks = sorted({_mask_of_members(o, points, "open-range")
                        for o in opens})
        if 0 not in masks:
            raise AxiomViolation("opens-contain-empty", ())
        if full not in masks:
            raise AxiomViolation("opens-contain-space", _members_tuple(full))
        present = set(masks)
        for i, a in enumerate(masks):
            for b in masks[i + 1:]:
                if a | b not in present:
                    raise AxiomViolation(
                        "opens-union-closure",
                        (_members_tuple(a), _members_tuple(b)))
                if a & b not in present:
                    raise AxiomViolation(
                        "opens-intersection-closure",
                        (_members_tuple(a), _members_tuple(b)))
        self.points = points
        self.opens = tuple(_members_tuple(m) for m in masks)

    def __repr__(self):
        return (f"FiniteTopology(points={self.points}, "
                f"opens={[list(o) for o in self.opens]})")

    def __eq__(self, other):
        return (isinstance(other, FiniteTopology)
                and self.points == other.points
                and self.opens == other.opens)

    def __hash__(self):
        return hash((self.points, self.opens))

    def open_masks(self):
        return [_mask_of_members(o, self.points, "open-range")
                for o in self.opens]


class ConnectivitySpace:
    """A point set with a family of subsets declared connected.

    The family must contain the empty set, and the union of any
    subfamily with a common point must again belong to it.  The second
    condition is checked pairwise: if every union of two overlapping
    members is present, unions of larger overlapping subfamilies follow
    by folding through the shared point, so the pairwise check is
    equivalent and avoids enumerating all subfamilies.  The witness of a
    failure is the first overlapping pair, in ascending order, whose
    union is missing.
    """

    __slots__ = ("points", "connected")

    def __init__(self, points, connected):
        points = int(points)
        if points < 0:
            raise AxiomViolation("point-count", points)
        masks = sorted({_mask_of_members(c, points, "member-range")
                        for c in connected})
        if 0 not in masks:
            raise AxiomViolation("contains-empty", ())
        present = set(masks)
        for i, a in enumerate(masks):
            for b in masks[i + 1:]:
                if a & b and a | b not in present:
                    raise AxiomViolation(
                        "overlapping-union-closure",
                        (_members_tuple(a), _members_tuple(b)))
        self.points = points
        self.connected = tuple(_members_tuple(m) for m in masks)

    def __repr__(self):
        return (f"ConnectivitySpace(points={self.points}, "
                f"connected={[list(c) for c in self.connected]})")

    def __eq__(self, other):
        return (isinstance(other, ConnectivitySpace)
                and self.points == other.points
                and self.connected == other.connected)

    def __hash__(self):
        return hash((self.points, self.connected))

    def member_masks(self):
        return [_mask_of_members(c, self.points, "member-range")
                for c in self.connected]


# -- connected-subset chainmails ----------------------------------------------

def _check_ground(what, size, budget):
    cap = config.ground_cap(budget)
    if size > cap:
        raise SizeBudgetExceeded(what, size, cap)


def _graph_connected_masks(vertices, adjacency):
    out = []
    for mask in range(1, 1 << vertices):
        seen = mask & -mask
        frontier = seen
        while frontier:
            grown = 0
            for x in iter_bits(frontier):
                grown |= adjacency[x] & mask
            frontier = grown & ~seen
            seen |= grown
        if seen == mask:
            out.append(mask)
    return out


def chainmail_from_graph(g, budget=None):
    """Chainmail of nonempty connected vertex subsets under inclusion."""
    _check_ground("graph vertices", g.vertices, budget)
    masks = _graph_connected_masks(g.vertices, g.adjacency())
    return as_chainmail(_inclusion_poset(masks))


def hypergraph_from_graph(g):
    """Encode a graph as the hypergraph of its singletons and edge pairs."""
    edges = [(v,) for v in range(g.vertices)] + [tuple(e) for e in g.edges]
    return Hypergraph(g.vertices, edges)


def _hypergraph_connected(mask, edge_masks):
    inside = [e for e in edge_masks if e & ~mask == 0]
    covered = 0
    for e in inside:
        covered |= e
    if covered != mask:
        return False
    # hyperedges inside the subset, glued along shared points, must form
    # a single block: distinct blocks have disjoint point sets, so two
    # points in different blocks admit no linking sequence
    blocks = 0
    rest = inside
    while rest:
        comp = rest[0]
        rest = rest[1:]
        changed = True
        while changed:
            changed = False
            keep = []
            for e in rest:
                if e & comp:
                    comp |= e
                    changed = True
                else:
                    keep.append(e)
            rest = keep
        blocks += 1
    return blocks == 1


def chainmail_from_hypergraph(h, budget=None):
    """Chainmail of subsets chained together by internal hyperedges.

    A subset counts as connected when any two of its points are linked
    by a sequence of hyperedges lying inside the subset, consecutive
    ones intersecting.  Encoding a graph as singleton and edge-pair
    hyperedges recovers chainmail_from_graph exactly.
    """
    _check_ground("hypergraph vertices", h.vertices, budget)
    edge_masks = h.edge_masks()
    masks = [m for m in range(1, 1 << h.vertices)
             if _hypergraph_connected(m, edge_masks)]
    return as_chainmail(_inclusion_poset(masks))


def _topology_connected(mask, open_masks):
    for i, a in enumerate(open_masks):
        if not a & mask:
            continue
        for b in open_masks[i + 1:]:
            if (b & mask) and not (a & b & mask) and mask & ~(a | b) == 0:
                return False
    return True


def chainmail_from_topology(t, budget=None):
    """Chainmail of nonempty topologically connected subsets.

    A subset is disconnected exactly when two open sets split it into
    two nonempty relatively open pieces; all open pairs are tried.
    """
    _check_ground("topology points", t.points, budget)
    open_masks = t.open_masks()
    masks = [m for m in range(1, 1 << t.points)
             if _topology_connected(m, open_masks)]
    return as_chainmail(_inclusion_poset(masks))


def chainmail_from_connectivity_space(s, budget=None):
    """Chainmail of the nonempty members of the space, under inclusion."""
    _check_ground("connectivity space points", s.points, budget)
    masks = [m for m in s.member_masks() if m]
    return as_chainmail(_inclusion_poset(masks))


def connectivity_space_of_graph(g, budget=None):
    """The connectivity space whose members are the connected subsets."""
    _check_ground("graph vertices", g.vertices, budget)
    masks = [0] + _graph_connected_masks(g.vertices, g.adjacency())
    return ConnectivitySpace(g.vertices, [_members_tuple(m) for m in masks])


# -- stock lattices ------------------------------------------------------------

def powerset_lattice(n, budget=None):
    """The Boolean lattice of all subsets of an n-element set."""
    _check_ground("powerset ground set", n, budget)
    size = 1 << n
    poset = _inclusion_poset(range(size))
    joins = [tuple(i | j for j in range(size)) for i in range(size)]
    meets = [tuple(i & j for j in range(size)) for i in range(size)]
    return CompleteLattice(poset, joins, meets, 0, size - 1)


def downset_lattice(p, budget=None):
    """The lattice of down-closed subsets of a poset, under inclusion.

    Down-closed sets are closed under union and intersection, so the
    join and meet tables come straight from the subset masks.
    """
    _check_ground("down-set ground poset", p.n, budget)
    names = [p.label_of(i) for i in range(p.n)]
    masks = _down_closed_masks(p)
    index = {m: i for i, m in enumerate(masks)}
    size = len(masks)
    poset = _inclusion_poset(masks, names)
    joins = [tuple(index[mi | mj] for mj in masks) for mi in masks]
    meets = [tuple(index[mi & mj] for mj in masks) for mi in masks]
    return CompleteLattice(poset, joins, meets, 0, size - 1)


def counterexample_chainmail():
    """The seven-element chainmail arising from no connectivity space.

    Elements are named 1..7; 1 sits below 2 and 3, element 4 is the
    second minimal element, 5 joins {2,3,4} above, 6 covers 3 and 4,
    and 7 tops 5 and 6.  Pairs like {3,4} have a common point below but
    their joins run through incomparable elements, which is what rules
    out a connected-subset representation.
    """
    pairs = [(0, 1), (0, 2), (1, 4), (2, 4), (2, 5), (3, 4), (3, 5),
             (4, 6), (5, 6)]
    labels = [str(i + 1) for i in range(7)]
    return as_chainmail(validate_poset(7, pairs, labels=labels))


# -- representability ----------------------------------------------------------

def _point_classes(k, assigned):
    """Group the k points by their membership pattern in assigned sets."""
    signature = {}
    for point in range(k):
        sig = tuple((m >> point) & 1 for m in assigned)
        signature.setdefault(sig, []).append(point)
    return [tuple(cls) for cls in signature.values()]


def _candidate_masks(k, floor, assigned):
    """Supersets of floor, canonical within interchangeable point classes.

    Points with the same membership pattern across all assigned sets can
    be permuted freely without touching any constraint, so only class
    prefixes need trying; every representation is reachable from one in
    which each chosen set meets each class in a prefix.
    """
    out_classes = [cls for cls in _point_classes(k, assigned)
                   if not (floor >> cls[0]) & 1]
    choices = []
    for cls in out_classes:
        prefixes = [0]
        acc = 0
        for point in cls:
            acc |= 1 << point
            prefixes.append(acc)
        choices.append(prefixes)
    for picks in itertools.product(*choices):
        mask = floor
        for m in picks:
            mask |= m
        if mask:
            yield mask


def _search_assignment(g, k):
    """Assign a k-point set to every element, bottom elements first.

    Strictly smaller elements force a floor, incomparable ones must stay
    inclusion-incomparable, and whenever two assigned sets overlap their
    join must exist and is pinned to carry exactly the union; the pin is
    checked when the join's turn comes.  Returns the masks by element,
    or None when the whole tree is exhausted.
    """
    p = g.poset
    n = p.n
    level = heights(p)
    order = sorted(range(n), key=lambda i: (level[i], i))
    join_index = [[p.join_mask((1 << i) | (1 << j)) for j in range(n)]
                  for i in range(n)]
    phi = [None] * n
    taken = set()
    pinned = {}

    def viable(v, mask):
        """Check mask against every assigned element; returns the pins
        this choice adds, or None when the choice is contradictory."""
        added = {}
        for u in order:
            if phi[u] is None or u == v:
                continue
            other = phi[u]
            if p.leq(u, v):
                continue
            if other | mask == mask or mask | other == other:
                return None
            if other & mask:
                j = join_index[u][v]
                if j is None:
                    return None
                want = other | mask
                have = pinned.get(j)
                if have is None:
                    have = added.setdefault(j, want)
                if have != want:
                    return None
        return added

    def assign(idx):
        if idx == len(order):
            return True
        v = order[idx]
        floor = 0
        for u in iter_bits(p.below[v] & ~(1 << v)):
            floor |= phi[u]
        pin = pinned.get(v)
        if pin is not None:
            candidates = [pin] if pin | floor == pin else []
        else:
            candidates = _candidate_masks(k, floor, [phi[u] for u in order
                                                     if phi[u] is not None])
        for mask in candidates:
            if mask in taken:
                continue
            added = viable(v, mask)
            if added is None:
                continue
            phi[v] = mask
            taken.add(mask)
            pinned.update(added)
            if assign(idx + 1):
                return True
            phi[v] = None
            taken.discard(mask)
            for key in added:
                del pinned[key]
        return False

    return list(phi) if assign(0) else None


def _verify_assignment(g, phi):
    p = g.poset
    if lower_order(phi, phi) != list(p.above):  # inclusion mirrors the order
        return False
    for i in range(p.n):
        for j in range(i + 1, p.n):
            if phi[i] & phi[j]:
                join = p.join_mask((1 << i) | (1 << j))
                if join is None or phi[join] != phi[i] | phi[j]:
                    return False
    return True


def _trimmed_space(phi):
    used = 0
    for m in phi:
        used |= m
    rename = {}
    for point in iter_bits(used):
        rename[point] = len(rename)
    members = [()]
    for m in phi:
        members.append(tuple(rename[b] for b in iter_bits(m)))
    return ConnectivitySpace(len(rename), members)


def search_connectivity_representation(g, max_points, budget=None):
    """Find a connectivity space realizing the chainmail, or None.

    Searches exhaustively for an assignment of nonempty point sets to
    the elements of g, over ground sets of 1..max_points points, such
    that inclusion mirrors the order and overlapping images force the
    image of the join to be their union; those conditions make the image
    family a connectivity space with connected-set poset isomorphic to
    g.  Smaller ground sets are tried first, so a hit uses as few points
    as possible; None means no space on max_points or fewer points
    works.
    """
    cap = config.search_cap(budget)
    if max_points > cap:
        raise SizeBudgetExceeded("representation search points",
                                 max_points, cap)
    if g.n == 0:
        return ConnectivitySpace(0, [()])
    for k in range(1, max_points + 1):
        phi = _search_assignment(g, k)
        if phi is not None:
            if not _verify_assignment(g, phi):
                raise TheoremViolation("representation-search-consistency",
                                       tuple(phi))
            return _trimmed_space(phi)
    return None


# -- interchange ---------------------------------------------------------------

def _from_json(kind, data, size_key, family_key, what, budget):
    """Build ``kind(size, family)`` from JSON, checked before it is built.

    Sizes and members must be JSON integers, and the size must fit the
    ground budget, so no input can make the constructor allocate a mask
    of arbitrary width.
    """
    try:
        size = data[size_key]
        family = [tuple(member) for member in data[family_key]]
    except (KeyError, TypeError) as exc:
        raise AxiomViolation("json-shape", str(exc)) from None
    for x in [size] + [x for member in family for x in member]:
        if type(x) is not int:
            raise AxiomViolation("json-shape", f"{x!r} is not an integer")
    _check_ground(what, size, budget)
    try:
        return kind(size, family)
    except ValueError as exc:  # a graph edge that is not a pair
        raise AxiomViolation("json-shape", str(exc)) from None


def graph_to_json_dict(g):
    return {"vertices": g.vertices, "edges": [list(e) for e in g.edges]}


def graph_from_json_dict(data, budget=None):
    return _from_json(Graph, data, "vertices", "edges", "graph vertices",
                      budget)


def hypergraph_to_json_dict(h):
    return {"vertices": h.vertices,
            "hyperedges": [list(e) for e in h.hyperedges]}


def hypergraph_from_json_dict(data, budget=None):
    return _from_json(Hypergraph, data, "vertices", "hyperedges",
                      "hypergraph vertices", budget)


def topology_to_json_dict(t):
    return {"points": t.points, "opens": [list(o) for o in t.opens]}


def topology_from_json_dict(data, budget=None):
    return _from_json(FiniteTopology, data, "points", "opens",
                      "topology points", budget)


def connectivity_space_to_json_dict(s):
    return {"points": s.points, "connected": [list(c) for c in s.connected]}


def connectivity_space_from_json_dict(data, budget=None):
    return _from_json(ConnectivitySpace, data, "points", "connected",
                      "connectivity space points", budget)
