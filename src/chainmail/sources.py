"""Concrete builders: where chainmails and lattices come from.

Graphs, hypergraphs, finite topological spaces and connectivity spaces
each carry a notion of connected subset, and in every case the nonempty
connected subsets ordered by inclusion form a chainmail.  This module
houses those builders, the powerset and down-set lattice generators used
throughout the test suites, the seven-element counterexample chainmail,
and an exact search for the fewest points of a connectivity space whose
connected-set poset is a given chainmail.  Its points are up-sets obeying
a primeness rule, as the points of a frame are its completely prime
filters, so the search runs over families of up-sets and can prove that
no space of any size exists.
"""

from . import config
from .canonical import iter_bits, transpose
from .errors import AxiomViolation, SizeBudgetExceeded, TheoremViolation
from .lattice import CompleteLattice
from .mails import as_chainmail
from .poset import (Poset, _down_closed_masks, components, lower_order,
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

class _Ground:
    """Equal, and hashed alike, by the values of the class's slots."""

    __slots__ = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


class Graph(_Ground):
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

    def adjacency(self):
        adj = [0] * self.vertices
        for a, b in self.edges:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return adj


class Hypergraph(_Ground):
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

    def edge_masks(self):
        return [_mask_of_members(e, self.vertices, "hyperedge-range")
                for e in self.hyperedges]


class FiniteTopology(_Ground):
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

    def open_masks(self):
        return [_mask_of_members(o, self.points, "open-range")
                for o in self.opens]


class ConnectivitySpace(_Ground):
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

    def member_masks(self):
        return [_mask_of_members(c, self.points, "member-range")
                for c in self.connected]


# -- connected-subset chainmails ----------------------------------------------

def _check_ground(what, size, budget):
    cap = config.ground_cap(budget)
    if size > cap:
        raise SizeBudgetExceeded(what, size, cap)


def _graph_connected_masks(vertices, adjacency):
    return [m for m in range(1, 1 << vertices)
            if len(components(adjacency, m)) == 1]


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
    """Whether the hyperedges inside ``mask`` cover it and, glued along
    shared points, link all of it into one component."""
    touch = [0] * mask.bit_length()
    covered = 0
    for e in edge_masks:
        if e & ~mask == 0:
            covered |= e
            for x in iter_bits(e):
                touch[x] |= e
    return covered == mask and len(components(touch, mask)) == 1


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
    return CompleteLattice(poset, joins, 0, size - 1)


def downset_lattice(p, budget=None):
    """The lattice of down-closed subsets of a poset, under inclusion.

    Down-closed sets are closed under union, so the join table comes
    straight from the subset masks.
    """
    _check_ground("down-set ground poset", p.n, budget)
    names = [p.label_of(i) for i in range(p.n)]
    masks = _down_closed_masks(p)
    index = {m: i for i, m in enumerate(masks)}
    size = len(masks)
    poset = _inclusion_poset(masks, names)
    joins = [tuple(index[mi | mj] for mj in masks) for mi in masks]
    return CompleteLattice(poset, joins, 0, size - 1)


def counterexample_chainmail():
    """The seven-element chainmail arising from no connectivity space.

    Elements are named 1..7; 1 sits below 2 and 3, element 4 is the
    second minimal element, 5 joins {2,3,4} above, 6 covers 3 and 4,
    and 7 tops 5 and 6.  It is not a lattice: {3,4} has the two minimal
    upper bounds 5 and 6.  No family of up-sets meets the rules of
    :func:`_least_family`, so :func:`search_connectivity_representation`
    returns None for it at every point bound.
    """
    pairs = [(0, 1), (0, 2), (1, 4), (2, 4), (2, 5), (3, 4), (3, 5),
             (4, 6), (5, 6)]
    labels = [str(i + 1) for i in range(7)]
    return as_chainmail(validate_poset(7, pairs, labels=labels))


# -- representability ----------------------------------------------------------

def _candidate_upsets(p, joinable):
    """Every nonempty up-set of ``p`` whose elements pairwise have joins;
    ``joinable[x]`` is the mask of elements that have a join with x.

    Built top down along the reverse of a linear extension: x extends
    each set already built that holds its strict up-set and only elements
    it has a join with.  A candidate cut down to the elements walked so
    far is one, so all are reached, and no other up-set is built: an
    antichain of 24 has 2^24 up-sets but 24 candidates.
    """
    cap = config.DEFAULT_FAMILY_CAP
    masks = [0]
    for x, _ in reversed(p.lower_covers()):
        bit = 1 << x
        strict = p.above[x] ^ bit
        masks += [u | bit for u in masks
                  if u & strict == strict and u & ~joinable[x] == 0]
        if len(masks) > cap:
            raise SizeBudgetExceeded("candidate up-sets", len(masks), cap)
    return masks[1:]


def _least_family(g, max_size):
    """A least family of up-sets that represents g, if one has at most
    ``max_size`` members; else None.

    A family F of nonempty up-sets, with phi(e) = {U in F : e in U},
    represents g on |F| points exactly when: (a) every element lies in a
    member; (b) for each e !<= f, a member holds e and not f; (c) if e
    and f lie in one member, e v f exists, and each member holding e v f
    holds e or f.

    1. From a representation, drop the points in no image and merge
       those with equal up-sets U_p = {e : p in phi(e)}.  (a) as images
       are nonempty; (b) as inclusion mirrors the order.  (c): if U_p
       holds e and f, phi(e) and phi(f) overlap, so their union is the
       image of an upper bound below all others, e v f, and every point
       of phi(e v f) lies in phi(e) or phi(f).
    2. From a family, phi is monotone, (a) makes images nonempty and (b)
       keeps phi(e) outside phi(f) when e !<= f.  Overlapping images share
       a member, so e v f exists, and phi(e v f) = phi(e) | phi(f) by
       (c).  So the images are closed under overlapping pairwise unions, a
       connectivity space (see ConnectivitySpace) with chainmail g, and
       the least family size is the least point count.
    3. (c) holds within each member (the candidates) and between pairs of
       members (the clash rows), so every subfamily keeps it.
    4. The cut rule.  A pass branches on the open requirement of (a) or
       (b) with the fewest allowed options, and forbids each tried option
       to its later siblings.  Follow any family F down a pass: picked
       members lie in F and F's other members stay allowed, so the open
       requirement has an option in F, and the first such is F's branch.
       So F's path finds a family, or is cut at the bound when |F|
       exceeds it.  A pass that cuts nothing thus proves that no family
       exists, and as each pick meets a new requirement, deepening stops
       by itself.
    """
    p = g.poset
    n = p.n
    joinable = [p.above[x] | p.below[x] for x in range(n)]
    joins = []
    for i in range(n):
        for j in range(i + 1, n):
            k = None if joinable[i] >> j & 1 else p.join_mask(
                (1 << i) | (1 << j))
            if k is not None:
                joins.append((i, j, k))
                joinable[i] |= 1 << j
                joinable[j] |= 1 << i
    ups = _candidate_upsets(p, joinable)
    has = transpose(n, ups)  # the candidates that hold each element
    needs = set(has)  # rule (a), then (b): F must meet each of these
    needs.update(has[e] & ~has[f] for e in range(n)
                 for f in iter_bits(p.full_mask() & ~p.above[e]))
    if 0 in needs:
        return None
    # rule (c): no member holding i and j beside one holding i v j only
    rules = [(has[i] & has[j], has[k] & ~(has[i] | has[j]))
             for i, j, k in joins]
    clash = {}

    def clashes(c):
        if c not in clash:
            bit, row = 1 << c, 0
            for both, neither in rules:
                if both & bit:
                    row |= neither
                elif neither & bit:
                    row |= both
            clash[c] = row
        return clash[c]

    def extend(chosen, allowed, open_needs, room):
        nonlocal cut
        if not open_needs:
            return chosen
        if not room:
            cut = True
            return None
        options = min((r & allowed for r in open_needs), key=int.bit_count)
        for c in iter_bits(options):
            allowed &= ~(1 << c)
            found = extend(chosen + [ups[c]], allowed & ~clashes(c),
                           [r for r in open_needs if not r >> c & 1],
                           room - 1)
            if found is not None:
                return found
        return None

    for size in range(max_size + 1):
        cut = False
        family = extend([], (1 << len(ups)) - 1, sorted(needs), size)
        if family is not None or not cut:
            return family
    return None


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


def search_connectivity_representation(g, max_points):
    """A connectivity space on the fewest points, at most ``max_points``,
    whose chainmail is isomorphic to g; or None.

    Its points are the members of a least family of up-sets found by
    :func:`_least_family`, and each element is the set of members that
    hold it.  The search is exact: when it returns None before reaching
    ``max_points`` it has proved that no space of any size realizes g.
    """
    family = _least_family(g, max_points)
    if family is None:
        return None
    phi = transpose(g.n, family)
    if not _verify_assignment(g, phi):
        raise TheoremViolation("representation-search-consistency",
                               tuple(phi))
    return ConnectivitySpace(len(family),
                             [()] + [_members_tuple(m) for m in phi])


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
