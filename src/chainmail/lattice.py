"""Complete finite lattices and point-free connectivity inside them.

A separated set is a set of nonzero elements whose pairwise meets are all
zero.  The four conditions an element a can satisfy each fail at a != 0
exactly when some separated set R with a <= join(R) refutes them:

  separated-join-prime: whenever a <= join(S) for a separated set S,
    a <= s for a single member s.  R refutes it when no member of R is
    above a.
  disjoint-join-prime: a != 0, and whenever a <= x v y with x ^ y = 0,
    already a <= x or a <= y.  R refutes it as above, with |R| <= 2: a
    refuting pair has x, y != 0, since x = 0 gives a <= y, and x != y,
    since x ^ y = 0; a set of at most one member never refutes, since
    a is not below it and a != 0.
  separated-join-member: every separated set joining exactly to a
    contains a itself.  R refutes it when join(R) = a and a is not in
    R; then every member lies strictly below a, and for such an R,
    a <= join(R) holds exactly when join(R) = a.
  disjoint-join-indecomposable: a != 0, and whenever a = x v y with
    x ^ y = 0, one of x, y is 0.  A refuting pair has x, y != 0, and
    neither is a, since x = a would give a ^ y = y != 0; so R refutes
    it when R refutes separated-join-member and |R| = 2.

So the four differ only in where R's members may lie (strictly below a,
or not above a) and in how many it may have (two, or any number), and
one search over separated sets decides them all.  Members strictly below
a are not above a, and a pair is a separated set, so the refuters of
disjoint-join-indecomposable refute disjoint-join-prime and
separated-join-member, and those of either refute separated-join-prime.
These inclusions are the implications the connectivity-conditions suite
checks: separated-join-prime implies the other three.  An element is
called connected when it is separated-join-prime; in a locally connected
lattice all four conditions are equivalent.  Bottom satisfies none: the
empty separated set refutes the separated two.
"""

from dataclasses import dataclass

from . import config
from .canonical import iter_bits
from .errors import (
    EmptyInput,
    NotALattice,
    NotLocallyConnectedBelow,
    TheoremViolation,
)
from .poset import (Poset, components, iter_pairwise_masks, lower_order,
                    mask_of, order_iso_break, set_of)


class CompleteLattice:
    """A finite complete lattice: a Poset plus its join table.

    Meets are read off the order, as greatest common lower bounds.  Use
    :func:`as_complete_lattice` to build one; the constructor assumes
    the poset really is a lattice.  ``_k`` caches its K chainmail.
    """

    __slots__ = ("poset", "n", "bottom", "top", "joins",
                 "_disjoint", "_separated", "_connected_mask", "_k")

    def __init__(self, poset, joins, bottom, top):
        self.poset = poset
        self.n = poset.n
        self.joins = joins
        self.bottom = bottom
        self.top = top
        self._disjoint = None
        self._separated = None
        self._connected_mask = None
        self._k = None

    def __repr__(self):
        return f"CompleteLattice(n={self.n}, bottom={self.bottom}, top={self.top})"

    def join(self, i, j):
        return self.joins[i][j]

    def meet(self, i, j):
        return self.poset.meet_mask((1 << i) | (1 << j))

    def join_set(self, members):
        out = self.bottom
        for i in members:
            out = self.joins[out][i]
        return out

    def join_mask(self, mask):
        joins = self.joins
        out = self.bottom
        while mask:
            low = mask & -mask
            out = joins[out][low.bit_length() - 1]
            mask ^= low
        return out

    def disjointness(self):
        """disjointness()[i] = mask of j with meet(i, j) = bottom: the j
        above no element but bottom of i's down-set."""
        if self._disjoint is None:
            above, full = self.poset.above, self.poset.full_mask()
            out = []
            for row in self.poset.below:
                touch = 0
                for x in iter_bits(row & ~(1 << self.bottom)):
                    touch |= above[x]
                out.append(full & ~touch)
            self._disjoint = tuple(out)
        return self._disjoint

    def separated(self):
        """Every separated set, in :func:`iter_separated_masks` order, as
        ``(mask, join, parent, last)``.

        ``parent`` is the index of the set less its highest member
        ``last``, always an earlier entry, so each join is one join from
        its parent's.  Entry 0 is the empty set, with parent and last
        None.  More than ``config.DEFAULT_FAMILY_CAP`` sets raise
        SizeBudgetExceeded.
        """
        if self._separated is None:
            joins = self.joins
            index = {}
            out = []
            for m in config.capped(iter_separated_masks(self),
                                   "separated-set family"):
                index[m] = len(out)
                if m:
                    last = m.bit_length() - 1
                    parent = index[m ^ (1 << last)]
                    out.append((m, joins[out[parent][1]][last], parent, last))
                else:
                    out.append((0, self.bottom, None, None))
            self._separated = tuple(out)
        return self._separated

    def connected_mask(self):
        if self._connected_mask is None:
            m = 0
            for a in range(self.n):
                if check_condition(self, a, "separated-join-prime"):
                    m |= 1 << a
            self._connected_mask = m
        return self._connected_mask


def as_complete_lattice(p):
    """Validate that Poset ``p`` is a complete lattice.

    Finite criterion: a nonempty carrier in which every pair has a join,
    and a least element.  The least element makes each pair's lower
    bounds nonempty, and their join is the pair's meet; a finite lattice
    has one, the meet of all.  So only a poset without one scans for a
    missing meet.  The witness is the largest pair without a join, else
    the largest without a meet.
    """
    if not isinstance(p, Poset):
        raise TypeError(f"expected Poset, got {type(p).__name__}")
    if p.n == 0:
        raise EmptyInput("a complete lattice has a nonempty carrier")
    n = p.n
    joins = [[0] * n for _ in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(n - 1, i - 1, -1):
            v = p.join_mask((1 << i) | (1 << j))
            if v is None:
                raise NotALattice((i, j), "join")
            joins[i][j] = joins[j][i] = v
    bottom = p.least_of(p.full_mask())
    if bottom is None:
        for i in range(n - 1, -1, -1):
            for j in range(n - 1, i - 1, -1):
                if p.meet_mask((1 << i) | (1 << j)) is None:
                    raise NotALattice((i, j), "meet")
    return CompleteLattice(p, [tuple(r) for r in joins], bottom,
                           p.greatest_of(p.full_mask()))


# -- separated and chained sets ----------------------------------------------

def is_separated(lat, s):
    mask, disj = mask_of(s), lat.disjointness()
    return all(mask & ~disj[x] == 1 << x for x in iter_bits(mask))


def iter_separated_masks(lat, candidates=None):
    """Every separated subset of ``candidates`` (default: all nonzero
    elements) as a bitmask, in the order of :func:`iter_pairwise_masks`."""
    if candidates is None:
        candidates = lat.poset.full_mask() & ~(1 << lat.bottom)
    else:
        candidates &= ~(1 << lat.bottom)
    return iter_pairwise_masks(lat.disjointness(), candidates)


def _chained_components(lat, mask):
    """Partition the elements of ``mask`` into maximal chained subsets."""
    return components(tuple(~d for d in lat.disjointness()), mask)


def is_chained(lat, c):
    """Nonempty c whose meet-overlap graph is connected."""
    return len(_chained_components(lat, mask_of(c))) == 1


# -- the element conditions ---------------------------------------------------

def _joins_above(lat, a, candidates, room):
    """Whether some separated subset of ``candidates``, of at most
    ``room`` members, has its join above a.

    Sets grow as in :func:`iter_separated_masks`, each join one join from
    its parent's.  A branch is cut once its room is spent, or once not
    even its join with every remaining candidate is above a.
    """
    joins = lat.joins
    up_a = lat.poset.above[a]
    disj = lat.disjointness()

    def search(cur, allowed, room):
        if (up_a >> cur) & 1:
            return True
        if not room or not (up_a >> joins[cur][lat.join_mask(allowed)]) & 1:
            return False
        for e in iter_bits(allowed):
            rest = allowed >> (e + 1) << (e + 1)
            if search(joins[cur][e], rest & disj[e], room - 1):
                return True
        return False

    return search(lat.bottom, candidates & ~(1 << lat.bottom), room)


# condition name -> (its refuters lie strictly below a, not merely not
# above it; only pairs refute it), in the module docstring's order
_CONDITIONS = {
    "disjoint-join-prime": (False, True),
    "disjoint-join-indecomposable": (True, True),
    "separated-join-member": (True, False),
    "separated-join-prime": (False, False),
}
CONDITIONS = tuple(_CONDITIONS)


def check_condition(lat, a, which):
    try:
        strictly_below, pairs = _CONDITIONS[which]
    except KeyError:
        raise ValueError(f"unknown condition: {which!r}") from None
    if a == lat.bottom:
        return False
    p = lat.poset
    candidates = (p.below[a] & ~(1 << a) if strictly_below
                  else p.full_mask() & ~p.above[a])
    return not _joins_above(lat, a, candidates, 2 if pairs else lat.n)


def connected_elements(lat):
    return set_of(lat.connected_mask())


# -- local connectivity and the separation poset ------------------------------

@dataclass(frozen=True)
class SeparatedSet:
    """A checked separated set, kept with its owning lattice."""
    owner: CompleteLattice
    members: frozenset

    def join(self):
        return self.owner.join_set(self.members)


def star(lat, x):
    """The separated decomposition x* of an element.

    Connected elements below x are split into maximal chained components
    and each component is joined.  Demands enough local connectivity below
    x for the decomposition to behave: every nonzero y <= x needs a
    connected element below it, and x must be the join of the connected
    elements below it.
    """
    conn = lat.connected_mask()
    below_x = lat.poset.below[x]
    for y in iter_bits(below_x):
        if y != lat.bottom and not conn & lat.poset.below[y]:
            raise NotLocallyConnectedBelow(x, ("no-connected-below", y))
    conn_below = conn & below_x
    if lat.join_mask(conn_below) != x:
        raise NotLocallyConnectedBelow(x, ("join-gap", lat.join_mask(conn_below)))
    members = frozenset(lat.join_mask(comp)
                        for comp in _chained_components(lat, conn_below))
    result = SeparatedSet(lat, members)
    if not is_separated(lat, members):
        raise TheoremViolation("star-separated", (x, members))
    return result


def is_locally_connected(lat):
    conn = lat.connected_mask()
    for x in range(lat.n):
        if lat.join_mask(conn & lat.poset.below[x]) != x:
            return False
    return True


def has_connective_foundation(lat):
    conn = lat.connected_mask()
    for x in range(lat.n):
        if x != lat.bottom and not conn & lat.poset.below[x]:
            return False
    return True


@dataclass(frozen=True)
class SeparationPoset:
    """The poset of separated sets of connected elements, plus the join map.

    ``sets[i]`` is the i-th separated set as a bitmask over lattice
    elements; ``nu[i]`` is its join.  Order: S1 <= S2 iff every member of
    S1 lies below some member of S2.
    """
    lattice: CompleteLattice
    poset: Poset
    sets: tuple
    nu: tuple


def separation_poset(lat):
    masks = sorted(config.capped(
        iter_separated_masks(lat, lat.connected_mask()),
        "separated-set family"))
    down = [lat.poset.down_closure(m) for m in masks]
    poset = Poset(lower_order(masks, down))
    for i in range(len(masks)):
        both = poset.above[i] & poset.below[i]
        if both != 1 << i:
            j = next(b for b in iter_bits(both) if b != i)
            raise TheoremViolation("separation-poset-antisymmetry",
                                   (masks[i], masks[j]))
    nu = tuple(lat.join_mask(m) for m in masks)
    return SeparationPoset(lat, poset, tuple(masks), nu)


def nu_classification(lat):
    """Classify the join map out of the separation poset.

    Returns "iso", "surjective-not-iso", or "not-surjective", and checks
    the equivalence (iso <=> surjective <=> locally connected); a mismatch
    raises TheoremViolation since the theory rules it out.
    """
    sp = separation_poset(lat)
    surjective = len(set(sp.nu)) == lat.n
    if order_iso_break(sp.nu, sp.poset, lat.poset) is None:
        verdict = "iso"
    elif surjective:
        verdict = "surjective-not-iso"
    else:
        verdict = "not-surjective"
    local = is_locally_connected(lat)
    if (verdict == "iso") != local or surjective != local:
        raise TheoremViolation("nu-classification",
                               (verdict, "locally-connected", local))
    return verdict
