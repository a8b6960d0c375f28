"""Complete finite lattices and point-free connectivity inside them.

The conditions a lattice element can satisfy:

  disjoint-join-prime: a != 0, and whenever a <= x v y with x ^ y = 0,
    already a <= x or a <= y.
  disjoint-join-indecomposable: a != 0, and whenever a = x v y with
    x ^ y = 0, one of x, y is 0.
  separated-join-member: every separated set joining exactly to a
    contains a itself.
  separated-join-prime: whenever a <= join(S) for a separated set S,
    a <= s for a single member s.

A separated set is a set of nonzero elements whose pairwise meets are all
zero.  An element is called connected when it is separated-join-prime;
that condition implies the other three in any complete lattice, and in a
locally connected lattice all four are equivalent.  Bottom is never
separated-join-member or separated-join-prime (the empty separated set
witnesses both failures), so "connected" excludes bottom automatically.
"""

from dataclasses import dataclass

from . import config
from .canonical import iter_bits
from .errors import (
    EmptyInput,
    NotALattice,
    NotLocallyConnectedBelow,
    SizeBudgetExceeded,
    TheoremViolation,
)
from .poset import (Poset, components, iter_pairwise_masks, lower_order,
                    mask_of, pullback, set_of)


class CompleteLattice:
    """A finite complete lattice: a Poset plus join/meet tables.

    Use :func:`as_complete_lattice` to build one; the constructor assumes
    the poset really is a lattice.  ``_k`` caches its K chainmail.
    """

    __slots__ = ("poset", "n", "bottom", "top", "joins", "meets",
                 "_disjoint", "_separated", "_connected_mask", "_k")

    def __init__(self, poset, joins, meets, bottom, top):
        self.poset = poset
        self.n = poset.n
        self.joins = joins
        self.meets = meets
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
        return self.meets[i][j]

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
        """disjointness()[i] = mask of j with meet(i, j) = bottom."""
        if self._disjoint is None:
            self._disjoint = tuple(pullback(row, self.n, [1 << self.bottom])[0]
                                   for row in self.meets)
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
            cap = config.DEFAULT_FAMILY_CAP
            joins = self.joins
            index = {}
            out = []
            for m in iter_separated_masks(self):
                index[m] = len(out)
                if m:
                    last = m.bit_length() - 1
                    parent = index[m ^ (1 << last)]
                    out.append((m, joins[out[parent][1]][last], parent, last))
                else:
                    out.append((0, self.bottom, None, None))
                if len(out) > cap:
                    raise SizeBudgetExceeded("separated-set family",
                                             len(out), cap)
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

    Finite criterion: nonempty carrier and every pair of elements has both
    a join and a meet; bottom and top then exist by folding.
    """
    if not isinstance(p, Poset):
        raise TypeError(f"expected Poset, got {type(p).__name__}")
    if p.n == 0:
        raise EmptyInput("a complete lattice has a nonempty carrier")
    n = p.n
    joins = [[0] * n for _ in range(n)]
    meets = [[0] * n for _ in range(n)]
    # deterministic witness: join failures take precedence over meet
    # failures, and within each pass the largest failing pair is reported
    for i in range(n - 1, -1, -1):
        for j in range(n - 1, i - 1, -1):
            v = p.join_mask((1 << i) | (1 << j))
            if v is None:
                raise NotALattice((i, j), "join")
            joins[i][j] = joins[j][i] = v
    for i in range(n - 1, -1, -1):
        for j in range(n - 1, i - 1, -1):
            w = p.meet_mask((1 << i) | (1 << j))
            if w is None:
                raise NotALattice((i, j), "meet")
            meets[i][j] = meets[j][i] = w
    bottom = 0
    top = 0
    for i in range(1, n):
        bottom = meets[bottom][i]
        top = joins[top][i]
    return CompleteLattice(p, [tuple(r) for r in joins],
                           [tuple(r) for r in meets], bottom, top)


# -- separated and chained sets ----------------------------------------------

def is_separated(lat, s):
    members = list(frozenset(s))
    if any(x == lat.bottom for x in members):
        return False
    for i, x in enumerate(members):
        for y in members[i + 1:]:
            if lat.meets[x][y] != lat.bottom:
                return False
    return True


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

def _check_disjoint_join_prime(lat, a):
    if a == lat.bottom:
        return False
    up_a = lat.poset.above[a]
    for x in range(lat.n):
        jrow = lat.joins[x]
        mrow = lat.meets[x]
        for y in range(x, lat.n):
            if mrow[y] == lat.bottom and (lat.poset.below[jrow[y]] >> a) & 1:
                if not ((up_a >> x) & 1 or (up_a >> y) & 1):
                    return False
    return True


def _check_disjoint_join_indecomposable(lat, a):
    if a == lat.bottom:
        return False
    for x in range(lat.n):
        if x == lat.bottom:
            continue
        jrow = lat.joins[x]
        mrow = lat.meets[x]
        for y in range(x, lat.n):
            if y == lat.bottom:
                continue
            if jrow[y] == a and mrow[y] == lat.bottom:
                return False
    return True


def _check_separated_join_member(lat, a):
    # the empty separated set joins to bottom, which fails membership
    if a == lat.bottom:
        return False
    # a counterexample is a separated subset of the strict down-set of a
    # (bottom and a itself excluded) joining exactly to a
    candidates = lat.poset.below[a] & ~(1 << a) & ~(1 << lat.bottom)
    disj = lat.disjointness()

    def search(cur_join, allowed):
        rest = allowed
        while rest:
            low = rest & -rest
            e = low.bit_length() - 1
            rest ^= low
            j = lat.joins[cur_join][e]
            if j == a:
                return True
            if search(j, rest & disj[e]):
                return True
        return False

    return not search(lat.bottom, candidates)


def _check_separated_join_prime(lat, a):
    if a == lat.bottom:
        return False
    # every member of a counterexample fails a <= s, so restrict candidates
    not_above_a = ~lat.poset.above[a] & lat.poset.full_mask()
    candidates = not_above_a & ~(1 << lat.bottom)
    disj = lat.disjointness()
    up_a = lat.poset.above[a]

    def reachable(cur_join, allowed):
        # upper bound on any join attainable from here
        j = cur_join
        for e in iter_bits(allowed):
            j = lat.joins[j][e]
        return (up_a >> j) & 1 == 1

    def search(cur_join, allowed):
        if (up_a >> cur_join) & 1:
            return True
        if not reachable(cur_join, allowed):
            return False
        rest = allowed
        while rest:
            low = rest & -rest
            e = low.bit_length() - 1
            rest ^= low
            if search(lat.joins[cur_join][e], rest & disj[e]):
                return True
        return False

    return not search(lat.bottom, candidates)


# condition name -> its check on (lat, a), in the module docstring's order
_CONDITIONS = {
    "disjoint-join-prime": _check_disjoint_join_prime,
    "disjoint-join-indecomposable": _check_disjoint_join_indecomposable,
    "separated-join-member": _check_separated_join_member,
    "separated-join-prime": _check_separated_join_prime,
}
CONDITIONS = tuple(_CONDITIONS)


def check_condition(lat, a, which):
    try:
        check = _CONDITIONS[which]
    except KeyError:
        raise ValueError(f"unknown condition: {which!r}") from None
    return check(lat, a)


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
    cap = config.DEFAULT_FAMILY_CAP
    masks = []
    for m in iter_separated_masks(lat, lat.connected_mask()):
        masks.append(m)
        if len(masks) > cap:
            raise SizeBudgetExceeded("separated-set family", len(masks), cap)
    masks.sort()
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
    image = set(sp.nu)
    surjective = len(image) == lat.n
    injective = len(image) == len(sp.nu)
    order_iso = False
    if surjective and injective:
        # reflects order: join(S1) <= join(S2) implies S1 <= S2
        up = pullback(sp.nu, lat.n, lat.poset.above)
        order_iso = not any(up[v] & ~row
                            for v, row in zip(sp.nu, sp.poset.above))
    if order_iso:
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
