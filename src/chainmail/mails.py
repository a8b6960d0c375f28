"""Chainmails: posets in which every mail has a join.

A mail is a nonempty set of elements with a common lower bound.  The
validation criterion only looks at 2-element mails: in a finite poset
where every 2-element mail has a join, the join of an arbitrary mail can
be built by folding pairwise joins (each intermediate pair shares the
mail's lower bound), and the fold is the least upper bound.  The test
suite cross-checks this against the exponential all-mails definition.
"""

from dataclasses import dataclass, field

from . import config
from .canonical import iter_bits
from .errors import (
    AxiomViolation,
    NotAChainmail,
    NotMailConnected,
    SizeBudgetExceeded,
    TheoremViolation,
)
from .lattice import CompleteLattice
from .poset import Poset, components, iter_pairwise_masks, mask_of, set_of


class Chainmail:
    """A validated chainmail; build with :func:`as_chainmail`.

    ``joins[i][j]`` is the join of the mail {i, j} (i on the diagonal), or
    None when i and j have no common lower bound; ``overlap[i]`` is the
    mask of the j whose join with i is defined; ``_d`` caches its D.
    """

    __slots__ = ("poset", "n", "joins", "overlap", "_d")

    def __init__(self, poset, joins, overlap):
        self.poset = poset
        self.n = poset.n
        self.joins = joins
        self.overlap = overlap
        self._d = None

    def __repr__(self):
        return f"Chainmail(n={self.n})"

    def components_of(self, mask):
        """Maximal mail-connected subsets of ``mask``, as sorted masks."""
        return components(self.overlap, mask)

    def mail_joins_within(self, mask):
        """Mask of the joins of the 2-element mails inside ``mask``."""
        joins, overlap = self.joins, self.overlap
        out = 0
        for i in iter_bits(mask):
            row = joins[i]
            for j in iter_bits(overlap[i] & mask & -(2 << i)):  # j > i
                out |= 1 << row[j]
        return out


def as_chainmail(p):
    """Validate that Poset ``p`` is a chainmail and tabulate its mail joins.

    Checks every 2-element mail for a join; the witness on failure is the
    first failing pair in index order.  The empty poset passes vacuously.
    """
    if not isinstance(p, Poset):
        raise TypeError(f"expected Poset, got {type(p).__name__}")
    n, above, below = p.n, p.above, p.below
    joins = [[None] * n for _ in range(n)]
    overlap = [1 << i for i in range(n)]
    for i in range(n):
        bi, ai, row = below[i], above[i], joins[i]
        row[i] = i
        for j in range(i + 1, n):
            if bi & below[j]:
                jm = p.least_of(ai & above[j])
                if jm is None:
                    raise NotAChainmail((i, j))
                row[j] = joins[j][i] = jm
                overlap[i] |= 1 << j
                overlap[j] |= 1 << i
    return Chainmail(p, tuple(map(tuple, joins)), tuple(overlap))


def poset_is_chainmail(p):
    """Pairwise criterion as a predicate, for enumeration filters."""
    try:
        as_chainmail(p)
    except NotAChainmail:
        return False
    return True


def is_mail(g, s):
    mask = mask_of(s)
    if not mask:
        return False
    return g.poset.lower_mask(mask) != 0


def mail_components(g, x):
    return tuple(set_of(m) for m in g.components_of(mask_of(x)))


def join_of_mail_connected(g, c):
    """Join of a mail-connected set, built by hierarchical pairwise joins.

    Starts from one element and repeatedly joins in an element whose
    down-set meets the accumulated join's down-set; every such pair is a
    2-element mail, so its join exists.  The result is verified against
    the scan-based least upper bound.
    """
    mask = mask_of(c)
    comps = g.components_of(mask)
    if len(comps) != 1:
        raise NotMailConnected(tuple(set_of(m) for m in comps))
    rest = mask
    low = rest & -rest
    acc = low.bit_length() - 1
    rest ^= low
    while rest:
        nxt = g.overlap[acc] & rest
        if not nxt:
            raise TheoremViolation("hierarchical-join-stuck", (set_of(mask), acc))
        nxt &= -nxt
        acc = g.joins[acc][nxt.bit_length() - 1]
        rest ^= nxt
    lub = g.poset.join_mask(mask)
    if lub != acc:
        raise TheoremViolation("hierarchical-join-mismatch", (set_of(mask), acc, lub))
    return acc


def is_totally_disconnected(g, s):
    mask = mask_of(s)
    overlap = g.overlap
    for i in iter_bits(mask):
        if overlap[i] & mask & ~(1 << i):
            return False
    return True


@dataclass(frozen=True)
class TotallyDisconnectedSet:
    owner: Chainmail
    members: frozenset

    def mask(self):
        return mask_of(self.members)


@dataclass(frozen=True)
class Subchainmail:
    owner: Chainmail
    members: frozenset

    def mask(self):
        return mask_of(self.members)


def _x_star_mask(g, mask):
    out = 0
    for comp in g.components_of(mask):
        out |= 1 << join_of_mail_connected(g, set_of(comp))
    return out


def x_star(g, x):
    """Joins of the maximal mail-connected subsets of ``x``.

    Totally disconnected sets are fixed points; for a subchainmail the
    result's down-closure is the subchainmail itself.  For other inputs
    the component joins can fail to be totally disconnected, in which
    case the promised result type is uninhabitable and an AxiomViolation
    is raised carrying the offending join pair.
    """
    result = _x_star_mask(g, mask_of(x))
    members = set_of(result)
    if not is_totally_disconnected(g, members):
        raise AxiomViolation("x-star-not-totally-disconnected",
                             (frozenset(x), members))
    return TotallyDisconnectedSet(g, members)


def is_subchainmail(g, x):
    """Down-closed and closed under joins of contained mails.

    The closure check only needs 2-element mails: joins of bigger mails
    inside a down-closed set are folds of pairwise joins, and down-closure
    puts each mail's lower bound inside the set.
    """
    mask = mask_of(x)
    return (g.poset.is_down_closed(mask)
            and not g.mail_joins_within(mask) & ~mask)


def _generate_mask(g, mask):
    p = g.poset
    cur = p.down_closure(mask)
    while True:
        added = g.mail_joins_within(cur) & ~cur
        if not added:
            return cur
        cur = p.down_closure(cur | added)


def subchainmail_generated(g, x):
    """Least subchainmail containing ``x`` (fixpoint of down-closure and
    pairwise mail joins)."""
    return Subchainmail(g, set_of(_generate_mask(g, mask_of(x))))


def _maximal_of(p, mask):
    out = 0
    for i in iter_bits(mask):
        if p.above[i] & mask == 1 << i:
            out |= 1 << i
    return out


def iter_td_masks(g):
    """All totally disconnected sets of ``g`` as bitmasks, by backtracking."""
    return iter_pairwise_masks(tuple(~o for o in g.overlap),
                               g.poset.full_mask())


@dataclass(frozen=True)
class DLattice:
    """The complete lattice of totally disconnected sets of a chainmail.

    ``td_sets[i]`` is lattice element i as a carrier bitmask and
    ``subchainmails[i]`` its down-closure; the two views are the dictionary
    of the td-set/subchainmail bijection.  Order: D1 <= D2 iff every
    member of D1 lies below some member of D2.  ``steps[i]`` is
    ``(parent, last)``: td set i is td set ``parent`` plus its highest
    member ``last``, and their join; the empty td set 0 has
    ``(None, None)``.
    ``index`` maps each td set's mask to its position.
    """
    chainmail: Chainmail
    lattice: CompleteLattice
    td_sets: tuple
    subchainmails: tuple
    steps: tuple
    index: dict = field(compare=False)

    def index_of(self, members):
        return self.index[mask_of(members)]

    def join_images(self, lat, images):
        """For each td set in order, the join in ``lat`` of ``images[e]``
        over its members e: one join per set, from its parent's."""
        joins, steps = lat.joins, self.steps
        out = [lat.bottom] * len(steps)
        for i in range(1, len(steps)):
            parent, last = steps[i]
            out[i] = joins[out[parent]][images[last]]
        return out


def d_lattice(g):
    """The lattice of totally disconnected sets, built once per chainmail.

    Each td set j is its parent P plus its highest member e, and
    j = P v {e}: down(j) is already a subchainmail, since members
    sharing a lower bound would overlap, so each mail inside it lies
    below one member, and so does its join.  Hence i v j = (i v P) v {e}:
    row i copies its cells j < i from the earlier rows, the table being
    symmetric, and folds the rest along ``steps`` from i.  The singleton
    join i v {e} is i when e lies below a member of i, and otherwise goes
    through the dictionary (generate the subchainmail, take its maximal
    elements), once per (i, e).  The order is read off the joins:
    i <= j iff i v j = j.  Cost is quadratic in the number of td sets,
    which is worst-case exponential in the carrier; the family cap
    bounds the sets, and ``config.TABLE_CELL_CAP`` the table.  A build
    that raises keeps nothing.
    """
    if g._d is not None:
        return g._d
    p = g.poset
    tds = sorted(config.capped(iter_td_masks(g),
                               "totally-disconnected family"))
    k = len(tds)
    if k * k > config.TABLE_CELL_CAP:
        raise SizeBudgetExceeded("td-set join table", k * k,
                                 config.TABLE_CELL_CAP)
    index = {m: i for i, m in enumerate(tds)}
    # sorted order puts each td set after the set less its highest member
    steps = [(None, None)]
    for m in tds[1:]:
        last = m.bit_length() - 1
        steps.append((index[m ^ (1 << last)], last))
    down = [p.down_closure(m) for m in tds]

    singles = {}
    joins, above = [], []
    for i in range(k):
        row = [joins[j][i] for j in range(i)]
        row.append(i)
        for parent, e in steps[i + 1:]:
            x = row[parent]
            if not down[x] >> e & 1:    # else x v {e} = x
                y = singles.get((x, e))
                if y is None:
                    y = index.get(_maximal_of(
                        p, _generate_mask(g, down[x] | 1 << e)))
                    if y is None:
                        raise TheoremViolation(
                            "td-subchainmail-dictionary",
                            (set_of(tds[x]), set_of(1 << e)))
                    singles[x, e] = y
                x = y
            row.append(x)
        joins.append(tuple(row))
        above.append(sum(1 << j for j, v in enumerate(row) if v == j))

    labels = ["{" + ",".join(sorted((p.label_of(e) for e in iter_bits(m)))) + "}"
              for m in tds]
    dposet = Poset(above, labels)
    lat = CompleteLattice(dposet, joins, 0, dposet.greatest_of((1 << k) - 1))
    g._d = DLattice(g, lat, tuple(tds), tuple(down), tuple(steps), index)
    return g._d
