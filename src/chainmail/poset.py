"""Finite posets over element indices 0..n-1, stored as dense bit tables.

``above[i]`` is the bitmask of every j with i <= j (including i itself);
``below`` is its transpose.  All order queries reduce to mask arithmetic,
which keeps the exhaustive constructions elsewhere in the package fast
enough to run at desk scale.  Instances are immutable after construction
and safe to share between workers.
"""

from . import config
from .canonical import canonical_labeling, iter_bits, transpose
from .errors import AxiomViolation, CycleDetected, EmptyInput, SizeBudgetExceeded


def mask_of(members):
    """Pack an iterable of element indices into a bitmask."""
    m = 0
    for i in members:
        m |= 1 << i
    return m


def set_of(mask):
    """Unpack a bitmask into a frozenset of element indices."""
    return frozenset(iter_bits(mask))


def pullback(table, n, rows):
    """The preimage under ``table`` of each mask in ``rows`` (over 0..n-1),
    built from the fibres of the values, so a row costs one OR per member."""
    fibre = [0] * n
    for x, v in enumerate(table):
        fibre[v] |= 1 << x
    out = []
    for row in rows:
        pre = 0
        while row:
            low = row & -row
            pre |= fibre[low.bit_length() - 1]
            row ^= low
        out.append(pre)
    return out


def order_iso_break(table, p, q):
    """None when ``table`` is an order-isomorphism of p onto q; ``()``
    when it is no bijection; else the first pair (x, y), x-major, where
    x <= y and table[x] <= table[y] disagree."""
    if len(table) != q.n or len(set(table)) != q.n:
        return ()
    up = pullback(table, q.n, q.above)
    for x, v in enumerate(table):
        bad = p.above[x] ^ up[v]
        if bad:
            return x, next(iter_bits(bad))
    return None


def lower_order(masks, downs):
    """Up-set rows of the family order: i <= j iff ``masks[i]`` lies inside
    ``downs[j]``, the down-closure of ``masks[j]`` (or ``masks[j]`` itself).
    Row i is the meet, over the members e of ``masks[i]``, of the columns
    of ``downs`` that hold e: one mask operation per member."""
    holding = transpose(max([0, *masks, *downs]).bit_length(), downs)
    full = (1 << len(downs)) - 1
    above = []
    for m in masks:
        row = full
        for e in iter_bits(m):
            row &= holding[e]
        above.append(row)
    return above


def pairwise_family(beside, candidates, what):
    """Every subset of ``candidates`` whose members are pairwise allowed
    together, ``beside[e]`` being the mask of elements allowed with e, as
    ``(masks, steps)``.

    One depth-first walk, empty set first, grows each set by one member
    above its highest, lowest first.  ``steps[i]`` is ``(parent, last)``:
    set i is the earlier set ``parent`` plus its highest member ``last``;
    the empty set has ``(None, None)``.  More than
    ``config.DEFAULT_FAMILY_CAP`` sets raise SizeBudgetExceeded(what, ...).
    """
    cap = config.DEFAULT_FAMILY_CAP
    masks, steps = [0], [(None, None)]
    grown, rests = [0], [candidates]  # each open set and what it may take
    while rests:
        rest = rests[-1]
        if not rest:
            grown.pop()
            rests.pop()
            continue
        low = rest & -rest
        rest ^= low
        rests[-1] = rest
        if len(masks) == cap:
            raise SizeBudgetExceeded(what, cap + 1, cap)
        e, parent = low.bit_length() - 1, grown[-1]
        steps.append((parent, e))
        grown.append(len(masks))
        masks.append(masks[parent] | low)
        rests.append(rest & beside[e])
    return masks, steps


def components(touch, mask):
    """Connected components of ``mask`` in the graph whose edges are given
    by ``touch[x]``, the mask of elements touching x; as sorted masks."""
    out = []
    rest = mask
    while rest:
        low = rest & -rest
        comp = low
        frontier = low
        rest ^= low
        while frontier:
            grown = 0
            for x in iter_bits(frontier):
                grown |= touch[x] & rest
            rest &= ~grown
            comp |= grown
            frontier = grown
        out.append(comp)
    out.sort()
    return out


class Poset:
    """An immutable finite poset.

    The constructor trusts its argument: ``above`` must already be a valid
    reflexive-transitive up-set table, and ``below``, when given, its
    transpose.  Use :func:`validate_poset` for anything that arrives from
    outside the package.  ``automorphisms``, when given, is a callable
    returning generators of the group, which :meth:`automorphisms` calls
    once instead of labeling; a pickled poset keeps the result.
    """

    __slots__ = ("n", "above", "below", "labels", "_code", "_perm", "_autos",
                 "_lower_covers")

    def __init__(self, above, labels=None, below=None,
                 automorphisms=None):
        self.n = len(above)
        self.above = tuple(above)
        self.below = tuple(transpose(self.n, above) if below is None
                           else below)
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != self.n:
                raise AxiomViolation("label-count", (len(labels), self.n))
            if len(set(labels)) != self.n:
                raise AxiomViolation("label-distinctness", labels)
        self.labels = labels
        self._code = None
        self._perm = None
        self._autos = automorphisms
        self._lower_covers = None

    def __repr__(self):
        return f"Poset(n={self.n}, covers={self.covers()})"

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.above == other.above
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.above, self.labels))

    def leq(self, i, j):
        return (self.above[i] >> j) & 1 == 1

    def full_mask(self):
        return (1 << self.n) - 1

    def label_of(self, i):
        return self.labels[i] if self.labels is not None else str(i)

    def index_of(self, name):
        name = str(name)
        if self.labels is not None:
            try:
                return self.labels.index(name)
            except ValueError:
                raise KeyError(name) from None
        i = int(name)
        if not 0 <= i < self.n:
            raise KeyError(name)
        return i

    def covers(self):
        """Transitive reduction as a lexicographically sorted pair list."""
        return sorted((c, y) for y, low in self.lower_covers() for c in low)

    def lower_covers(self):
        """``(y, lower covers of y)`` for every element y, in a linear
        extension: by down-set size, ties by index."""
        if self._lower_covers is None:
            above, below = self.above, self.below
            order = sorted(range(self.n), key=lambda y: below[y].bit_count())
            self._lower_covers = tuple(
                (y, tuple(c for c in iter_bits(below[y] & ~(1 << y))
                          if above[c] & below[y] == (1 << c) | (1 << y)))
                for y in order)
        return self._lower_covers

    def lower_mask(self, mask):
        """Bitmask of common lower bounds of the elements in ``mask``."""
        out = self.full_mask()
        for i in iter_bits(mask):
            out &= self.below[i]
        return out

    def upper_mask(self, mask):
        out = self.full_mask()
        for i in iter_bits(mask):
            out &= self.above[i]
        return out

    def down_closure(self, mask):
        out = 0
        for i in iter_bits(mask):
            out |= self.below[i]
        return out

    def least_of(self, mask):
        """Least element of the sub-set ``mask``, or None."""
        for i in iter_bits(mask):
            if self.above[i] & mask == mask:
                return i
        return None

    def greatest_of(self, mask):
        for i in iter_bits(mask):
            if self.below[i] & mask == mask:
                return i
        return None

    def join_mask(self, mask):
        """Least upper bound of ``mask``, or None.  Empty mask gives bottom."""
        return self.least_of(self.upper_mask(mask))

    def meet_mask(self, mask):
        return self.greatest_of(self.lower_mask(mask))

    def is_down_closed(self, mask):
        return self.down_closure(mask) == mask

    def relabel(self, perm):
        """New poset with element i renamed to perm[i]."""
        above = [0] * self.n
        for i in range(self.n):
            row = 0
            for j in iter_bits(self.above[i]):
                row |= 1 << perm[j]
            above[perm[i]] = row
        labels = None
        if self.labels is not None:
            labels = [""] * self.n
            for i in range(self.n):
                labels[perm[i]] = self.labels[i]
        return Poset(above, labels)

    def canonical(self, colors=None):
        """(code, perm) where perm maps old index -> canonical position;
        ``colors``, when given, are this poset's refined colors."""
        if self._code is None:
            self._code, self._perm, self._autos = canonical_labeling(
                self.above, self.below, colors)
        return self._code, self._perm

    def automorphisms(self):
        """Generators of the automorphism group; ``g[i]`` is the image of i.

        They come from the constructor's callable, called once, or else
        from the same search as :meth:`canonical`, cached with its result.
        """
        if self._autos is None:
            self.canonical()
        elif callable(self._autos):
            self._autos = self._autos()
        return self._autos


def _down_closed_masks(p):
    """Every down-closed mask of ``p``, ascending.

    Built up along a linear extension: once the elements strictly below
    k are placed, the down-sets holding k are those without it that
    already contain its strict down-set, each plus k.
    """
    masks = [0]
    for k in sorted(range(p.n), key=lambda i: p.below[i].bit_count()):
        bit = 1 << k
        strict = p.below[k] ^ bit
        masks += [d | bit for d in masks if d & strict == strict]
    masks.sort()
    return masks


def validate_poset(size, pairs, mode="covers", labels=None, budget=None):
    """Build a Poset from untrusted data.

    mode="covers": pairs are strict covers (a, b) with a below b; the
    digraph must be acyclic and <= becomes its reflexive-transitive
    closure.  mode="full-relation": pairs are the entire <= relation and
    all three poset axioms are checked.
    """
    cap = config.poset_cap(budget)
    if size > cap:
        raise SizeBudgetExceeded("poset", size, cap)
    if size < 0:
        raise AxiomViolation("size", size)
    pairs = [(int(a), int(b)) for a, b in pairs]
    for a, b in pairs:
        if not (0 <= a < size and 0 <= b < size):
            raise AxiomViolation("element-range", (a, b))

    if mode == "covers":
        succ = [0] * size
        for a, b in pairs:
            if a == b:
                raise CycleDetected([a])
            succ[a] |= 1 << b
        return Poset(_closure(size, succ), labels)

    if mode == "full-relation":
        above = [0] * size
        for a, b in pairs:
            above[a] |= 1 << b
        for i in range(size):
            if not (above[i] >> i) & 1:
                raise AxiomViolation("reflexivity", (i, i))
        below = transpose(size, above)
        for i in range(size):
            bad = above[i] & below[i] & ~(1 << i)
            if bad:
                j = next(iter_bits(bad))
                raise AxiomViolation("antisymmetry", (i, j))
        for i in range(size):
            for j in iter_bits(above[i]):
                missing = above[j] & ~above[i]
                if missing:
                    k = next(iter_bits(missing))
                    raise AxiomViolation("transitivity", (i, k))
        return Poset(above, labels)

    raise ValueError(f"unknown mode: {mode!r}")


def _closure(size, succ):
    """Up-set rows of the reflexive-transitive closure of the digraph
    ``succ``, by one depth-first pass: roots from 0 up, successors
    ascending, each row closed as its node is left.  The first back edge
    raises CycleDetected with the path from its target."""
    above = [0] * size  # 0 until the node is left
    for root in range(size):
        if above[root]:
            continue
        path, rests, active = [root], [succ[root]], 1 << root
        while path:
            rest = rests[-1]
            if rest:
                low = rest & -rest
                rests[-1] = rest ^ low
                w = low.bit_length() - 1
                if low & active:
                    raise CycleDetected(path[path.index(w):])
                if not above[w]:
                    path.append(w)
                    rests.append(succ[w])
                    active |= low
                continue
            v = path.pop()
            rests.pop()
            active ^= 1 << v
            row = 1 << v
            for w in iter_bits(succ[v]):
                row |= above[w]
            above[v] = row
    return above


# -- convenience wrappers over sets of indices ------------------------------

def covers(p):
    return p.covers()


def lower_bounds(p, s):
    members = frozenset(s)
    if not members:
        raise EmptyInput("lower_bounds of the empty set is the whole poset")
    return set_of(p.lower_mask(mask_of(members)))


def upper_bounds(p, s):
    members = frozenset(s)
    if not members:
        raise EmptyInput("upper_bounds of the empty set is the whole poset")
    return set_of(p.upper_mask(mask_of(members)))


def join_of(p, s):
    return p.join_mask(mask_of(s))


def meet_of(p, s):
    return p.meet_mask(mask_of(s))


def canonical_form(p):
    return p.canonical()


def is_isomorphic(p, q):
    return p.n == q.n and p.canonical()[0] == q.canonical()[0]


# -- interchange -------------------------------------------------------------

def to_json_dict(p):
    names = [p.label_of(i) for i in range(p.n)]
    cover_names = sorted((names[a], names[b]) for a, b in p.covers())
    return {
        "elements": sorted(names),
        "covers": [list(pair) for pair in cover_names],
    }


def from_json_dict(data, budget=None):
    try:
        names = data["elements"]
        cover_items = data["covers"]
    except (KeyError, TypeError) as exc:
        raise AxiomViolation("json-shape", str(exc)) from None
    if not isinstance(names, (list, tuple)) \
            or not isinstance(cover_items, (list, tuple)):
        raise AxiomViolation("json-shape", "elements and covers are lists")
    for name in names:
        if not isinstance(name, str):
            raise AxiomViolation("json-shape",
                                 f"element {name!r} is not a string")
    if len(set(names)) != len(names):
        raise AxiomViolation("label-distinctness", names)
    index = {name: i for i, name in enumerate(names)}
    pairs = []
    for item in cover_items:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise AxiomViolation("json-shape", f"cover {item!r} is not a pair")
        a, b = item
        if not isinstance(a, str) or not isinstance(b, str):
            raise AxiomViolation("json-shape",
                                 f"cover {item!r} names a non-string")
        if a not in index or b not in index:
            raise AxiomViolation("element-range", (a, b))
        pairs.append((index[a], index[b]))
    return validate_poset(len(names), pairs, mode="covers", labels=names,
                          budget=budget)


def heights(p):
    """Longest-chain-from-a-minimal-element height of every element."""
    h = [0] * p.n
    for y, covers in p.lower_covers():
        h[y] = max((h[c] + 1 for c in covers), default=0)
    return h


def to_dot(p, name="poset"):
    """Hasse diagram in DOT, one edge per cover, ranked by height."""
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=ellipse];"]
    for i in range(p.n):
        label = p.label_of(i).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  e{i} [label="{label}"];')
    for a, b in p.covers():
        lines.append(f"  e{a} -> e{b};")
    h = heights(p)
    for level in sorted(set(h)):
        same = " ".join(f"e{i};" for i in range(p.n) if h[i] == level)
        lines.append(f"  {{ rank=same; {same} }}")
    lines.append("}")
    return "\n".join(lines) + "\n"
