"""Isomorph-free generation of finite posets and chainmails.

The generator is a canonical-augmentation walk: every poset on k+1
elements arises from a poset on k elements by adding one new maximal
element over a down-closed subset, and a candidate child is kept only
when the element just added is interchangeable, under the child's own
automorphisms, with the child's canonically distinguished maximal
element.  Each isomorphism class is therefore produced exactly once,
with memory proportional to the recursion depth.

Most children are decided without a labeling, cheap invariant first
(McKay, Isomorph-free exhaustive generation, 1998).  The distinguished
maximal element has the largest strict down-set among the maximal
elements, so a new element whose down-set is smaller than that of a
maximal element it leaves maximal is rejected before the child is
built, and one larger than all of theirs is kept unlabeled.  A tie is
decided from the child's refined colors when the new element's color
is below the top class of maximal elements, alone in it, or shares it
only with twins; only the remaining ties are labeled.  The walk hands
each child accepted unlabeled its automorphism group, by Schreier's
lemma from the parent's (Seress, Permutation Group Algorithms, 2003),
so no parent is labeled for its group.

The chainmail filters walk a pruned tree.  Call a poset
*top-completable* when every 2-element mail that has an upper bound has
a least one, that is, when P with a new top adjoined (P + top) is a
chainmail.  In a mail-connected chainmail the whole carrier is a
mail-connected set, so it has a join, a top; removing it matches the
mail-connected chainmails on n+1 elements one-to-one with the
top-completable posets on n.  So the census walks the top-completable
posets to n-1, from the empty poset (whose P + top is the singleton),
and yields P + top for each.  That child is accepted unlabeled, so the
representative is the one the walk of all posets would give.  Every
chainmail is top-completable, so the chainmails filter walks the same
tree to n and keeps the chainmails it visits: a top-completable poset is
a chainmail exactly when every 2-element mail has an upper bound, which
its join table shows.

Pruning is sound.  Each added element is maximal when added, so it
never lies below an old upper bound: a pair with upper bounds but no
least one keeps that obstruction in every descendant, and every
ancestor of a top-completable poset is top-completable.  A child over
the down-set D stays top-completable exactly when D is closed under the
parent's defined pair joins, for then each pair inside D that has a
join k keeps k, which lies below the new element, as its least upper
bound.  The test is invariant under automorphisms, so it filters the
down-sets before their orbits are taken.  The join table travels down
the recursion: in the child the pairs inside D that had no upper bound
get the new element as their join, and nothing else changes; a worker
gets each seed with its table and its group.
"""

import os
from collections import Counter
from dataclasses import dataclass
from functools import partial

from . import config
from .canonical import canonical_maximal_position, iter_bits, refine_colors
from .errors import AxiomViolation, NotAChainmail, SizeBudgetExceeded
from .mails import as_chainmail, iter_td_masks
from .poset import Poset, _down_closed_masks, to_dot

FILTERS = ("all-posets", "chainmails", "mail-connected-chainmails")

_SPLIT_SIZE = 5  # seed size at which the tree is handed to workers


@dataclass(frozen=True)
class EnumerationTask:
    """What to generate: target size, structure filter, workers."""

    size: int
    filter: str = "all-posets"
    jobs: int = 1

    def __post_init__(self):
        if self.size < 1:
            raise AxiomViolation("task-size", self.size)
        if self.jobs < 1:
            raise AxiomViolation("task-jobs", self.jobs)
        if self.filter not in FILTERS:
            raise AxiomViolation("task-filter", self.filter)


@dataclass(frozen=True)
class CatalogEntry:
    code: str
    poset: Poset
    chainmail: bool
    mail_connected: bool
    d_size: object
    filename: str


def _check_size(n, budget):
    cap = config.enum_cap(budget)
    if n > cap:
        raise SizeBudgetExceeded("enumeration size", n, cap)


def _orbit(gens, mask):
    """Every image of the element set ``mask`` under the group ``gens``
    span, as a Schreier tree: each image maps to ``(x, g)``, an image met
    before it and a generator taking x to it; ``mask`` maps to None."""
    orbit = {mask: None}
    stack = [mask]
    while stack:
        x = stack.pop()
        bits = list(iter_bits(x))
        for g in gens:
            image = 0
            for i in bits:
                image |= 1 << g[i]
            if image not in orbit:
                orbit[image] = (x, g)
                stack.append(image)
    return orbit


def _downset_orbit_reps(p, keep=None):
    """The least down-closed subset of each automorphism orbit, ascending,
    each as ``(mask, its orbit by _orbit)``; with ``keep``, an
    automorphism-invariant test, only orbits it passes.

    Orbits are closed under the generators :meth:`Poset.automorphisms`
    returns, acting on bits; no labeling beyond the parent's own is run.
    """
    gens = p.automorphisms()
    reps = []
    seen = set()
    for mask in _down_closed_masks(p):
        if mask not in seen and (keep is None or keep(mask)):
            orbit = _orbit(gens, mask)
            reps.append((mask, orbit))
            seen.update(orbit)
    return reps


def _stabilizer(p, orbit):
    """Generators of the automorphism group of the child of ``p`` over the
    root D of ``orbit``, for a child whose new element z = p.n is fixed by
    every automorphism or swapped only with twins, maximal elements whose
    strict down-set is D (see :func:`_children`).

    Schreier's lemma: with t_x in ``p``'s group taking D to x, read off the
    Schreier tree, the stabilizer of D is generated by the t_{g x}^-1 g t_x
    over the orbit's x and the generators g.  Each is extended by z -> z,
    and one swap of z with a twin, if there is one, is added.
    """
    n = p.n
    gens = p.automorphisms()
    ident = tuple(range(n))
    trans = {}
    inverse = {}
    for x, edge in orbit.items():
        t = ident if edge is None else tuple(map(edge[1].__getitem__,
                                                 trans[edge[0]]))
        trans[x] = t
        u = [0] * n
        for i, j in enumerate(t):
            u[j] = i
        inverse[x] = u
    found = {}
    for x, t in trans.items():
        bits = list(iter_bits(x))
        for g in gens:
            y = 0
            for i in bits:
                y |= 1 << g[i]
            s = tuple(map(inverse[y].__getitem__, map(g.__getitem__, t)))
            if s != ident:
                found[s] = None
    out = [s + (n,) for s in found]
    dmask = next(iter(orbit))
    for m in range(n):
        if p.below[m] ^ 1 << m == dmask and p.above[m] == 1 << m:
            swap = list(range(n + 1))
            swap[m], swap[n] = n, m
            out.append(tuple(swap))
            break
    return tuple(out)


def _join_closed(joined, dmask):
    """Whether the down-set ``dmask`` holds the join of each mail in it."""
    rest = dmask
    while rest:
        low = rest & -rest
        rest ^= low
        for k, js in joined[low.bit_length() - 1]:
            if js & dmask and not (dmask >> k) & 1:
                return False
    return True


def _child_joins(p, joins, dmask):
    """The join table of ``_extend(p, dmask)``, from ``p``'s: the mails
    inside ``dmask`` with no upper bound get the new element z as their
    join, and the elements outside ``dmask`` whose down-sets meet it form
    mails with z that have no upper bound."""
    free, joined = joins
    z = p.n
    zbit = 1 << z
    child_free = list(free)
    child_joined = list(joined)
    hang = 0
    for i, f in enumerate(free):
        if (dmask >> i) & 1:
            inside = f & dmask
            if inside:
                child_free[i] = f ^ inside
                higher = inside & -(2 << i)
                if higher:
                    child_joined[i] = joined[i] + ((z, higher),)
        elif p.below[i] & dmask:
            child_free[i] = f | zbit
            hang |= 1 << i
    child_free.append(hang)
    child_joined.append(())
    return tuple(child_free), tuple(child_joined)


def _extend(p, dmask, automorphisms=None):
    """Add a new maximal element above exactly the down-closed ``dmask``."""
    bit = 1 << p.n
    above = [row | bit if (dmask >> i) & 1 else row
             for i, row in enumerate(p.above)]
    above.append(bit)
    return Poset(above, below=p.below + (dmask | bit,),
                 automorphisms=automorphisms)


def _accepted(child, colors=None):
    """Keep the child only if the new element is canonically removable.

    The new element sits at the last index and is maximal; it survives
    when it lies in the same automorphism orbit as the element occupying
    the canonically distinguished maximal position, which the code of
    the child determines without reference to labels.  The orbit is
    closed under the generators from the child's one labeling, which
    takes the child's refined ``colors`` when they are at hand.
    """
    n = child.n
    code, perm = child.canonical(colors)
    pos = canonical_maximal_position(n, child.above, perm)
    z = n - 1
    if perm[z] == pos:
        return True
    w = perm.index(pos)
    return (1 << z) in _orbit(child.automorphisms(), 1 << w)


def _children(p, joins=None):
    """The accepted children of ``p``, one per down-set orbit, in order,
    as ``(child, child's join table)``.  Given ``p``'s join table, only
    the children that stay top-completable; without one, every child,
    with None.

    Let z be the new element over the down-set D, of size d, and ``need``
    the largest strict down-set size of a maximal element z leaves
    maximal.  Refinement first ranks elements by (strict down-set size,
    strict up-set size) and later only splits ranks, and canonical
    positions run through the color classes in color order.  So the
    distinguished element w lies in T, the highest color class holding a
    maximal element, and T holds only maximal elements (an element below
    a maximal one has the smaller down-set).  If d < need, z ranks below
    T: rejected.  If d > need, T = {z}: accepted.  A tie, d == need, is
    refined once and decided by the first rule that applies:

    1. z's color is below T's: automorphisms keep colors, so z is not in
       the orbit of w; rejected.
    2. T = {z}: w = z; accepted.
    3. Every other member of T is a twin of z, a maximal element whose
       strict down-set is D: swapping z with a twin is an automorphism,
       so w is in z's orbit; accepted.
    4. Otherwise :func:`_accepted` labels the child, from those colors.

    A child accepted unlabeled takes its group from the walk, computed
    when first asked (:func:`_stabilizer`).  Automorphisms keep colors,
    so they map z into T, that is, to z or a twin m, and (z m) times
    such a map fixes z.  An automorphism fixing z fixes D, its strict
    down-set, and restricts to one of ``p``; each of those fixing D
    extends by z -> z.  So the group is generated by the stabilizer of D
    in Aut(p) and, if there are twins, one swap (z m): two twins m, m'
    are twins in ``p`` as well, so (m m') lies in the stabilizer and
    (z m') = (m m')(z m)(m m').  Under rule 4 the labeling gives the
    group.
    """
    maximal = [m for m in range(p.n) if p.above[m] == 1 << m]
    keep = None if joins is None else partial(_join_closed, joins[1])
    z = p.n
    for dmask, orbit in _downset_orbit_reps(p, keep):
        others = [m for m in maximal if not (dmask >> m) & 1]
        need = max((p.below[m].bit_count() for m in others), default=0) - 1
        d = dmask.bit_count()
        if d < need:
            continue
        child = _extend(p, dmask, partial(_stabilizer, p, orbit))
        if d == need:
            colors = refine_colors(z + 1, child.above, child.below)
            top = max(colors[m] for m in others)
            if colors[z] < top:
                continue
            tied = [m for m in others if colors[m] == colors[z]]
            if any(p.below[m] != dmask | 1 << m for m in tied) \
                    and not _accepted(child, colors):
                continue
        yield child, (None if joins is None
                      else _child_joins(p, joins, dmask))


def _walk(p, n, joins=None):
    """Yield ``(p, joins)`` and the same for every accepted descendant up
    to size ``n``; given ``p``'s join table, only the top-completable
    ones, each with its own table."""
    yield p, joins
    if p.n < n:
        for child, child_joins in _children(p, joins):
            yield from _walk(child, n, child_joins)


def _mail_connected(g):
    return len(g.components_of(g.poset.full_mask())) == 1


def _tree(which, size):
    """``(root, root's join table, depth)`` of the walk behind a filter.

    All posets: every poset from the singleton to ``size``.  Chainmails:
    the top-completable posets from the singleton to ``size``.  The
    census: the top-completable posets from the empty one to ``size - 1``,
    each P standing for P + top.  A join table is ``(free, joined)``:
    ``free[i]`` masks the j whose mail {i, j} has no upper bound, and
    ``joined[i]`` lists by ascending k the ``(k, js)``, ``js`` masking the
    j > i, incomparable with i, whose mail {i, j} has join k.  The roots'
    tables are constants; :func:`_child_joins` carries them down.
    """
    if which == "all-posets":
        return Poset((1,)), None, size
    if which == "chainmails":
        return Poset((1,)), ((0,), ((),)), size
    return Poset(()), ((), ()), size - 1


def _kept(joins, which):
    """Whether the visited poset, with join table ``joins``, stands for a
    structure under the filter: for chainmails, no mail lacks an upper
    bound."""
    return which != "chainmails" or not any(joins[0])


def _structure(p, which):
    """The structure the visited ``p`` stands for: P + top in the census."""
    if which == "mail-connected-chainmails":
        return _extend(p, p.full_mask())
    return p


def _count_subtrees(args):
    """The structures of one seed's proper descendants, as rows, or with
    ``tally`` as a count per size: one seed's work in :func:`_drain`.
    The seed is the node the walk built, so it is not labeled again."""
    seed, joins, size, which, tally = args
    depth = _tree(which, size)[2]
    found = (q for child, child_joins in _children(seed, joins)
             for q, q_joins in _walk(child, depth, child_joins)
             if _kept(q_joins, which))
    if not tally:
        return [_structure(q, which).above for q in found]
    return Counter(q.n + size - depth for q in found)


def _drain(seeds, next_seed, conn=None):
    """Count the subtrees of seeds claimed one at a time from the shared
    counter ``next_seed``; return the results, or send them down ``conn``."""
    parts = []
    while True:
        with next_seed.get_lock():
            i = next_seed.value
            next_seed.value = i + 1
        if i >= len(seeds):
            return parts if conn is None else conn.send(parts)
        parts.append(_count_subtrees(seeds[i]))


def _passing(task, tally=False):
    """Every structure up to ``task.size`` that passes the filter, as a
    :class:`Poset`, or with ``tally`` as ``(size, count)`` pairs.

    With one job, or when the walk is no deeper than the split size, this
    is one serial walk.  Otherwise the walk stops at the split size, and
    the parent and ``workers - 1`` forked children :func:`_drain` the
    seeds there: the nodes the walk built, with their join tables and
    their groups resolved, so a spawned child gets plain tuples.  Each
    child sends its results down its own pipe when done; they are yielded
    only once every child is joined, and on an error the children still
    alive are terminated.  Serial structures are yielded as built here, so
    none is labeled twice.
    """
    root, joins, depth = _tree(task.filter, task.size)
    lift = task.size - depth
    single = task.jobs == 1 or depth <= _SPLIT_SIZE
    seeds = []
    for p, p_joins in _walk(root, depth if single else _SPLIT_SIZE, joins):
        if _kept(p_joins, task.filter):
            yield (p.n + lift, 1) if tally else _structure(p, task.filter)
        if not single and p.n == _SPLIT_SIZE:
            p.automorphisms()
            seeds.append((p, p_joins, task.size, task.filter, tally))
    if single:
        return
    # imported here: most runs start no worker
    from multiprocessing import get_all_start_methods, get_context
    ctx = get_context("fork" if "fork" in get_all_start_methods() else None)
    workers = min(task.jobs, len(seeds), os.cpu_count() or 1)
    next_seed, children = ctx.Value("q", 0), []
    try:
        for _ in range(workers - 1):
            recv_end, send_end = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_drain, daemon=True,
                                args=(seeds, next_seed, send_end))
            child.start()
            children.append((child, recv_end))
            send_end.close()  # before the next fork: EOF once child exits
        parts = _drain(seeds, next_seed)
        for child, recv_end in children:
            parts += recv_end.recv()
            child.join()
    except EOFError:
        child.join()
        raise ChildProcessError(f"census worker exit code {child.exitcode}")
    finally:
        for child, _ in children:
            child.terminate()  # no signal once joined
            child.join()
    for part in parts:
        yield from (part.items() if tally else map(Poset, part))


def enumerate_posets(n, budget=None):
    """One representative per isomorphism class of posets on n elements."""
    _check_size(n, budget)
    if n == 0:
        yield Poset(())
    elif n > 0:
        yield from (p for p in _passing(EnumerationTask(n)) if p.n == n)


def posets_up_to(n, which="all-posets"):
    """The structures on 1..n elements that pass the filter ``which``, by
    size: one serial walk of its tree (:func:`_passing`), stably sorted.
    The walk is a preorder, so each size keeps the order
    :func:`enumerate_posets` yields it in; the chainmails tree is the
    all-posets tree pruned, so within a size its chainmails keep the
    all-posets order."""
    _check_size(n, None)
    if n < 1:
        return []
    return sorted(_passing(EnumerationTask(n, which)), key=lambda p: p.n)


def count_chainmails(task, budget=None):
    """Isomorphism-class counts per size, 1..task.size, under the filter."""
    _check_size(task.size, budget)
    counts = {s: 0 for s in range(1, task.size + 1)}
    for size, count in _passing(task, tally=True):
        counts[size] += count
    return counts


def _entry_fields(p):
    try:
        g = as_chainmail(p)
    except NotAChainmail:
        return False, False, None
    return True, _mail_connected(g), sum(1 for _ in iter_td_masks(g))


def emit_catalog(task, out_dir, budget=None):
    """Write one DOT file per structure plus a JSON-lines manifest.

    Files are named by size and by rank within the size (ordered by
    canonical code), so a rerun reproduces the same tree byte for byte.
    Returns the entries in file order.
    """
    import json  # imported here: most runs write no catalog
    _check_size(task.size, budget)
    found = sorted(_passing(task),
                   key=lambda p: (p.n, p.canonical()[0].hex()))
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    rank = {}
    for p in found:
        code = p.canonical()[0].hex()
        i = rank.get(p.n, 0)
        rank[p.n] = i + 1
        chain, connected, d_size = _entry_fields(p)
        filename = f"poset-n{p.n}-{i:04d}.dot"
        with open(os.path.join(out_dir, filename), "w") as fh:
            fh.write(to_dot(p, name=f"p{p.n}_{i}"))
        entries.append(CatalogEntry(code, p, chain, connected, d_size,
                                    filename))
    with open(os.path.join(out_dir, "manifest.jsonl"), "w") as fh:
        for e in entries:
            record = {"code": e.code, "n": e.poset.n, "chainmail": e.chainmail,
                      "mail_connected": e.mail_connected, "d_size": e.d_size,
                      "file": e.filename}
            fh.write(json.dumps(record) + "\n")
    return entries
