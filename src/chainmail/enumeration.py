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
built, and one larger than all of theirs is kept unlabeled.  Only ties
are labeled to decide them.

Counting runs keep the whole tree: a poset that is not a chainmail can
still have chainmail descendants (later elements may supply the missing
joins), so structure filters are applied to the visited posets, never
used for pruning.
"""

import json
import os
from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context

from . import config
from .canonical import canonical_maximal_position, iter_bits
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
    """Every image of the element set ``mask`` under the group ``gens`` span."""
    orbit = {mask}
    stack = [mask]
    while stack:
        bits = list(iter_bits(stack.pop()))
        for g in gens:
            image = 0
            for i in bits:
                image |= 1 << g[i]
            if image not in orbit:
                orbit.add(image)
                stack.append(image)
    return orbit


def _downset_orbit_reps(p):
    """The least down-closed subset of each automorphism orbit, ascending.

    Orbits are closed under the generators :meth:`Poset.automorphisms`
    returns, acting on bits; no labeling beyond the parent's own is run.
    """
    gens = p.automorphisms()
    reps = []
    seen = set()
    for mask in _down_closed_masks(p):
        if mask not in seen:
            reps.append(mask)
            seen |= _orbit(gens, mask)
    return reps


def _extend(p, dmask):
    """Add a new maximal element above exactly the down-closed ``dmask``."""
    bit = 1 << p.n
    above = [row | bit if (dmask >> i) & 1 else row
             for i, row in enumerate(p.above)]
    above.append(bit)
    return Poset(above)


def _accepted(child):
    """Keep the child only if the new element is canonically removable.

    The new element sits at the last index and is maximal; it survives
    when it lies in the same automorphism orbit as the element occupying
    the canonically distinguished maximal position, which the code of
    the child determines without reference to labels.  The orbit is
    closed under the generators from the child's one labeling.
    """
    n = child.n
    code, perm = child.canonical()
    pos = canonical_maximal_position(n, child.above, perm)
    z = n - 1
    if perm[z] == pos:
        return True
    w = perm.index(pos)
    return (1 << z) in _orbit(child.automorphisms(), 1 << w)


def _children(p):
    """The accepted children of ``p``, one per down-set orbit, in order.

    Refinement first ranks elements by (strict down-set size, strict
    up-set size) and later only splits ranks.  So a new element ranked
    below a maximal element it leaves maximal never shares that one's
    color, and one ranked above them all (above ``need``) is alone in its
    class, at the canonical maximal position.
    """
    maximal = [m for m in range(p.n) if p.above[m] == 1 << m]
    for dmask in _downset_orbit_reps(p):
        need = max((p.below[m].bit_count() for m in maximal
                    if not (dmask >> m) & 1), default=0) - 1
        d = dmask.bit_count()
        if d < need:
            continue
        child = _extend(p, dmask)
        if d > need or _accepted(child):
            yield child


def _walk(p, n):
    """Yield ``p`` and every accepted descendant up to size ``n``."""
    yield p
    if p.n < n:
        for child in _children(p):
            yield from _walk(child, n)


def _walk_from_unit(n):
    if n >= 1:
        yield from _walk(Poset((1,)), n)


def enumerate_posets(n, budget=None):
    """One representative per isomorphism class of posets on n elements."""
    _check_size(n, budget)
    if n == 0:
        yield Poset(())
        return
    for p in _walk_from_unit(n):
        if p.n == n:
            yield p


def posets_up_to(n):
    """One representative per isomorphism class on 1..n elements, by size.

    One walk, stably sorted by size: the walk is a preorder, and cutting
    it off deeper does not reorder the posets of one size, so each size
    comes out in the order :func:`enumerate_posets` yields it.
    """
    _check_size(n, None)
    return sorted(_walk_from_unit(n), key=lambda p: p.n)


def _mail_connected(g):
    return len(g.components_of(g.poset.full_mask())) == 1


def _passes(p, which):
    if which == "all-posets":
        return True
    try:
        g = as_chainmail(p)
    except NotAChainmail:
        return False
    return which == "chainmails" or _mail_connected(g)


def _count_subtrees(args):
    """Pool worker: the passing proper descendants of one seed, as rows,
    or with ``tally`` as a count per size."""
    rows, n, which, tally = args
    found = (q for child in _children(Poset(rows)) for q in _walk(child, n)
             if _passes(q, which))
    if not tally:
        return [q.above for q in found]
    counts = {}
    for q in found:
        counts[q.n] = counts.get(q.n, 0) + 1
    return counts


def _pool_context():
    """Fork where the platform has it, so workers start from this process."""
    if "fork" in get_all_start_methods():
        return get_context("fork")
    return get_context()


def _passing(task, tally=False):
    """Every visited poset up to ``task.size`` that passes the filter, as a
    :class:`Poset`, or with ``tally`` as ``(size, count)`` pairs.

    With one job, or up to the split size, this is one serial walk.
    Otherwise the walk stops at the split size and each seed there is
    one pool task; subtrees differ widely in size, so tasks are handed
    out one at a time and their results stream back as each finishes.
    For a tally a worker returns its count per size; otherwise it returns
    rows, which become posets here.  Serial posets are yielded as the
    walk built them, so none is labeled twice.
    """
    single = task.jobs == 1 or task.size <= _SPLIT_SIZE
    seeds = []
    for p in _walk_from_unit(task.size if single else _SPLIT_SIZE):
        if _passes(p, task.filter):
            yield (p.n, 1) if tally else p
        if not single and p.n == _SPLIT_SIZE:
            seeds.append((p.above, task.size, task.filter, tally))
    if single:
        return
    workers = min(task.jobs, len(seeds), os.cpu_count() or 1)
    with _pool_context().Pool(workers) as pool:
        for part in pool.imap_unordered(_count_subtrees, seeds):
            yield from (part.items() if tally else map(Poset, part))


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
