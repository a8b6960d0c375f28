"""Canonical labeling of finite posets by partition refinement plus backtracking.

The code produced is a complete isomorphism invariant: two posets get
byte-identical codes iff they are isomorphic.  The same search yields
generators of the automorphism group, so orbit questions need no second
labeling.  Self-contained on purpose: no external canonical-labeling tool,
so the whole artifact stays dependency-free.

Conventions: the order relation arrives as bit rows, ``above[i]`` = mask of
``{j : i <= j}`` including ``i`` itself.  The returned permutation maps old
index -> canonical position; an automorphism maps index -> image.
"""

from itertools import combinations

from .errors import SizeBudgetExceeded


def iter_bits(mask):
    """Yield the set bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def transpose(n, rows):
    """Column masks, over columns 0..n-1, of the bit rows ``rows``."""
    cols = [0] * n
    for i, row in enumerate(rows):
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= 1 << i
            row ^= low
    return cols


def refine_colors(n, above, below):
    """Stable coloring refined from one class by strict up/down neighborhoods.

    Color values are ranks of isomorphism-invariant keys, so corresponding
    elements of isomorphic structures always receive equal colors.  The
    first round ranks (strict down-set size, strict up-set size); each
    later one ranks (color, sorted colors strictly below, sorted colors
    strictly above), so it only splits classes.  A singleton class cannot
    split, so its key is its color alone.  Refinement stops once a round
    splits nothing or every class is a singleton.
    """
    sizes = [(below[i].bit_count(), above[i].bit_count()) for i in range(n)]
    rank = {k: r for r, k in enumerate(sorted(set(sizes)))}
    cur = [rank[k] for k in sizes]
    ncls = len(rank)
    if ncls == 1 or ncls == n:
        return cur
    sab = [[] for _ in range(n)]
    sbl = [[] for _ in range(n)]
    for i in range(n):
        row = above[i] ^ (1 << i)
        up = sab[i]
        while row:
            low = row & -row
            j = low.bit_length() - 1
            up.append(j)
            sbl[j].append(i)
            row ^= low
    while True:
        count = [0] * ncls
        for c in cur:
            count[c] += 1
        color = cur.__getitem__
        keys = [(c, tuple(sorted(map(color, sbl[i]))),
                 tuple(sorted(map(color, sab[i])))) if count[c] > 1 else (c,)
                for i, c in enumerate(cur)]
        rank = {k: r for r, k in enumerate(sorted(set(keys)))}
        cur = [rank[k] for k in keys]
        if len(rank) == ncls or len(rank) == n:
            return cur
        ncls = len(rank)


def _swap_masks(n, above, below):
    """swap[x] = mask of y such that transposing x,y is an automorphism."""
    swap = [0] * n
    for x, y in combinations(range(n), 2):
        if (above[x] >> y) & 1 or (above[y] >> x) & 1:
            continue  # comparable pair can never swap
        keep = ~((1 << x) | (1 << y))
        if above[x] & keep == above[y] & keep and below[x] & keep == below[y] & keep:
            swap[x] |= 1 << y
            swap[y] |= 1 << x
    return swap


def canonical_labeling(above, below, colors=None):
    """Return ``(code, perm, automorphisms)`` canonicalizing ``above``,
    whose transpose is ``below``; ``colors``, when given, is
    ``refine_colors(n, above, below)`` already computed.

    ``perm[old]`` is the canonical position of element ``old``; the code is
    the relation matrix of the relabeled poset, minimized over all labelings
    compatible with the refined partition.  ``automorphisms`` is a tuple of
    permutations (``g[i]`` is the image of ``i``) generating the whole
    automorphism group: the twin transpositions that prune the search, and
    one map from the best labeling to every other labeling met with the same
    code.  Every labeling with the best code that the search skips is the
    image of one it met under a twin transposition, so no automorphism is
    missing.
    """
    n = len(above)
    if n == 0:
        return b"\x00\x00", (), ()
    if n > 255:  # the code's header holds n in one byte
        raise SizeBudgetExceeded("canonical form", n, 255)
    refined = refine_colors(n, above, below) if colors is None else colors
    swap = _swap_masks(n, above, below)

    by_color = {}
    for i in range(n):
        by_color.setdefault(refined[i], []).append(i)
    pos_color = sorted(refined)

    chunks = [0] * n
    lab = [0] * n
    best = None
    best_lab = None
    autos = []
    for x in range(n):
        y = (swap[x] & -swap[x]).bit_length() - 1
        if 0 <= y < x:  # twins form classes; a star on each class suffices
            g = list(range(n))
            g[x], g[y] = y, x
            autos.append(tuple(g))

    # Invariant: `eq` iff best exists and chunks[:k] == best[:k]; whenever a
    # subtree finds a strictly smaller prefix, the stale best is dropped and
    # the subtree recomputes its own minimum unpruned.
    def descend(k, used, eq):
        nonlocal best, best_lab
        if k == n:
            if eq:
                g = [0] * n
                for i in range(n):
                    g[best_lab[i]] = lab[i]
                autos.append(tuple(g))
            else:
                best = chunks[:]
                best_lab = lab[:]
            return
        tried = 0
        for x in by_color[pos_color[k]]:
            bx = 1 << x
            if used & bx or swap[x] & tried:
                continue
            tried |= bx
            lo = 0
            hi = 0
            bel = below[x]
            abv = above[x]
            for j in range(k):
                e = lab[j]
                lo |= ((bel >> e) & 1) << j
                hi |= ((abv >> e) & 1) << j
            chunk = (lo << k) | hi
            if eq:
                b = best[k]
                if chunk > b:
                    continue
                if chunk < b:
                    best = None
                    child_eq = False
                else:
                    child_eq = True
            else:
                child_eq = False
            chunks[k] = chunk
            lab[k] = x
            descend(k + 1, used | bx, child_eq)
            eq = True  # a best now exists and extends chunks[:k]

    descend(0, 0, False)

    width = (2 * n + 7) // 8
    parts = [bytes([n, 0])]
    for c in best:
        parts.append(c.to_bytes(width, "little"))
    perm = [0] * n
    for pos, e in enumerate(best_lab):
        perm[e] = pos
    return b"".join(parts), tuple(perm), tuple(autos)


def canonical_maximal_position(n, above, perm):
    """Largest canonical position holding a maximal element.

    Determined by the canonical code alone, so the element sitting there is
    well-defined up to automorphism.
    """
    pos = -1
    for e in range(n):
        if above[e] == 1 << e and perm[e] > pos:
            pos = perm[e]
    return pos
