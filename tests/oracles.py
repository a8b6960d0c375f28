"""Independent reference implementations used to cross-check the package.

Everything in this module is written directly from the definitions, with
no imports from the package under test, and with deliberately different
algorithms: relations are generated by brute force, canonical codes are
minima over all permutations, connectivity is decided by growing sets.
Slow and obviously correct is the point.
"""

from itertools import combinations, permutations


# -- labeled and unlabeled posets ---------------------------------------------

def labeled_posets(n):
    """Yield every partial order on 0..n-1 as a tuple of leq bitmask rows.

    Each unordered pair independently gets one of three states (up, down,
    incomparable) and the transitive candidates are kept.  Sizes handled
    in practice: n <= 5 (3^10 candidates).
    """
    if n == 0:
        yield ()
        return
    pairs = list(combinations(range(n), 2))
    rows = [1 << i for i in range(n)]

    def emit(k):
        if k == len(pairs):
            if _is_transitive(n, rows):
                yield tuple(rows)
            return
        i, j = pairs[k]
        yield from emit(k + 1)
        rows[i] |= 1 << j
        yield from emit(k + 1)
        rows[i] &= ~(1 << j)
        rows[j] |= 1 << i
        yield from emit(k + 1)
        rows[j] &= ~(1 << i)

    yield from emit(0)


def _is_transitive(n, rows):
    for i in range(n):
        r = rows[i]
        m = r
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            if rows[j] & ~r:
                return False
    return True


def min_perm_code(n, rows):
    """Canonical integer: the minimum relation encoding over all n! relabelings."""
    best = None
    for perm in permutations(range(n)):
        code = 0
        for i in range(n):
            for j in range(n):
                if (rows[i] >> j) & 1:
                    code |= 1 << (perm[i] * n + perm[j])
        if best is None or code < best:
            best = code
    return best


def automorphisms(n, rows):
    """Every permutation g (g[i] = image of i) with i <= j iff g[i] <= g[j].

    Images are assigned in index order and a partial map is dropped as
    soon as one assigned pair disagrees; the result is the whole group.
    """
    out = []
    g = [0] * n

    def leq(i, j):
        return (rows[i] >> j) & 1

    def extend(k, free):
        if k == n:
            out.append(tuple(g))
            return
        for y in range(n):
            if not (free >> y) & 1:
                continue
            if all(leq(k, j) == leq(y, g[j]) and leq(j, k) == leq(g[j], y)
                   for j in range(k)):
                g[k] = y
                extend(k + 1, free & ~(1 << y))

    extend(0, (1 << n) - 1)
    return out


def refine_colors_reference(n, above, below):
    """The canonical labeling's color refinement, the plain way: every round,
    from one class, ranks each element's (color, sorted colors strictly
    below, sorted colors strictly above) until no class splits."""
    sbl = [[j for j in range(n) if j != i and (below[i] >> j) & 1]
           for i in range(n)]
    sab = [[j for j in range(n) if j != i and (above[i] >> j) & 1]
           for i in range(n)]
    cur = [0] * n
    ncls = 1
    while True:
        keys = [
            (
                cur[i],
                tuple(sorted(cur[j] for j in sbl[i])),
                tuple(sorted(cur[j] for j in sab[i])),
            )
            for i in range(n)
        ]
        rank = {k: r for r, k in enumerate(sorted(set(keys)))}
        cur = [rank[k] for k in keys]
        if len(rank) == ncls:
            return cur
        ncls = len(rank)


def unlabeled_poset_codes(n):
    return {min_perm_code(n, rows) for rows in labeled_posets(n)}


# -- order queries straight from the relation ---------------------------------

def lower_bound_mask(n, rows, mask):
    out = (1 << n) - 1
    m = mask
    while m:
        j = (m & -m).bit_length() - 1
        m &= m - 1
        col = 0
        for i in range(n):
            if (rows[i] >> j) & 1:
                col |= 1 << i
        out &= col
    return out


def least_upper_bound(n, rows, mask):
    """Index of the least upper bound of mask, or None."""
    uppers = []
    for u in range(n):
        ok = True
        m = mask
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            if not (rows[j] >> u) & 1:
                ok = False
                break
        if ok:
            uppers.append(u)
    for u in uppers:
        if all((rows[u] >> v) & 1 for v in uppers):
            return u
    return None


def meet_table(n, rows):
    """``out[i][j]`` is the greatest lower bound of i and j, or None: the
    common lower bound that every other one lies below."""
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            lows = [v for v in range(n)
                    if (rows[v] >> i) & 1 and (rows[v] >> j) & 1]
            for v in lows:
                if all((rows[u] >> v) & 1 for u in lows):
                    out[i][j] = v
    return out


def join_table(n, rows):
    """The ``(free, joined)`` join table of a top-completable poset, pair
    by pair from the definition.

    A mail is a pair {i, j} with a common lower bound.  ``free[i]`` masks
    the j whose mail {i, j} has no upper bound.  ``joined[i]`` lists, by
    ascending k, the pairs ``(k, js)``: ``js`` masks the j > i,
    incomparable with i, whose mail {i, j} has least upper bound k.
    Comparable pairs are left out, since a down-set holding both holds
    their join.
    """
    free = [0] * n
    joined = [{} for _ in range(n)]
    for i, j in combinations(range(n), 2):
        pair = (1 << i) | (1 << j)
        if not lower_bound_mask(n, rows, pair) \
                or (rows[i] >> j) & 1 or (rows[j] >> i) & 1:
            continue
        if not any((rows[i] >> u) & 1 and (rows[j] >> u) & 1
                   for u in range(n)):
            free[i] |= 1 << j
            free[j] |= 1 << i
            continue
        k = least_upper_bound(n, rows, pair)
        if k is None:
            raise ValueError(f"{{{i}, {j}}} has upper bounds but no least")
        joined[i][k] = joined[i].get(k, 0) | 1 << j
    return tuple(free), tuple(tuple(sorted(row.items())) for row in joined)


def first_monotonicity_break(rows1, rows2, table):
    """The first pair (i, j), i-major, with i <= j in the source but
    table[i] not <= table[j] in the target; None for a monotone table."""
    for i in range(len(rows1)):
        for j in range(len(rows1)):
            if (rows1[i] >> j) & 1 and not (rows2[table[i]] >> table[j]) & 1:
                return (i, j)
    return None


def first_join_break(rows1, rows2, table):
    """The first break of the join law, for any table between lattices:
    ``("bottom", b)`` when the source's bottom b does not go to the
    target's bottom, else the first pair (x, y), x < y, x-major, whose
    join does not go to the join of their images; None when the table
    preserves joins."""
    n1, n2 = len(rows1), len(rows2)
    bottom = least_upper_bound(n1, rows1, 0)
    if table[bottom] != least_upper_bound(n2, rows2, 0):
        return ("bottom", bottom)
    for x, y in combinations(range(n1), 2):
        image = (1 << table[x]) | (1 << table[y])
        if table[least_upper_bound(n1, rows1, (1 << x) | (1 << y))] \
                != least_upper_bound(n2, rows2, image):
            return (x, y)
    return None


def right_adjoint(rows1, rows2, table):
    """At each target element y, the greatest x with table[x] <= y, or
    None where that set has no greatest element."""
    out = []
    for y in range(len(rows2)):
        lower = [x for x in range(len(rows1)) if (rows2[table[x]] >> y) & 1]
        tops = [x for x in lower if all((rows1[z] >> x) & 1 for z in lower)]
        out.append(tops[0] if tops else None)
    return tuple(out)


def join_of_preimage(rows1, rows2, table):
    """At each target element y, the least upper bound of every x with
    table[x] <= y.  Defined for any table into and out of lattices,
    monotone or not."""
    n1 = len(rows1)
    out = []
    for y in range(len(rows2)):
        pre = 0
        for x in range(n1):
            if (rows2[table[x]] >> y) & 1:
                pre |= 1 << x
        out.append(least_upper_bound(n1, rows1, pre))
    return tuple(out)


def first_separated_join_break(rows1, rows2, table):
    """The first separated set S of the target at which the right adjoint
    r = join_of_preimage fails r(join S) = join r(S), or None.

    A separated set has no bottom member, and any two of its members
    have only bottom as a common lower bound.  The sets are tried in
    lexicographic order of their sorted members, the empty set first.
    """
    n1, n2 = len(rows1), len(rows2)
    adj = join_of_preimage(rows1, rows2, table)
    bottom = least_upper_bound(n2, rows2, 0)
    separated = []
    for mask in range(1 << n2):
        members = tuple(i for i in range(n2) if (mask >> i) & 1)
        if bottom in members:
            continue
        if all(lower_bound_mask(n2, rows2, (1 << a) | (1 << b)) == 1 << bottom
               for a, b in combinations(members, 2)):
            separated.append((members, mask))
    for members, mask in sorted(separated):
        image = 0
        for s in members:
            image |= 1 << adj[s]
        if adj[least_upper_bound(n2, rows2, mask)] != \
                least_upper_bound(n1, rows1, image):
            return frozenset(members)
    return None


def d_image(g2, image_mask):
    """D of a chainmail morphism at one totally disconnected set, from the
    definitions: the maximal elements of the least down-closed set that
    contains ``image_mask`` and the join of every mail inside it.

    ``g2`` is read only for its size and its leq rows.
    """
    n, rows = g2.n, g2.poset.above
    closed = image_mask
    while True:
        grown = closed
        for u in range(n):
            if any((rows[u] >> v) & 1 for v in range(n) if (closed >> v) & 1):
                grown |= 1 << u
        down = grown
        sub = down
        while sub:
            if lower_bound_mask(n, rows, sub):
                grown |= 1 << least_upper_bound(n, rows, sub)
            sub = (sub - 1) & down
        if grown == closed:
            break
        closed = grown
    members = [u for u in range(n) if (closed >> u) & 1]
    maximal = 0
    for u in members:
        if not any(v != u and (rows[u] >> v) & 1 for v in members):
            maximal |= 1 << u
    return maximal


def is_chainmail_every_mail(n, rows):
    """The full definition: each nonempty lower-bounded subset has a join."""
    for mask in range(1, 1 << n):
        if lower_bound_mask(n, rows, mask) and \
                least_upper_bound(n, rows, mask) is None:
            return False
    return True


def mail_component_count(n, rows, mask):
    """Components of mask under the shared-lower-bound relation."""
    members = [i for i in range(n) if (mask >> i) & 1]
    parent = {i: i for i in members}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in combinations(members, 2):
        if lower_bound_mask(n, rows, (1 << a) | (1 << b)):
            parent[find(a)] = find(b)
    return len({find(i) for i in members})


# -- lattice-side references ---------------------------------------------------

def separated_subsets(n, meets, bottom):
    """All separated subsets as masks, grown one member at a time: a set
    is extended by each larger nonzero element whose meet with every
    member is bottom."""
    out = []

    def grow(members, mask):
        out.append(mask)
        for e in range(members[-1] + 1 if members else 0, n):
            if e != bottom and all(meets[e][m] == bottom for m in members):
                grow(members + [e], mask | 1 << e)

    grow([], 0)
    return out


def element_conditions(n, rows, meets, bottom):
    """The four element conditions of every element, from their
    definitions: ``out[a][name]`` says whether element a meets condition
    ``name``.  Joins are least upper bounds read off the order; pairs
    range over every (x, y), separated sets over :func:`separated_subsets`.
    """
    def leq(i, j):
        return (rows[i] >> j) & 1 == 1

    pairs = [(x, y, least_upper_bound(n, rows, (1 << x) | (1 << y)))
             for x in range(n) for y in range(n) if meets[x][y] == bottom]
    seps = [([i for i in range(n) if (mask >> i) & 1],
             least_upper_bound(n, rows, mask))
            for mask in separated_subsets(n, meets, bottom)]
    out = []
    for a in range(n):
        out.append({
            "disjoint-join-prime": a != bottom and all(
                leq(a, x) or leq(a, y) for x, y, j in pairs if leq(a, j)),
            "disjoint-join-indecomposable": a != bottom and all(
                bottom in (x, y) for x, y, j in pairs if j == a),
            "separated-join-member": all(
                a in members for members, j in seps if j == a),
            "separated-join-prime": all(
                any(leq(a, s) for s in members)
                for members, j in seps if leq(a, j)),
        })
    return out


# -- graphs and connectivity spaces --------------------------------------------

def graph_connected_subsets(n, edges):
    """Masks of nonempty connected vertex subsets, by growing one vertex."""
    out = []
    for mask in range(1, 1 << n):
        start = mask & -mask
        seen = start
        changed = True
        while changed:
            changed = False
            for a, b in edges:
                bit_a, bit_b = 1 << a, 1 << b
                if bit_a & mask and bit_b & mask:
                    if seen & bit_a and not seen & bit_b:
                        seen |= bit_b
                        changed = True
                    elif seen & bit_b and not seen & bit_a:
                        seen |= bit_a
                        changed = True
        if seen == mask:
            out.append(mask)
    return out


def union_closure_holds(family_masks):
    """The unabridged axiom: every overlapping subfamily unions back in.

    Exponential in the family size, so callers keep the family small.
    """
    masks = sorted(set(family_masks))
    present = set(masks)
    k = len(masks)
    for sub in range(1, 1 << k):
        chosen = [masks[i] for i in range(k) if (sub >> i) & 1]
        common = chosen[0]
        union = 0
        for m in chosen:
            common &= m
            union |= m
        if common and union not in present:
            return False
    return True


def least_representation_points(n, rows, max_points):
    """Fewest points, at most ``max_points``, of a connectivity space whose
    connected-set poset is the poset ``rows``; None when there is none.

    Tries injective assignments of nonempty point sets, one element at a
    time: inclusion must mirror the order, and two overlapping images
    must have a join whose image is their union.
    """
    def mirrors(images, s):
        i = len(images)
        return all(((s & t) == s) == bool((rows[i] >> j) & 1)
                   and ((s & t) == t) == bool((rows[j] >> i) & 1)
                   for j, t in enumerate(images))

    def unions_are_joins(images):
        for i in range(n):
            for j in range(i + 1, n):
                if images[i] & images[j]:
                    join = least_upper_bound(n, rows, (1 << i) | (1 << j))
                    if join is None or images[join] != images[i] | images[j]:
                        return False
        return True

    def assign(images, k):
        if len(images) == n:
            return unions_are_joins(images)
        return any(assign(images + [s], k) for s in range(1, 1 << k)
                   if s not in images and mirrors(images, s))

    for k in range(max_points + 1):
        if assign([], k):
            return k
    return None

# -- count transforms -----------------------------------------------------------

def euler_transform(a):
    """b where structures counted by b are multisets of connected ones (a).

    a and b are 1-indexed sequences given as lists starting at n=1.
    """
    n = len(a)
    c = [0] * (n + 1)
    for m in range(1, n + 1):
        c[m] = sum(d * a[d - 1] for d in range(1, m + 1) if m % d == 0)
    b = [0] * (n + 1)
    b[0] = 1
    for m in range(1, n + 1):
        total = c[m] + sum(c[k] * b[m - k] for k in range(1, m))
        b[m] = total // m
    return b[1:]


def downset_masks(n, rows):
    out = []
    for mask in range(1 << n):
        ok = True
        m = mask
        while m and ok:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            for i in range(n):
                if (rows[i] >> j) & 1 and not (mask >> i) & 1:
                    ok = False
                    break
        if ok:
            out.append(mask)
    return out


# -- set families and closures --------------------------------------------------

def iter_pairwise_masks(beside, candidates):
    """The reference walk of a pairwise family, by recursion: every subset
    of ``candidates`` whose members are pairwise allowed together, where
    ``beside[e]`` is the mask of elements allowed with e.  Each set is
    yielded before the sets that extend it by one higher member, lowest
    such member first; the empty set comes first."""
    def walk(cur, allowed):
        yield cur
        rest = allowed
        while rest:
            low = rest & -rest
            e = low.bit_length() - 1
            rest ^= low
            yield from walk(cur | low, rest & beside[e])

    yield from walk(0, candidates)


def transitive_closure(n, succ):
    """Reflexive-transitive closure rows of the digraph whose edges from
    i are the bits of ``succ[i]``, by Warshall's triple loop over a
    boolean matrix."""
    reach = [[i == j or bool(succ[i] >> j & 1) for j in range(n)]
             for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    return [sum(1 << j for j in range(n) if reach[i][j]) for i in range(n)]


# -- the census the long way ----------------------------------------------------

def classify_by_full_walk(posets):
    """Sort every poset of a walk over all posets into chainmails and
    mail-connected chainmails, straight from the pairwise criterion.

    ``posets`` yields up-set rows.  A pair sharing a lower bound must have
    a least upper bound, and mail components are grown by union-find over
    those pairs.  Returns ``(chainmails, mail_connected)``, each a dict
    from size to the sorted list of rows.
    """
    chain, connected = {}, {}
    for rows in posets:
        n = len(rows)
        cols = [sum(1 << i for i in range(n) if (rows[i] >> j) & 1)
                for j in range(n)]
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        ok = True
        for a, b in combinations(range(n), 2):
            if cols[a] & cols[b]:
                if least_upper_bound(n, rows, (1 << a) | (1 << b)) is None:
                    ok = False
                    break
                parent[find(a)] = find(b)
        if not ok:
            continue
        chain.setdefault(n, []).append(tuple(rows))
        if len({find(i) for i in range(n)}) == 1:
            connected.setdefault(n, []).append(tuple(rows))
    for found in (chain, connected):
        for rows in found.values():
            rows.sort()
    return chain, connected
