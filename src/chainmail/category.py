"""Maps between chainmails and between complete lattices, and the passage
back and forth.

Two kinds of structure-preserving map live here.  A chainmail morphism
preserves joins of mails; a connectivity homomorphism between complete
lattices preserves all joins and has a right adjoint preserving joins of
separated sets (the weak variant asks instead that connected elements map
to connected elements).  The D construction turns a chainmail into its
lattice of totally disconnected sets and a chainmail morphism into a
connectivity homomorphism; K cuts a lattice down to its chainmail of
connected elements.  D is left adjoint to K, the unit x -> {x} is an
isomorphism, and the counit D(K(L)) -> L (join the set) is an
isomorphism exactly on the locally connected lattices; elsewhere it need
not even be injective.
Everything is checked pointwise at validation time; states the theory
rules out raise TheoremViolation instead of ordinary input errors.
"""

from dataclasses import dataclass, field

from .canonical import iter_bits
from .errors import (
    AdjointFailsSeparatedJoins,
    AxiomViolation,
    JoinsNotPreserved,
    MailJoinNotPreserved,
    NotAChainmail,
    NotJoinPreserving,
    NotMonotone,
    TheoremViolation,
)
from .lattice import CompleteLattice, as_complete_lattice
from .mails import Chainmail, DLattice, _x_star_mask, as_chainmail, d_lattice
from .poset import (Poset, from_json_dict, order_iso_break, pullback, set_of,
                    to_json_dict)

@dataclass(frozen=True)
class KChainmail:
    """The chainmail of connected elements of a lattice.

    ``elements[i]`` is the lattice element sitting at carrier index i,
    and ``position`` maps each element back to its index.
    """
    lattice: CompleteLattice
    chainmail: Chainmail
    elements: tuple
    position: dict = field(compare=False)

    def index_of(self, lattice_element):
        return self.position[lattice_element]


def carrier_poset(x):
    """The underlying Poset of any structure maps can run between."""
    if isinstance(x, Poset):
        return x
    if isinstance(x, Chainmail):
        return x.poset
    if isinstance(x, CompleteLattice):
        return x.poset
    if isinstance(x, KChainmail):
        return x.chainmail.poset
    if isinstance(x, DLattice):
        return x.lattice.poset
    raise TypeError(f"no poset carrier on {type(x).__name__}")


def _chainmail_structure(x):
    if isinstance(x, Chainmail):
        return x
    if isinstance(x, KChainmail):
        return x.chainmail
    if isinstance(x, Poset):
        return as_chainmail(x)
    raise TypeError(f"no chainmail structure on {type(x).__name__}")


def _lattice_structure(x):
    if isinstance(x, CompleteLattice):
        return x
    if isinstance(x, DLattice):
        return x.lattice
    if isinstance(x, Poset):
        return as_complete_lattice(x)
    raise TypeError(f"no lattice structure on {type(x).__name__}")


@dataclass(frozen=True)
class PosetMap:
    source: object
    target: object
    table: tuple
    role: str

    def __call__(self, i):
        return self.table[i]

    def source_poset(self):
        return carrier_poset(self.source)

    def target_poset(self):
        return carrier_poset(self.target)


def _prepare_monotone(sp, tp):
    """check(table) for tables sp -> tp: the right length, values in
    range, and F(c) <= F(y) for each lower cover c of each y; by
    transitivity along chains of covers, that is monotonicity.  A table
    that fails raises the first witness: its shape, or the order sweep's
    pair."""
    n1, n2 = sp.n, tp.n
    edges = tuple((c, y) for y, low in sp.lower_covers() for c in low)
    above2 = tp.above

    def check(table):
        if len(table) != n1:
            raise AxiomViolation("table-total", (len(table), n1))
        if table and (min(table) < 0 or max(table) >= n2):
            i = next(i for i, v in enumerate(table) if not 0 <= v < n2)
            raise AxiomViolation("table-range", (i, table[i]))
        for c, y in edges:
            if not above2[table[c]] >> table[y] & 1:
                _raise_order_break(sp, tp, table)
        return True
    return check


def _raise_order_break(sp, tp, table):
    """Name the first broken pair (i, j), i-major, by the pullback sweep;
    the cover pair the walk found broken is one, so there is a first."""
    up = pullback(table, tp.n, tp.above)  # up[v]: the x with F(x) >= v
    for i in range(sp.n):
        bad = sp.above[i] & ~up[table[i]]
        if bad:
            raise NotMonotone((i, next(iter_bits(bad))))
    raise TheoremViolation("cover-walk", table)


def _prepare_mail_morphism(g1, g2):
    """check(table) for chainmail morphisms g1 -> g2: monotone, and the
    join i v j of each mail {i, j}, i < j, i-major, goes to the join of
    the images; the first mail that fails is the witness."""
    ordered = _prepare_monotone(g1.poset, g2.poset)
    joins1, joins2 = g1.joins, g2.joins
    pairs = tuple((i, j, joins1[i][j]) for i in range(g1.n)
                  for j in iter_bits(g1.overlap[i] & -(2 << i)))  # j > i

    def check(table):
        ordered(table)
        for i, j, k in pairs:
            if table[k] != joins2[table[i]][table[j]]:
                raise MailJoinNotPreserved((i, j))
        return True
    return check


def _adjoint_table(table, l1, l2):
    """Right adjoint of a join-preserving table: y -> join{x : F(x) <= y}.

    Each value starts as the join of its fibre and takes in the values
    of its lower covers, along a linear extension of l2; for any table
    that is the join of the preimage of the down-set of y."""
    joins1 = l1.joins
    adj = [l1.bottom] * l2.n
    for x, v in enumerate(table):
        adj[v] = joins1[adj[v]][x]
    for y, covers in l2.poset.lower_covers():
        a = adj[y]
        for c in covers:
            a = joins1[a][adj[c]]
        adj[y] = a
    return tuple(adj)


def _raise_join_break(l1, l2, table, error=JoinsNotPreserved):
    """Name the first break of the join law: ``("bottom", b)`` when F
    misses bottom, else the first pair x < y, x-major, with
    F(x v y) != F(x) v F(y)."""
    if table[l1.bottom] != l2.bottom:
        raise error(("bottom", l1.bottom))
    for x in range(l1.n):
        for y in range(x + 1, l1.n):
            if table[l1.joins[x][y]] != l2.joins[table[x]][table[y]]:
                raise error((x, y))
    raise TheoremViolation("galois-join-test", table)


def _prepare_galois(l1, l2):
    """adjoint(table) for tables l1 -> l2: the right adjoint G,
    G(y) = join{x : F(x) <= y}, of a monotone table that passes the
    Galois test for joins.  A non-monotone table raises the order
    sweep's witness, and one that fails the test the pairwise sweep's.

    A monotone F with F(0) = 0 preserves joins exactly when
    F(G(y)) <= y for every y.  If it does, x and z both lie in the
    preimage of y = F(x) v F(z), so x v z <= G(y), and
    F(x v z) <= F(G(y)) <= y; monotonicity gives F(x v z) >= y.
    Conversely, a join-preserving F has F(G(y)) = join{F(x) : F(x) <= y},
    which is <= y.
    """
    ordered = _prepare_monotone(l1.poset, l2.poset)
    bottom1, bottom2 = l1.bottom, l2.bottom
    below2 = l2.poset.below

    def adjoint(table):
        ordered(table)
        if table[bottom1] != bottom2:
            raise JoinsNotPreserved(("bottom", bottom1))
        adj = _adjoint_table(table, l1, l2)
        for y, a in enumerate(adj):
            if not below2[y] >> table[a] & 1:
                _raise_join_break(l1, l2, table)
        return adj
    return adjoint


def _prepare_separated_joins(l1, l2):
    """broken(adj) for the right adjoint adj: l2 -> l1 of a
    join-preserving table: the mask of the first separated set of l2,
    in ``l2.separated()`` order, whose join adj does not keep, else
    None."""
    joins1, bottom1, bottom2 = l1.joins, l1.bottom, l2.bottom
    sets = l2.separated()[1:]  # after the empty set, whose join is bottom

    def broken(adj):
        if adj[bottom2] != bottom1:
            return 0
        rhs = [bottom1]  # rhs[i]: the join of adj over the members of set i
        for mask, join, parent, last in sets:
            r = joins1[rhs[parent]][adj[last]]
            if adj[join] != r:
                return mask
            rhs.append(r)
        return None
    return broken


def _prepare_strict_hom(l1, l2):
    """check(table) for connectivity homs l1 -> l2: the Galois test, then
    the right adjoint it built must keep the join of every separated set
    of l2, the first that fails being the witness; returns the
    adjoint."""
    adjoint = _prepare_galois(l1, l2)
    broken = _prepare_separated_joins(l1, l2)

    def check(table):
        adj = adjoint(table)
        mask = broken(adj)
        if mask is not None:
            raise AdjointFailsSeparatedJoins(set_of(mask))
        return adj
    return check


def _prepare_weak_hom(l1, l2):
    """check(table) for weak connectivity homs l1 -> l2: the Galois test,
    then each connected element, in order, must go to a connected
    element."""
    adjoint = _prepare_galois(l1, l2)
    conn1 = tuple(iter_bits(l1.connected_mask()))
    conn2 = l2.connected_mask()

    def check(table):
        adjoint(table)
        for c in conn1:
            if not conn2 >> table[c] & 1:
                raise AxiomViolation("connected-element-preservation", c)
        return True
    return check


# role -> (the structure its maps run between, the preparer of its check).
# A preparer binds what the check reads of both structures once; the check
# it returns reads only those, and raises the first witness of a table
# that is not a map of the role.
_LAWS = {
    "monotone": (carrier_poset, _prepare_monotone),
    "chainmail-morphism": (_chainmail_structure, _prepare_mail_morphism),
    "connectivity-hom": (_lattice_structure, _prepare_strict_hom),
    "weak-connectivity-hom": (_lattice_structure, _prepare_weak_hom),
}
ROLES = tuple(_LAWS)
_LAW_ERRORS = (AxiomViolation, NotMonotone, MailJoinNotPreserved,
               JoinsNotPreserved, AdjointFailsSeparatedJoins)


def _prepare(source, target, role):
    """``(src, tgt, check)``: the role's structures on both sides and its
    check, which returns a true value for a map of the role (for
    connectivity homs, the right adjoint) and raises the witness of any
    other table."""
    try:
        structure, prepare = _LAWS[role]
    except KeyError:
        raise ValueError(f"unknown role: {role!r}") from None
    src, tgt = structure(source), structure(target)
    return src, tgt, prepare(src, tgt)


def _validate(source, target, table, role):
    """validate_map's PosetMap, with the check's verdict."""
    src, tgt, check = _prepare(source, target, role)
    table = tuple(map(int, table))
    verdict = check(table)
    source = src if isinstance(source, Poset) else source
    target = tgt if isinstance(target, Poset) else target
    return PosetMap(source, target, table, role), verdict


def validate_map(source, target, table, role):
    """Build a PosetMap, checking the laws the role demands.

    Raw Posets are wrapped in the structure the role needs (chainmail or
    lattice); richer objects are kept as given.  The role's prepared
    check raises the first witness; only a broken cover or a failed
    Galois test runs a sweep, to name it.
    """
    return _validate(source, target, table, role)[0]


def identity_map(structure, role="monotone"):
    return validate_map(structure, structure,
                        range(carrier_poset(structure).n), role)


def compose(f, g):
    """g after f.  The composite is re-validated at the shared role."""
    if f.target_poset() != g.source_poset():
        raise AxiomViolation("composition-mismatch",
                             (f.target_poset().n, g.source_poset().n))
    role = f.role if f.role == g.role else "monotone"
    table = tuple(g.table[v] for v in f.table)
    return validate_map(f.source, g.target, table, role)


def right_adjoint(f):
    """Right adjoint of a join-preserving map between complete lattices.

    The map is not assumed monotone: the cover walk checks that before
    the Galois test, and either failure names the pairwise sweep's
    witness, since a table that keeps every join is monotone.  The
    Galois law F(x) <= y iff x <= adjoint(y) is asserted
    exhaustively after construction; it cannot fail for a genuinely
    join-preserving map.
    """
    l1, l2 = _lattice_structure(f.source), _lattice_structure(f.target)
    try:
        adj = _prepare_galois(l1, l2)(f.table)
    except JoinsNotPreserved as e:
        raise NotJoinPreserving(e.witness) from None
    except NotMonotone:
        _raise_join_break(l1, l2, f.table, NotJoinPreserving)
    below_adj = pullback(adj, l1.n, l1.poset.above)  # the y with x <= adj(y)
    for x in range(l1.n):
        bad = l2.poset.above[f.table[x]] ^ below_adj[x]
        if bad:
            raise TheoremViolation("galois-law", (x, next(iter_bits(bad))))
    return PosetMap(f.target, f.source, adj, "monotone")


# -- the K and D constructions on objects and morphisms -----------------------

def k_chainmail(lat):
    """The induced subposet of connected elements, as a chainmail, built
    once per lattice.  A build that raises keeps nothing."""
    if lat._k is not None:
        return lat._k
    elements = sorted(iter_bits(lat.connected_mask()))
    above = pullback(elements, lat.n,
                     [lat.poset.above[e] for e in elements])
    labels = [lat.poset.label_of(e) for e in elements]
    poset = Poset(above, labels)
    try:
        g = as_chainmail(poset)
    except NotAChainmail as e:  # the theory says this cannot happen
        raise TheoremViolation("k-not-a-chainmail", e.witness) from None
    lat._k = KChainmail(lat, g, tuple(elements),
                        {e: i for i, e in enumerate(elements)})
    return lat._k


def k_on_tables(l1, l2, tables):
    """K of (weak) connectivity homomorphism tables l1 -> l2, lazily: each
    restricted to the connected elements, as a chainmail morphism table
    K(l1) -> K(l2).  The lookups and the law check are set up once."""
    k1 = k_chainmail(_lattice_structure(l1))
    k2 = k_chainmail(_lattice_structure(l2))
    elements, position = k1.elements, k2.position.get
    check = _prepare_mail_morphism(k1.chainmail, k2.chainmail)
    for table in tables:
        image = tuple([position(table[e]) for e in elements])
        if None in image:
            e = elements[image.index(None)]
            raise TheoremViolation("connected-element-not-preserved",
                                   (e, table[e]))
        try:
            check(image)
        except _LAW_ERRORS as e:
            raise TheoremViolation("k-morphism-laws", e.witness) from None
        yield image


def k_on_morphism(f):
    """Restrict a (weak) connectivity homomorphism to connected elements."""
    [table] = k_on_tables(f.source, f.target, [f.table])
    return PosetMap(k_chainmail(_lattice_structure(f.source)),
                    k_chainmail(_lattice_structure(f.target)),
                    table, "chainmail-morphism")


def d_on_tables(g1, g2, tables):
    """D of chainmail morphism tables g1 -> g2, lazily: a totally
    disconnected set maps to the join of the singletons of its images,
    i.e. to the maximal elements of the subchainmail generated by the
    image.  The lookups and the law check are set up once."""
    d1 = d_lattice(_chainmail_structure(g1))
    d2 = d_lattice(_chainmail_structure(g2))
    lat2 = d2.lattice
    singleton = [d2.index[1 << v] for v in range(d2.chainmail.n)]
    check = _prepare_strict_hom(d1.lattice, lat2)
    for table in tables:
        image = tuple(d1.join_images(lat2, [singleton[v] for v in table]))
        try:
            check(image)
        except _LAW_ERRORS as e:
            raise TheoremViolation("d-morphism-laws", e.witness) from None
        yield image


def d_on_morphism(m):
    """D of a chainmail morphism, as a connectivity homomorphism."""
    [table] = d_on_tables(m.source, m.target, [m.table])
    return PosetMap(d_lattice(_chainmail_structure(m.source)),
                    d_lattice(_chainmail_structure(m.target)),
                    table, "connectivity-hom")


def d_morphism_adjoint(m):
    """The stated adjoint of D(m): D2 maps to (preimage of D2's down-set)*."""
    g1 = _chainmail_structure(m.source)
    g2 = _chainmail_structure(m.target)
    d1, d2 = d_lattice(g1), d_lattice(g2)
    table = []
    pres = pullback(m.table, g2.n, d2.subchainmails)
    for mask, pre in zip(d2.td_sets, pres):
        star = _x_star_mask(g1, pre)
        try:
            table.append(d1.index[star])
        except KeyError:
            raise TheoremViolation("d-adjoint-image", set_of(mask)) from None
    return PosetMap(d2, d1, tuple(table), "monotone")


# -- unit and counit -----------------------------------------------------------

@dataclass(frozen=True)
class UnitData:
    """The unit at a chainmail: x -> {x}, an isomorphism onto K(D(source))."""
    map: PosetMap
    d: DLattice
    k: KChainmail


@dataclass(frozen=True)
class CounitData:
    """The counit at a lattice: D(K(L)) -> L by joining, with its adjoint
    x -> (connected elements below x)*."""
    map: PosetMap
    adjoint: PosetMap
    k: KChainmail
    d: DLattice


def unit_eta(g):
    d = d_lattice(g)
    k = k_chainmail(d.lattice)
    table = []
    for x in range(g.n):
        i = d.index.get(1 << x)
        if i is None or i not in k.position:
            raise TheoremViolation("unit-not-defined", x)
        table.append(k.position[i])
    broken = order_iso_break(table, g.poset, k.chainmail.poset)
    if broken == ():
        raise TheoremViolation("unit-not-bijective", tuple(table))
    if broken is not None:
        raise TheoremViolation("unit-not-order-iso", broken)
    try:
        return UnitData(validate_map(g, k, table, "chainmail-morphism"), d, k)
    except _LAW_ERRORS as e:
        raise TheoremViolation("unit-laws", e.witness) from None


def counit_epsilon(lat):
    k = k_chainmail(lat)
    d = d_lattice(k.chainmail)
    table = d.join_images(lat, k.elements)
    adj = []
    # the connected elements below each x, as a mask over K's carrier
    for x, cmask in enumerate(pullback(k.elements, lat.n, lat.poset.below)):
        star = _x_star_mask(k.chainmail, cmask)
        try:
            adj.append(d.index[star])
        except KeyError:
            raise TheoremViolation("counit-adjoint-image", x) from None
    try:
        counit, adjoint = _validate(d, lat, table, "connectivity-hom")
    except _LAW_ERRORS as e:
        raise TheoremViolation("counit-laws", e.witness) from None
    if tuple(adj) != adjoint:
        raise TheoremViolation("counit-adjoint-formula", tuple(adj))
    return CounitData(counit, PosetMap(lat, d, tuple(adj), "monotone"), k, d)


def is_epsilon_iso(lat):
    cd = counit_epsilon(lat)
    return order_iso_break(cd.map.table, cd.d.lattice.poset, lat.poset) is None


# -- the adjunction's laws -----------------------------------------------------

@dataclass(frozen=True)
class TriangleReport:
    chainmail_side: dict
    lattice_side: dict


def _check_inverse(f, g, law, inverse_law):
    """Raise law at the first g(f(i)) != i, inverse_law at f(g(j)) != j."""
    for i in range(len(f)):
        if g[f[i]] != i:
            raise TheoremViolation(law, i)
    for j in range(len(g)):
        if f[g[j]] != j:
            raise TheoremViolation(inverse_law, j)


def chainmail_triangle(ud):
    """The chainmail side at ``ud``, the unit at g: D(unit) and the
    counit at D(g) must invert each other.  Returns both tables."""
    cd = counit_epsilon(ud.d.lattice)
    dm = d_on_morphism(ud.map)
    _check_inverse(dm.table, cd.map.table, "triangle-chainmail-side",
                   "triangle-chainmail-side-inverse")
    return {"d-of-unit": dm.table, "counit-at-d": cd.map.table}


def lattice_triangle(cd):
    """The lattice side at ``cd``, the counit at L: K(counit) and the
    unit at K(L) must invert each other.  Returns both tables."""
    uk = unit_eta(cd.k.chainmail)
    ke = k_on_morphism(cd.map)
    _check_inverse(uk.map.table, ke.table, "triangle-lattice-side",
                   "triangle-lattice-side-inverse")
    return {"unit-at-k": uk.map.table, "k-of-counit": ke.table}


def check_triangle_identities(g, lat):
    """Both triangle identities, witnessed as inverse pairs of tables."""
    return TriangleReport(chainmail_triangle(unit_eta(g)),
                          lattice_triangle(counit_epsilon(lat)))


@dataclass(frozen=True)
class NaturalityReport:
    squares: dict


def check_naturality(f):
    """Naturality of the unit (for a chainmail morphism) or of the counit
    in both direct and adjoint form (for a connectivity homomorphism)."""
    squares = {}
    if f.role == "chainmail-morphism":
        g1 = _chainmail_structure(f.source)
        g2 = _chainmail_structure(f.target)
        u1 = unit_eta(g1)
        u2 = unit_eta(g2)
        dm = d_on_morphism(f)
        km = k_on_morphism(dm)
        for x in range(g1.n):
            if km.table[u1.map.table[x]] != u2.map.table[f.table[x]]:
                raise TheoremViolation("unit-naturality", x)
        squares["unit"] = (tuple(km.table[v] for v in u1.map.table))
        return NaturalityReport(squares)
    if f.role in ("connectivity-hom", "weak-connectivity-hom"):
        l1 = _lattice_structure(f.source)
        l2 = _lattice_structure(f.target)
        c1 = counit_epsilon(l1)
        c2 = counit_epsilon(l2)
        kf = k_on_morphism(f)
        dkf = d_on_morphism(kf)
        for i in range(len(c1.d.td_sets)):
            if f.table[c1.map.table[i]] != c2.map.table[dkf.table[i]]:
                raise TheoremViolation("counit-naturality", i)
        squares["counit"] = tuple(f.table[v] for v in c1.map.table)
        adj_f = _adjoint_table(f.table, l1, l2)
        adj_dkf = _adjoint_table(dkf.table, c1.d.lattice, c2.d.lattice)
        for y in range(l2.n):
            if c1.adjoint.table[adj_f[y]] != adj_dkf[c2.adjoint.table[y]]:
                raise TheoremViolation("counit-naturality-adjoint", y)
        squares["counit-adjoint"] = tuple(c1.adjoint.table[v] for v in adj_f)
        return NaturalityReport(squares)
    raise ValueError(f"no naturality square for role {f.role!r}")


# -- hom-set enumeration -------------------------------------------------------
#
# The four enumerators run one search, ``_tables``.  It branches only at
# the elements that no incomparable pair joins to; every other element is
# forced, its value the join of the images of a pair.  In a lattice the
# pairs with a join-irreducible member suffice, and a forced element needs
# no cover check: the lattice is generated by its join-irreducibles.  Both
# readings of connectivity homs share one search over the weak masks; the
# strict law, a global condition on the right adjoint, filters its
# finished tables.

def _tables(p1, p2, joins1=None, joins2=None, allowed=None):
    """Every monotone table p1 -> p2 with table[x] in the mask allowed[x]
    that carries the partial pairwise-join table joins1 onto joins2, in
    lexicographic order along the linear extension ``p1.lower_covers()``.

    Backtracks only over the branching elements, the x that no
    incomparable pair (a, b) with a defined join joins to.  A branching x
    takes each value in allowed[x] above the images of its lower covers.
    The run of forced elements after it in the linear extension follows
    without branching: the first pair at a forced x fixes its value, every
    other pair must agree, the value must lie in allowed[x] and above the
    images of x's lower covers, and an undefined join of the images ends
    the branch.  A forced value is a function of the values before it, so
    the order along the branching elements is the order along all of p1.

    A total joins1 makes p1 a lattice: every pair has a join, and a
    common lower bound, as a chainmail's table leaves out the pairs with
    none.  Then the search keeps only the pairs (j, y) with j
    join-irreducible, that is with one lower cover j*, and forced elements
    skip the cover check.  Both rules are exact:

    (i) Say F(j) >= F(j*) at each irreducible j, and
    F(j v y) = F(j) v F(y) for each irreducible j and each y incomparable
    to j with j v y <= x.  Then F on
    the down-set of x keeps every join a v b <= x, and so is monotone
    (a <= b gives F(b) = F(a) v F(b)).  By induction on z = a v b <= x,
    all joins below z being kept.  If z = 0, a = b = 0.  If z is
    irreducible, one of a, b is z, as two elements below z lie below z*;
    say a = z.  Then b <= z* or b = z, so F(b) <= F(z*) <= F(z).  If z is
    reducible and a = z, b lies below a lower cover c of z, and by (ii)
    z = j v c for an irreducible j incomparable to c, so
    F(z) = F(j) v F(c) >= F(c) >= F(b).  Otherwise a, b < z are
    incomparable; induct on a.  An irreducible a is a kept pair.  Else
    a = a1 v a2 with a1, a2 < a (two lower covers), F(a) = F(a1) v F(a2),
    and z = a1 v w with w = a2 v b.  If w < z, F(w) = F(a2) v F(b) and the
    pair (a1, w) gives F(z) = F(a1) v F(w) = F(a) v F(b).  If w = z, the
    pair (a2, b) gives F(z) = F(a2) v F(b) <= F(a) v F(b) <= F(z).

    (ii) Each element is the join of the irreducibles below it (a
    reducible z is the join of two lower covers, which are such joins by
    induction).  So for a reducible x and each lower cover c of x some
    irreducible j <= x has j not <= c; then c < j v c <= x gives
    j v c = x, and c < j would make j = x, which is reducible.  So (j, c)
    is a kept incomparable pair joining to x, every reducible x is forced,
    and the branching elements are 0 and the irreducibles, which keep
    their cover checks.  By (i) the kept pairs then prune every branch the
    full pair and cover checks prune, at the same element.
    """
    n = p1.n
    if n == 0:
        yield ()
        return
    full = p2.full_mask()
    lattice = joins1 is not None and all(None not in row for row in joins1)
    # a kept pair (a, b) has a < b; in a lattice, a is irreducible instead,
    # and a pair of two irreducibles is kept once, with a < b
    lead = [not lattice or len(low) == 1
            for x, low in sorted(p1.lower_covers())]
    at = [[] for _ in range(n)]  # x -> the kept incomparable pairs joining to x
    if joins1 is not None:
        for a in range(n):
            if not lead[a]:
                continue
            row = joins1[a]
            for b in iter_bits(~(p1.above[a] | p1.below[a]) & p1.full_mask()):
                if (b > a or not lead[b]) and row[b] is not None:
                    at[row[b]].append((a, b))
    branches, runs = [], []  # runs[k]: the forced elements after branches[k]
    for x, low in p1.lower_covers():
        allow = full if allowed is None else allowed[x]
        if not at[x]:
            branches.append((x, allow, low))
            runs.append([])
        else:
            runs[-1].append((x, allow, () if lattice else low,
                             at[x][0], at[x][1:]))
    above2 = p2.above
    table = [0] * n

    def forced(run):
        for x, allow, low, (a, b), rest in run:
            v = joins2[table[a]][table[b]]
            if v is None or not allow >> v & 1:
                return False
            for c in low:
                if not above2[table[c]] >> v & 1:
                    return False
            for a, b in rest:
                if joins2[table[a]][table[b]] != v:
                    return False
            table[x] = v
        return True

    def options(k):
        _, cand, low = branches[k]
        for c in low:
            cand &= above2[table[c]]
        return cand

    last = len(branches) - 1
    untried = [options(0)] + [0] * last
    k = 0
    while k >= 0:
        rest = untried[k]
        if not rest:
            k -= 1
            continue
        low = rest & -rest
        untried[k] = rest ^ low
        table[branches[k][0]] = low.bit_length() - 1
        if runs[k] and not forced(runs[k]):
            continue
        if k == last:
            yield tuple(table)
        else:
            k += 1
            untried[k] = options(k)


def monotone_tables(p1, p2):
    """All monotone tables p1 -> p2."""
    yield from _tables(p1, p2)


def chainmail_morphism_tables(g1, g2):
    """All chainmail morphisms g1 -> g2, as tables."""
    yield from _tables(g1.poset, g2.poset, g1.joins, g2.joins)


def join_preserving_tables(l1, l2):
    """All join-preserving tables l1 -> l2: bottom goes to bottom, and the
    join of each incomparable pair to the join of the pair's images."""
    allowed = [l2.poset.full_mask()] * l1.n
    allowed[l1.bottom] = 1 << l2.bottom
    yield from _tables(l1.poset, l2.poset, l1.joins, l2.joins, allowed)


def connectivity_hom_tables(l1, l2, weak=False):
    """All (weak) connectivity homomorphism tables l1 -> l2.

    Weak homs are the join-preserving tables that send connected elements
    to connected elements, so the search draws those values from the
    connected elements of l2.  Strict homs are the join-preserving tables
    whose right adjoint G preserves joins of separated sets.  Each is weak,
    so they are drawn from the same search: G(0) = 0 gives F(c) != 0, and
    if F(c) <= join S for a separated S, then c <= G(join S), the join of
    G(S), which is separated once 0 is dropped (G keeps meets); c is
    connected, so c <= G(s) and F(c) <= s for some s in S.
    """
    conn1, conn2 = l1.connected_mask(), l2.connected_mask()
    allowed = [conn2 if conn1 >> x & 1 else l2.poset.full_mask()
               for x in range(l1.n)]
    allowed[l1.bottom] = 1 << l2.bottom
    found = _tables(l1.poset, l2.poset, l1.joins, l2.joins, allowed)
    yield from found if weak else strict_homs(l1, l2, found)


def strict_homs(l1, l2, weak_homs):
    """The strict connectivity homs among weak hom tables l1 -> l2, lazily:
    those whose right adjoint keeps the join of every separated set."""
    broken = _prepare_separated_joins(l1, l2)
    return (t for t in weak_homs if broken(_adjoint_table(t, l1, l2)) is None)


# -- interchange ---------------------------------------------------------------

def map_to_json_dict(f):
    sp, tp = f.source_poset(), f.target_poset()
    return {
        "source": to_json_dict(sp),
        "target": to_json_dict(tp),
        "table": {sp.label_of(i): tp.label_of(f.table[i]) for i in range(sp.n)},
        "role": f.role,
    }


def map_from_json_dict(data, budget=None):
    try:
        source = from_json_dict(data["source"], budget)
        target = from_json_dict(data["target"], budget)
        items = dict(data["table"])
        role = data["role"]
    except (KeyError, TypeError, ValueError) as exc:
        raise AxiomViolation("json-shape", str(exc)) from None
    if role not in ROLES:
        raise AxiomViolation("map-role", role)
    table = [None] * source.n
    for a, b in items.items():
        if not isinstance(a, str) or not isinstance(b, str):
            raise AxiomViolation("json-shape",
                                 f"table entry {(a, b)!r} names a non-string")
        try:
            table[source.index_of(a)] = target.index_of(b)
        except KeyError:
            raise AxiomViolation("element-range", (a, b)) from None
    if any(v is None for v in table):
        raise AxiomViolation("table-total", tuple(items))
    return validate_map(source, target, table, role)
