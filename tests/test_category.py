"""Maps, the two functors, the adjunction, and its unit and counit."""

import itertools

import pytest

import oracles

from chainmail.category import (
    KChainmail,
    PosetMap,
    ROLES,
    _LAW_ERRORS,
    _adjoint_table,
    _prepare,
    carrier_poset,
    chainmail_morphism_tables,
    check_naturality,
    check_triangle_identities,
    compose,
    connectivity_hom_tables,
    counit_epsilon,
    d_morphism_adjoint,
    d_on_morphism,
    d_on_tables,
    identity_map,
    is_epsilon_iso,
    join_preserving_tables,
    k_chainmail,
    k_on_morphism,
    k_on_tables,
    map_from_json_dict,
    map_to_json_dict,
    monotone_tables,
    right_adjoint,
    unit_eta,
    validate_map,
)
from chainmail.enumeration import enumerate_posets
from chainmail.errors import (
    AdjointFailsSeparatedJoins,
    AxiomViolation,
    ChainmailError,
    JoinsNotPreserved,
    MailJoinNotPreserved,
    NotALattice,
    NotJoinPreserving,
    NotMonotone,
    TheoremViolation,
)
from chainmail.lattice import (
    as_complete_lattice,
    connected_elements,
    has_connective_foundation,
    is_locally_connected,
    separation_poset,
)
from chainmail.mails import (
    DLattice, as_chainmail, d_lattice, poset_is_chainmail)
from chainmail.poset import Poset, set_of, validate_poset
from chainmail.sources import powerset_lattice
from chainmail.verify import run_suite


def mk_poset(size, covers):
    return validate_poset(size, covers)


def mk_lattice(size, covers):
    return as_complete_lattice(mk_poset(size, covers))


def chainmails_up_to(n):
    """Every chainmail with at most n elements, the empty one first."""
    gs = [as_chainmail(mk_poset(0, []))]
    for size in range(1, n + 1):
        gs.extend(as_chainmail(p) for p in enumerate_posets(size)
                  if poset_is_chainmail(p))
    return gs


def lattices_up_to(n):
    out = []
    for size in range(1, n + 1):
        for p in enumerate_posets(size):
            try:
                out.append(as_complete_lattice(p))
            except NotALattice:
                continue
    return out


@pytest.fixture
def b2():
    return powerset_lattice(2)


@pytest.fixture
def m3():
    return mk_lattice(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


@pytest.fixture
def chain3():
    return mk_lattice(3, [(0, 1), (1, 2)])


# -- map validation --------------------------------------------------------------

def test_identity_every_role(counterexample, b2):
    for role in ("monotone", "chainmail-morphism"):
        f = identity_map(counterexample, role)
        assert f.table == tuple(range(7))
        assert f.role == role
    for role in ("connectivity-hom", "weak-connectivity-hom"):
        f = identity_map(b2, role)
        assert f.table == tuple(range(4))
        assert f.role == role


def test_constant_to_top_is_chainmail_morphism(counterexample):
    f = validate_map(counterexample, counterexample, [6] * 7,
                     "chainmail-morphism")
    assert f.role == "chainmail-morphism"


def test_monotonicity_witness_matches_oracle():
    """validate_map accepts exactly the tables in which brute force finds
    no broken pair, and otherwise names the first pair it finds: every
    table between labeled posets n<=3."""
    posets = [Poset(rows) for n in range(4)
              for rows in oracles.labeled_posets(n)]
    checked = 0
    for p1 in posets:
        for p2 in posets:
            for t in itertools.product(range(p2.n), repeat=p1.n):
                try:
                    validate_map(p1, p2, t, "monotone")
                    got = None
                except NotMonotone as e:
                    got = e.witness
                assert got == oracles.first_monotonicity_break(
                    p1.above, p2.above, t)
                checked += 1
    assert checked == 10862


def test_not_monotone():
    with pytest.raises(NotMonotone) as e:
        validate_map(mk_poset(2, [(0, 1)]), mk_poset(2, []), [0, 1],
                     "monotone")
    assert e.value.witness == (0, 1)


def test_collapse_onto_non_lattice_target():
    # a two-element antichain over a bottom has no top, so the role's
    # demand that the target be a complete lattice already fails
    with pytest.raises(NotALattice) as e:
        validate_map(mk_poset(2, [(0, 1)]), mk_poset(3, [(0, 1), (0, 2)]),
                     [0, 1], "connectivity-hom")
    assert e.value.witness == (1, 2)


def test_joins_not_preserved(b2, chain3):
    with pytest.raises(JoinsNotPreserved) as e:
        validate_map(b2, chain3, [0, 1, 1, 2], "connectivity-hom")
    assert e.value.witness == (1, 2)
    one = mk_lattice(1, [])
    with pytest.raises(JoinsNotPreserved) as e:
        validate_map(one, b2, [1], "connectivity-hom")
    assert e.value.witness == ("bottom", 0)


def test_join_witness_matches_oracle():
    """The Galois test rejects exactly the monotone tables in which brute
    force finds a broken join, and the pairwise sweep then names the
    oracle's witness, in both readings of connectivity homs: every
    monotone table from lattices n<=5 (M3 and N5 among them) to lattices
    n<=4."""
    targets = lattices_up_to(4)
    checked = failing = 0
    for l1 in lattices_up_to(5):
        for l2 in targets:
            for t in monotone_tables(l1.poset, l2.poset):
                want = oracles.first_join_break(
                    l1.poset.above, l2.poset.above, t)
                for role in ("connectivity-hom", "weak-connectivity-hom"):
                    try:
                        validate_map(l1, l2, t, role)
                        got = None
                    except JoinsNotPreserved as e:
                        got = e.witness
                    except AdjointFailsSeparatedJoins:
                        got = None  # the strict law, run once joins hold
                    except AxiomViolation as e:
                        assert e.axiom == "connected-element-preservation"
                        got = None
                    assert got == want
                checked += 1
                failing += want is not None
    assert (checked, failing) == (1237, 726)


def test_right_adjoint_join_witness_matches_oracle():
    """right_adjoint does not check monotonicity first, and still refuses
    every table that breaks a join, monotone or not, with the oracle's
    witness: every table between lattices n<=4."""
    lats = lattices_up_to(4)
    checked = failing = 0
    for l1 in lats:
        for l2 in lats:
            for t in itertools.product(range(l2.n), repeat=l1.n):
                want = oracles.first_join_break(
                    l1.poset.above, l2.poset.above, t)
                try:
                    right_adjoint(PosetMap(l1, l2, t, "monotone"))
                    got = None
                except NotJoinPreserving as e:
                    got = e.witness
                assert got == want
                checked += 1
                failing += want is not None
    assert (checked, failing) == (1444, 1299)


def test_mail_join_not_preserved(b2, chain3):
    with pytest.raises(MailJoinNotPreserved) as e:
        validate_map(b2.poset, chain3.poset, [0, 0, 1, 2],
                     "chainmail-morphism")
    assert e.value.witness == (1, 2)


def test_adjoint_fails_separated_joins(b2, chain3):
    with pytest.raises(AdjointFailsSeparatedJoins) as e:
        validate_map(chain3, b2, [0, 1, 3], "connectivity-hom")
    assert e.value.witness == {1, 2}


def test_weak_rejects_unconnected_image(b2, chain3):
    with pytest.raises(AxiomViolation) as e:
        validate_map(chain3, b2, [0, 1, 3], "weak-connectivity-hom")
    assert e.value.axiom == "connected-element-preservation"


def test_weak_strictly_wider(m3):
    """A lattice with no connected elements admits weak homomorphisms
    whose adjoints break separated joins."""
    chain2 = mk_lattice(2, [(0, 1)])
    table = [0, 0, 1, 1, 1]
    f = validate_map(m3, chain2, table, "weak-connectivity-hom")
    assert f.role == "weak-connectivity-hom"
    with pytest.raises(AdjointFailsSeparatedJoins) as e:
        validate_map(m3, chain2, table, "connectivity-hom")
    assert e.value.witness == set()


def test_table_shape_errors(b2):
    with pytest.raises(AxiomViolation) as e:
        validate_map(b2, b2, [0, 1, 2], "monotone")
    assert e.value.axiom == "table-total"
    with pytest.raises(AxiomViolation) as e:
        validate_map(b2, b2, [0, 1, 2, 9], "monotone")
    assert e.value.axiom == "table-range"
    with pytest.raises(ValueError):
        validate_map(b2, b2, [0, 1, 2, 3], "isotone")


def _first_break_by_definition(s1, s2, t, role):
    """Why table t is not a map s1 -> s2 of the role, by brute force: the
    first broken law, in the order validate_map checks them, as (the
    axiom or error name, its first witness); None for a map of the
    role."""
    p1, p2 = carrier_poset(s1), carrier_poset(s2)
    if len(t) != p1.n:
        return "table-total", (len(t), p1.n)
    for i, v in enumerate(t):
        if not 0 <= v < p2.n:
            return "table-range", (i, v)
    rows1, rows2 = p1.above, p2.above
    pair = oracles.first_monotonicity_break(rows1, rows2, t)
    if pair is not None:
        return "NotMonotone", pair
    if role == "chainmail-morphism":
        for i, j in itertools.combinations(range(p1.n), 2):
            k = s1.joins[i][j]
            if k is not None and s2.joins[t[i]][t[j]] != t[k]:
                return "MailJoinNotPreserved", (i, j)
    if role in ("connectivity-hom", "weak-connectivity-hom"):
        pair = oracles.first_join_break(rows1, rows2, t)
        if pair is not None:
            return "JoinsNotPreserved", pair
    if role == "connectivity-hom":
        members = oracles.first_separated_join_break(rows1, rows2, t)
        if members is not None:
            return "AdjointFailsSeparatedJoins", members
    if role == "weak-connectivity-hom":
        conn2 = connected_elements(s2)
        for c in sorted(connected_elements(s1)):
            if t[c] not in conn2:
                return "connected-element-preservation", c
    return None


def _named_break(check, *args):
    """``(None, verdict)`` when check(*args) passes, else the law error it
    raises as ``((the axiom or error name, witness), None)``."""
    try:
        return None, check(*args)
    except _LAW_ERRORS as e:
        name = e.axiom if isinstance(e, AxiomViolation) else \
            type(e).__name__
        return (name, e.witness), None


def test_prepared_test_agrees_with_validate_map():
    """In every role, the prepared check and validate_map raise the
    first witness the definition gives, or pass where it finds none:
    every table from the structures of up to 4 elements into those of
    up to 3 (lattices: up to 5 into up to 4, where strict and weak homs
    differ), plus, per pair, two tables with a value out of range and
    one of the wrong length.  For connectivity homs the check returns
    the right adjoint."""
    posets = [mk_poset(0, [])] + [p for n in range(1, 5)
                                  for p in enumerate_posets(n)]
    lattices = lattices_up_to(5)
    sources = {
        "monotone": (posets, 3),
        "chainmail-morphism": (chainmails_up_to(4), 3),
        "connectivity-hom": (lattices, 4),
        "weak-connectivity-hom": (lattices, 4),
    }
    counts = {}
    for role, (structures, bound) in sources.items():
        targets = [s for s in structures if carrier_poset(s).n <= bound]
        accepted = rejected = 0
        for s1 in structures:
            n1 = carrier_poset(s1).n
            for s2 in targets:
                n2 = carrier_poset(s2).n
                _, _, check = _prepare(s1, s2, role)
                tables = list(itertools.product(range(n2), repeat=n1))
                if n1:
                    tables += [(n2,) * n1, (0,) * (n1 - 1) + (-1,)]
                tables.append((0,) * (n1 + 1))
                for t in tables:
                    want = _first_break_by_definition(s1, s2, t, role)
                    got, verdict = _named_break(check, t)
                    assert got == want, (role, t)
                    assert _named_break(validate_map, s1, s2, t, role)[0] \
                        == want, (role, t)
                    if want is not None:
                        rejected += 1
                        continue
                    assert verdict, (role, t)
                    if role == "connectivity-hom":
                        assert verdict == _adjoint_table(t, s1, s2)
                    accepted += 1
        counts[role] = (accepted, rejected)
    assert counts == {"monotone": (2445, 6117),
                      "chainmail-morphism": (1489, 3112),
                      "connectivity-hom": (178, 13036),
                      "weak-connectivity-hom": (217, 12997)}


def test_roles_constant():
    assert ROLES == ("monotone", "chainmail-morphism", "connectivity-hom",
                     "weak-connectivity-hom")


# -- composition ----------------------------------------------------------------

def test_compose_keeps_shared_role(counterexample):
    f = validate_map(counterexample, counterexample, [6] * 7,
                     "chainmail-morphism")
    g = identity_map(counterexample, "chainmail-morphism")
    assert compose(f, g).role == "chainmail-morphism"
    assert compose(f, g).table == f.table
    h = identity_map(counterexample.poset, "monotone")
    assert compose(h, f).role == "monotone"


def test_compose_mismatch(counterexample, b2):
    f = identity_map(counterexample, "monotone")
    g = identity_map(b2, "monotone")
    with pytest.raises(AxiomViolation) as e:
        compose(f, g)
    assert e.value.axiom == "composition-mismatch"


def test_roles_closed_under_composition():
    """Composites of two validated same-role maps re-validate at that
    role, on every pair of composable homs between tiny structures."""
    posets = [mk_poset(1, []), mk_poset(2, []), mk_poset(2, [(0, 1)])]
    gs = [as_chainmail(p) for p in posets]
    for g1, g2, g3 in itertools.product(gs, repeat=3):
        for t1 in chainmail_morphism_tables(g1, g2):
            f = PosetMap(g1, g2, tuple(t1), "chainmail-morphism")
            for t2 in chainmail_morphism_tables(g2, g3):
                g = PosetMap(g2, g3, tuple(t2), "chainmail-morphism")
                assert compose(f, g).role == "chainmail-morphism"
    ls = [mk_lattice(1, []), mk_lattice(2, [(0, 1)]), powerset_lattice(2)]
    for l1, l2, l3 in itertools.product(ls, repeat=3):
        for t1 in connectivity_hom_tables(l1, l2):
            f = PosetMap(l1, l2, tuple(t1), "connectivity-hom")
            for t2 in connectivity_hom_tables(l2, l3):
                g = PosetMap(l2, l3, tuple(t2), "connectivity-hom")
                assert compose(f, g).role == "connectivity-hom"


# -- right adjoints --------------------------------------------------------------

def test_right_adjoint_of_identity(b2):
    f = identity_map(b2, "connectivity-hom")
    assert right_adjoint(f).table == tuple(range(4))


def test_right_adjoint_requires_join_preservation(b2, chain3):
    f = validate_map(chain3, b2, [1, 3, 3], "monotone")
    with pytest.raises(NotJoinPreserving) as e:
        right_adjoint(f)
    assert e.value.witness == ("bottom", 0)


def test_powerset_inclusion_adjoint(b2):
    """Including subsets of {p} into subsets of {p,q} has the adjoint
    y -> y intersected with {p}."""
    b1 = powerset_lattice(1)
    f = validate_map(b1, b2, [0, 1], "monotone")
    assert right_adjoint(f).table == (0, 1, 0, 1)


def test_galois_law_everywhere():
    """right_adjoint asserts the Galois equivalence internally for every
    join-preserving map between lattices of up to 6 elements; the adjoint
    is also independently re-validated as monotone."""
    lats = []
    for size in range(1, 7):
        for p in enumerate_posets(size):
            try:
                lats.append(as_complete_lattice(p))
            except NotALattice:
                continue
    checked = 0
    for l1 in lats:
        for l2 in lats:
            for table in join_preserving_tables(l1, l2):
                f = PosetMap(l1, l2, tuple(table), "monotone")
                adj = right_adjoint(f)
                validate_map(l2, l1, adj.table, "monotone")
                checked += 1
    assert checked == 41904


def test_right_adjoint_matches_oracle():
    """right_adjoint sends y to the greatest x with F(x) <= y, for every
    join-preserving table between lattices n<=5."""
    lats = lattices_up_to(5)
    checked = 0
    for l1 in lats:
        for l2 in lats:
            for t in join_preserving_tables(l1, l2):
                adj = right_adjoint(PosetMap(l1, l2, t, "monotone"))
                assert adj.table == oracles.right_adjoint(
                    l1.poset.above, l2.poset.above, t)
                checked += 1
    assert checked == 2022


def test_adjoint_table_is_join_of_preimage():
    """The cover-walk adjoint sends y to the join of every x with
    F(x) <= y, for every table, monotone or not, from lattices n<=5 to
    lattices n<=4."""
    targets = lattices_up_to(4)
    checked = 0
    for l1 in lattices_up_to(5):
        for l2 in targets:
            for t in itertools.product(range(l2.n), repeat=l1.n):
                assert _adjoint_table(t, l1, l2) == oracles.join_of_preimage(
                    l1.poset.above, l2.poset.above, t)
                checked += 1
    assert checked == 13064


def test_separated_joins_witness_matches_oracle():
    """The strict law names the oracle's first failing separated set, or
    passes where the oracle finds none, on every join-preserving table
    from lattices n<=5 to lattices n<=4."""
    targets = lattices_up_to(4)
    failing = 0
    for l1 in lattices_up_to(5):
        for l2 in targets:
            for t in join_preserving_tables(l1, l2):
                want = oracles.first_separated_join_break(
                    l1.poset.above, l2.poset.above, t)
                try:
                    validate_map(l1, l2, t, "connectivity-hom")
                    got = None
                except AdjointFailsSeparatedJoins as e:
                    got = e.witness
                    failing += 1
                assert got == want
    assert failing == 333


# -- the K construction ----------------------------------------------------------

def test_k_of_powerset():
    k = k_chainmail(powerset_lattice(3))
    assert k.elements == (1, 2, 4)
    assert k.chainmail.n == 3
    assert k.chainmail.poset.covers() == []
    assert k.index_of(2) == 1


def test_k_of_m3_is_empty(m3):
    k = k_chainmail(m3)
    assert k.elements == ()
    assert k.chainmail.n == 0


def test_k_of_chain(chain3):
    k = k_chainmail(chain3)
    assert k.elements == (1, 2)
    assert k.chainmail.poset.covers() == [(0, 1)]


def test_k_on_identity(b2):
    f = identity_map(b2, "connectivity-hom")
    kf = k_on_morphism(f)
    assert kf.table == (0, 1)
    assert kf.role == "chainmail-morphism"


def test_k_on_powerset_inclusion(b2):
    b1 = powerset_lattice(1)
    f = validate_map(b1, b2, [0, 1], "connectivity-hom")
    assert k_on_morphism(f).table == (0,)


def test_k_on_empty_source(m3):
    f = identity_map(m3, "connectivity-hom")
    kf = k_on_morphism(f)
    assert kf.table == ()


def test_homs_preserve_connected_and_adjoint_preserves_separation():
    """Each strict connectivity homomorphism into a lattice of up to 5
    elements maps connected elements to connected elements, and its
    adjoint sends the bottom to the bottom and separated sets to
    separated sets.  Weak homomorphisms include every strict one.  The
    sources are the lattices of up to 5 elements and the D lattices of
    the chainmails of up to 4; the strict homs are the join-preserving
    tables validate_map accepts, found without the weak search."""
    from chainmail.category import _adjoint_table
    from chainmail.lattice import is_separated, iter_separated_masks

    targets = lattices_up_to(5)
    sources = targets + [d_lattice(g).lattice for g in chainmails_up_to(4)]
    for l1 in sources:
        for l2 in targets:
            strict = set(strict_homs_by_validation(l1, l2))
            weak = {tuple(t) for t in connectivity_hom_tables(l1, l2,
                                                              weak=True)}
            assert strict <= weak
            conn2 = connected_elements(l2)
            for table in strict:
                for c in connected_elements(l1):
                    assert table[c] in conn2
                adj = _adjoint_table(table, l1, l2)
                assert adj[l2.bottom] == l1.bottom
                for s in iter_separated_masks(l2):
                    image = {adj[e] for e in set_of(s)} - {l1.bottom}
                    assert is_separated(l1, image)


# -- the D construction on morphisms ----------------------------------------------

def test_d_on_point_into_chain():
    point = as_chainmail(mk_poset(1, []))
    chain = as_chainmail(mk_poset(2, [(0, 1)]))
    to_low = validate_map(point, chain, [0], "chainmail-morphism")
    assert d_on_morphism(to_low).table == (0, 1)
    to_high = validate_map(point, chain, [1], "chainmail-morphism")
    assert d_on_morphism(to_high).table == (0, 2)


def test_d_on_identity(counterexample):
    f = identity_map(counterexample, "chainmail-morphism")
    assert d_on_morphism(f).table == tuple(range(11))


def test_d_on_constant_to_top(counterexample):
    f = validate_map(counterexample, counterexample, [6] * 7,
                     "chainmail-morphism")
    df = d_on_morphism(f)
    top = d_lattice(counterexample).index_of({6})
    assert df.table == (0,) + (top,) * 10
    assert df.role == "connectivity-hom"


def test_d_adjoint_formula():
    point = as_chainmail(mk_poset(1, []))
    chain = as_chainmail(mk_poset(2, [(0, 1)]))
    f = validate_map(point, chain, [0], "chainmail-morphism")
    assert d_morphism_adjoint(f).table == (0, 1, 1)
    ident = identity_map(point, "chainmail-morphism")
    assert d_morphism_adjoint(ident).table == (0, 1)


def test_d_adjoint_agrees_with_right_adjoint():
    """The displayed preimage-then-star formula equals the right adjoint
    of the image map, for every morphism between small chainmails."""
    gs = []
    for size in range(1, 4):
        for p in enumerate_posets(size):
            if poset_is_chainmail(p):
                gs.append(as_chainmail(p))
    for g1 in gs:
        for g2 in gs:
            for table in chainmail_morphism_tables(g1, g2):
                m = PosetMap(g1, g2, tuple(table), "chainmail-morphism")
                stated = d_morphism_adjoint(m)
                computed = right_adjoint(d_on_morphism(m))
                assert stated.table == computed.table


def test_d_on_morphism_matches_oracle():
    """D(m) sends a totally disconnected set to the maximal elements of the
    subchainmail its image generates, for every morphism with n<=3; the
    batch form over each pair's whole hom set agrees, table by table."""
    gs = chainmails_up_to(3)
    for g1 in gs:
        d1 = d_lattice(g1)
        for g2 in gs:
            d2 = d_lattice(g2)
            tables = list(chainmail_morphism_tables(g1, g2))
            batch = list(d_on_tables(g1, g2, tables))
            assert len(batch) == len(tables)
            for table, image in zip(tables, batch):
                m = PosetMap(g1, g2, table, "chainmail-morphism")
                assert d_on_morphism(m).table == image
                for i, mask in enumerate(d1.td_sets):
                    members = 0
                    for e in set_of(mask):
                        members |= 1 << table[e]
                    assert d2.td_sets[image[i]] == \
                        oracles.d_image(g2, members)


def test_k_on_tables_matches_k_on_morphism():
    """For every weak hom between lattices n<=4, the batch form of K
    gives what K gives one morphism at a time: each connected element's
    image, as an index into K of the target."""
    lattices = lattices_up_to(4)
    checked = 0
    for l1 in lattices:
        k1 = k_chainmail(l1)
        for l2 in lattices:
            k2 = k_chainmail(l2)
            tables = list(connectivity_hom_tables(l1, l2, weak=True))
            batch = list(k_on_tables(l1, l2, tables))
            assert len(batch) == len(tables)
            for table, image in zip(tables, batch):
                f = PosetMap(l1, l2, table, "weak-connectivity-hom")
                assert k_on_morphism(f).table == image
                assert image == tuple(k2.index_of(table[e])
                                      for e in k1.elements)
                checked += 1
    assert checked


def test_d_rejection_names_the_same_witness(monkeypatch):
    """With D's images broken (two entries swapped), the batch form and
    the one-morphism form raise the same d-morphism-laws witness."""
    real = DLattice.join_images

    def swapped(self, lat, images):
        out = real(self, lat, images)
        out[1], out[2] = out[2], out[1]
        return out

    monkeypatch.setattr(DLattice, "join_images", swapped)
    chain = as_chainmail(mk_poset(3, [(0, 1), (1, 2)]))
    tables = list(chainmail_morphism_tables(chain, chain))
    for i, table in enumerate(tables):
        try:
            d_on_morphism(PosetMap(chain, chain, table, "chainmail-morphism"))
        except TheoremViolation as e:
            single = e
            break
    else:
        pytest.fail("no table broke")
    assert i > 0  # the batch passes earlier tables before it breaks
    with pytest.raises(TheoremViolation) as batch:
        list(d_on_tables(chain, chain, tables))
    assert single.law == batch.value.law == "d-morphism-laws"
    assert single.witness == batch.value.witness


# -- unit and counit -------------------------------------------------------------

def test_unit_on_counterexample(counterexample):
    ud = unit_eta(counterexample)
    assert ud.map.table == tuple(range(7))
    assert ud.map.role == "chainmail-morphism"
    assert [set_of(ud.d.td_sets[ud.k.elements[i]]) for i in ud.map.table] \
        == [{x} for x in range(7)]


def test_unit_on_chain():
    chain = as_chainmail(mk_poset(2, [(0, 1)]))
    ud = unit_eta(chain)
    assert ud.map.table == (0, 1)
    assert ud.d.lattice.n == 3


def test_unit_on_empty():
    ud = unit_eta(as_chainmail(mk_poset(0, [])))
    assert ud.map.table == ()


def test_unit_is_iso_up_to_seven():
    """The singleton map is an order-isomorphism onto the connected
    elements of the totally-disconnected-set lattice, for every chainmail
    with at most 7 elements.  unit_eta re-checks bijectivity and both
    order directions itself and raises on any failure."""
    checked = 0
    for size in range(1, 8):
        for p in enumerate_posets(size):
            if poset_is_chainmail(p):
                unit_eta(as_chainmail(p))
                checked += 1
    assert checked == 574


def test_counit_on_powerset(b2):
    cd = counit_epsilon(b2)
    assert cd.map.table == (0, 1, 2, 3)
    assert cd.map.role == "connectivity-hom"
    assert cd.adjoint.table == (0, 1, 2, 3)
    assert is_epsilon_iso(b2)


def test_counit_on_m3(m3):
    cd = counit_epsilon(m3)
    assert cd.k.elements == ()
    assert cd.map.table == (0,)
    assert cd.adjoint.table == (0, 0, 0, 0, 0)
    assert not is_epsilon_iso(m3)


def test_counit_on_m3_under_a_diamond():
    """The counit need not be injective off the locally connected
    lattices.  In M3 under a diamond (covers 0<1,2,3<4<5,6<7) the
    connected elements are 5, 6 and 7: no atom is connected (1 <= 2v3
    with 2^3 = 0), and 4 = 1v2 is not.  So 5 and 6 share no connected
    lower bound, {5,6} is totally disconnected in K, and both {5,6} and
    {7} join to 7."""
    lat = mk_lattice(8, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4),
                         (4, 5), (4, 6), (5, 7), (6, 7)])
    cd = counit_epsilon(lat)
    assert cd.k.elements == (5, 6, 7)
    d = cd.d
    assert sorted(cd.map.table) == [0, 5, 6, 7, 7]
    assert {d.td_sets[i] for i, v in enumerate(cd.map.table) if v == 7} \
        == {0b011, 0b100}
    assert not is_epsilon_iso(lat)
    assert not is_locally_connected(lat)
    report = run_suite("local-connectivity", max_size=8)
    assert (report.ok(), report.checked) == (True, 300)


def test_counit_on_point():
    assert is_epsilon_iso(mk_lattice(1, []))


def test_counit_injective(small_lattices):
    for lat in small_lattices:
        cd = counit_epsilon(lat)
        assert len(set(cd.map.table)) == len(cd.map.table)


def test_epsilon_iso_iff_locally_connected():
    checked = 0
    for size in range(1, 7):
        for p in enumerate_posets(size):
            try:
                lat = as_complete_lattice(p)
            except NotALattice:
                continue
            assert is_epsilon_iso(lat) == is_locally_connected(lat)
            k = k_chainmail(lat)
            assert all(k.position[e] == i for i, e in enumerate(k.elements))
            checked += 1
    assert checked == 25


def test_separation_poset_is_d_of_k(small_lattices):
    """With a connective foundation, the separation poset and the lattice
    of totally disconnected sets over the connected elements are the same
    poset, member set for member set."""
    for lat in small_lattices:
        if not has_connective_foundation(lat):
            continue
        sp = separation_poset(lat)
        k = k_chainmail(lat)
        dl = d_lattice(k.chainmail)
        assert sp.poset.n == dl.lattice.n
        translated = sorted(
            sum(1 << k.elements[i] for i in set_of(m)) for m in dl.td_sets
        )
        assert sorted(sp.sets) == translated
        assert sp.poset.canonical() == dl.lattice.poset.canonical()


def test_constructions_built_once():
    """D and K are built once per structure: later calls, the unit and
    the counit all get the same objects back."""
    for g in chainmails_up_to(4):
        assert d_lattice(g) is d_lattice(g)
        assert unit_eta(g).d is d_lattice(g)
    for lat in lattices_up_to(5):
        k = k_chainmail(lat)
        assert k_chainmail(lat) is k
        cd = counit_epsilon(lat)
        assert cd.k is k
        assert cd.d is d_lattice(k.chainmail)


# -- triangles, naturality, and the hom bijection -----------------------------------

def test_triangles_on_examples(counterexample, b2, m3):
    r = check_triangle_identities(counterexample, b2)
    assert set(r.chainmail_side) == {"d-of-unit", "counit-at-d"}
    assert set(r.lattice_side) == {"unit-at-k", "k-of-counit"}
    check_triangle_identities(counterexample, powerset_lattice(3))
    check_triangle_identities(as_chainmail(mk_poset(0, [])), mk_lattice(1, []))
    check_triangle_identities(as_chainmail(mk_poset(2, [])), m3)


def test_triangles_on_small_pairs():
    gs = []
    for size in range(1, 4):
        for p in enumerate_posets(size):
            if poset_is_chainmail(p):
                gs.append(as_chainmail(p))
    lats = []
    for size in range(1, 5):
        for p in enumerate_posets(size):
            try:
                lats.append(as_complete_lattice(p))
            except NotALattice:
                continue
    for g in gs:
        for lat in lats:
            check_triangle_identities(g, lat)


def test_naturality(counterexample, b2):
    ident = identity_map(counterexample, "chainmail-morphism")
    assert set(check_naturality(ident).squares) == {"unit"}
    const = validate_map(counterexample, counterexample, [6] * 7,
                         "chainmail-morphism")
    check_naturality(const)
    point = as_chainmail(mk_poset(1, []))
    chain = as_chainmail(mk_poset(2, [(0, 1)]))
    check_naturality(validate_map(point, chain, [0], "chainmail-morphism"))
    f = identity_map(b2, "connectivity-hom")
    assert set(check_naturality(f).squares) == {"counit", "counit-adjoint"}
    with pytest.raises(ValueError):
        check_naturality(identity_map(b2.poset, "monotone"))


def test_hom_enumeration_basics(b2):
    point = mk_poset(1, [])
    assert list(monotone_tables(mk_poset(0, []), b2.poset)) == [()]
    assert sorted(monotone_tables(point, b2.poset)) == [(0,), (1,), (2,), (3,)]
    anti = as_chainmail(mk_poset(2, []))
    chain = as_chainmail(mk_poset(2, [(0, 1)]))
    assert sorted(chainmail_morphism_tables(anti, chain)) == [
        (0, 0), (0, 1), (1, 0), (1, 1)]
    # deterministic ordering on repeat runs
    first = list(connectivity_hom_tables(b2, b2))
    assert first == list(connectivity_hom_tables(b2, b2))


def accepted(source, target, tables, role):
    """The tables source -> target that validate_map accepts at role."""
    out = []
    for table in tables:
        try:
            validate_map(source, target, table, role)
        except ChainmailError:
            continue
        out.append(table)
    return out


def accepted_tables(source, target, role):
    """Every table source -> target that validate_map accepts at role."""
    n1, n2 = (carrier_poset(x).n for x in (source, target))
    return accepted(source, target,
                    itertools.product(range(n2), repeat=n1), role)


def strict_homs_by_validation(l1, l2):
    """The join-preserving tables l1 -> l2 that validate_map accepts as
    connectivity homs, in join_preserving_tables order."""
    out = []
    for table in join_preserving_tables(l1, l2):
        try:
            validate_map(l1, l2, table, "connectivity-hom")
        except ChainmailError:
            continue
        out.append(table)
    return out


def preserves_joins(l1, l2, table):
    try:
        right_adjoint(PosetMap(l1, l2, table, "monotone"))
    except NotJoinPreserving:
        return False
    return True


def in_search_order(p, tables):
    """tables sorted by their values along the linear extension
    ``p.lower_covers()``, the order the hom search yields them in."""
    order = [x for x, _ in p.lower_covers()]
    return sorted(tables, key=lambda t: [t[x] for x in order])


def test_enumerators_match_brute_force():
    """Each enumerator yields exactly the tables the definition accepts,
    once each, in lexicographic order along the source's linear
    extension: lattices n<=5 and the D lattices of chainmails n<=3 into
    lattices n<=4, and chainmails n<=5 into chainmails n<=3.  The
    reference is itertools.product, filtered by the join law and then by
    validate_map.  The five-element lattices include M3 and N5, where one
    element is the join of several incomparable pairs.  In a D lattice
    most elements are such joins, so the search fixes their values
    instead of branching.  The five-element chainmail sources have forced
    values that only their cover check rejects."""
    gs = chainmails_up_to(3)
    for g1 in chainmails_up_to(5):
        for g2 in gs:
            assert list(chainmail_morphism_tables(g1, g2)) == in_search_order(
                g1.poset, accepted_tables(g1, g2, "chainmail-morphism"))
    for g1 in gs:
        for g2 in gs:
            assert list(monotone_tables(g1.poset, g2.poset)) == \
                in_search_order(g1.poset, accepted_tables(
                    g1.poset, g2.poset, "monotone"))
    targets = lattices_up_to(4)
    for l1 in lattices_up_to(5) + [d_lattice(g).lattice for g in gs[1:]]:
        for l2 in targets:
            joining = in_search_order(l1.poset, [
                t for t in itertools.product(range(l2.n), repeat=l1.n)
                if t[l1.bottom] == l2.bottom and preserves_joins(l1, l2, t)])
            assert list(join_preserving_tables(l1, l2)) == joining
            for weak, role in ((False, "connectivity-hom"),
                               (True, "weak-connectivity-hom")):
                assert list(connectivity_hom_tables(l1, l2, weak=weak)) == \
                    accepted(l1, l2, joining, role)


def test_strict_homs_out_of_d_lattices_match_filtered_search():
    """Out of the D lattice of every chainmail of up to 4 elements into
    every lattice of up to 5, the strict connectivity homs are the
    join-preserving tables validate_map accepts, in the same order: the
    strict search loses no hom and keeps the order its first witness
    depends on."""
    targets = lattices_up_to(5)
    for g in chainmails_up_to(4):
        l1 = d_lattice(g).lattice
        for l2 in targets:
            assert list(connectivity_hom_tables(l1, l2)) == \
                strict_homs_by_validation(l1, l2)


def test_hom_bijection_exhaustive():
    """Transposing is a bijection between the two hom sets for every
    chainmail and lattice with at most 5 elements each, in both the
    strict and the weak reading.  check_adjunction_bijection rebuilds
    both hom sets, transposes each chainmail morphism once and takes the
    transpose back once, and raises on any mismatch; strict homs can
    never outnumber weak ones.  Both readings
    sum to 18529 homs over the 450 pairs, so a search that loses homs on
    both sides fails."""
    from chainmail.verify import check_adjunction_bijection

    gs = []
    for size in range(1, 6):
        for p in enumerate_posets(size):
            if poset_is_chainmail(p):
                gs.append(as_chainmail(p))
    lats = []
    for size in range(1, 6):
        for p in enumerate_posets(size):
            try:
                lats.append(as_complete_lattice(p))
            except NotALattice:
                continue
    totals = [0, 0]
    for g in gs:
        for lat in lats:
            strict = check_adjunction_bijection(g, lat, weak=False)
            weak = check_adjunction_bijection(g, lat, weak=True)
            assert strict <= weak
            totals[0] += strict
            totals[1] += weak
    assert (len(gs), len(lats)) == (45, 10)
    assert totals == [18529, 18529]


def test_point_to_powerset_hom_count(b2):
    from chainmail.verify import check_adjunction_bijection

    point = as_chainmail(mk_poset(1, []))
    assert check_adjunction_bijection(point, b2) == 2


# -- serialization ---------------------------------------------------------------

def test_map_json_roundtrip(counterexample):
    f = validate_map(counterexample, counterexample, [6] * 7,
                     "chainmail-morphism")
    data = map_to_json_dict(f)
    back = map_from_json_dict(data)
    assert back.table == f.table
    assert back.role == f.role


def test_map_json_roundtrip_lattice(b2):
    f = identity_map(b2, "connectivity-hom")
    data = map_to_json_dict(f)
    assert data["role"] == "connectivity-hom"
    back = map_from_json_dict(data)
    assert back.table == (0, 1, 2, 3)


def test_map_json_bad_shape(b2):
    with pytest.raises(AxiomViolation) as e:
        map_from_json_dict({"role": "monotone"})
    assert e.value.axiom == "json-shape"


@pytest.mark.parametrize("table,axiom", [
    (lambda key: [["a", "b", "c"]], "json-shape"),
    (lambda key: [["a"]], "json-shape"),
    (lambda key: "ab", "json-shape"),
    (lambda key: {key: 5}, "json-shape"),
    (lambda key: {key: "zz"}, "element-range"),
    (lambda key: {"zz": key}, "element-range"),
])
def test_map_json_bad_table(b2, table, axiom):
    data = map_to_json_dict(identity_map(b2, "connectivity-hom"))
    data["table"] = table(next(iter(data["table"])))
    with pytest.raises(AxiomViolation) as e:
        map_from_json_dict(data)
    assert e.value.axiom == axiom


@pytest.mark.parametrize("role", [None, "isomorphism", ["monotone"]])
def test_map_json_unknown_role(b2, role):
    data = map_to_json_dict(identity_map(b2, "connectivity-hom"))
    data["role"] = role
    with pytest.raises(AxiomViolation) as e:
        map_from_json_dict(data)
    assert e.value.axiom == "map-role"
