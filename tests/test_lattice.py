"""Complete lattices and connectivity inside them."""

import pytest

import oracles
from chainmail import config
from chainmail.category import identity_map
from chainmail.enumeration import posets_up_to
from chainmail.errors import (
    EmptyInput,
    NotALattice,
    NotLocallyConnectedBelow,
    SizeBudgetExceeded,
)
from chainmail.lattice import (
    CONDITIONS,
    as_complete_lattice,
    check_condition,
    connected_elements,
    has_connective_foundation,
    is_chained,
    is_locally_connected,
    is_separated,
    iter_separated_masks,
    nu_classification,
    separation_poset,
    star,
)
from chainmail.mails import as_chainmail, d_lattice, poset_is_chainmail
from chainmail.poset import set_of, validate_poset
from chainmail.sources import powerset_lattice


def mk_lattice(size, covers):
    return as_complete_lattice(validate_poset(size, covers))


@pytest.fixture
def m3():
    return mk_lattice(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


@pytest.fixture
def chain3():
    return mk_lattice(3, [(0, 1), (1, 2)])


# -- validation -----------------------------------------------------------------

def test_powerset_is_lattice():
    lat = powerset_lattice(2)
    assert lat.n == 4
    assert lat.bottom == 0
    assert lat.top == 3
    assert lat.join(1, 2) == 3
    assert lat.meet(1, 2) == 0


def test_counterexample_not_lattice(counterexample):
    with pytest.raises(NotALattice) as e:
        as_complete_lattice(counterexample.poset)
    assert e.value.witness == (2, 3)
    assert e.value.kind == "join"


def test_missing_meet_witness():
    # two minimal elements under a shared top: joins exist, meet does not
    with pytest.raises(NotALattice) as e:
        mk_lattice(3, [(0, 2), (1, 2)])
    assert e.value.witness == (0, 1)
    assert e.value.kind == "meet"


def test_validation_matches_oracle(posets_by_size):
    """Every poset n<=5: a lattice's meets are the oracle's greatest lower
    bounds; a non-lattice names the largest pair without a join, or
    failing that, the largest pair without a meet."""
    for posets in posets_by_size.values():
        for p in posets:
            n, rows = p.n, p.above
            meets = oracles.meet_table(n, rows)
            pairs = [(i, j) for i in range(n) for j in range(i, n)]
            no_join = [(i, j) for i, j in pairs if oracles.least_upper_bound(
                n, rows, (1 << i) | (1 << j)) is None]
            no_meet = [(i, j) for i, j in pairs if meets[i][j] is None]
            if no_join or no_meet:
                with pytest.raises(NotALattice) as e:
                    as_complete_lattice(p)
                kind = "join" if no_join else "meet"
                assert (e.value.witness, e.value.kind) == \
                    (max(no_join or no_meet), kind)
                continue
            lat = as_complete_lattice(p)
            assert [[lat.meet(i, j) for j in range(n)]
                    for i in range(n)] == meets


def test_m3_is_lattice(m3):
    assert m3.bottom == 0
    assert m3.top == 4
    assert m3.join(1, 2) == 4
    assert m3.meet(1, 2) == 0


def test_empty_carrier_rejected():
    with pytest.raises(EmptyInput):
        as_complete_lattice(validate_poset(0, []))


def test_wrong_type_rejected():
    with pytest.raises(TypeError):
        as_complete_lattice([[1]])


# -- separated and chained sets ----------------------------------------------------

def test_separated_examples():
    lat = powerset_lattice(2)
    assert is_separated(lat, {1, 2})
    assert not is_separated(lat, {1, 3})      # meet is the atom, not bottom
    assert not is_separated(lat, {0, 1})      # contains bottom
    assert is_separated(lat, set())
    assert is_separated(lat, {3})


def test_chained_examples():
    lat = powerset_lattice(3)
    assert is_chained(lat, {3, 6})            # {p,q} and {q,r} overlap
    assert not is_chained(lat, {1, 4})        # disjoint atoms
    assert not is_chained(lat, set())
    assert is_chained(lat, {5})


def test_iter_separated_matches_bruteforce(small_lattices):
    for lat in small_lattices:
        fast = sorted(iter_separated_masks(lat))
        slow = sorted(oracles.separated_subsets(
            lat.n, oracles.meet_table(lat.n, lat.poset.above), lat.bottom))
        assert fast == slow


@pytest.fixture(scope="module")
def walk_lattices():
    """Every lattice n<=7 and the D lattice of every chainmail n<=5."""
    lats = []
    for p in posets_up_to(7):
        if p.n <= 5 and poset_is_chainmail(p):
            lats.append(d_lattice(as_chainmail(p)).lattice)
        try:
            lats.append(as_complete_lattice(p))
        except NotALattice:
            pass
    assert len(lats) == 78 + 45
    return lats


def test_separated_table_matches_walk(walk_lattices):
    """separated() lists the walk's sets in walk order, each with its join
    and with the index of the set less its highest member, on every
    lattice n<=7 and on the D lattice of every chainmail n<=5."""
    for lat in walk_lattices:
        table = lat.separated()
        assert [e[0] for e in table] == list(iter_separated_masks(lat))
        assert table[0] == (0, lat.bottom, None, None)
        for i, (mask, join, parent, last) in enumerate(table[1:], 1):
            assert join == lat.join_mask(mask)
            assert last == mask.bit_length() - 1
            assert parent < i and table[parent][0] == mask ^ (1 << last)


def test_separated_table_cap():
    """M17 has 2^17 separated sets of atoms, over the family cap, so the
    table and the strict connectivity law both refuse it."""
    covers = [(0, a) for a in range(1, 18)] + [(a, 18) for a in range(1, 18)]
    m17 = mk_lattice(19, covers)
    with pytest.raises(SizeBudgetExceeded):
        m17.separated()
    with pytest.raises(SizeBudgetExceeded):
        identity_map(m17, "connectivity-hom")


# -- the four element conditions -----------------------------------------------------

def test_conditions_tuple_is_fixed():
    assert CONDITIONS == (
        "disjoint-join-prime",
        "disjoint-join-indecomposable",
        "separated-join-member",
        "separated-join-prime",
    )


def test_conditions_match_oracle(walk_lattices):
    """Every element of every lattice n<=7 and of the D lattice of every
    chainmail n<=5 meets exactly the conditions the definitions give."""
    for lat in walk_lattices:
        slow = oracles.element_conditions(
            lat.n, lat.poset.above,
            oracles.meet_table(lat.n, lat.poset.above), lat.bottom)
        for a in range(lat.n):
            assert {c: check_condition(lat, a, c) for c in CONDITIONS} \
                == slow[a], (lat, a)


def test_pair_conditions_are_weaker():
    """A 15-element lattice whose top is disjoint-join-prime and
    disjoint-join-indecomposable, yet neither separated condition holds
    there: {1,4}, {2,5} and {3,6} are separated and join to the top, while
    no two of them do.  On every other lattice the tests build, each pair
    condition agrees with its separated one."""
    seeds = [0b001001, 0b010010, 0b100100,
             0b111011, 0b111101, 0b111110, 0, 0b111111]
    family = set(seeds)
    while True:
        more = {x & y for x in family for y in family} - family
        if not more:
            break
        family |= more
    masks = sorted(family)
    assert len(masks) == 15
    leq = [(i, j) for i, x in enumerate(masks) for j, y in enumerate(masks)
           if x & ~y == 0]
    lat = as_complete_lattice(validate_poset(15, leq, mode="full-relation"))
    top = masks.index(0b111111)
    assert lat.top == top
    assert check_condition(lat, top, "disjoint-join-prime")
    assert check_condition(lat, top, "disjoint-join-indecomposable")
    assert not check_condition(lat, top, "separated-join-member")
    assert not check_condition(lat, top, "separated-join-prime")
    slow = oracles.element_conditions(
        lat.n, lat.poset.above, oracles.meet_table(lat.n, lat.poset.above),
        lat.bottom)
    assert [{c: check_condition(lat, a, c) for c in CONDITIONS}
            for a in range(lat.n)] == slow


def test_m3_atom_conditions(m3):
    # an atom sits under the join of the other two disjoint atoms
    assert not check_condition(m3, 1, "disjoint-join-prime")
    assert check_condition(m3, 1, "disjoint-join-indecomposable")


def test_m3_top_decomposes(m3):
    assert not check_condition(m3, 4, "disjoint-join-indecomposable")


def test_powerset_conditions():
    lat = powerset_lattice(2)
    assert check_condition(lat, 1, "separated-join-prime")
    assert not check_condition(lat, 3, "disjoint-join-indecomposable")
    for which in CONDITIONS:
        assert not check_condition(lat, lat.bottom, which)


def test_unknown_condition(m3):
    with pytest.raises(ValueError):
        check_condition(m3, 1, "E4")


def test_implications_on_small_lattices(small_lattices):
    """separated-join-prime is the strongest condition, the two middle
    conditions each imply indecomposability, and on locally connected
    lattices indecomposability climbs back up to the top."""
    for lat in small_lattices:
        locally = is_locally_connected(lat)
        for a in range(lat.n):
            held = {c: check_condition(lat, a, c) for c in CONDITIONS}
            if held["separated-join-prime"]:
                assert held["disjoint-join-prime"]
                assert held["separated-join-member"]
            if held["disjoint-join-prime"]:
                assert held["disjoint-join-indecomposable"]
            if held["separated-join-member"]:
                assert held["disjoint-join-indecomposable"]
            if locally and held["disjoint-join-indecomposable"]:
                assert held["separated-join-prime"]


def test_connected_elements():
    assert connected_elements(powerset_lattice(3)) == {1, 2, 4}
    chain = mk_lattice(3, [(0, 1), (1, 2)])
    assert connected_elements(chain) == {1, 2}


def test_m3_has_no_connected_elements(m3):
    assert connected_elements(m3) == set()


def test_chained_join_of_connected_is_connected(small_lattices):
    for lat in small_lattices:
        conn = sorted(connected_elements(lat))
        for mask in range(1, 1 << len(conn)):
            members = {conn[i] for i in range(len(conn)) if (mask >> i) & 1}
            if is_chained(lat, members):
                j = lat.join_set(members)
                assert check_condition(lat, j, "separated-join-prime")


def test_unique_separation(small_lattices):
    """Two separated sets of connected elements with equal joins coincide."""
    for lat in small_lattices:
        seen = {}
        for mask in iter_separated_masks(lat, lat.connected_mask()):
            j = lat.join_mask(mask)
            assert seen.setdefault(j, mask) == mask


# -- stars and local connectivity -------------------------------------------------

def test_star_powerset():
    lat = powerset_lattice(3)
    assert star(lat, 7).members == {1, 2, 4}
    assert star(lat, 3).members == {1, 2}
    assert star(lat, 0).members == set()
    assert star(lat, 3).join() == 3


def test_star_on_m3_fails(m3):
    with pytest.raises(NotLocallyConnectedBelow):
        star(m3, 4)


def test_star_properties_on_locally_connected(small_lattices):
    for lat in small_lattices:
        if not is_locally_connected(lat):
            continue
        for x in range(lat.n):
            s = star(lat, x)
            assert is_separated(lat, s.members)
            assert s.join() == x


def test_local_connectivity_examples(m3, chain3):
    assert is_locally_connected(powerset_lattice(2))
    assert is_locally_connected(powerset_lattice(3))
    assert is_locally_connected(chain3)
    assert not is_locally_connected(m3)


def test_connective_foundation(m3):
    assert not has_connective_foundation(m3)
    assert has_connective_foundation(mk_lattice(1, []))


def test_locally_connected_implies_foundation(small_lattices):
    for lat in small_lattices:
        if is_locally_connected(lat):
            assert has_connective_foundation(lat)


# -- separation poset and its join map ----------------------------------------------

def test_separation_poset_powerset():
    lat = powerset_lattice(2)
    sp = separation_poset(lat)
    assert sp.poset.n == 4
    assert sorted(sp.nu) == [0, 1, 2, 3]


def test_separation_poset_m3(m3):
    sp = separation_poset(m3)
    assert sp.sets == (0,)
    assert sp.nu == (0,)


def test_separation_poset_cap(m3, monkeypatch):
    lat = powerset_lattice(2)
    monkeypatch.setattr(config, "DEFAULT_FAMILY_CAP", 2)
    with pytest.raises(SizeBudgetExceeded):
        separation_poset(lat)


def test_separation_poset_members_are_separated(small_lattices):
    for lat in small_lattices:
        sp = separation_poset(lat)
        for mask in sp.sets:
            assert is_separated(lat, set_of(mask))
            assert set_of(mask) <= connected_elements(lat)


def test_nu_classification_examples(m3, chain3):
    assert nu_classification(powerset_lattice(3)) == "iso"
    assert nu_classification(chain3) == "iso"
    assert nu_classification(m3) == "not-surjective"
    assert nu_classification(mk_lattice(1, [])) == "iso"


def test_nu_trichotomy_collapses(small_lattices):
    """The middle verdict never occurs: the join map is an isomorphism
    as soon as it is surjective."""
    for lat in small_lattices:
        verdict = nu_classification(lat)
        assert verdict in ("iso", "not-surjective")
        assert (verdict == "iso") == is_locally_connected(lat)
