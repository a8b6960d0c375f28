"""Builders from graphs, hypergraphs, topologies and connectivity spaces,
the stock lattices, and the representability search."""

import itertools

import pytest

import oracles
from chainmail import config, enumeration
from chainmail.enumeration import EnumerationTask
from chainmail.errors import (
    AxiomViolation,
    SizeBudgetExceeded,
)
from chainmail.lattice import connected_elements, is_locally_connected
from chainmail.mails import as_chainmail, join_of_mail_connected
from chainmail.poset import is_isomorphic, validate_poset
from chainmail.sources import (
    ConnectivitySpace,
    FiniteTopology,
    Graph,
    Hypergraph,
    chainmail_from_connectivity_space,
    chainmail_from_graph,
    chainmail_from_hypergraph,
    chainmail_from_topology,
    connectivity_space_from_json_dict,
    connectivity_space_of_graph,
    connectivity_space_to_json_dict,
    counterexample_chainmail,
    downset_lattice,
    graph_from_json_dict,
    graph_to_json_dict,
    hypergraph_from_json_dict,
    hypergraph_to_json_dict,
    powerset_lattice,
    search_connectivity_representation,
    topology_from_json_dict,
    topology_to_json_dict,
)


def all_graphs(max_vertices):
    for n in range(max_vertices + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for k in range(len(pairs) + 1):
            for chosen in itertools.combinations(pairs, k):
                yield Graph(n, chosen)


# -- graphs ---------------------------------------------------------------------

def test_graph_normalization():
    g = Graph(3, [(0, 0), (1, 0), (0, 1), (2, 1)])
    assert g.edges == ((0, 1), (1, 2))
    assert g.adjacency() == [0b010, 0b101, 0b010]


def test_graph_edge_range():
    with pytest.raises(AxiomViolation) as e:
        Graph(2, [(0, 5)])
    assert e.value.axiom == "edge-range"


def test_path_chainmail():
    g = chainmail_from_graph(Graph(3, [(0, 1), (1, 2)]))
    assert g.n == 6
    space = connectivity_space_of_graph(Graph(3, [(0, 1), (1, 2)]))
    assert set(space.member_masks()) == {0, 1, 2, 4, 3, 6, 7}


def test_triangle_chainmail():
    g = chainmail_from_graph(Graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert g.n == 7


def test_edgeless_chainmail():
    g = chainmail_from_graph(Graph(2, []))
    assert g.n == 2
    assert g.poset.covers() == []


def test_graph_budget():
    with pytest.raises(SizeBudgetExceeded):
        chainmail_from_graph(Graph(6, []))
    assert chainmail_from_graph(Graph(6, []), budget=6).n == 6


def test_connected_subsets_against_oracle():
    for g in all_graphs(4):
        want = oracles.graph_connected_subsets(g.vertices, g.edges)
        space = connectivity_space_of_graph(g)
        assert set(space.member_masks()) == {0} | set(want)
        assert chainmail_from_graph(g).n == len(want)


# -- hypergraphs -----------------------------------------------------------------

def test_hypergraph_validation():
    h = Hypergraph(3, [(2, 1), (0,), (1, 2)])
    assert h.hyperedges == ((0,), (1, 2))
    assert h.edge_masks() == [1, 6]
    with pytest.raises(AxiomViolation) as e:
        Hypergraph(3, [()])
    assert e.value.axiom == "hyperedge-empty"
    with pytest.raises(AxiomViolation) as e:
        Hypergraph(2, [(0, 7)])
    assert e.value.axiom == "hyperedge-range"


def test_single_big_hyperedge():
    h = Hypergraph(3, [(0,), (1,), (2,), (0, 1, 2)])
    g = chainmail_from_hypergraph(h)
    assert g.n == 4
    labels = {g.poset.label_of(i) for i in range(4)}
    assert labels == {"{0}", "{1}", "{2}", "{0,1,2}"}


def test_no_hyperedges():
    assert chainmail_from_hypergraph(Hypergraph(2, [])).n == 0


def test_hypergraph_encoding_matches_graph():
    """Encoding a graph as singleton and edge-pair hyperedges produces
    the identical chainmail, for every graph on up to 4 vertices."""
    from chainmail.sources import hypergraph_from_graph

    for g in all_graphs(4):
        via_graph = chainmail_from_graph(g)
        via_hyper = chainmail_from_hypergraph(hypergraph_from_graph(g))
        assert via_graph.poset == via_hyper.poset


# -- finite topologies -------------------------------------------------------------

def test_sierpinski():
    t = FiniteTopology(2, [(), (0,), (0, 1)])
    g = chainmail_from_topology(t)
    assert g.n == 3
    assert g.poset.covers() == [(0, 2), (1, 2)]


def test_discrete_two_points():
    t = FiniteTopology(2, [(), (0,), (1,), (0, 1)])
    g = chainmail_from_topology(t)
    assert g.n == 2
    assert g.poset.covers() == []


def test_indiscrete_two_points():
    t = FiniteTopology(2, [(), (0, 1)])
    g = chainmail_from_topology(t)
    assert g.n == 3
    assert g.poset.covers() == [(0, 2), (1, 2)]


def test_topology_axioms():
    with pytest.raises(AxiomViolation) as e:
        FiniteTopology(2, [(0,), (0, 1)])
    assert e.value.axiom == "opens-contain-empty"
    with pytest.raises(AxiomViolation) as e:
        FiniteTopology(2, [(), (0,)])
    assert e.value.axiom == "opens-contain-space"
    with pytest.raises(AxiomViolation) as e:
        FiniteTopology(3, [(), (0,), (1,), (0, 1, 2)])
    assert e.value.axiom == "opens-union-closure"
    assert e.value.witness == ((0,), (1,))
    with pytest.raises(AxiomViolation) as e:
        FiniteTopology(3, [(), (0, 1), (1, 2), (0, 1, 2)])
    assert e.value.axiom == "opens-intersection-closure"
    assert e.value.witness == ((0, 1), (1, 2))


def test_topology_count_on_three_points():
    """29 labeled topologies exist on 3 points and 4 on 2 points; every
    family the validator accepts yields a valid chainmail."""
    for points, want in ((2, 4), (3, 29)):
        nonempty = range(1, 1 << points)
        accepted = 0
        for k in range(len(nonempty) + 1):
            for chosen in itertools.combinations(nonempty, k):
                opens = [()] + [
                    tuple(b for b in range(points) if (m >> b) & 1)
                    for m in chosen
                ]
                try:
                    t = FiniteTopology(points, opens)
                except AxiomViolation:
                    continue
                accepted += 1
                chainmail_from_topology(t)
        assert accepted == want


# -- connectivity spaces ------------------------------------------------------------

def test_connectivity_space_basic():
    s = ConnectivitySpace(2, [(), (0,), (1,), (0, 1)])
    g = chainmail_from_connectivity_space(s)
    assert g.n == 3


def test_connectivity_space_c0():
    with pytest.raises(AxiomViolation) as e:
        ConnectivitySpace(2, [(0,)])
    assert e.value.axiom == "contains-empty"


def test_connectivity_space_c1():
    with pytest.raises(AxiomViolation) as e:
        ConnectivitySpace(3, [(), (0,), (2,), (0, 1), (1, 2)])
    assert e.value.axiom == "overlapping-union-closure"
    assert e.value.witness == ((0, 1), (1, 2))


def test_empty_connectivity_space():
    s = ConnectivitySpace(0, [()])
    assert chainmail_from_connectivity_space(s).n == 0


def test_pairwise_closure_matches_naive():
    """The pairwise overlapping-union check accepts exactly the families
    satisfying the full subfamily axiom, for every family on 3 points."""
    for sub in range(1 << 7):
        family = [0] + [m for m in range(1, 8) if (sub >> (m - 1)) & 1]
        members = [
            tuple(b for b in range(3) if (m >> b) & 1) for m in family
        ]
        want = oracles.union_closure_holds(family)
        try:
            ConnectivitySpace(3, members)
            got = True
        except AxiomViolation:
            got = False
        assert got == want


def test_graph_space_agreement():
    """The chainmail of a graph equals the chainmail of its connectivity
    space of connected subsets, for every graph on up to 4 vertices."""
    for g in all_graphs(4):
        direct = chainmail_from_graph(g)
        via_space = chainmail_from_connectivity_space(
            connectivity_space_of_graph(g))
        assert direct.poset == via_space.poset


# -- equality of the ground structures ---------------------------------------------

@pytest.mark.parametrize("cls, args, other", [
    (Graph, (3, [(0, 1)]), (3, [(1, 2)])),
    (Hypergraph, (3, [(0, 1)]), (3, [(0, 1, 2)])),
    (FiniteTopology, (2, [(), (0,), (0, 1)]), (2, [(), (0, 1)])),
    (ConnectivitySpace, (2, [(), (0,), (1,)]), (2, [(), (0,)])),
])
def test_ground_structures_compare_by_value(cls, args, other):
    """Equal fields make equal structures with the hash of the fields'
    tuple; a graph and a hypergraph with the same fields differ."""
    a, b = cls(*args), cls(*args)
    assert a == b and a is not b
    assert hash(a) == hash(b) == hash(tuple(
        getattr(a, name) for name in cls.__slots__))
    assert a != cls(*other)
    twin = {Graph: Hypergraph, Hypergraph: Graph}.get(cls)
    if twin is not None:
        assert hash(a) == hash(twin(*args))
        assert a != twin(*args) and twin(*args) != a


# -- stock lattices ----------------------------------------------------------------

def test_powerset_sizes():
    assert powerset_lattice(0).n == 1
    assert powerset_lattice(2).n == 4
    assert powerset_lattice(3).n == 8
    with pytest.raises(SizeBudgetExceeded):
        powerset_lattice(6)
    assert powerset_lattice(6, budget=6).n == 64


def test_powerset_connectivity():
    for n in range(5):
        lat = powerset_lattice(n, budget=5)
        assert is_locally_connected(lat)
        assert connected_elements(lat) == {1 << i for i in range(n)}


def test_downset_lattice_shapes():
    anti = downset_lattice(validate_poset(2, []))
    assert anti.poset.canonical() == powerset_lattice(2).poset.canonical()
    chain = downset_lattice(validate_poset(2, [(0, 1)]))
    assert chain.n == 3
    vee = downset_lattice(validate_poset(3, [(0, 1), (0, 2)]))
    assert vee.n == 5


def test_downset_lattice_against_oracle(posets_by_size):
    for n, posets in posets_by_size.items():
        if n > 4:
            continue
        for p in posets:
            lat = downset_lattice(p)
            masks = oracles.downset_masks(p.n, p.above)
            assert lat.n == len(masks)
            assert lat.top == len(masks) - 1
            assert lat.bottom == 0


# -- the counterexample -------------------------------------------------------------

def test_counterexample_shape(counterexample):
    p = counterexample.poset
    assert [p.label_of(i) for i in range(7)] == [str(i + 1) for i in range(7)]
    assert p.covers() == [(0, 1), (0, 2), (1, 4), (2, 4), (2, 5), (3, 4),
                          (3, 5), (4, 6), (5, 6)]
    assert counterexample_chainmail().poset == p


def test_counterexample_joins(counterexample):
    p = counterexample.poset

    def by_label(*names):
        return {p.index_of(x) for x in names}

    assert join_of_mail_connected(counterexample, by_label("2", "3")) \
        == p.index_of("5")
    assert join_of_mail_connected(counterexample, by_label("2", "6")) \
        == p.index_of("7")
    assert join_of_mail_connected(counterexample, by_label("5", "6")) \
        == p.index_of("7")
    assert p.join_mask(sum(1 << i for i in by_label("3", "4"))) is None


# -- representability search ---------------------------------------------------------

def test_path_is_representable():
    g = chainmail_from_graph(Graph(3, [(0, 1), (1, 2)]))
    space = search_connectivity_representation(g, 3)
    assert space is not None
    assert space.points <= 3
    back = chainmail_from_connectivity_space(space)
    assert is_isomorphic(back.poset, g.poset)


def test_antichain_needs_two_points():
    g = as_chainmail(validate_poset(2, []))
    space = search_connectivity_representation(g, 4)
    assert space is not None
    assert space.points == 2


def test_counterexample_is_not_representable(counterexample):
    assert search_connectivity_representation(counterexample, 5) is None


def test_counterexample_has_no_representation_at_all(counterexample):
    """Deepening stops by itself, so a bound of a million points is a
    proof that no connectivity space of any size realizes it."""
    assert search_connectivity_representation(counterexample, 10**6) is None


# least points per chainmail, None for no space, at K = n
_LEAST_POINTS = {
    1: {1: 1},
    2: {2: 2},
    3: {2: 1, 3: 3},
    4: {3: 5, 4: 5},
    5: {3: 4, 4: 17, 5: 7},
    6: {3: 2, 4: 36, 5: 50, 6: 11},
    7: {3: 1, 4: 55, 5: 216, 6: 135, 7: 15, None: 8},
}


def test_least_point_tallies():
    """Every chainmail with n <= 7; the eight with no space on 7 points
    have none on any number of points."""
    tallies = {n: {} for n in _LEAST_POINTS}
    for p in enumeration._passing(EnumerationTask(7, "chainmails")):
        g = as_chainmail(p)
        space = search_connectivity_representation(g, g.n)
        points = None if space is None else space.points
        tallies[g.n][points] = tallies[g.n].get(points, 0) + 1
        if space is None:
            assert search_connectivity_representation(g, 10**6) is None
        else:
            back = chainmail_from_connectivity_space(space, budget=g.n)
            assert is_isomorphic(back.poset, g.poset)
    assert tallies == _LEAST_POINTS


@pytest.mark.parametrize("covers", [[], [(i, i + 1) for i in range(23)]],
                         ids=["antichain", "chain"])
def test_twenty_four_elements_need_twenty_four_points(covers):
    g = as_chainmail(validate_poset(24, covers))
    space = search_connectivity_representation(g, 10**6)
    assert space.points == 24
    back = chainmail_from_connectivity_space(space, budget=24)
    assert is_isomorphic(back.poset, g.poset)


def test_least_points_match_brute_force(small_chainmails):
    """Every chainmail with n <= 4 against injective point-set assignments
    tried straight from the definition."""
    checked = 0
    for g in small_chainmails:
        if g.n > 4:
            continue
        space = search_connectivity_representation(g, g.n)
        want = oracles.least_representation_points(g.n, g.poset.above, g.n)
        assert (None if space is None else space.points) == want
        checked += 1
    assert checked == 17


def test_small_chainmails_found_spaces_verify(small_chainmails):
    """Whenever the search succeeds on a small chainmail, the returned
    space's connected-set poset really is isomorphic to the input."""
    found = 0
    for g in small_chainmails:
        if g.n > 4:
            continue
        space = search_connectivity_representation(g, 4)
        if space is None:
            continue
        found += 1
        back = chainmail_from_connectivity_space(space)
        assert is_isomorphic(back.poset, g.poset)
    assert found > 0


def test_search_budget():
    """The point bound has no cap: nine points are searched."""
    point = chainmail_from_graph(Graph(1, []))
    assert search_connectivity_representation(point, 9).points == 1


def test_candidate_up_sets_are_capped(monkeypatch):
    """The search's candidate up-sets are bounded by the family cap: B2
    has five nonempty up-sets, and the empty one is counted too."""
    g = as_chainmail(powerset_lattice(2).poset)
    monkeypatch.setattr(config, "DEFAULT_FAMILY_CAP", 5)
    with pytest.raises(SizeBudgetExceeded):
        search_connectivity_representation(g, 4)
    monkeypatch.setattr(config, "DEFAULT_FAMILY_CAP", 6)
    assert search_connectivity_representation(g, 4).points == 3


def test_search_empty_chainmail():
    space = search_connectivity_representation(
        as_chainmail(validate_poset(0, [])), 2)
    assert space == ConnectivitySpace(0, [()])


# -- serialization ---------------------------------------------------------------

def test_graph_json_roundtrip():
    g = Graph(3, [(0, 1), (1, 2)])
    assert graph_from_json_dict(graph_to_json_dict(g)) == g
    with pytest.raises(AxiomViolation) as e:
        graph_from_json_dict({"vertices": 3})
    assert e.value.axiom == "json-shape"


def test_hypergraph_json_roundtrip():
    h = Hypergraph(3, [(0, 1, 2), (1,)])
    assert hypergraph_from_json_dict(hypergraph_to_json_dict(h)) == h
    with pytest.raises(AxiomViolation):
        hypergraph_from_json_dict({"hyperedges": []})


def test_topology_json_roundtrip():
    t = FiniteTopology(2, [(), (0,), (0, 1)])
    assert topology_from_json_dict(topology_to_json_dict(t)) == t
    with pytest.raises(AxiomViolation):
        topology_from_json_dict({"points": 2})


def test_connectivity_space_json_roundtrip():
    s = ConnectivitySpace(2, [(), (0,), (1,), (0, 1)])
    assert connectivity_space_from_json_dict(
        connectivity_space_to_json_dict(s)) == s
    with pytest.raises(AxiomViolation):
        connectivity_space_from_json_dict({"points": 1})


_LOADERS = [
    (graph_from_json_dict, "vertices", "edges"),
    (hypergraph_from_json_dict, "vertices", "hyperedges"),
    (topology_from_json_dict, "points", "opens"),
    (connectivity_space_from_json_dict, "points", "connected"),
]


@pytest.mark.parametrize("load,size_key,family_key", _LOADERS)
@pytest.mark.parametrize("size,family", [
    (float("inf"), []),
    (2.0, [[]]),
    (True, [[]]),
    ("2", [[]]),
    (2, [[0, 1.0]]),
    (2, [[0, "1"]]),
    (2, [[None]]),
    (2, 5),
])
def test_source_json_rejects_non_integers(load, size_key, family_key, size,
                                          family):
    with pytest.raises(AxiomViolation) as e:
        load({size_key: size, family_key: family})
    assert e.value.axiom == "json-shape"


@pytest.mark.parametrize("load,size_key,family_key", _LOADERS)
def test_source_json_checks_size_before_building(load, size_key, family_key):
    """A huge count is refused before any mask of that width exists."""
    with pytest.raises(SizeBudgetExceeded):
        load({size_key: 10 ** 9, family_key: [[]]})
    with pytest.raises(SizeBudgetExceeded):
        load({size_key: 3, family_key: []}, budget=2)


def test_graph_json_edge_not_a_pair():
    with pytest.raises(AxiomViolation) as e:
        graph_from_json_dict({"vertices": 3, "edges": [[0, 1, 2]]})
    assert e.value.axiom == "json-shape"
