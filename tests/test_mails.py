"""Chainmails, mails, totally disconnected sets, subchainmails, and the
lattice of totally disconnected sets."""

import itertools

import pytest

import oracles
from chainmail import config
from chainmail.enumeration import enumerate_posets, posets_up_to
from chainmail.errors import (
    AxiomViolation,
    NotAChainmail,
    NotMailConnected,
    SizeBudgetExceeded,
)
from chainmail.lattice import is_separated, iter_separated_masks
from chainmail.mails import (
    as_chainmail,
    d_lattice,
    is_mail,
    is_subchainmail,
    is_totally_disconnected,
    iter_td_masks,
    join_of_mail_connected,
    mail_components,
    poset_is_chainmail,
    subchainmail_generated,
    x_star,
)
from chainmail.poset import set_of, validate_poset


def mk_mail(size, covers):
    return as_chainmail(validate_poset(size, covers))


# -- validation -----------------------------------------------------------------

def test_counterexample_is_chainmail(counterexample):
    assert counterexample.n == 7


def test_v_poset_is_not():
    with pytest.raises(NotAChainmail) as e:
        mk_mail(3, [(0, 1), (0, 2)])
    assert e.value.witness == (1, 2)


def test_antichain_is_vacuously_chainmail():
    g = mk_mail(3, [])
    assert g.n == 3


def test_empty_poset_allowed():
    assert mk_mail(0, []).n == 0


def test_wrong_type():
    with pytest.raises(TypeError):
        as_chainmail("not a poset")


def test_pairwise_criterion_matches_all_mails_definition(posets_by_size):
    for n, posets in posets_by_size.items():
        for p in posets:
            assert poset_is_chainmail(p) == oracles.is_chainmail_every_mail(
                p.n, p.above
            )


def test_join_table_matches_oracle(posets_by_size):
    """The mail-join table against brute force: the least upper bound of
    every pair with a common lower bound, None for every other pair, and
    on failure the first pair in index order that has no join."""
    for posets in posets_by_size.values():
        for p in posets:
            n, rows = p.n, p.above
            want = [[None] * n for _ in range(n)]
            missing = None
            for i in range(n):
                for j in range(n):
                    pair = (1 << i) | (1 << j)
                    if not oracles.lower_bound_mask(n, rows, pair):
                        continue
                    want[i][j] = oracles.least_upper_bound(n, rows, pair)
                    if want[i][j] is None and missing is None:
                        missing = (i, j)
            if missing is not None:
                with pytest.raises(NotAChainmail) as e:
                    as_chainmail(p)
                assert e.value.witness == missing
                continue
            g = as_chainmail(p)
            assert [list(row) for row in g.joins] == want
            assert list(g.overlap) == [
                sum(1 << j for j in range(n) if want[i][j] is not None)
                for i in range(n)]


# -- mails and mail-connected sets ---------------------------------------------------

def test_is_mail(counterexample):
    g = counterexample
    assert is_mail(g, {1, 5})           # elements 2 and 6 share 1
    assert not is_mail(g, {2, 3})       # 3 and 4 have disjoint down-sets
    assert not is_mail(g, set())
    assert is_mail(g, {6})


def test_mail_components(counterexample):
    g = counterexample
    assert mail_components(g, {1, 2, 3}) == ({1, 2}, {3})
    assert mail_components(g, set(range(7))) == (set(range(7)),)
    assert mail_components(g, set()) == ()
    flat = mk_mail(2, [])
    assert mail_components(flat, {0, 1}) == ({0}, {1})


def test_component_count_matches_union_find(counterexample, small_chainmails):
    for g in small_chainmails + [counterexample]:
        for mask in range(1 << g.n):
            want = oracles.mail_component_count(g.n, g.poset.above, mask)
            assert len(g.components_of(mask)) == want


def test_join_of_mail_connected(counterexample):
    g = counterexample
    assert join_of_mail_connected(g, {1, 2, 5}) == 6
    assert join_of_mail_connected(g, {1, 2}) == 4
    assert join_of_mail_connected(g, {3}) == 3
    with pytest.raises(NotMailConnected) as e:
        join_of_mail_connected(g, {2, 3})
    assert e.value.parts == ({2}, {3})


def test_every_mail_connected_set_has_a_join():
    """Every mail-connected subset of a chainmail of size at most 7 has a
    join, and the hierarchical pairwise construction agrees with the
    upper-bound scan (the construction self-checks and raises on any
    disagreement)."""
    for n in range(1, 8):
        for p in enumerate_posets(n):
            if not poset_is_chainmail(p):
                continue
            g = as_chainmail(p)
            for mask in range(1, 1 << n):
                if len(g.components_of(mask)) == 1:
                    j = join_of_mail_connected(g, set_of(mask))
                    assert j == p.join_mask(mask)


# -- totally disconnected sets and stars -----------------------------------------------

def test_totally_disconnected(counterexample):
    g = counterexample
    assert is_totally_disconnected(g, {2, 3})
    assert not is_totally_disconnected(g, {1, 2})
    assert is_totally_disconnected(g, {5})
    assert is_totally_disconnected(g, set())


def test_x_star(counterexample):
    g = counterexample
    # the down-set of element 5 collapses to its top
    assert x_star(g, {0, 1, 2, 3, 4}).members == {4}
    # dropping element 4 from the input leaves the same single component
    assert x_star(g, {0, 1, 2, 4}).members == {4}
    # totally disconnected sets are fixed points
    assert x_star(g, {2, 3}).members == {2, 3}
    assert x_star(g, set()).members == frozenset()


def test_x_star_rejects_non_disconnected_result(counterexample):
    with pytest.raises(AxiomViolation) as e:
        x_star(counterexample, {1, 2, 3})
    assert e.value.axiom == "x-star-not-totally-disconnected"
    assert e.value.witness == (frozenset({1, 2, 3}), frozenset({3, 4}))


def test_iter_td_matches_bruteforce(small_chainmails):
    for g in small_chainmails:
        overlap = g.overlap
        slow = sorted(
            m for m in range(1 << g.n)
            if all(not (overlap[i] & m & ~(1 << i)) for i in set_of(m))
        )
        assert sorted(iter_td_masks(g)) == slow


# -- subchainmails ---------------------------------------------------------------

def test_is_subchainmail(counterexample):
    g = counterexample
    assert is_subchainmail(g, {0, 1, 2, 3, 4})
    assert not is_subchainmail(g, {0, 1, 2, 4})    # misses 3, not down-closed
    assert not is_subchainmail(g, {0, 1, 2})       # mail {1,2} has join 4 outside
    assert is_subchainmail(g, set())
    assert is_subchainmail(g, {3})


def test_subchainmail_generated(counterexample):
    g = counterexample
    assert subchainmail_generated(g, {1, 2}).members == {0, 1, 2, 3, 4}
    assert subchainmail_generated(g, {3}).members == {3}
    assert subchainmail_generated(g, set()).members == frozenset()
    assert subchainmail_generated(g, {6}).members == frozenset(range(7))


def test_generated_is_least(small_chainmails):
    """The fixpoint construction lands on the intersection of all
    subchainmails containing the seed."""
    for g in small_chainmails:
        subs = [m for m in range(1 << g.n) if is_subchainmail(g, set_of(m))]
        for seed in range(1 << g.n):
            want = (1 << g.n) - 1
            for m in subs:
                if m & seed == seed:
                    want &= m
            got = subchainmail_generated(g, set_of(seed)).members
            from chainmail.poset import mask_of
            assert mask_of(got) == want


def test_three_conditions_agree(small_chainmails):
    """For a down-closed set the three characterizations coincide: being
    the down-set of a totally disconnected set, being closed under joins
    of contained mails, and being closed under joins of mail-connected
    subsets."""
    for g in small_chainmails:
        p = g.poset
        td_downs = {p.down_closure(m) for m in iter_td_masks(g)}
        for x in range(1 << g.n):
            if not p.is_down_closed(x):
                continue
            cond1 = x in td_downs
            cond2 = all(
                p.join_mask(m) is not None and (x >> p.join_mask(m)) & 1
                for m in _nonempty_subsets(x)
                if p.lower_mask(m)
            )
            cond3 = all(
                p.join_mask(m) is not None and (x >> p.join_mask(m)) & 1
                for m in _nonempty_subsets(x)
                if len(g.components_of(m)) == 1
            )
            assert cond1 == cond2 == cond3 == is_subchainmail(g, set_of(x))


def _nonempty_subsets(mask):
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


# -- the lattice of totally disconnected sets --------------------------------------------

def test_d_lattice_counterexample(counterexample):
    dl = d_lattice(counterexample)
    assert dl.lattice.n == 11
    members = [set_of(m) for m in dl.td_sets]
    assert members == [
        set(), {0}, {1}, {2}, {3}, {0, 3}, {1, 3}, {2, 3},
        {4}, {5}, {6},
    ]
    assert [dl.lattice.poset.label_of(i) for i in range(11)] == [
        "{}", "{1}", "{2}", "{3}", "{4}", "{1,4}", "{2,4}", "{3,4}",
        "{5}", "{6}", "{7}",
    ]
    assert dl.index_of({0, 3}) == 5
    assert dl.lattice.bottom == dl.index_of(set())
    assert dl.lattice.top == dl.index_of({6})


def test_d_lattice_antichain():
    for n in range(4):
        dl = d_lattice(mk_mail(n, []))
        assert dl.lattice.n == 1 << n


def test_d_lattice_empty():
    dl = d_lattice(mk_mail(0, []))
    assert dl.lattice.n == 1
    assert dl.td_sets == (0,)


def test_d_lattice_cap(monkeypatch):
    """Past the family cap D raises and keeps nothing: the same chainmail
    raises again, and builds once the cap is back."""
    g = mk_mail(5, [])
    with monkeypatch.context() as m:
        m.setattr(config, "DEFAULT_FAMILY_CAP", 20)
        for _ in range(2):
            with pytest.raises(SizeBudgetExceeded):
                d_lattice(g)
    assert len(d_lattice(g).td_sets) == 32


def test_d_lattice_table_cap(monkeypatch):
    """D's join table is budgeted before it is filled: 32 td sets need
    1024 cells, and the table cap alone decides."""
    g = mk_mail(5, [])
    with monkeypatch.context() as m:
        m.setattr(config, "TABLE_CELL_CAP", 1023)
        with pytest.raises(SizeBudgetExceeded) as e:
            d_lattice(g)
    assert (e.value.size, e.value.budget) == (1024, 1023)
    assert len(d_lattice(g).td_sets) == 32


def test_d_lattice_steps_match_td_sets():
    """Each td set's step names the set less its highest member, at an
    earlier index, the index finds each td set at its position, and
    folding the singletons along the steps gives every td set back as the
    join of its members: chainmails n<=6."""
    gs = [as_chainmail(p) for p in posets_up_to(6) if poset_is_chainmail(p)]
    for g in gs:
        dl = d_lattice(g)
        assert all(dl.index[m] == i for i, m in enumerate(dl.td_sets))
        assert dl.td_sets[0] == 0 and dl.steps[0] == (None, None)
        for i, (parent, last) in enumerate(dl.steps[1:], 1):
            mask = dl.td_sets[i]
            assert last == mask.bit_length() - 1
            assert parent < i and dl.td_sets[parent] == mask ^ (1 << last)
        singletons = [dl.index_of({e}) for e in range(g.n)]
        assert dl.join_images(dl.lattice, singletons) == \
            list(range(len(dl.td_sets)))
    assert len(gs) == 144


def test_d_joins_match_definition(small_chainmails, counterexample):
    """Every cell of D's join table is the td set of the subchainmail the
    union generates, from the definitions: chainmails n<=5, the
    counterexample and the antichains up to 6."""
    antichains = [mk_mail(k, []) for k in range(1, 7)]
    for g in small_chainmails + [counterexample] + antichains:
        dl = d_lattice(g)
        tds = dl.td_sets
        for i, mi in enumerate(tds):
            assert [dl.index[oracles.d_image(g, mi | mj)] for mj in tds] \
                == list(dl.lattice.joins[i]), (g, i)


def test_d_order_matches_subchainmail_inclusion(small_chainmails, counterexample):
    """Comparing totally disconnected sets member-by-member gives the same
    order as inclusion of their down-sets."""
    for g in small_chainmails + [counterexample]:
        dl = d_lattice(g)
        k = dl.lattice.n
        for i in range(k):
            for j in range(k):
                want = dl.subchainmails[i] & ~dl.subchainmails[j] == 0
                assert dl.lattice.poset.leq(i, j) == want


def test_dictionary_is_a_bijection(small_chainmails, counterexample):
    for g in small_chainmails + [counterexample]:
        dl = d_lattice(g)
        for td, sub in zip(dl.td_sets, dl.subchainmails):
            assert g.poset.down_closure(td) == sub
            star = x_star(g, set_of(sub))
            assert star.mask() == td


def test_separated_sets_in_d(small_chainmails):
    """A family of totally disconnected sets is separated in the lattice
    of such sets exactly when it omits the empty set, has pairwise
    disjoint members, and a totally disconnected union; its join is then
    the union.  Checked both ways over every chainmail on at most 5
    elements: the separated families are recomputed from partitions of
    totally disconnected sets."""
    for g in small_chainmails:
        dl = d_lattice(g)
        by_mask = {m: i for i, m in enumerate(dl.td_sets)}

        expected = set()
        for u in dl.td_sets:
            members = sorted(set_of(u))
            for part in _set_partitions(members):
                family = frozenset(
                    by_mask[sum(1 << e for e in block)] for block in part
                )
                expected.add(family)
        expected.add(frozenset())

        got = set()
        for mask in iter_separated_masks(dl.lattice):
            family = frozenset(set_of(mask))
            got.add(family)
            union = 0
            for i in family:
                union |= dl.td_sets[i]
            assert dl.lattice.join_mask(mask) == by_mask[union]
        assert got == expected


def _set_partitions(items):
    if not items:
        return
    if len(items) == 1:
        yield [items]
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part
    yield [[first]]


def test_disjoint_subchainmail_unions(small_chainmails):
    """When pairwise-disjoint nonempty subchainmails union to a
    subchainmail, that union is their join in the lattice."""
    for g in small_chainmails:
        dl = d_lattice(g)
        subs = dl.subchainmails
        nonempty = [i for i, m in enumerate(subs) if m]
        for size in (2, 3):
            for combo in itertools.combinations(nonempty, size):
                union = 0
                ok = True
                for i in combo:
                    if union & subs[i]:
                        ok = False
                        break
                    union |= subs[i]
                if not ok or not is_subchainmail(g, set_of(union)):
                    continue
                j = combo[0]
                for i in combo[1:]:
                    j = dl.lattice.join(j, i)
                assert subs[j] == union
