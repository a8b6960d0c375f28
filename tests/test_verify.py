"""The verification suites: green on the real code, red under mutation."""

import dataclasses

import pytest

from chainmail import category, lattice, verify
from chainmail.enumeration import posets_up_to
from chainmail.errors import NotALattice, TheoremViolation
from chainmail.lattice import as_complete_lattice
from chainmail.mails import as_chainmail, poset_is_chainmail
from chainmail.poset import validate_poset
from chainmail.sources import powerset_lattice
from chainmail.verify import (SUITES, SuiteReport, check_adjunction_bijection,
                              run_suite)


def test_suite_names():
    assert set(SUITES) == {
        "connectivity-conditions",
        "local-connectivity",
        "unit-counit",
        "adjunction",
        "pairwise-criterion",
    }
    with pytest.raises(ValueError):
        run_suite("everything")


def test_report_bookkeeping():
    report = SuiteReport("demo", "nothing")
    assert report.ok()
    report.record("structure", "law", 7)
    assert not report.ok()
    assert report.violations == [
        {"structure": "structure", "law": "law", "witness": 7}]


def test_report_is_timed():
    report = run_suite("pairwise-criterion", max_size=3)
    assert report.elapsed_s > 0
    assert SuiteReport("demo", "nothing").elapsed_s == 0.0


def test_lattice_walk_counts_a006966():
    """The lattices the suites walk, one per isomorphism class, by size:
    OEIS A006966 for n = 1..8."""
    sizes = [lat.n for lat in verify._lattices_up_to(8)]
    assert [sizes.count(n) for n in range(1, 9)] \
        == [1, 1, 1, 2, 5, 15, 53, 222]


@pytest.mark.parametrize("n", range(8))
def test_populations_match_the_validators(n):
    """The chainmails tree yields the posets ``poset_is_chainmail``
    accepts, and the lattices drawn from it are the posets
    ``as_complete_lattice`` accepts, both in the all-posets order."""
    posets = posets_up_to(n)
    assert [p.above for p in posets_up_to(n, "chainmails")] \
        == [p.above for p in posets if poset_is_chainmail(p)]
    accepted = []
    for p in posets:
        try:
            as_complete_lattice(p)
        except NotALattice:
            continue
        accepted.append(p.above)
    assert [lat.poset.above for lat in verify._lattices_up_to(n)] == accepted


@pytest.mark.parametrize("name", sorted(SUITES))
def test_bound_zero_is_an_empty_population(name):
    """At bound 0 a suite checks nothing and says so as its one
    violation; it raises nothing."""
    report = run_suite(name, 0)
    assert report.checked == 0
    assert [v["law"] for v in report.violations] \
        == ["population is not empty"]


def test_connectivity_conditions_pass():
    report = run_suite("connectivity-conditions", max_size=4)
    assert report.ok()
    assert report.checked == 5


def test_local_connectivity_pass():
    report = run_suite("local-connectivity", max_size=4)
    assert report.ok()
    assert report.checked == 5


def test_unit_counit_pass():
    report = run_suite("unit-counit", max_size=4)
    assert report.ok()
    assert report.checked == 22


def test_adjunction_pass():
    report = run_suite("adjunction", max_size=3)
    assert report.ok()
    assert report.checked == 35


def test_pairwise_criterion_pass():
    report = run_suite("pairwise-criterion", max_size=4)
    assert report.ok()
    assert report.checked == 24


def test_condition_mutation_is_caught(monkeypatch):
    """Forcing one condition to fail breaks a verified implication."""
    real = lattice.check_condition

    def fake(lat, a, condition):
        if condition == "disjoint-join-indecomposable":
            return False
        return real(lat, a, condition)

    monkeypatch.setattr(lattice, "check_condition", fake)
    report = run_suite("connectivity-conditions", max_size=3)
    assert not report.ok()


def test_local_connectivity_mutation_is_caught(monkeypatch):
    monkeypatch.setattr(lattice, "is_locally_connected", lambda lat: False)
    report = run_suite("local-connectivity", max_size=3)
    assert not report.ok()


def test_pairwise_mutation_is_caught(monkeypatch):
    monkeypatch.setattr(verify, "poset_is_chainmail", lambda p: True)
    report = run_suite("pairwise-criterion", max_size=3)
    assert not report.ok()


def test_counit_mutation_is_caught(monkeypatch):
    """A transposed-entry counit makes the hom bijection checks fail."""
    real = category.counit_epsilon

    def fake(lat):
        data = real(lat)
        table = list(data.map.table)
        if len(table) >= 2:
            table[0], table[1] = table[1], table[0]
            data = dataclasses.replace(
                data,
                map=dataclasses.replace(data.map, table=tuple(table)))
        return data

    monkeypatch.setattr(category, "counit_epsilon", fake)
    report = run_suite("adjunction", max_size=2)
    assert not report.ok()
    assert any("hom bijection" in v["law"] for v in report.violations)


def _swap_first_two(real):
    def fake(*args, **kwargs):
        for table in real(*args, **kwargs):
            table = list(table)
            if len(table) >= 2:
                table[0], table[1] = table[1], table[0]
            yield tuple(table)
    return fake


@pytest.mark.parametrize("name", ["d_on_tables", "k_on_tables"])
def test_transpose_mutation_is_caught(monkeypatch, name):
    """A transposed-entry D or K on morphism tables breaks the hom
    bijection, though each hom is transposed only once."""
    monkeypatch.setattr(category, name,
                        _swap_first_two(getattr(category, name)))
    report = run_suite("adjunction", max_size=3)
    assert not report.ok()
    assert any(v["law"].startswith("hom bijection (")
               for v in report.violations)


def _change_weak_homs(monkeypatch, change):
    """Pass the weak hom list D(g) -> lat, and the constant table onto the
    top of lat, through ``change``; the strict reading is left alone."""
    real = category.connectivity_hom_tables

    def fake(l1, l2, weak=False):
        homs = list(real(l1, l2, weak=weak))
        return change(homs, (l2.top,) * l1.n) if weak else homs

    monkeypatch.setattr(category, "connectivity_hom_tables", fake)


def _append_new(homs, extra):
    return homs if extra in homs else homs + [extra]


POINT = as_chainmail(validate_poset(1, []))


def test_transpose_outside_the_homs_is_caught(monkeypatch):
    """A weak hom list with one transpose swapped for a non-hom keeps its
    size, so only the membership test can catch it."""
    _change_weak_homs(monkeypatch, lambda homs, extra: homs[:-1] + [extra])
    b2 = powerset_lattice(2)
    assert check_adjunction_bijection(POINT, b2) == 2
    with pytest.raises(TheoremViolation) as e:
        check_adjunction_bijection(POINT, b2, weak=True)
    assert e.value.law == "transpose-not-a-hom"


def test_hom_no_transpose_reaches_is_caught(monkeypatch):
    """An extra weak hom is the witness that transposing is not onto.
    From the empty chainmail to the one-element lattice the constant
    table is already the only hom, so nothing is added there."""
    _change_weak_homs(monkeypatch, _append_new)
    b2 = powerset_lattice(2)
    assert check_adjunction_bijection(POINT, b2) == 2
    with pytest.raises(TheoremViolation) as e:
        check_adjunction_bijection(POINT, b2, weak=True)
    assert (e.value.law, e.value.witness) == \
        ("transpose-not-onto", (b2.top, b2.top))
    empty = as_chainmail(validate_poset(0, []))
    one = as_complete_lattice(validate_poset(1, []))
    assert check_adjunction_bijection(empty, one, weak=True) == 1


def test_repeated_hom_is_caught(monkeypatch):
    """A hom listed twice leaves no hom unreached; the witness is the two
    sizes."""
    _change_weak_homs(monkeypatch, lambda homs, extra: homs + homs[:1])
    with pytest.raises(TheoremViolation) as e:
        check_adjunction_bijection(POINT, powerset_lattice(2), weak=True)
    assert (e.value.law, e.value.witness) == ("transpose-not-onto", (2, 3))


def test_suite_checks_the_weak_reading(monkeypatch):
    """The suite's one pass of transposes serves the weak reading too."""
    _change_weak_homs(monkeypatch, _append_new)
    report = run_suite("adjunction", 2)
    assert "hom bijection (transpose-not-onto)" in \
        {v["law"] for v in report.violations}


def test_adjunction_checks_each_law_once_per_structure(monkeypatch):
    """35 pairs of 5 chainmails and 7 lattices: the unit is built once
    per chainmail and once per lattice (at K(L), for the lattice-side
    triangle), the counit likewise, and each pair runs one hom search."""
    calls = dict.fromkeys(
        ["unit_eta", "counit_epsilon", "connectivity_hom_tables"], 0)

    def counted(name):
        real = getattr(category, name)

        def fake(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return fake

    for name in calls:
        monkeypatch.setattr(category, name, counted(name))
    report = run_suite("adjunction", 3)
    assert report.ok() and report.checked == 35
    assert calls == {"unit_eta": 12, "counit_epsilon": 12,
                     "connectivity_hom_tables": 35}


def test_k_on_morphism_mutation_breaks_a_triangle(monkeypatch):
    """K of the counit with two values swapped no longer inverts the unit
    at K(L), which only the lattice-side triangle reads."""
    real = category.k_on_morphism

    def fake(f):
        km = real(f)
        table = list(km.table)
        if len(table) >= 2:
            table[0], table[1] = table[1], table[0]
        return dataclasses.replace(km, table=tuple(table))

    monkeypatch.setattr(category, "k_on_morphism", fake)
    report = run_suite("adjunction", 3)
    assert any(v["law"].startswith("triangle identity (")
               for v in report.violations)
