"""The verification suites: green on the real code, red under mutation."""

import dataclasses

import pytest

from chainmail import category, lattice, verify
from chainmail.verify import SUITES, SuiteReport, run_suite


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
