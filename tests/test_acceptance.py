"""Acceptance gate: one test per deliverable criterion, run at the
stated sizes and time bounds.  Each test is a single pass/fail line
under pytest -v."""

import json
import time

import pytest

from chainmail.cli import main
from chainmail.enumeration import EnumerationTask, count_chainmails
from chainmail.errors import NotALattice
from chainmail.lattice import as_complete_lattice
from chainmail.mails import d_lattice, join_of_mail_connected
from chainmail.sources import (
    counterexample_chainmail,
    search_connectivity_representation,
)
from chainmail.verify import run_suite

MAIL_CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 5, 5: 16, 6: 62, 7: 303}
POSET_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045}


def test_criterion_01_mail_connected_census():
    """Single-worker counts of mail-connected chainmails: 1 1 2 5 16 62
    303 for sizes 1..7 within a minute, and 1842 at size 8 within ten;
    sizes 9 to 11 stay behind the CLI --stretch flag with no bound."""
    t0 = time.monotonic()
    counts = count_chainmails(EnumerationTask(7, "mail-connected-chainmails"))
    assert counts == MAIL_CONNECTED_COUNTS
    assert time.monotonic() - t0 < 60
    t0 = time.monotonic()
    big = count_chainmails(EnumerationTask(8, "mail-connected-chainmails"))
    assert big[8] == 1842
    assert time.monotonic() - t0 < 600


def test_criterion_02_unlabeled_poset_counts():
    """The generator reproduces the published per-size counts of poset
    isomorphism classes, an oracle independent of any census above."""
    counts = count_chainmails(EnumerationTask(7, "all-posets"))
    assert counts == POSET_COUNTS


def test_criterion_03_counterexample_certificate():
    """The seven-element counterexample: a chainmail, not a lattice
    (witness pair labeled 3 and 4), with its three documented joins, an
    eleven-element lattice of totally disconnected sets confirmed by
    brute force, and no realizing connectivity space on up to six
    points; all inside five seconds."""
    t0 = time.monotonic()
    g = counterexample_chainmail()
    p = g.poset
    with pytest.raises(NotALattice) as e:
        as_complete_lattice(p)
    assert {p.label_of(i) for i in e.value.witness} == {"3", "4"}

    def join_label(*names):
        j = join_of_mail_connected(g, {p.index_of(x) for x in names})
        return p.label_of(j)

    assert join_label("2", "3") == "5"
    assert join_label("2", "6") == "7"
    assert join_label("5", "6") == "7"

    d = d_lattice(g)
    assert d.lattice.n == 11
    below = [sum(1 << j for j in range(p.n) if (p.above[j] >> i) & 1)
             for i in range(p.n)]
    brute = 0
    for mask in range(1 << p.n):
        members = [i for i in range(p.n) if (mask >> i) & 1]
        if all(not (below[a] & below[b])
               for k, a in enumerate(members) for b in members[k + 1:]):
            brute += 1
    assert brute == 11

    assert search_connectivity_representation(g, 6) is None
    assert time.monotonic() - t0 < 5


def test_criterion_04_condition_implications():
    """Implications between the four element conditions hold with zero
    violations over every lattice from posets of size up to 6, plus the
    converse on locally connected lattices, within five minutes."""
    t0 = time.monotonic()
    report = run_suite("connectivity-conditions")
    assert report.ok() and report.checked == 25
    assert time.monotonic() - t0 < 300


def test_criterion_05_separation_classification():
    """Over the same lattice population: the join map out of the
    separation poset is iso iff surjective iff locally connected, and
    the counit is iso under exactly the same condition."""
    report = run_suite("local-connectivity")
    assert report.ok() and report.checked == 25


def test_criterion_06_unit_and_counit_isomorphisms():
    """The unit is an order-isomorphism on every chainmail of size up
    to 6 and the counit on every locally connected lattice of size up
    to 6, with zero violations."""
    report = run_suite("unit-counit")
    assert report.ok() and report.checked == 159


def test_criterion_07_adjunction_hom_bijection():
    """Exhaustive hom-set bijection, its weakened-morphism variant, and
    both triangle identities, over all pairs of chainmails of size up
    to 4 and lattices of size up to 5, within ten minutes."""
    t0 = time.monotonic()
    report = run_suite("adjunction")
    assert report.ok() and report.checked == 170
    assert time.monotonic() - t0 < 600


def test_criterion_08_pairwise_criterion_equivalence():
    """The quadratic two-element-mail test agrees with the exponential
    every-mail-has-a-join definition on all 405 posets of size up to 6."""
    report = run_suite("pairwise-criterion")
    assert report.ok() and report.checked == 405


def test_criterion_09_catalog_of_connected_chainmails(tmp_path):
    """The catalog run over sizes 1..7 emits exactly 390 Hasse diagrams
    with pairwise-distinct canonical codes."""
    out = tmp_path / "catalog"
    assert main(["enumerate", "-n", "7", "--catalog", str(out)]) == 0
    files = sorted(out.glob("*.dot"))
    assert len(files) == 390
    records = [json.loads(line) for line in
               (out / "manifest.jsonl").read_text().splitlines()]
    assert len(records) == 390
    codes = [r["code"] for r in records]
    assert len(set(codes)) == 390
    assert {r["file"] for r in records} == {f.name for f in files}
