"""Isomorph-free enumeration: counts, filters, catalogs, determinism."""

import json

import pytest

import oracles
from chainmail import enumeration
from chainmail.canonical import canonical_maximal_position
from chainmail.enumeration import (
    FILTERS,
    EnumerationTask,
    count_chainmails,
    emit_catalog,
    enumerate_posets,
)
from chainmail.errors import AxiomViolation, SizeBudgetExceeded
from chainmail.mails import (
    as_chainmail,
    is_totally_disconnected,
    poset_is_chainmail,
)

LABELED = {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231}


def codes_of(n):
    return {oracles.min_perm_code(p.n, p.above) for p in enumerate_posets(n)}


def test_matches_naive_generation():
    """The augmentation walk finds exactly the classes that labeled
    generation plus deduplication finds, up to size 5."""
    for n in range(1, 6):
        labeled = list(oracles.labeled_posets(n))
        assert len(labeled) == LABELED[n]
        want = {oracles.min_perm_code(n, rows) for rows in labeled}
        got = [oracles.min_perm_code(p.n, p.above) for p in
               enumerate_posets(n)]
        assert len(got) == len(set(got))
        assert set(got) == want


def test_trivial_sizes():
    assert len(list(enumerate_posets(1))) == 1
    only = list(enumerate_posets(0))
    assert len(only) == 1 and only[0].n == 0


def test_counts_per_filter():
    task = EnumerationTask(5)
    assert count_chainmails(task) == {1: 1, 2: 2, 3: 5, 4: 16, 5: 63}
    task = EnumerationTask(5, "chainmails")
    assert count_chainmails(task) == {1: 1, 2: 2, 3: 4, 4: 10, 5: 28}
    task = EnumerationTask(5, "mail-connected-chainmails")
    assert count_chainmails(task) == {1: 1, 2: 1, 3: 2, 4: 5, 5: 16}


def test_chainmails_are_multisets_of_mail_connected_ones():
    """Per-size chainmail counts are the Euler transform of the
    mail-connected counts: a chainmail is a disjoint union of
    mail-connected components, up to size 6."""
    connected = count_chainmails(
        EnumerationTask(6, "mail-connected-chainmails"))
    all_chain = count_chainmails(EnumerationTask(6, "chainmails"))
    want = oracles.euler_transform([connected[s] for s in range(1, 7)])
    assert [all_chain[s] for s in range(1, 7)] == want


def test_worker_count_independence():
    for flt in ("all-posets", "mail-connected-chainmails"):
        single = count_chainmails(EnumerationTask(6, flt))
        for jobs in (2, 8):
            assert count_chainmails(EnumerationTask(6, flt, jobs=jobs)) \
                == single


def test_worker_tally_counts_its_rows():
    """For a count run a pool worker returns, per size, the number of rows
    it returns for a catalog run, seed by seed."""
    for seed in enumerate_posets(5):
        for flt in FILTERS:
            rows = enumeration._count_subtrees((seed.above, 7, flt, False))
            tally = enumeration._count_subtrees((seed.above, 7, flt, True))
            sizes = {}
            for r in rows:
                sizes[len(r)] = sizes.get(len(r), 0) + 1
            assert tally == sizes


def test_pool_workers_are_capped(monkeypatch):
    """The pool starts min(jobs, seeds, CPUs) workers; checked with a
    serial stand-in for the pool, so no process is started."""
    started = []

    class SerialPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, tasks):
            return map(fn, tasks)

    class Context:
        Pool = SerialPool

    monkeypatch.setattr(enumeration, "get_context",
                        lambda method=None: Context())
    single = count_chainmails(EnumerationTask(6))
    seeds = len(list(enumerate_posets(5)))
    for cpus, jobs, want in ((3, 2, 2), (3, 64, 3), (None, 64, 1),
                             (100, 64, seeds)):
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: cpus)
        assert count_chainmails(EnumerationTask(6, jobs=jobs)) == single
        assert started.pop() == want
    assert not started


def test_task_validation():
    with pytest.raises(AxiomViolation) as e:
        EnumerationTask(0)
    assert e.value.axiom == "task-size"
    with pytest.raises(AxiomViolation) as e:
        EnumerationTask(3, jobs=0)
    assert e.value.axiom == "task-jobs"
    with pytest.raises(AxiomViolation) as e:
        EnumerationTask(3, "widgets")
    assert e.value.axiom == "task-filter"
    assert FILTERS == ("all-posets", "chainmails",
                       "mail-connected-chainmails")


def test_size_budget():
    with pytest.raises(SizeBudgetExceeded):
        next(enumerate_posets(11))
    with pytest.raises(SizeBudgetExceeded):
        count_chainmails(EnumerationTask(3), budget=2)
    assert count_chainmails(EnumerationTask(3), budget=3)[3] == 5


def test_catalog_through_size_three(tmp_path):
    task = EnumerationTask(3, "mail-connected-chainmails")
    entries = emit_catalog(task, tmp_path / "cat")
    assert len(entries) == 4


def test_catalog_files_and_manifest(tmp_path):
    out = tmp_path / "cat4"
    task = EnumerationTask(4, "mail-connected-chainmails")
    entries = emit_catalog(task, out)
    assert [e.filename for e in entries] == [
        "poset-n1-0000.dot",
        "poset-n2-0000.dot",
        "poset-n3-0000.dot", "poset-n3-0001.dot",
        "poset-n4-0000.dot", "poset-n4-0001.dot", "poset-n4-0002.dot",
        "poset-n4-0003.dot", "poset-n4-0004.dot",
    ]
    assert len({e.code for e in entries}) == len(entries)
    for e in entries:
        text = (out / e.filename).read_text()
        assert text.startswith("digraph")
        assert text.count("[label=") == e.poset.n
        assert e.chainmail and e.mail_connected
        assert poset_is_chainmail(e.poset)
        g = as_chainmail(e.poset)
        assert len(g.components_of(e.poset.full_mask())) == 1
        td = sum(1 for m in range(1 << g.n)
                 if is_totally_disconnected(
                     g, {i for i in range(g.n) if (m >> i) & 1}))
        assert e.d_size == td
    records = [json.loads(line) for line in
               (out / "manifest.jsonl").read_text().splitlines()]
    assert len(records) == len(entries)
    for rec, e in zip(records, entries):
        assert set(rec) == {"code", "n", "chainmail", "mail_connected",
                            "d_size", "file"}
        assert rec == {"code": e.code, "n": e.poset.n, "chainmail": True,
                       "mail_connected": True, "d_size": e.d_size,
                       "file": e.filename}


def test_catalog_reruns_identically(tmp_path):
    task = EnumerationTask(4)
    first = emit_catalog(task, tmp_path / "a")
    second = emit_catalog(task, tmp_path / "b")
    assert [e.code for e in first] == [e.code for e in second]
    assert (tmp_path / "a" / "manifest.jsonl").read_bytes() \
        == (tmp_path / "b" / "manifest.jsonl").read_bytes()
    for e in first:
        assert (tmp_path / "a" / e.filename).read_bytes() \
            == (tmp_path / "b" / e.filename).read_bytes()


def test_catalog_worker_independence(tmp_path):
    task1 = EnumerationTask(6)
    task2 = EnumerationTask(6, jobs=2)
    first = emit_catalog(task1, tmp_path / "j1")
    second = emit_catalog(task2, tmp_path / "j2")
    assert [(e.code, e.filename) for e in first] \
        == [(e.code, e.filename) for e in second]


def test_generation_order_does_not_matter(monkeypatch):
    """Visiting extension candidates in the opposite order reproduces
    the same isomorphism classes."""
    baseline = codes_of(4)
    original = enumeration._downset_orbit_reps
    monkeypatch.setattr(enumeration, "_downset_orbit_reps",
                        lambda p: list(reversed(original(p))))
    assert codes_of(4) == baseline


# -- automorphism groups against the brute-force oracle -------------------------

def _closure(n, gens):
    """Every product of the generators, as permutation tuples."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        h = frontier.pop()
        for g in gens:
            gh = tuple(g[h[i]] for i in range(n))
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    return group


def _image(g, mask):
    return sum(1 << g[i] for i in range(len(g)) if (mask >> i) & 1)


def test_automorphism_generators_match_oracle():
    """Up to size 6, in two labelings each, the generators preserve the
    order and generate exactly the brute-force automorphism group."""
    for p in enumeration.posets_up_to(6):
        for q in (p, p.relabel([p.n - 1 - i for i in range(p.n)])):
            gens = q.automorphisms()
            for g in gens:
                assert all(_image(g, q.above[i]) == q.above[g[i]]
                           for i in range(q.n))
            assert _closure(q.n, gens) == set(oracles.automorphisms(
                q.n, q.above))


def test_downset_orbit_reps_match_oracle():
    """One down-set per brute-force orbit, the least one, ascending."""
    for p in enumeration.posets_up_to(6):
        group = oracles.automorphisms(p.n, p.above)
        least = {min(_image(g, m) for g in group)
                 for m in oracles.downset_masks(p.n, p.above)}
        reps = enumeration._downset_orbit_reps(p)
        assert reps == sorted(least)


def test_acceptance_matches_oracle_orbit():
    """Every child generated up to size 6 is kept iff some automorphism
    maps its canonically distinguished maximal element to the new one."""
    kept = 0
    for p in enumeration.posets_up_to(5):
        for dmask in enumeration._downset_orbit_reps(p):
            child = enumeration._extend(p, dmask)
            n = child.n
            perm = child.canonical()[1]
            w = perm.index(canonical_maximal_position(n, child.above, perm))
            want = any(g[w] == n - 1
                       for g in oracles.automorphisms(n, child.above))
            assert enumeration._accepted(child) == want
            kept += want
    assert kept == sum(1 for _ in enumeration.posets_up_to(6)) - 1


def test_shortcuts_agree_with_acceptance(monkeypatch):
    """Every orbit-representative child of every poset up to size 6: a
    child the down-set size test rejects is never kept by ``_accepted``,
    and a child it accepts unlabeled is always kept."""
    parents = enumeration.posets_up_to(6)
    accepted = enumeration._accepted
    asked = set()

    def recording(child):
        asked.add(child.above)
        return accepted(child)

    monkeypatch.setattr(enumeration, "_accepted", recording)
    rejected = unlabeled = 0
    for p in parents:
        asked.clear()
        got = [c.above for c in enumeration._children(p)]
        kids = [enumeration._extend(p, d)
                for d in enumeration._downset_orbit_reps(p)]
        assert got == [c.above for c in kids if accepted(c)]
        for c in kids:
            if c.above not in asked:
                kept = c.above in got
                assert accepted(c) == kept
                unlabeled += kept
                rejected += not kept
    assert (rejected, unlabeled) == (2235, 1803)
