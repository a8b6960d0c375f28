"""Isomorph-free enumeration: counts, filters, catalogs, determinism."""

import contextlib
import hashlib
import json
import multiprocessing
import os
import pickle
import signal

import pytest

import oracles
from chainmail import enumeration, poset
from chainmail.canonical import canonical_maximal_position, refine_colors
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


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in this process once ``seconds`` have passed,
    so that a census which hangs fails instead."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


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
    mail-connected components, up to size 7."""
    connected = count_chainmails(
        EnumerationTask(7, "mail-connected-chainmails"))
    all_chain = count_chainmails(EnumerationTask(7, "chainmails"))
    want = oracles.euler_transform([connected[s] for s in range(1, 8)])
    assert want == [1, 2, 4, 10, 28, 99, 430]
    assert [all_chain[s] for s in range(1, 8)] == want


def test_join_table_decides_chainmails():
    """At every node of the top-completable tree to size 7, the carried
    join table and the pairwise check of ``poset_is_chainmail`` agree on
    whether the node is a chainmail."""
    root, joins, depth = enumeration._tree("chainmails", 7)
    kept = 0
    for p, p_joins in enumeration._walk(root, depth, joins):
        is_chainmail = poset_is_chainmail(p)
        assert enumeration._kept(p_joins, "chainmails") == is_chainmail
        kept += is_chainmail
    assert kept == 1 + 2 + 4 + 10 + 28 + 99 + 430


def test_pruned_walk_matches_filtered_full_walk():
    """The census by top removal yields, size by size, exactly the
    representatives that filtering the walk over all posets finds: the
    mail-connected chainmails up to size 8 and the chainmails up to 7."""
    chain, connected = oracles.classify_by_full_walk(
        p.above for p in enumeration.posets_up_to(8))
    for flt, want, size in (("mail-connected-chainmails", connected, 8),
                            ("chainmails", chain, 7)):
        got = {}
        for p in enumeration._passing(EnumerationTask(size, flt)):
            got.setdefault(p.n, []).append(p.above)
        assert {n: sorted(rows) for n, rows in got.items()} \
            == {n: want[n] for n in range(1, size + 1)}
        assert count_chainmails(EnumerationTask(size, flt)) \
            == {n: len(want[n]) for n in range(1, size + 1)}


def _top_completable(p):
    """Every 2-element mail with an upper bound has a least one."""
    for i in range(p.n):
        for j in range(i + 1, p.n):
            ub = p.above[i] & p.above[j]
            if p.below[i] & p.below[j] and ub and p.least_of(ub) is None:
                return False
    return True


def test_join_closure_decides_top_completable_children():
    """Over every down-set of every top-completable poset up to size 5,
    the child stays top-completable iff the down-set is closed under the
    parent's pair joins; and the walk meets every top-completable poset."""
    root, joins, depth = enumeration._tree("chainmails", 5)
    seen = 0
    for p, _ in enumeration._walk(root, depth, joins):
        joined = oracles.join_table(p.n, p.above)[1]
        for dmask in oracles.downset_masks(p.n, p.above):
            child = enumeration._extend(p, dmask)
            assert enumeration._join_closed(joined, dmask) \
                == _top_completable(child)
        seen += 1
    assert seen == sum(_top_completable(p)
                       for p in enumeration.posets_up_to(5))


def test_join_table_carried_down_matches_rebuilt():
    """The join table each node carries equals the one the oracle builds
    from its order, at every node of the top-completable tree to size 7,
    walked from the empty root of the census and from the singleton root
    of the chainmails: both root tables are constants."""
    census = count_chainmails(EnumerationTask(8, "mail-connected-chainmails"))
    for which, root_size in (("mail-connected-chainmails", 0),
                             ("chainmails", 1)):
        root, joins, _ = enumeration._tree(which, 8)
        assert root.n == root_size
        seen = 0
        for p, p_joins in enumeration._walk(root, 7, joins):
            assert p_joins == oracles.join_table(p.n, p.above)
            seen += 1
        assert seen == sum(census.values()) - root_size


def test_worker_count_independence(monkeypatch):
    """Counts do not depend on the workers, up to more than the cores
    here: a seed claimed twice or never would change them."""
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 4)
    with deadline(60):
        for flt in FILTERS:
            single = count_chainmails(EnumerationTask(7, flt))
            for jobs in (2, 8):
                assert count_chainmails(EnumerationTask(7, flt, jobs=jobs)) \
                    == single


def test_worker_tally_counts_its_rows():
    """For a count run a worker returns, per size, the number of rows it
    returns for a catalog run, seed by seed of each walked tree; a seed
    is the node ``(p, p_joins)`` the walk built."""
    for flt in FILTERS:
        root, joins, depth = enumeration._tree(flt, 7)
        seeds = [(p, p_joins) for p, p_joins
                 in enumeration._walk(root, 5, joins) if p.n == 5]
        assert seeds
        for seed in seeds:
            rows = enumeration._count_subtrees((*seed, 7, flt, False))
            tally = enumeration._count_subtrees((*seed, 7, flt, True))
            sizes = {}
            for r in rows:
                sizes[len(r)] = sizes.get(len(r), 0) + 1
            assert tally == sizes
            assert max(sizes, default=7) == 7


@pytest.fixture
def inline_context(monkeypatch):
    """A stand-in multiprocessing context whose processes run their target
    in this one when started, so no process is started; lists them."""
    started = []

    class Counter:
        def __init__(self, typecode, value):
            self.value = value

        def get_lock(self):
            return contextlib.nullcontext()

    class End:
        def send(self, obj):
            self.sent = obj

        def recv(self):
            return self.sent

        def close(self):
            pass

    class InlineProcess:
        def __init__(self, target, args, daemon):
            self.target, self.args = target, args

        def start(self):
            started.append(self)
            self.target(*self.args)

        def join(self):
            pass

        def terminate(self):
            pass

    class Context:
        Value = Counter
        Process = InlineProcess

        @staticmethod
        def Pipe(duplex):
            end = End()
            return end, end

    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method=None: Context())
    return started


def test_pool_workers_are_capped(monkeypatch, inline_context):
    """The census runs on the parent and min(jobs, seeds, CPUs) - 1
    children; checked with the stand-in context."""
    started = inline_context
    for flt, size, seeds in (("all-posets", 6, 63),
                             ("mail-connected-chainmails", 7, 62)):
        single = count_chainmails(EnumerationTask(size, flt))
        for cpus, jobs, want in ((3, 2, 2), (3, 64, 3), (None, 64, 1),
                                 (100, 64, seeds)):
            monkeypatch.setattr(enumeration.os, "cpu_count", lambda: cpus)
            assert count_chainmails(EnumerationTask(size, flt, jobs=jobs)) \
                == single
            assert len(started) == want - 1
            started.clear()


@pytest.fixture
def labelings(monkeypatch):
    """Counts the canonical labelings run in this process."""
    calls = []
    real = poset.canonical_labeling

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(poset, "canonical_labeling", counting)
    return calls


def test_parallel_census_labels_as_often_as_serial(monkeypatch,
                                                    inline_context,
                                                    labelings):
    """With two CPUs, two jobs label exactly as many posets as one: each
    seed reaches its worker as the node the walk built, with its group,
    and is not labeled again."""
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    for flt, size, want in (("all-posets", 7, 102), ("chainmails", 7, 97),
                            ("mail-connected-chainmails", 8, 97)):
        for jobs in (1, 2):
            labelings.clear()
            count_chainmails(EnumerationTask(size, flt, jobs=jobs))
            assert len(labelings) == want
        assert len(inline_context) == 1
        inline_context.clear()


def test_census_seeds_pickle_with_their_groups(monkeypatch, inline_context,
                                               labelings):
    """A census seed sent to a spawned child keeps its automorphism group
    through pickling, resolved rather than as the lazy call that holds the
    seed's ancestors, so the child labels none of them."""
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    # seeds as the parent hands them over, not as a worker leaves them
    monkeypatch.setattr(enumeration, "_count_subtrees", lambda args: {})
    count_chainmails(EnumerationTask(8, "mail-connected-chainmails", jobs=2))
    seeds = inline_context[0].args[0]
    assert len(seeds) == 62
    labelings.clear()
    for (p, p_joins, *_), (q, q_joins, *_) in zip(
            seeds, pickle.loads(pickle.dumps(seeds)), strict=True):
        assert q.n == 5 and (q.above, q_joins) == (p.above, p_joins)
        assert isinstance(q._autos, tuple)
        assert _closure(q.n, q.automorphisms()) \
            == set(oracles.automorphisms(q.n, q.above))
    assert not labelings


@pytest.fixture
def forks(monkeypatch):
    """Two CPUs, so a two-job census starts one child; lists the children
    started."""
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    started = []
    real_start = multiprocessing.process.BaseProcess.start

    def start(self):
        started.append(self)
        real_start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
    return started


@pytest.mark.parametrize("where, fails, raised", [
    ("parent", lambda: 1 // 0, ZeroDivisionError),
    ("child", lambda: 1 // 0, "exit code 1"),
    ("child", lambda: os._exit(7), "exit code 7"),
], ids=["parent-raises", "child-raises", "child-exits"])
def test_no_child_outlives_a_failed_census(monkeypatch, forks, where, fails,
                                           raised):
    """A seed that fails, in the parent or in a child, by an exception or
    by the child's exit, fails the census in the parent, and no child is
    left running."""
    real = enumeration._count_subtrees
    parent = os.getpid()
    signal_r, signal_w = os.pipe()
    waited = []

    def count(args):
        in_parent = os.getpid() == parent
        if in_parent == (where == "parent"):
            os.write(signal_w, b"!")
            fails()
        if in_parent and not waited:
            waited.append(os.read(signal_r, 1))  # the child has failed
        return real(args)

    monkeypatch.setattr(enumeration, "_count_subtrees", count)
    task = EnumerationTask(7, "all-posets", jobs=2)
    try:
        with deadline(30):
            if isinstance(raised, str):
                with pytest.raises(ChildProcessError, match=raised):
                    count_chainmails(task)
            else:
                with pytest.raises(raised):
                    count_chainmails(task)
    finally:
        os.close(signal_r)
        os.close(signal_w)
    assert len(forks) == 1
    assert not multiprocessing.active_children()


def test_no_child_outlives_an_early_close(forks):
    """A consumer that stops at the first structure counted by the workers
    leaves no child running."""
    task = EnumerationTask(7, "mail-connected-chainmails", jobs=2)
    with deadline(30):
        found = enumeration._passing(task, tally=True)
        assert any(size == 7 for size, _ in found)
        found.close()
    assert len(forks) == 1
    assert not multiprocessing.active_children()


def test_counts_without_fork(monkeypatch, forks):
    """Where the platform has no fork the driver takes the default
    context; with spawn standing in for it, the counts are the serial
    ones for every filter."""
    real = multiprocessing.get_context
    asked = []

    def get_context(method=None):
        asked.append(method)
        return real("spawn" if method is None else method)

    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn", "forkserver"])
    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    with deadline(60):
        for flt in FILTERS:
            assert count_chainmails(EnumerationTask(7, flt, jobs=2)) \
                == count_chainmails(EnumerationTask(7, flt))
    assert asked == [None] * len(FILTERS)
    assert [p._start_method for p in forks] == ["spawn"] * len(FILTERS)
    assert not multiprocessing.active_children()


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
        next(enumerate_posets(13))
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
    for flt, size in (("all-posets", 6), ("chainmails", 6),
                      ("mail-connected-chainmails", 7)):
        first = emit_catalog(EnumerationTask(size, flt), tmp_path / flt / "1")
        second = emit_catalog(EnumerationTask(size, flt, jobs=2),
                              tmp_path / flt / "2")
        assert [(e.code, e.filename) for e in first] \
            == [(e.code, e.filename) for e in second]


def test_generation_order_does_not_matter(monkeypatch):
    """Visiting extension candidates in the opposite order reproduces
    the same isomorphism classes, in the walk of all posets and in the
    census by top removal."""
    def census_codes():
        task = EnumerationTask(5, "mail-connected-chainmails")
        return {oracles.min_perm_code(p.n, p.above)
                for p in enumeration._passing(task)}

    baseline = codes_of(4), census_codes()
    original = enumeration._downset_orbit_reps
    monkeypatch.setattr(enumeration, "_downset_orbit_reps",
                        lambda p, keep=None: list(reversed(original(p, keep))))
    assert (codes_of(4), census_codes()) == baseline


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
    """One down-set per brute-force orbit, the least one, ascending, each
    with its whole orbit as a Schreier tree: every edge ``(x, g)`` has a
    generator g taking x to the image."""
    for p in enumeration.posets_up_to(6):
        group = oracles.automorphisms(p.n, p.above)
        least = {min(_image(g, m) for g in group)
                 for m in oracles.downset_masks(p.n, p.above)}
        reps = enumeration._downset_orbit_reps(p)
        assert [d for d, _ in reps] == sorted(least)
        for d, orbit in reps:
            assert set(orbit) == {_image(g, d) for g in group}
            assert orbit[d] is None
            for image, edge in orbit.items():
                if image != d:
                    x, g = edge
                    assert g in p.automorphisms() and _image(g, x) == image


def test_acceptance_matches_oracle_orbit():
    """Every child generated up to size 6 is kept iff some automorphism
    maps its canonically distinguished maximal element to the new one."""
    kept = 0
    for p in enumeration.posets_up_to(5):
        for dmask, _ in enumeration._downset_orbit_reps(p):
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
    child the down-set size test or tie rule 1 rejects is never kept by
    ``_accepted``, and a child accepted unlabeled (a larger down-set, or
    tie rules 2 and 3) is always kept.  The ties left to ``_accepted``
    arrive with the child's refined colors."""
    parents = enumeration.posets_up_to(6)
    accepted = enumeration._accepted
    asked = set()

    def recording(child, colors=None):
        assert colors == refine_colors(child.n, child.above, child.below)
        asked.add(child.above)
        return accepted(child, colors)

    monkeypatch.setattr(enumeration, "_accepted", recording)
    rejected = unlabeled = labeled = 0
    for p in parents:
        asked.clear()
        got = [c.above for c, _ in enumeration._children(p)]
        kids = [enumeration._extend(p, d)
                for d, _ in enumeration._downset_orbit_reps(p)]
        assert got == [c.above for c in kids if accepted(c)]
        for c in kids:
            if c.above not in asked:
                kept = c.above in got
                assert accepted(c) == kept
                unlabeled += kept
                rejected += not kept
        labeled += len(asked)
    assert (rejected, unlabeled) == (2420, 2348)
    assert labeled == 101


def test_carried_generators_match_oracle(monkeypatch):
    """At every node of the census tree and of the walk of all posets up
    to size 7, the generators the walk hands down (or the labeling gave)
    generate exactly the brute-force automorphism group.  Among the
    nodes are children whose new element has twins (tie rule 3), whose
    group needs the added swap."""
    stabilizer = enumeration._stabilizer
    swapped = []

    def recording(p, orbit):
        gens = stabilizer(p, orbit)
        swapped.append(any(g[p.n] != p.n for g in gens))
        return gens

    monkeypatch.setattr(enumeration, "_stabilizer", recording)
    for which in ("mail-connected-chainmails", "all-posets"):
        swapped.clear()
        root, joins, _ = enumeration._tree(which, 8)
        for p, _ in enumeration._walk(root, 7, joins):
            assert _closure(p.n, p.automorphisms()) \
                == set(oracles.automorphisms(p.n, p.above))
        assert (len(swapped), sum(swapped)) == {
            "mail-connected-chainmails": (2135, 305),
            "all-posets": (2348, 406)}[which]


def _walk_digest(posets):
    h = hashlib.sha256()
    for p in posets:
        h.update(",".join(map(str, p.above)).encode() + b";")
    return h.hexdigest()


def test_walk_order_is_pinned():
    """The representatives and their order, as ``above`` rows, of the walk
    of all posets to size 7 and of the census to size 8, hashed."""
    assert _walk_digest(enumeration.posets_up_to(7)) == (
        "8a43e131b9b156f9ba4844316db4a283de5060d13da9f51c22881c311250603f")
    census = enumeration._passing(
        EnumerationTask(8, "mail-connected-chainmails"))
    assert _walk_digest(census) == (
        "c92bd9ddf302cd7fb4876774f1124b76bd1a958f7ae4667c894ce47c15fb1ba2")
