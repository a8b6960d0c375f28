"""Poset substrate: validation, order queries, canonical forms, interchange."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from chainmail.canonical import canonical_labeling, refine_colors
from chainmail.enumeration import posets_up_to
from chainmail.errors import (
    AxiomViolation,
    CycleDetected,
    EmptyInput,
    SizeBudgetExceeded,
)
from chainmail.poset import (
    Poset,
    _down_closed_masks,
    canonical_form,
    covers,
    from_json_dict,
    heights,
    is_isomorphic,
    join_of,
    lower_bounds,
    meet_of,
    to_dot,
    to_json_dict,
    upper_bounds,
    validate_poset,
)

CX_COVERS = [(0, 1), (0, 2), (1, 4), (2, 4), (2, 5), (3, 4), (3, 5),
             (4, 6), (5, 6)]


@pytest.fixture
def cx():
    return validate_poset(7, CX_COVERS, labels=[str(i + 1) for i in range(7)])


# -- validation ----------------------------------------------------------------

def test_singleton():
    p = validate_poset(1, [])
    assert p.n == 1
    assert covers(p) == []


def test_covers_mode_closure(cx):
    assert cx.leq(0, 6)          # bottom chain through 2 < 5 < 7
    assert cx.leq(2, 6)
    assert not cx.leq(2, 3)      # labels 3 and 4 are incomparable
    assert not cx.leq(1, 2)


def test_covers_mode_cycle():
    with pytest.raises(CycleDetected) as e:
        validate_poset(3, [(0, 1), (1, 2), (2, 0)])
    assert set(e.value.cycle) == {0, 1, 2}


def test_covers_mode_self_loop():
    with pytest.raises(CycleDetected):
        validate_poset(2, [(1, 1)])


def test_pair_out_of_range():
    with pytest.raises(AxiomViolation) as e:
        validate_poset(2, [(0, 5)])
    assert e.value.axiom == "element-range"


def test_full_relation_antisymmetry():
    with pytest.raises(AxiomViolation) as e:
        validate_poset(2, [(0, 0), (1, 1), (0, 1), (1, 0)],
                       mode="full-relation")
    assert e.value.axiom == "antisymmetry"


def test_full_relation_reflexivity():
    with pytest.raises(AxiomViolation) as e:
        validate_poset(2, [(0, 0), (0, 1)], mode="full-relation")
    assert e.value.axiom == "reflexivity"


def test_full_relation_transitivity():
    pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)]
    with pytest.raises(AxiomViolation) as e:
        validate_poset(3, pairs, mode="full-relation")
    assert e.value.axiom == "transitivity"


def test_full_relation_valid():
    pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)]
    p = validate_poset(3, pairs, mode="full-relation")
    assert covers(p) == [(0, 1), (1, 2)]


def test_duplicate_labels_rejected():
    with pytest.raises(AxiomViolation) as e:
        validate_poset(2, [], labels=["a", "a"])
    assert e.value.axiom == "label-distinctness"


def test_size_budget():
    with pytest.raises(SizeBudgetExceeded):
        validate_poset(3, [], budget=2)


def test_unknown_mode():
    with pytest.raises(ValueError):
        validate_poset(1, [], mode="nonsense")


# -- order queries ---------------------------------------------------------------

def test_covers_chain_and_antichain():
    chain = validate_poset(3, [(0, 1), (1, 2)])
    assert covers(chain) == [(0, 1), (1, 2)]
    assert covers(validate_poset(3, [])) == []
    # a transitive edge must be reduced away
    redundant = validate_poset(3, [(0, 1), (1, 2), (0, 2)])
    assert covers(redundant) == [(0, 1), (1, 2)]


def test_covers_of_counterexample(cx):
    assert covers(cx) == sorted(CX_COVERS)


def test_lower_bounds(cx):
    # elements are labels minus one
    assert lower_bounds(cx, {1, 5}) == {0}
    assert lower_bounds(cx, {2, 3}) == set()
    assert lower_bounds(cx, {4}) == {0, 1, 2, 3, 4}
    with pytest.raises(EmptyInput):
        lower_bounds(cx, set())


def test_upper_bounds(cx):
    assert upper_bounds(cx, {1, 2}) == {4, 6}
    with pytest.raises(EmptyInput):
        upper_bounds(cx, set())


def test_join_examples(cx):
    assert join_of(cx, {1, 2}) == 4     # labels {2,3} join to 5
    assert join_of(cx, {4, 5}) == 6     # labels {5,6} join to 7
    assert join_of(cx, {2, 3}) is None  # labels {3,4} have no join
    assert join_of(cx, {6}) == 6


def test_join_empty_is_bottom():
    chain = validate_poset(3, [(0, 1), (1, 2)])
    assert join_of(chain, set()) == 0
    assert join_of(validate_poset(2, []), set()) is None


def test_meet_examples(cx):
    assert meet_of(cx, {1, 5}) == 0
    assert meet_of(cx, {1, 2}) == 0
    # labels 5 and 6 share three lower bounds but no greatest one
    assert meet_of(cx, {4, 5}) is None
    chain = validate_poset(3, [(0, 1), (1, 2)])
    assert meet_of(chain, {1, 2}) == 1
    assert meet_of(chain, set()) == 2


def test_heights(cx):
    assert heights(cx) == [0, 1, 1, 0, 2, 2, 3]


# -- canonical forms ---------------------------------------------------------------

def test_canonical_relabel_invariance():
    p = validate_poset(2, [(0, 1)])
    q = validate_poset(2, [(1, 0)])
    assert canonical_form(p)[0] == canonical_form(q)[0]
    assert is_isomorphic(p, q)


def test_canonical_distinguishes():
    chain = validate_poset(3, [(0, 1), (1, 2)])
    vee = validate_poset(3, [(0, 2), (1, 2)])
    assert canonical_form(chain)[0] != canonical_form(vee)[0]
    assert not is_isomorphic(chain, vee)


def test_canonical_perm_achieves_code(cx):
    code, perm = canonical_form(cx)
    relabeled = cx.relabel(perm)
    assert canonical_form(relabeled)[0] == code


def test_is_isomorphic_size_mismatch():
    assert not is_isomorphic(validate_poset(1, []), validate_poset(2, []))


def test_code_counts_match_naive_oracle():
    """Distinct package codes over all labeled posets agree with the
    brute-force minimum-permutation canonicalization, sizes 1..4."""
    expected = [1, 2, 5, 16]
    for n in range(1, 5):
        package_codes = set()
        for rows in oracles.labeled_posets(n):
            package_codes.add(Poset(rows).canonical()[0])
        assert len(package_codes) == len(oracles.unlabeled_poset_codes(n))
        assert len(package_codes) == expected[n - 1]


def test_down_closed_masks_match_brute_force():
    """The down-sets built along a linear extension are exactly the masks
    the brute-force filter keeps, ascending, for every poset up to size 6
    in its own labeling and reversed."""
    assert _down_closed_masks(Poset(())) == [0]
    for p in posets_up_to(6):
        for q in (p, p.relabel([p.n - 1 - i for i in range(p.n)])):
            assert _down_closed_masks(q) == oracles.downset_masks(q.n, q.above)


def _both_labelings(n):
    """Every poset up to size n, as walked and with its indices reversed."""
    for p in posets_up_to(n):
        yield p
        yield p.relabel([p.n - 1 - i for i in range(p.n)])


def _random_posets(count, seed):
    """Seeded random posets up to size 24: sparse and dense ones, and
    disjoint unions of copies of one, whose symmetric classes take several
    rounds to split."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 24)
        density = rng.choice((0.05, 0.1, 0.2, 0.4))
        yield validate_poset(n, [(i, j) for i in range(n)
                                 for j in range(i + 1, n)
                                 if rng.random() < density])
        k = rng.randint(1, 6)
        part = [(i, j) for i in range(k) for j in range(i + 1, k)
                if rng.random() < 0.4]
        copies = rng.randint(1, 24 // k)
        yield validate_poset(k * copies, [
            (c * k + i, c * k + j) for c in range(copies) for i, j in part])


def test_refine_colors_matches_reference():
    """The refinement kernel gives exactly the colors of the plain
    reference on every poset up to size 7 and on random ones up to 24."""
    for p in (*_both_labelings(7), *_random_posets(300, 1998)):
        assert refine_colors(p.n, p.above, p.below) \
            == oracles.refine_colors_reference(p.n, p.above, p.below)


def test_canonical_labeling_takes_precomputed_colors():
    """Handing the refined colors to the labeling changes nothing.  (The
    labeling backtracks over each color class, so the random posets,
    whose copies of one component are not twins, would take too long.)"""
    for p in _both_labelings(7):
        colors = refine_colors(p.n, p.above, p.below)
        assert canonical_labeling(p.above, p.below, colors) \
            == canonical_labeling(p.above, p.below)


# -- property tests ------------------------------------------------------------------

@st.composite
def random_posets(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
    else:
        chosen = []
    return validate_poset(n, chosen)


@given(random_posets(), st.randoms())
@settings(max_examples=120, deadline=None)
def test_canonical_is_relabel_invariant(p, rng):
    perm = list(range(p.n))
    rng.shuffle(perm)
    assert canonical_form(p.relabel(perm))[0] == canonical_form(p)[0]


@given(random_posets(), st.integers(min_value=0, max_value=63))
@settings(max_examples=120, deadline=None)
def test_join_is_least_upper_bound(p, raw_mask):
    mask = raw_mask & p.full_mask()
    members = {i for i in range(p.n) if (mask >> i) & 1}
    j = join_of(p, members)
    uppers = [u for u in range(p.n)
              if all(p.leq(x, u) for x in members)]
    if j is None:
        assert all(any(not p.leq(u, v) for v in uppers) for u in uppers)
    else:
        assert j in uppers
        assert all(p.leq(j, u) for u in uppers)


@given(random_posets())
@settings(max_examples=100, deadline=None)
def test_covers_closure_roundtrip(p):
    q = validate_poset(p.n, covers(p))
    assert q.above == p.above


# -- interchange -----------------------------------------------------------------------

def test_json_roundtrip(cx):
    blob = to_json_dict(cx)
    assert blob["elements"] == [str(i + 1) for i in range(7)]
    back = from_json_dict(blob)
    assert is_isomorphic(back, cx)
    assert sorted(back.labels) == sorted(cx.labels)


def test_json_covers_are_sorted(cx):
    blob = to_json_dict(cx)
    assert blob["covers"] == sorted(blob["covers"])


def test_json_bad_shape():
    with pytest.raises(AxiomViolation) as e:
        from_json_dict({"elements": ["a"]})
    assert e.value.axiom == "json-shape"


def test_json_unknown_cover_name():
    with pytest.raises(AxiomViolation) as e:
        from_json_dict({"elements": ["a", "b"], "covers": [["a", "z"]]})
    assert e.value.axiom == "element-range"


@pytest.mark.parametrize("data", [
    {"elements": [1, 2], "covers": []},
    {"elements": ["1", "2"], "covers": [[1, 2]]},
    {"elements": ["a", "b"], "covers": [["a", None]]},
    {"elements": "ab", "covers": []},
    {"elements": ["a", "b"], "covers": {"a": "b"}},
])
def test_json_rejects_non_string_names(data):
    with pytest.raises(AxiomViolation) as e:
        from_json_dict(data)
    assert e.value.axiom == "json-shape"


def test_json_duplicate_names():
    with pytest.raises(AxiomViolation):
        from_json_dict({"elements": ["a", "a"], "covers": []})


def test_dot_output(cx):
    text = to_dot(cx, name="cx")
    assert text.startswith("digraph cx {")
    assert text.rstrip().endswith("}")
    assert text.count(" -> ") == len(covers(cx))
    for i in range(7):
        assert f'e{i} [label="{i + 1}"];' in text


def test_dot_escapes_quotes_and_backslashes():
    p = from_json_dict({"elements": ['a"b', "c\\"], "covers": [['a"b', "c\\"]]})
    text = to_dot(p)
    assert 'e0 [label="a\\"b"];' in text
    assert 'e1 [label="c\\\\"];' in text


def test_canonical_form_past_one_byte_of_size():
    with pytest.raises(SizeBudgetExceeded) as e:
        canonical_form(Poset([1 << i for i in range(256)]))
    assert (e.value.what, e.value.size, e.value.budget) == \
        ("canonical form", 256, 255)
    code, _ = canonical_form(Poset([1 << i for i in range(255)]))
    assert code[0] == 255
