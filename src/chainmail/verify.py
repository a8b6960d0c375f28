"""Machine verification suites for the theory's laws.

Each suite sweeps an exhaustively enumerated population of small posets,
lattices or chainmails and checks one body of claims on every member,
returning a report rather than raising, so a failing law produces a
named witness instead of a stack trace.  The command line and the test
suite both run these.

Each population is one walk of the enumeration driver: every poset for
the pairwise criterion, the census for the lattice suites, and the
chainmails tree for unit-counit and adjunction.
"""

from dataclasses import dataclass, field
from time import perf_counter

from . import category, lattice
from .enumeration import posets_up_to
from .errors import TheoremViolation
from .lattice import as_complete_lattice
from .mails import as_chainmail, poset_is_chainmail


@dataclass
class SuiteReport:
    name: str
    sizes: str
    checked: int = 0
    violations: list = field(default_factory=list)
    elapsed_s: float = 0.0

    def ok(self):
        return not self.violations

    def record(self, structure, law, witness):
        self.violations.append(
            {"structure": structure, "law": law, "witness": witness})


def _poset_name(p):
    return f"poset(n={p.n}, covers={p.covers()})"


def _lattices(posets):
    """The lattices among the chainmail ``posets``: those with a least
    element.  With one, every nonempty set is a mail, so has a join, and
    a meet, the join of its lower bounds.  Conversely a finite lattice has
    a least element, the meet of all, and every mail has a join.  That
    element is a lower bound of the whole carrier, which is so one mail:
    a lattice is a mail-connected chainmail, and lies in the census."""
    return [as_complete_lattice(p) for p in posets
            if p.least_of(p.full_mask()) is not None]


def _lattices_up_to(n):
    return _lattices(posets_up_to(n, "mail-connected-chainmails"))


def _bound(max_size, default):
    return default if max_size is None else max_size


def suite_connectivity_conditions(max_size=None):
    """Implications between the four element conditions, exhaustively.

    On every complete lattice arising from a poset of bounded size:
    separated-join-prime implies each of the other three conditions,
    disjoint-join-prime and separated-join-member each imply
    disjoint-join-indecomposable, and on locally connected lattices
    disjoint-join-indecomposable implies separated-join-prime, closing
    the circle.
    """
    bound = _bound(max_size, 6)
    report = SuiteReport("connectivity-conditions", f"lattices from n<={bound}")
    implications = [
        ("separated-join-prime", "disjoint-join-prime"),
        ("separated-join-prime", "separated-join-member"),
        ("disjoint-join-prime", "disjoint-join-indecomposable"),
        ("separated-join-member", "disjoint-join-indecomposable"),
    ]
    for lat in _lattices_up_to(bound):
        report.checked += 1
        name = _poset_name(lat.poset)
        locally = lattice.is_locally_connected(lat)
        for a in range(lat.n):
            held = {c: lattice.check_condition(lat, a, c)
                    for c in lattice.CONDITIONS}
            for stronger, weaker in implications:
                if held[stronger] and not held[weaker]:
                    report.record(name, f"{stronger} => {weaker}", a)
            if locally and held["disjoint-join-indecomposable"] \
                    and not held["separated-join-prime"]:
                report.record(
                    name,
                    "locally connected: disjoint-join-indecomposable => "
                    "separated-join-prime",
                    a)
    return report


def suite_local_connectivity(max_size=None):
    """The separation-poset classification and the counit, together.

    The join map out of the separation poset must be an isomorphism
    exactly when it is surjective, exactly when the lattice is locally
    connected; and the counit must be an isomorphism under the same
    condition.  The classification helper re-checks its own trichotomy
    and raises on mismatch, which the suite records as a violation.
    """
    bound = _bound(max_size, 6)
    report = SuiteReport("local-connectivity", f"lattices from n<={bound}")
    for lat in _lattices_up_to(bound):
        report.checked += 1
        name = _poset_name(lat.poset)
        locally = lattice.is_locally_connected(lat)
        try:
            verdict = lattice.nu_classification(lat)
        except TheoremViolation as e:
            report.record(name, "separation classification", e.witness)
            continue
        if (verdict == "iso") != locally:
            report.record(name, "join-map iso <=> locally connected",
                          verdict)
        try:
            eps_iso = category.is_epsilon_iso(lat)
        except TheoremViolation as e:
            report.record(name, "counit construction", e.witness)
            continue
        if eps_iso != locally:
            report.record(name, "counit iso <=> locally connected", eps_iso)
    return report


def suite_unit_counit(max_size=None):
    """Unit and counit are isomorphisms where the theory says they are.

    Every chainmail embeds isomorphically, via the unit, into the
    connected elements of its lattice of totally disconnected sets; and
    every locally connected lattice is recovered isomorphically, via
    the counit, from its chainmail of connected elements.
    """
    bound = _bound(max_size, 6)
    report = SuiteReport("unit-counit",
                         f"chainmails and lattices from n<={bound}")
    posets = posets_up_to(bound, "chainmails")
    for g in map(as_chainmail, posets):
        report.checked += 1
        name = _poset_name(g.poset)
        try:
            category.unit_eta(g)
        except TheoremViolation as e:
            report.record(name, "unit is an order-isomorphism",
                          (e.law, e.witness))
    for lat in _lattices(posets):
        if not lattice.is_locally_connected(lat):
            continue
        report.checked += 1
        name = _poset_name(lat.poset)
        try:
            if not category.is_epsilon_iso(lat):
                report.record(name, "counit iso on locally connected", None)
        except TheoremViolation as e:
            report.record(name, "counit construction", e.witness)
    return report


def _transposes(eta, eps):
    """The chainmail morphisms f: g -> K(L) and their transposes
    D(g) -> L, for the unit ``eta`` at g and the counit ``eps`` at L.

    Each f is transposed once, to the counit after D(f), and taken back
    once, to K of the transpose after the unit, which must give f: so
    transposing is one-to-one.  Both go through the lazy batches
    ``category.d_on_tables`` and ``category.k_on_tables``.
    """
    g, d, k = eta.d.chainmail, eta.d, eps.k
    left = list(category.chainmail_morphism_tables(g, k.chainmail))
    counit, unit = eps.map.table, eta.map.table
    images = []

    def transposes():
        for df in category.d_on_tables(g, k, left):
            images.append(tuple([counit[v] for v in df]))
            yield images[-1]

    for f, back in zip(left, category.k_on_tables(d, k.lattice,
                                                  transposes())):
        roundtrip = tuple([back[v] for v in unit])
        if roundtrip != f:
            raise TheoremViolation("transpose-roundtrip", (f, roundtrip))
    return left, images


def _onto(left, images, right):
    """The common size, when the hom list ``right`` holds every
    transpose and has as many entries as ``left``: a one-to-one map
    into a finite set of its own size is onto."""
    homs = set(right)
    for f, image in zip(left, images):
        if image not in homs:
            raise TheoremViolation("transpose-not-a-hom", (f, image))
    if len(right) != len(left):
        reached = set(images)
        # with every hom reached, the search repeated a table
        raise TheoremViolation("transpose-not-onto", next(
            (h for h in right if h not in reached),
            (len(left), len(right))))
    return len(left)


def check_adjunction_bijection(g, lat, weak=False):
    """Hom-set bijection for one pair, strict or (with ``weak``) weak:
    returns the common hom-set size, and raises TheoremViolation on any
    mismatch (see ``_transposes`` and ``_onto``)."""
    eps = category.counit_epsilon(lat)
    eta = category.unit_eta(g)
    left, images = _transposes(eta, eps)
    return _onto(left, images, list(category.connectivity_hom_tables(
        eta.d.lattice, lat, weak=weak)))


def _with_triangle(report, s, build, triangle, what):
    """``(name, build(s))``, the unit or counit at ``s``, once its
    triangle identity is checked; None if the build fails.  Violations
    are recorded under ``s``'s name."""
    name = _poset_name(s.poset)
    try:
        data = build(s)
    except TheoremViolation as e:
        report.record(name, f"{what} ({e.law})", e.witness)
        return None
    try:
        triangle(data)
    except TheoremViolation as e:
        report.record(name, f"triangle identity ({e.law})", e.witness)
    return name, data


def suite_adjunction(max_size=None):
    """Hom-set bijection and triangle identities over all small pairs.

    Pairs every enumerated chainmail up to the chainmail bound with
    every enumerated complete lattice one element larger at most.  The
    unit and its triangle identity are checked once per chainmail, and
    the counit and its triangle once per lattice.  Each pair makes one
    pass of transposes and one weak hom search; the strict homs among
    the weak ones are the strict reading.  So a pair that passes has as
    many strict homs as weak ones: the transposes are both.
    """
    g_bound = _bound(max_size, 4)
    l_bound = g_bound + 1
    report = SuiteReport(
        "adjunction", f"chainmails n<={g_bound} x lattices n<={l_bound}")
    posets = posets_up_to(l_bound, "chainmails")
    counits = [_with_triangle(report, lat, category.counit_epsilon,
                              category.lattice_triangle, "counit")
               for lat in _lattices(posets)]
    for g in (as_chainmail(p) for p in posets if p.n <= g_bound):
        unit = _with_triangle(report, g, category.unit_eta,
                              category.chainmail_triangle, "unit")
        for counit in counits:
            report.checked += 1
            if unit is None or counit is None:
                continue
            (gname, eta), (lname, eps) = unit, counit
            d, lat = eta.d.lattice, eps.k.lattice
            try:
                left, images = _transposes(eta, eps)
                weak = list(category.connectivity_hom_tables(d, lat,
                                                             weak=True))
                _onto(left, images, list(category.strict_homs(d, lat, weak)))
                _onto(left, images, weak)
            except TheoremViolation as e:
                report.record(f"{gname} / {lname}", f"hom bijection ({e.law})",
                              e.witness)
    return report


def _chainmail_by_all_mails(p):
    """Exponential reference: every mail, of any size, must have a join."""
    for mask in range(1, 1 << p.n):
        if p.lower_mask(mask) and p.join_mask(mask) is None:
            return False
    return True


def suite_pairwise_criterion(max_size=None):
    """The two-element mail test agrees with the full definition.

    A poset is a chainmail when every mail has a join; the quadratic
    test only inspects two-element mails.  This sweeps every poset of
    bounded size and compares the quadratic test against the exponential
    all-mails reference.
    """
    bound = _bound(max_size, 6)
    report = SuiteReport("pairwise-criterion", f"posets n<={bound}")
    for p in posets_up_to(bound):
        report.checked += 1
        fast = poset_is_chainmail(p)
        slow = _chainmail_by_all_mails(p)
        if fast != slow:
            report.record(_poset_name(p), "pairwise mail test agrees",
                          (fast, slow))
    return report


SUITES = {
    "connectivity-conditions": suite_connectivity_conditions,
    "local-connectivity": suite_local_connectivity,
    "unit-counit": suite_unit_counit,
    "adjunction": suite_adjunction,
    "pairwise-criterion": suite_pairwise_criterion,
}


def run_suite(name, max_size=None):
    """Run one suite, timed into ``elapsed_s``; an empty population is
    recorded as a violation."""
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite: {name!r}") from None
    start = perf_counter()
    report = fn(max_size=max_size)
    report.elapsed_s = perf_counter() - start
    if not report.checked:
        report.record(report.sizes, "population is not empty", max_size)
    return report
