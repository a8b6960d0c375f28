"""Shared fixtures: small structure zoos reused across the test modules."""

import pytest

from chainmail import enumeration, lattice, mails, sources
from chainmail.poset import validate_poset


def mk(size, covers, labels=None):
    return validate_poset(size, covers, labels=labels)


@pytest.fixture(scope="session")
def counterexample():
    return sources.counterexample_chainmail()


@pytest.fixture(scope="session")
def posets_by_size():
    """One representative per isomorphism class, sizes 1..5."""
    out = {n: [] for n in range(1, 6)}
    for p in enumeration.posets_up_to(5):
        out[p.n].append(p)
    return out


@pytest.fixture(scope="session")
def small_lattices(posets_by_size):
    out = []
    for n in sorted(posets_by_size):
        for p in posets_by_size[n]:
            try:
                out.append(lattice.as_complete_lattice(p))
            except lattice.NotALattice:
                continue
    return out


@pytest.fixture(scope="session")
def small_chainmails(posets_by_size):
    out = []
    for n in sorted(posets_by_size):
        for p in posets_by_size[n]:
            try:
                out.append(mails.as_chainmail(p))
            except mails.NotAChainmail:
                continue
    return out
