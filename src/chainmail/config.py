"""Size budgets.

All the constructions here are exponential in the worst case; desk scale
is the target.  The family cap is one constant, read at call time,
because most families it bounds are cached on their structures; every
family walk (:func:`chainmail.poset.pairwise_family`) stops one set
past it, and it also bounds the candidate up-sets of a representation
search.  The table cap bounds the cells of D's join table, the square
of its td sets, before it is filled.  Neither can be overridden.
Every other budget can be overridden per call, and the poset cap also
via the CHAINMAIL_BUDGET environment variable.
"""

import os

from .errors import ChainmailError

DEFAULT_POSET_CAP = 24        # validated input posets
DEFAULT_FAMILY_CAP = 1 << 16  # materialized set families (td sets, separated sets)
TABLE_CELL_CAP = 1 << 26      # cells of D's join table (td sets squared)
DEFAULT_ENUM_CAP = 12         # exhaustive generation
DEFAULT_GROUND_CAP = 5        # ground sets of graphs, topologies, spaces


def poset_cap(override=None):
    if override is not None:
        return override
    env = os.environ.get("CHAINMAIL_BUDGET")
    if not env:
        return DEFAULT_POSET_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = None
    if cap is None or cap < 0:
        raise ChainmailError(
            f"CHAINMAIL_BUDGET must be an integer, at least 0, got {env!r}")
    return cap


def enum_cap(override=None):
    return DEFAULT_ENUM_CAP if override is None else override


def ground_cap(override=None):
    return DEFAULT_GROUND_CAP if override is None else override

