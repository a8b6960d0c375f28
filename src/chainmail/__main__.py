"""``python -m chainmail``: the same command line as the ``chainmail``
script."""

from .cli import main

raise SystemExit(main())
