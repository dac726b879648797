"""``python -m mfdecomp``: the ``mfdecomp`` command-line tool."""

from .cli import main

raise SystemExit(main())
