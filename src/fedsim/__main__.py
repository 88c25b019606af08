"""``python -m fedsim``: the command line, as the ``fedsim`` script runs it."""

from .cli import main

raise SystemExit(main())
