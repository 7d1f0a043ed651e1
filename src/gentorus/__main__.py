"""``python -m gentorus``: the command line of :mod:`gentorus.cli`."""

import sys

from .cli import main

sys.exit(main())
