"""``python -m cvrep``: the command-line interface, without installing the package."""

import sys

from .cli import main

sys.exit(main())
