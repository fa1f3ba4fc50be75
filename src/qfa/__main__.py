"""``python -m qfa``: the same command line as the installed ``qfa`` script."""

import sys

from .cli import main

sys.exit(main())
