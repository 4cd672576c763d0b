"""``python -m splitsea``: the same command line as the ``splitsea`` script."""

import sys

from .cli import main

sys.exit(main())
