"""``python -m fracspec``: the ``fracspec`` command line."""

import sys

from .cli import main

sys.exit(main())
