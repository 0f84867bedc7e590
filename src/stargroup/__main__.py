"""``python -m stargroup``: the ``stargroup`` command, ``cli.main``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
