"""``python -m tilingkit``: the same command line as the ``tilingkit`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
