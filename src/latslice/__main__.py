"""``python -m latslice``: the same command line as the ``latslice`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
