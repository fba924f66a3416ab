"""``python -m chainbook``: the same command line as the ``chainbook`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
