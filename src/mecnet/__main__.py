"""``python -m mecnet``: the command-line interface of :mod:`mecnet.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
