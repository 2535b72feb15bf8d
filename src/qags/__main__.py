"""``python -m qags``: the command-line interface, as ``python -m qags.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
