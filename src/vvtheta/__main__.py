"""``python -m vvtheta``: the vvtheta command line (see vvtheta.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
