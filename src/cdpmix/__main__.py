"""``python -m cdpmix``: the same command line as the ``cdpmix`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
