"""Entry point for `python -m tokscope`; the same as the `tokscope` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
