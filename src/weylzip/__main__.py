"""``python -m weylzip``: the command line of :mod:`weylzip.cli`."""
import sys

from .cli import main

sys.exit(main())
