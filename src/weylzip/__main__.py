"""``python -m weylzip``: the command line of :mod:`weylzip.cli`."""
from .cli import run

run()
