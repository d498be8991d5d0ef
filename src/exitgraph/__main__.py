"""``python -m exitgraph``: the same command line as the ``exitgraph`` script."""

from .cli import main

main()
