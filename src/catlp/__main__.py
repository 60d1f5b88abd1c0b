"""Entry point for ``python -m catlp``."""

from .cli import main

main()
