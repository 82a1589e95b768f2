"""``python -m igusa``: the `igusa` command, `igusa.cli.main`."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
