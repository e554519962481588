"""python -m threestroke: the threestroke command, threestroke.cli.main."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
