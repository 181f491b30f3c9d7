"""``python -m nbhdrecon``: the command line, as the ``nbhdrecon`` entry point."""

import sys

from .cli import main

sys.exit(main())
