"""Run the command-line interface: python -m selfcal <command> ..."""

import sys

from .cli import main

sys.exit(main())
