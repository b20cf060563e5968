"""Run the textpersona CLI and record when its imports finished.

Usage: python cli_shim.py READY_FILE SUBCOMMAND [ARGS...]

The clock reading written to READY_FILE, minus the parent's reading at
spawn, is the subcommand's start-up time. Otherwise this behaves as
``python -m textpersona``.
"""

import sys
import time

from textpersona.cli import main

ready = time.perf_counter()
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    fh.write(repr(ready))
sys.exit(main(sys.argv[2:]))
