"""One set-up sample: a fresh interpreter imports scminor and runs one CLI
call.  Usage: python3 bench/probe.py SRC_DIR EXPECTED_EXIT VERB [ARGS...]
with the call's input on stdin.  Exits 0 iff the call gave EXPECTED_EXIT."""

import sys

sys.path.insert(0, sys.argv[1])

from scminor.cli import main  # noqa: E402

sys.exit(0 if main(sys.argv[3:]) == int(sys.argv[2]) else 1)
