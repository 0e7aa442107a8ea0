"""Set-up probe: a fresh process imports oneshift.cli and serves one request.

    python3 bench/probe.py SRC_DIR ARGV...

Prints the seconds from before the import to after the request returns.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from oneshift import cli  # noqa: E402

rc = cli.main(sys.argv[2:])
elapsed = time.perf_counter() - t0
if rc:
    sys.exit(rc)
print(elapsed)
