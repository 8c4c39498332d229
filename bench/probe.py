"""Set-up probe: import the package and load configs, then say ``ready``.

Usage: ``python3 bench/probe.py SRC_DIR CONFIG...``.  The parent times
this process from its start to the ``ready`` line.
"""

import sys

sys.path.insert(0, sys.argv[1])

from coupled_mzi import cli  # noqa: E402

for path in sys.argv[2:]:
    cli.load_config(path)
print("ready", flush=True)
