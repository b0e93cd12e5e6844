"""Set-up probe: a fresh interpreter imports the CLI from the given source
directory, loads the given model files and prints ``ready``.

    python3 perfbench/setup_probe.py SRC_DIR MODEL.json...
"""

import sys

sys.path.insert(0, sys.argv[1])

import lsv_shortmat.cli  # noqa: E402,F401
from lsv_shortmat.model import load_model  # noqa: E402

for path in sys.argv[2:]:
    load_model(path)
print("ready", flush=True)
