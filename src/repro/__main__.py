"""``python -m repro`` entry point."""

import gc
import sys

from .cli import main

status = main()
# Every file the CLI wrote is closed by now, so skip the full collection
# interpreter shutdown would run over a heap the OS is about to unmap.
gc.freeze()
sys.exit(status)
