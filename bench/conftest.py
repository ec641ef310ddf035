"""Make the program (``src/``) and the benchmark modules importable for
the benchmark's own tests: ``python -m pytest bench``."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
