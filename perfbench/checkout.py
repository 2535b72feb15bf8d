"""Makes ``import qags`` load the program from this checkout's ``src/``.

Every benchmark module imports this before ``qags``, so the benchmark
measures the source it was checked out with and never an installed copy.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if not (SRC / "qags" / "__init__.py").is_file():
    raise ImportError(f"no qags package at {SRC}; run from a full checkout")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
