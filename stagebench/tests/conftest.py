"""Make the benchmark modules and the program importable:
``python3 -m pytest stagebench/tests`` from the repository root."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))
