import sys
from pathlib import Path

_here = Path(__file__).resolve().parent
sys.path[:0] = [str(_here.parent), str(_here.parent.parent / "src")]
