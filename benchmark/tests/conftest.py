import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
os.environ["EH2MARG_NUMBA"] = "0"
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
