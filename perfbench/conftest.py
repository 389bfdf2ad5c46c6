import sys
from pathlib import Path

# the benchmark's tests import pollsim from the source tree, as the benchmark does
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
