import sys
from pathlib import Path

# the benchmark imports the package from the checkout, as bench/run.py does
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
