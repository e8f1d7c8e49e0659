import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The benchmark's modules import one another by bare name, as they do when
# run as scripts; the CLI outputs used as fixtures come from the checkout.
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]
