import os
import sys

# The benchmark's modules and the library sources, as run.py sees them.
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))
sys.path.insert(0, os.path.dirname(HERE))
