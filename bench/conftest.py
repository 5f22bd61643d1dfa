import sys

from workloads import SRC

# The benchmark's in-process workloads import the program from the checkout.
sys.path.insert(0, str(SRC))
