"""Library-only benchmark job, run in a fresh interpreter like a CLI call:
regraduate sumprod, build its additive conjugate, check the conjugate's
associativity on a grid and print the report as JSON.

    PYTHONPATH=src python3 bench/conjugate_job.py --seed 1
"""

import sys

from pipelines import conjugate_main

if __name__ == "__main__":
    sys.exit(conjugate_main(sys.argv[1:]))
