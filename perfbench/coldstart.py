"""One cold start for setup_s: a fresh interpreter imports cavityclock, runs
the workload's warm-up op and prints "ok".  run.py starts it with src/ on
PYTHONPATH and times it to that line.

    python3 perfbench/coldstart.py deviation-sweep
"""

import sys

from workloads import WORKLOADS

WORKLOADS[sys.argv[1]]().warmup()
print("ok", flush=True)
