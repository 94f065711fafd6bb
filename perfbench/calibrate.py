"""The reference computation that run.py times between ops to measure the
speed the machine gives the run while it runs.

It is the kind of work the package's ops do, Python arithmetic and calls
into numpy and scipy on short arrays, and it does not touch cavityclock, so
a change to the package cannot change the work it does.  One pass takes
about 2 ms.
"""

import numpy as np
from scipy import special


def reference() -> float:
    total = 0.0
    for i in range(3000):
        total += (i * 0.5) ** 0.5
    x = np.linspace(0.1, 2.0, 16)
    for _ in range(200):
        x = np.sqrt(x * x + 1e-3) * 0.999
        total += float(special.kv(0.5, x)[0])
    return total
