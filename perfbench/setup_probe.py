"""Time one set-up in a fresh interpreter and print its CPU seconds.

    python3 perfbench/setup_probe.py <workload | reference>

For the ray workloads the set-up is `import srfolds`, adapter construction and
one warm-up ray per distinct (structure, alpha); for cli_cold it is the import
alone. `reference` imports only the libraries srfolds builds on (numpy and the
scipy modules it uses), a fixed load that gives the host's speed for this
kind of work. Only the standard library is loaded before the clock starts.
The clock is this process's CPU time, so time the CPU spends on other
processes is not counted.
"""

import sys
import time

start = time.process_time()
workload = sys.argv[1]
if workload == "reference":
    import numpy  # noqa: E402, F401
    import scipy.integrate  # noqa: E402, F401
    import scipy.optimize  # noqa: E402, F401
else:
    import srfolds  # noqa: E402

    if workload != "cli_cold":
        import ops  # noqa: E402

        ops.set_up(srfolds, workload)
print(repr(time.process_time() - start))
