"""streamfp benchmark harness: workloads, output checks and layer tracing.

Run it with ``python3 perfbench/run.py --workload <name>`` from the
repository root; see ``perfbench/NOTES.md``.

This module imports nothing that loads NumPy, so scripts can import it and
set ``THREAD_VARS`` before NumPy reads them.
"""

import json
from pathlib import Path

# set to 1 in every benchmark process before NumPy is imported; BLAS reads
# the first three at import, and streamfp.cli reads STREAMFP_THREADS
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "STREAMFP_THREADS")

# the benchmark's description: workload names, and the name, unit and
# direction of every metric a run reports
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
