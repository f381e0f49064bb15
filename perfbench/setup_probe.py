"""Time one set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> <scratch dir>

Imports dualkit (through the workload module) and builds the workload's
inputs, then samples the calibration kernel in the same process and prints
one JSON line with setup_s, import_s and inputs_s scaled to the reference
machine speed (see calibrate.py), and the measured setup_raw_s and
kernel_s.  run.py starts several of these and reports the median.
"""

import time

T0 = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
workload, seed, scratch = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
mod = importlib.import_module("wl_" + workload.replace("-", "_"))
t1 = time.perf_counter()
mod.build(seed, scratch)
t2 = time.perf_counter()

import calibrate  # noqa: E402

scale, kernel_s = calibrate.scale_here()
print(json.dumps({"setup_s": (t2 - T0) * scale, "import_s": (t1 - T0) * scale,
                  "inputs_s": (t2 - t1) * scale, "setup_raw_s": t2 - T0,
                  "kernel_s": kernel_s}))
