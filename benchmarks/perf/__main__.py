"""``python3 -m benchmarks.perf`` — run from the repository root."""

import os
import sys

from benchmarks.perf.machine import pin_blas_threads

# Before numpy is imported anywhere: thread caps are read at load time.
pin_blas_threads()
# ``repro`` is used from source, never installed; children inherit both.
_SRC = os.path.join(os.getcwd(), "src")
if not os.path.isdir(os.path.join(_SRC, "repro")):
    sys.exit("benchmarks.perf: src/repro not found — run from the repository root")
sys.path.insert(0, _SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC, os.getcwd()] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
)

from benchmarks.perf.cli import main  # noqa: E402 - needs the path set up above

sys.exit(main())
