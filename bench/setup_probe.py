"""One cold start: time until the package is ready, printed as JSON.

Usage: ``python3 bench/setup_probe.py ROOT``.  Covers ``import numpy``,
``import unruh_steering`` from ``ROOT/src``, the first ``preset_config``
and the first ``standard_observables`` calls, which every CLI invocation
pays before it does any work.
"""

import json
import sys
import time

start = time.perf_counter()
import numpy  # noqa: E402,F401

numpy_done = time.perf_counter()
sys.path.insert(0, f"{sys.argv[1]}/src")
import unruh_steering  # noqa: E402

package_done = time.perf_counter()
unruh_steering.preset_config("fig1a")
for space in ("qubit", "qutrit", "extended_qutrit"):
    unruh_steering.standard_observables(space)
ready = time.perf_counter()

print(json.dumps({
    "setup_s": ready - start,
    "numpy_import_s": numpy_done - start,
    "package_import_s": package_done - numpy_done,
    "origin": unruh_steering.__file__,
}))
