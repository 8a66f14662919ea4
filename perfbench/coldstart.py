"""Time one cold set-up in this fresh interpreter; run by run.py.

Set-up is what every CLI call pays before its command runs: importing
zeta3cf.cli and building the stage catalog.  Interpreter start-up itself is
left out; no change to zeta3cf can move it.  Prints the set-up's wall
seconds and the median host speed of three calibration rounds run right
after it (see calib.py).
"""

import time

t0 = time.perf_counter()
import zeta3cf.cli  # noqa: E402,F401
from zeta3cf import stages  # noqa: E402

stages.catalog()
elapsed = time.perf_counter() - t0

import calib  # noqa: E402  (imports fractions, which zeta3cf imported already)

print(elapsed, sorted(calib.speed(calib.EVEN) for _ in range(3))[1])
