"""Fixed reference job: how fast this host runs Python and numpy at the moment.

The benchmark runs it between timed jobs and reports each job's time
relative to the calibration runs on either side of it, which cancels most of
the drift in host speed between and within runs.  Its parts mirror what the
jobs spend time on: interpreter start and `import numpy`, a scalar
modular-arithmetic loop (as in the scalar group law), many small objects (as
in point enumeration), and vectorised passes over multi-megabyte arrays (as
in the pair counts).  It never changes with the program under test.
"""

from dataclasses import dataclass

import numpy as np

P = 1009


@dataclass(frozen=True)
class Pair:
    x: int
    y: int


x, acc = 5, 0
for _ in range(30_000):
    x = (x * x + 7) * pow(x + 3, -1, P) % P
    acc += x
pairs = [Pair(i % P, i * i % P) for i in range(80_000)]
acc += sum(pair.y for pair in pairs if pair.x & 1)
values = np.arange(2_000_000, dtype=np.uint32)
for shift in range(6):
    acc += int(np.count_nonzero((values >> np.uint32(shift)) & values == 0))
print(acc)
