"""Touch N MB of fresh memory, then exit: python3 perfbench/prefault.py N

The host behind a small VM takes back guest memory that stays free for a
few seconds, and a later first touch of it costs about three times the
guest's own page fault. ``run.py`` runs this just before each timed
repetition, sized to about the job's peak RSS, so every repetition starts
equally warm whatever ran before it. It is a process of its own because a
process started from the benchmark inherits the benchmark's peak RSS, so
touching the memory there would hide the workload's own peak.
"""

import mmap
import sys

with mmap.mmap(-1, int(sys.argv[1]) << 20) as m:
    for i in range(0, len(m), mmap.PAGESIZE):
        m[i] = 1
