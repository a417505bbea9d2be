"""Run a command with its stdout discarded and fail unless it exits 0 below
a peak resident set size.

    python .github/scripts/peak_rss.py MB command [arg ...]

Prints the command's exit status (its exit code, or minus the number of the
signal that ended it) and peak RSS (ru_maxrss from os.wait4), and exits 1
if the command fails or peaks at MB megabytes or more.
"""

import os
import subprocess
import sys

cap = float(sys.argv[1])
child = subprocess.Popen(sys.argv[2:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
mb = usage.ru_maxrss / 1024
print(f"exit status {os.waitstatus_to_exitcode(status)}, peak RSS {mb:.1f} MB")
sys.exit(0 if status == 0 and mb < cap else 1)
