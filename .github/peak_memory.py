"""Print the peak resident memory of one tvfspec command and whether it loaded numpy.ma.

Run from the repository root with ``PYTHONPATH=src python .github/peak_memory.py
COMMAND [ARGS...]``, for example ``reproduce far2 --T 512 --out DIR``.  The command
runs in a child interpreter through ``tvfspec.cli.main``.  The script prints the
child's largest resident set, ``resource.getrusage(RUSAGE_CHILDREN).ru_maxrss``, in
MB of 10^6 bytes (as the benchmark's ``peak_rss_mb``), and whether ``numpy.ma`` was
in the child's ``sys.modules`` when the command returned.  It exits with the
command's exit code.
"""

import resource
import subprocess
import sys

# the last line the child prints is the flag; the command's own lines come before it
CHILD = ("import sys, tvfspec.cli; code = tvfspec.cli.main(sys.argv[1:]); "
         "print('numpy.ma' in sys.modules); sys.exit(code)")


def main(argv):
    child = subprocess.run([sys.executable, "-c", CHILD, *argv], stdout=subprocess.PIPE,
                           text=True)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6
    lines = child.stdout.splitlines()
    loaded = lines[-1] if lines else "unknown (no output)"
    print(f"{' '.join(argv)}: exit {child.returncode}, peak RSS {peak:.2f} MB, "
          f"numpy.ma loaded: {loaded}")
    return child.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
