"""One worker process of a benchmark run.

Reads the pickled arguments of ``bench.run_part`` (workload, seed, part,
seconds, trace) from standard input and writes its pickled result to
standard output. ``bench.run_workload`` starts it and waits for it.
"""

import pickle
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from bench import run_part  # noqa: E402


def main():
    args = pickle.load(sys.stdin.buffer)
    sys.stdout.buffer.write(pickle.dumps(run_part(*args)))


if __name__ == "__main__":
    main()
