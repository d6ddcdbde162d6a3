"""Time one set-up of a workload in this fresh interpreter.

    python setup_child.py WORKLOAD SEED WORKDIR

adjoint3 must be importable (PYTHONPATH holding the repository's src).
Prints the seconds from before ``import adjoint3`` to the end of the
set-up: inputs, profiles and warm-up, as harness.setup_once makes them.
"""

from time import perf_counter

START = perf_counter()

import sys  # noqa: E402

import harness  # noqa: E402  (imports adjoint3)


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    wl = harness.setup_once(name, seed, workdir)
    elapsed = perf_counter() - START
    wl.close()
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
