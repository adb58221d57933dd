"""Set-up cost of a fresh `gprs` process.

Run as a script, it imports `gprs`, builds the given fields with their
first-use tables and prints the elapsed seconds:

    python3 perfbench/setup_probe.py <src-dir> 11,13,25

The benchmark runs it in fresh interpreters to measure `setup_s`, and calls
`warm_fields` in its own process so that no timed request pays for table
construction.
"""

import sys
import time


def warm_field(f) -> None:
    """Trigger every first-use table of the field through public calls."""
    from gprs import GprsCode

    # The shortest code over the field (n = 3, k = 2) walks the scalar
    # arithmetic, the inverse table and the numpy codeword path while costing
    # almost nothing beyond the tables themselves.
    code = GprsCode(f, range(3, f.q), 2)
    word = code.word([0, 1, 2, 3])
    code.error_distance(word, method="enumerate")
    code.error_distance(word, method="agreement")
    f.inv_enc(f.q - 1)


def warm_fields(qs) -> None:
    from gprs import field_of_order

    for q in qs:
        warm_field(field_of_order(q))


if __name__ == "__main__":
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    warm_fields(int(q) for q in sys.argv[2].split(","))
    print(time.perf_counter() - start)
