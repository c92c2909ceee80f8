"""Import the hom3lie command line and load each input file once.

The benchmark times this in a fresh interpreter as its set-up cost, so
work moved into import or into loading shows there.  The interpreter
samples its own speed meanwhile (``speed.py``) and prints, as its only
line, the seconds it spent sampling and the mean reference time of its
samples.

Usage: python3 perfbench/load_inputs.py SRC_DIR KIND:PATH [KIND:PATH ...]
with KIND one of algebra, cocycle, form, subspace.
"""

import sys
from time import perf_counter

from speed import SpeedSampler

# Set-up takes a few tenths of a second: sample twice as often as the jobs.
INTERVAL = 0.01


def load(argv: list[str]) -> None:
    sys.path.insert(0, argv[1])
    import hom3lie.cli  # noqa: F401  importing the command line is part of set-up
    from hom3lie import io

    loaders = {
        "algebra": io.load_algebra,
        "cocycle": io.load_cocycle,
        "form": io.load_form,
        "subspace": io.load_subspace,
    }
    for item in argv[2:]:
        kind, path = item.split(":", 1)
        loaders[kind](path)


def main(argv: list[str]) -> int:
    sampler = SpeedSampler(INTERVAL)
    with sampler.running():
        start = perf_counter()
        load(argv)
        end = perf_counter()
    print(sampler.sampling_seconds(start, end), sampler.reference(start, end))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
