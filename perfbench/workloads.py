"""Seeded, stratified call sets for the three benchmark workloads.

A workload is a tuple of strata.  A stratum is a CLI argument template with
a fixed (subcommand, class, rets) and the values its free fields may take.
Every seed draws each stratum the same number of times, so every seed gets
the same mix; the seed picks only leaf counts and orders inside each window,
and the order of the calls.  The windows are narrow, the costliest calls are
fixed, and paired strata draw mirrored picks, so that the work in a call
set, and so its wall time, hardly depends on the seed.

`domain(workload)` lists every call any seed can draw; the pinned reference
table (`reference.json`) covers exactly that set.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Stratum:
    template: str
    choices: tuple[tuple[str, tuple[int, ...]], ...] = ()
    paired: bool = False

    def draw(self, rng: random.Random) -> list[list[str]]:
        """One call; or, when paired, two calls whose picks mirror each other
        about the middle of each window, so their summed cost hardly moves."""
        picks = [rng.randrange(len(values)) for _, values in self.choices]
        out = [self._format(picks)]
        if self.paired:
            out.append(self._format([len(v) - 1 - i for i, (_, v) in zip(picks, self.choices)]))
        return out

    def every(self):
        for picks in itertools.product(*(range(len(v)) for _, v in self.choices)):
            yield self._format(picks)

    def _format(self, picks) -> list[str]:
        return self.template.format(**{k: v[i] for i, (k, v) in zip(picks, self.choices)}).split()


def _s(template: str, paired: bool = False, **choices) -> Stratum:
    return Stratum(template, tuple((k, tuple(v)) for k, v in sorted(choices.items())), paired)


# Enumerate calls write into this directory, relative to the child's working
# directory; the harness removes it after every call.
ENUMERATE_OUT = "enum"

WORKLOADS: dict[str, tuple[Stratum, ...]] = {
    # Egf products, the 2^(k-1) composition recurrence and the block table.
    "galled-series": (
        _s("count --class gn --leaves {l} --rets 4 --method series", l=range(44, 49)),
        _s("count --class gn --leaves {l} --rets 5 --method series", l=range(37, 41)),
        _s("count --class gn --leaves {l} --rets 6 --method series", l=range(31, 34)),
        _s("count --class gn --leaves {l} --rets 7 --method series", l=range(25, 28)),
        _s("count --class gn --leaves {l} --rets 8 --method series", l=(21, 22)),
        _s("count --class gn --leaves {l} --rets 2", paired=True, l=range(10, 61)),
        _s("count --class gn --leaves {l} --rets 3", paired=True, l=range(10, 61)),
        _s("table --class gn --lmax {l} --kmax 7", l=range(8, 15)),
        # the largest block table is fixed: it sets the workload's peak RSS
        _s("blocks --lmax 160 --kmax 50"),
        _s("blocks --lmax {l} --kmax {k}", l=range(100, 141, 10), k=(30, 35, 40)),
        _s("verify --suite genfun"),
        _s("verify --suite onecomp"),
        _s("verify --suite galled"),
    ),
    # The pattern catalog (canon on small DAGs) and the pattern sum.
    "visible-series": (
        _s("count --class rv --leaves {l} --rets 3 --method dagsum", paired=True, l=range(16, 25)),
        _s("count --class rv --leaves {l} --rets 4 --method dagsum", paired=True, l=range(12, 17)),
        _s("count --class rv --leaves {l} --rets 5 --method dagsum", l=(10, 11)),
        _s("count --class rv --leaves {l} --rets 2", paired=True, l=range(10, 31)),
        _s("count --class rv --leaves {l} --rets 3", paired=True, l=range(10, 31)),
        _s("table --class rv --lmax 10 --kmax 4"),
        _s("table --class rv --lmax {l} --kmax 3", l=(12, 13)),
        _s("patterns --m 5"),
        _s("patterns --m 6"),
    ),
    # Enumeration, validation, canonical codes and class predicates.  The
    # 12-vertex cells are fixed so the cost does not swing with the seed;
    # (2, 4) also carries the trace self-check and sets the peak RSS.
    "oracle-brute": (
        _s("count --class pn --leaves 2 --rets 4 --method brute"),
        _s("count --class tc --leaves 5 --rets 1 --method brute"),
        _s("count --class rv --leaves {l} --rets 3 --method brute", l=(1, 2)),
        _s("count --class pn --leaves {l} --rets 2 --method brute", l=(1, 2, 3)),
        _s("count --class gn --leaves {l} --rets 3 --method brute", l=(1, 2)),
        _s("count --class tc --leaves {l} --rets 1 --method brute", l=(2, 3, 4)),
        _s("count --class normal --leaves {l} --rets 1 --method brute", l=(3, 4)),
        _s("table --class tc --lmax {l} --kmax 3", l=(2, 3)),
        _s("table --class normal --lmax {l} --kmax 2", l=(3, 4)),
        _s("enumerate --leaves {l} --rets 2 --class gn --out " + ENUMERATE_OUT, l=(2, 3)),
        _s("enumerate --leaves {l} --rets 2 --out " + ENUMERATE_OUT, l=(2, 3)),
    ),
}


def generate(workload: str, seed: int) -> list[list[str]]:
    """The argv list of one call set; the same seed always gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    calls = [argv for stratum in WORKLOADS[workload] for argv in stratum.draw(rng)]
    rng.shuffle(calls)
    return calls


def domain(workload: str) -> list[list[str]]:
    """Every call any seed can draw for this workload, without repeats."""
    seen = {}
    for stratum in WORKLOADS[workload]:
        for argv in stratum.every():
            seen.setdefault(" ".join(argv), argv)
    return list(seen.values())


def oracle_vertices(argv: list[str]) -> int | None:
    """Vertex count 2 (leaves + rets) of the cell a brute `count` or an
    `enumerate` call exhausts; None for every other call."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] == "enumerate" or opts.get("--method") == "brute":
        return 2 * (int(opts["--leaves"]) + int(opts["--rets"]))
    return None
