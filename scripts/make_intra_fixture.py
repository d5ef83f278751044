#!/usr/bin/env python3
"""Emit the `intra-smoke` fixture (`tests/fixtures/intra_many_components.json`).

12 disjoint clusters of 3500 random jobs at `g = 2`. Each cluster lives in
its own 4000-tick window (windows 1000 ticks apart, so clusters never
touch), and each job has a length of 500-1000 ticks placed uniformly inside
the window. The clusters are not cliques: FirstFit has to test machines
whose profiles hold many steps, so every component costs milliseconds
under FirstFit and the schedule phase of one solve is dominated by the
twelve balanced components that fork-join component dispatch spreads over
the pool. Every cluster is checked to be one connected component.

Usage: make_intra_fixture.py [seed] > tests/fixtures/intra_many_components.json
"""
import json
import random
import sys

CLUSTERS = 12
JOBS_PER_CLUSTER = 3500
WINDOW = 4000
GAP = 1000
MIN_LEN, MAX_LEN = 500, 1000
G = 2


def cluster(rng, base):
    jobs = []
    for _ in range(JOBS_PER_CLUSTER):
        length = rng.randint(MIN_LEN, MAX_LEN)
        start = base + rng.randint(0, WINDOW - length)
        jobs.append([start, start + length])
    # connected: sorted by start, no job starts after every earlier one ended
    reach = None
    for start, end in sorted(jobs):
        if reach is not None and start > reach:
            sys.exit(f"cluster at {base} splits at {start}; pick another seed")
        reach = end if reach is None else max(reach, end)
    return jobs


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    rng = random.Random(seed)
    jobs = []
    for c in range(CLUSTERS):
        jobs.extend(cluster(rng, c * (WINDOW + GAP)))
    fixture = {
        "name": "intra-many-components",
        "comment": (
            f"{CLUSTERS} disjoint random clusters of {JOBS_PER_CLUSTER} jobs "
            f"(lengths {MIN_LEN}-{MAX_LEN} in a {WINDOW}-tick window, "
            f"scripts/make_intra_fixture.py seed {seed}): balanced components "
            "that each cost milliseconds under FirstFit, so fork-join "
            "component dispatch dominates the schedule phase"
        ),
        "g": G,
        "jobs": jobs,
    }
    json.dump(fixture, sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
