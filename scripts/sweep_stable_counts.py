#!/usr/bin/env python3
"""Sweep seeded random instances and summarise their stable-set structure.

Reports the distribution of stable-set sizes, how often the lattice is a
chain versus genuinely branching, and the widest instance found, e.g.:

    python scripts/sweep_stable_counts.py --seeds 2000 --students 8
"""

import argparse
import random
from collections import Counter

from spas import DEFAULT_SIZE_GUARD, GenParams, build_hasse, enumerate_all, generate


def positive(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def params_for(seed: int, args: argparse.Namespace) -> GenParams:
    rng = random.Random(seed)
    projects = rng.randint(1, args.projects)
    return GenParams(
        students=rng.randint(1, args.students),
        projects=projects,
        lecturers=rng.randint(1, min(args.lecturers, projects)),
        pref_len=(1, projects),
        project_cap=(1, 2),
        seed=seed,
        density=rng.uniform(0.3, 0.9),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=positive, default=1000)
    parser.add_argument("--students", type=int, default=7)
    parser.add_argument("--projects", type=positive, default=6)
    parser.add_argument("--lecturers", type=positive, default=3)
    args = parser.parse_args()
    if not 1 <= args.students <= DEFAULT_SIZE_GUARD:
        parser.error(f"--students must be from 1 to the enumeration size "
                     f"guard, DEFAULT_SIZE_GUARD = {DEFAULT_SIZE_GUARD}")

    sizes = Counter()
    branching = 0
    widest = (0, None)
    for seed in range(1, args.seeds + 1):
        instance = generate(params_for(seed, args))
        stable = enumerate_all(instance)
        sizes[len(stable)] += 1
        if len(stable) > 1:
            diagram = build_hasse(instance, stable)
            if len(diagram.edges) > len(stable) - 1:
                branching += 1
            if len(stable) > widest[0]:
                widest = (len(stable), seed)

    print(f"instances: {args.seeds}")
    for size in sorted(sizes):
        print(f"  |stable set| = {size:2d}: {sizes[size]:6d}")
    print(f"branching lattices (more cover edges than a chain): {branching}")
    if widest[1] is not None:
        print(f"largest stable set: {widest[0]} (seed {widest[1]})")


if __name__ == "__main__":
    main()
