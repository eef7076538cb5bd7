"""Adaptive and classic particle swarms racing on the same center search.

Both swarms minimize the quantization error of a candidate center set on a
four-blob image, from identical seeds. The adaptive variant re-weights each
particle's inertia by its fitness rank every iteration and slides the
learning factors from self-reliance toward consensus; the classic variant
is the same swarm on a flat schedule (``CLASSIC_SCHEDULE``), which fixes
every coefficient at a constant. The printed gbest trace shows how each
one settles.
"""

from dataclasses import replace

from swarmseg import (
    CLASSIC_SCHEDULE,
    ClusterConfig,
    SwarmConfig,
    gaussian_blob_image,
    run_swarm,
    to_dataset,
)

MEANS = [
    (50.0, 50.0, 50.0),
    (120.0, 120.0, 120.0),
    (230.0, 230.0, 60.0),
    (60.0, 230.0, 230.0),
]


def trace(name, history):
    print(f"\n{name}:")
    g = history.gbest_fitness
    for n in range(0, len(g), 10):
        print(f"  iter {n:3d}: gbest fitness = {g[n]:14.1f}")
    print(f"  iter {len(g) - 1:3d}: gbest fitness = {g[-1]:14.1f}  (final)")
    print(f"  stopped after {history.iterations} iterations, "
          f"variance collapse: {history.converged}")


def main():
    image = gaussian_blob_image(MEANS, width=48, height=48, sigma=10.0, seed=3)
    dataset = to_dataset(image)
    config = ClusterConfig(cluster_count=4, seed=0)

    adaptive = SwarmConfig(swarm_size=20, n_max=100)
    classic = replace(adaptive, **CLASSIC_SCHEDULE)

    centers_a, hist_a = run_swarm(dataset, config, adaptive)
    centers_c, hist_c = run_swarm(dataset, config, classic)

    trace("adaptive swarm", hist_a)
    trace("classic swarm", hist_c)

    print("\nbest center sets found:")
    for name, centers in (("adaptive", centers_a), ("classic", centers_c)):
        rows = ", ".join(
            f"({r[0]:5.1f},{r[1]:5.1f},{r[2]:5.1f})" for r in centers
        )
        print(f"  {name:9s} {rows}")


if __name__ == "__main__":
    main()
