"""Golden outputs: ``run_fcm`` reproduces recorded results byte for byte.

The SHA-256s below were taken from a plain (N, C) implementation of the
alternation, whose reductions are numpy's own. The channel-major loop
replays those summation orders, so it must reproduce every digest. A change
to any reduction order, to the distance kernel or to the loop shows up here
as a different digest, even when the results still look close.
"""

import hashlib

import numpy as np
import pytest

from swarmseg import RawImage
from swarmseg.core import ClusterConfig, PixelDataset, sample_distinct_pixels
from swarmseg.fcm import run_fcm
from swarmseg.imaging import to_dataset
from swarmseg.synthetic import gaussian_blob_image, random_image


def mixture_64():
    # the seed protocol's fourth mixture (C = 5)
    image = gaussian_blob_image(
        [(50.0, 50.0, 50.0), (110.0, 110.0, 110.0), (230.0, 230.0, 230.0),
         (230.0, 30.0, 30.0), (30.0, 30.0, 230.0)],
        width=64, height=64, sigma=10.0, seed=340,
        weights=[0.10, 0.12, 0.30, 0.25, 0.23],
    )
    return to_dataset(image)


def four_bands_256():
    means = [(60.0, 60.0, 60.0), (120.0, 120.0, 120.0),
             (230.0, 230.0, 60.0), (60.0, 230.0, 230.0)]
    bands = [
        gaussian_blob_image([mean], width=256, height=64, sigma=12.0, seed=7 + k)
        for k, mean in enumerate(means)
    ]
    return to_dataset(RawImage(width=256, height=256, rgb8=b"".join(b.rgb8 for b in bands)))


def random_100003():
    return to_dataset(random_image(100003, 1, seed=5))


def scalar_20011():
    values = np.round(np.random.default_rng(11).uniform(0, 255, 20011))
    return PixelDataset(pixels=values.reshape(-1, 1), width=20011, height=1)


# name: (dataset, cluster count, config overrides, start seed)
CASES = {
    "mixture-64-c5": (mixture_64, 5, {"fcm_rel_tol": 1e-15}, 0),
    "bands-256-c4": (four_bands_256, 4, {}, 1),
    "random-100003-c9-m3": (random_100003, 9, {"fuzzifier": 3.0, "fcm_max_iters": 6}, 2),
    "scalar-20011-c4-m1.5": (scalar_20011, 4, {"fuzzifier": 1.5, "fcm_rel_tol": 1e-12}, 3),
}

GOLDEN = {
    "bands-256-c4": {
        "centers": "a357937b12c82bb7cd97b49cc8c0135579b78ef2fa2a42ff46dfd7bd00277562",
        "labels": "565497ab9bf68cf5dbac178c2984540f320011e6bdb3a28c3d4b454370d1ba45",
        "trajectory": "b7374daeba198b2d96db52c3728dc2235c7f36e8a50afc13ee9decd2e74e748b",
        "iterations": 8,
    },
    "mixture-64-c5": {
        "centers": "a03849eb609b8e77663704c5f0f322c99a50eeeb4f83bdf7a072f5aced5acdc0",
        "labels": "feb2f31f8c076f09fed23921eeebdcc393fa258798d2128fb3aa65304ac4f1ec",
        "trajectory": "fbd2c1d1089ef5ecfb8acfb61c00a793af4fac70457d4fbc7955fd95703fca72",
        "iterations": 300,
    },
    "random-100003-c9-m3": {
        "centers": "af10ff39954992ad471f4e4f8d8a90d17b8845292b99911bb19dc2459549a592",
        "labels": "1ba31fb108081c5ebddb55a470719e3b5492a12c8f191668e63cc22094403ecd",
        "trajectory": "478f0ec313d756e5706ab990205684ba3a1cf705fb1be4ff0433712825397567",
        "iterations": 6,
    },
    "scalar-20011-c4-m1.5": {
        "centers": "fb20fac58f5451b6c344fdd4aebcd188719bcb450b8f4c4b150eec152d4a8564",
        "labels": "b8ddee9dc379e443037af4eecbd4e0481aa06a6810355113837491e3b274d0aa",
        "trajectory": "38b8fb46f52f14100ea12361c292523bad502618651baf11906ed83e6925bb30",
        "iterations": 79,
    },
}


def digests(name):
    make, clusters, overrides, start_seed = CASES[name]
    ds = make()
    init = sample_distinct_pixels(ds, clusters, np.random.default_rng(start_seed))
    result = run_fcm(ds, init, ClusterConfig(cluster_count=clusters, **overrides))
    return {
        "centers": hashlib.sha256(result.centers.tobytes()).hexdigest(),
        "labels": hashlib.sha256(result.labels.astype(np.int64).tobytes()).hexdigest(),
        "trajectory": hashlib.sha256(result.jm_trajectory.tobytes()).hexdigest(),
        "iterations": result.iterations,
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_fcm_matches_golden_digests(name):
    assert digests(name) == GOLDEN[name]
