"""Golden outputs: every seeded engine reproduces recorded results byte for byte.

``test_fcm_golden`` pins ``run_fcm`` alone. The pixel layout also feeds
k-means' assignment and masked means and the swarm's fitness, so these
SHA-256s pin ``run_algorithm`` end to end for ``kmeans``, ``psofcm`` and
``apsof``: centers, labels and every trajectory (k-means SSE, FCM J_m,
swarm gbest). The downscaled image is not integer-valued, so it also runs
the pass-per-value branch of the distinct-color count.
"""

import hashlib

import numpy as np
import pytest

from swarmseg import RawImage
from swarmseg.core import ClusterConfig
from swarmseg.imaging import to_dataset
from swarmseg.kmeans import run_kmeans
from swarmseg.pipeline import run_algorithm
from swarmseg.swarm import SwarmConfig
from swarmseg.synthetic import gaussian_blob_image


def mixture_64():
    # the seed protocol's fourth mixture (C = 5)
    image = gaussian_blob_image(
        [(50.0, 50.0, 50.0), (110.0, 110.0, 110.0), (230.0, 230.0, 230.0),
         (230.0, 30.0, 30.0), (30.0, 30.0, 230.0)],
        width=64, height=64, sigma=10.0, seed=340,
        weights=[0.10, 0.12, 0.30, 0.25, 0.23],
    )
    return to_dataset(image)


def bands_1024_to_256():
    means = [(60.0, 60.0, 60.0), (120.0, 120.0, 120.0),
             (230.0, 230.0, 60.0), (60.0, 230.0, 230.0)]
    bands = [
        gaussian_blob_image([mean], width=1024, height=256, sigma=12.0, seed=21 + k)
        for k, mean in enumerate(means)
    ]
    image = RawImage(width=1024, height=1024, rgb8=b"".join(b.rgb8 for b in bands))
    return to_dataset(image, max_side=256)


# name: (dataset, cluster count)
DATASETS = {"mixture-64-c5": (mixture_64, 5), "bands-1024-to-256-c4": (bands_1024_to_256, 4)}
ALGORITHMS = ("kmeans", "psofcm", "apsof")
SWARM = SwarmConfig(swarm_size=10, n_max=20)

GOLDEN = {
    "bands-1024-to-256-c4": {
        "kmeans": {
            "centers": "e60e2ee3943769d4014b235bff01251a932d5e3abb4a282fc8414d4a138322f2",
            "labels": "4c1a63f81604fe603d87fe9397c2127fe066e2234c3e8fafe9353bcdf34340c2",
            "sse_trajectory": "c0e98115bb619f1b59ab9ae9b57655304575ff3ff098d76b6713847beb6aeedc",
            "iterations": 3,
        },
        "psofcm": {
            "centers": "d33be8195d1d8e9236d22e2a26f6497fe83a3e039e9061b9ed4554e51d933ad3",
            "labels": "14bf2f569639d2d2c7356b6e59c3d3f295a4766f3cbdcb9b0815e0bf5e562318",
            "gbest_fitness": "075f047dd58ffadfdf7b87e817d7fbb2885df8976ea1c0f47d58548561fa6d81",
            "jm_trajectory": "2bcd211f31f3b06eb81f87dd1177af8626713005c31fbeacedd8fde23e81c412",
            "iterations": 23,
        },
        "apsof": {
            "centers": "6bd9cea2b1460cf14a330211b5a8b7838f8ba498284c08837afe388463a0c666",
            "labels": "14bf2f569639d2d2c7356b6e59c3d3f295a4766f3cbdcb9b0815e0bf5e562318",
            "gbest_fitness": "93a8ec55c862146efd1a2bf7138f19330cde44afd3ecdcf787f4fd6e4b212fea",
            "jm_trajectory": "14380e2e319888617e0822629dcfe10991a49c82e01abdc4f2868949da192370",
            "iterations": 23,
        },
    },
    "mixture-64-c5": {
        "kmeans": {
            "centers": "db7cd08d13ac807345be1cd5fedc489b1a8f2e4cd9f06c4c397c293265f20a23",
            "labels": "5904018ea65a81c7848abc1574f0e272c22b7c2e8c4292901400208537a89303",
            "sse_trajectory": "f91ed300e0e9a262bf3c9245622f8ef0ddee6a99201bb3763d13c44819d9394e",
            "iterations": 5,
        },
        "psofcm": {
            "centers": "3dc9b86bba3180eaf411aed8ffe1a1d90127467de51234f67d6aa11bf59c68dc",
            "labels": "21b903d29512f8a51df2856b6a39c2b3b89c501f50627c30e38f522a1eb3d0c7",
            "gbest_fitness": "46b17fcf677b5050d753ffeb07d47fe79c23a31cf62937e22e99e729a8f4998c",
            "jm_trajectory": "245da61e0a9126a16de4b275369e5a54648d7c71a88756d08283599b0d7604c8",
            "iterations": 59,
        },
        "apsof": {
            "centers": "e636d39ad1b410bf163772bf2ce42a93b3382487a8080f28d77ae6037e97ae8e",
            "labels": "ab85272dc13dc557935cda9a3bbcbf227b85cb5ffa763f9467293f9387e66eaf",
            "gbest_fitness": "fdb3f8bb3fc7a80215e35d5ca80053a7c10383e61d25a37612bd248bd1ac6b25",
            "jm_trajectory": "7c2bb36aeff5e9c2e9e76420f21438c3aa54ea02bfb3375c855fda5f3116a472",
            "iterations": 26,
        },
    },
}


def sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def digests(ds, clusters, algorithm):
    config = ClusterConfig(cluster_count=clusters, seed=3)
    if algorithm == "kmeans":
        # run_algorithm("kmeans") is this call; its result keeps only the last SSE
        result = run_kmeans(ds, config)
        trajectories = {"sse_trajectory": result.sse_trajectory}
    else:
        result = run_algorithm(algorithm, ds, config, SWARM)
        trajectories = {
            "gbest_fitness": result.swarm_history.gbest_fitness,
            "jm_trajectory": result.fcm_result.jm_trajectory,
        }
    out = {"centers": sha(result.centers), "labels": sha(result.labels.astype(np.int64))}
    out.update((key, sha(value)) for key, value in trajectories.items())
    out["iterations"] = result.iterations
    return out


@pytest.fixture(scope="module", params=sorted(DATASETS))
def dataset(request):
    make, clusters = DATASETS[request.param]
    return request.param, make(), clusters


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_algorithm_matches_golden_digests(dataset, algorithm):
    name, ds, clusters = dataset
    assert digests(ds, clusters, algorithm) == GOLDEN[name][algorithm]
