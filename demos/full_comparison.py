"""Run all four segmentation algorithms on one image and score them equally.

Every algorithm gets the same image and seed. Each result is scored
with the shared fuzzy objective (so k-means is not judged by its own SSE),
the quantized images are written as PPM files, and the full comparison
lands in a JSON report. Output goes to ./demo-output/.
"""

from pathlib import Path

from swarmseg import (
    ALGORITHMS,
    ClusterConfig,
    SwarmConfig,
    build_report,
    gaussian_blob_image,
    reconstruct_quantized,
    report_to_json,
    run_algorithm,
    to_dataset,
    write_ppm,
)

MEANS = [
    (210.0, 60.0, 60.0),
    (210.0, 120.0, 60.0),
    (40.0, 40.0, 230.0),
]


def main():
    outdir = Path("demo-output")
    outdir.mkdir(exist_ok=True)

    image = gaussian_blob_image(
        MEANS, width=64, height=64, sigma=10.0, seed=311,
        weights=[0.12, 0.15, 0.73],
    )
    (outdir / "input.ppm").write_bytes(write_ppm(image))
    dataset = to_dataset(image)
    config = ClusterConfig(cluster_count=3, seed=4)
    sconfig = SwarmConfig(swarm_size=20, n_max=100)

    results = []
    for name in ALGORITHMS:
        result = run_algorithm(name, dataset, config, sconfig)
        results.append(result)
        quantized = reconstruct_quantized(dataset, result.labels, result.centers)
        (outdir / f"{name}.ppm").write_bytes(write_ppm(quantized))

    report = build_report(
        dataset, results, pairings=[("fcm", "apsof")], image="demo blobs"
    )
    (outdir / "report.json").write_text(report_to_json(report))

    print(f"{'algorithm':10s} {'J_m (shared metric)':>20s} {'iterations':>11s}")
    for entry in report.entries:
        print(f"{entry.name:10s} {entry.final_jm:20.1f} {entry.iterations:11d}")

    pair = report.normalized[0]
    print(f"\nnormalized ({pair.a}, {pair.b}) = "
          f"({pair.norm_a:.4f}, {pair.norm_b:.4f})  [pair sums to 2]")
    print(f"\nwrote input.ppm, {', '.join(n + '.ppm' for n in ALGORITHMS)}, "
          f"report.json to {outdir}/")


if __name__ == "__main__":
    main()
