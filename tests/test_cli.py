"""Command-line behavior: flags, exit codes, files written."""

import json
from dataclasses import fields

import numpy as np
import pytest

from swarmseg import cli
from swarmseg.cli import main
from swarmseg.core import ClusterConfig
from swarmseg.imaging import load_ppm, write_ppm
from swarmseg.swarm import SwarmConfig
from swarmseg.synthetic import gaussian_blob_image, solid_block_image

FAST = ["--swarm-size", "5", "--iters", "10"]


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse reports usage errors by exiting
        return exc.code


def write_block_image(path, colors=((250, 10, 10), (10, 250, 10), (10, 10, 250))):
    image, _ = solid_block_image(list(colors), block_width=4, height=4)
    path.write_bytes(write_ppm(image))
    return image


def write_blob_image(path):
    # noisy color blobs keep every objective strictly positive, so the
    # fcm/apsof normalization in compare and bench is always defined
    image = gaussian_blob_image(
        [(200.0, 40.0, 40.0), (40.0, 200.0, 40.0), (40.0, 40.0, 200.0)],
        width=16,
        height=8,
        sigma=8.0,
        seed=0,
    )
    path.write_bytes(write_ppm(image))
    return image


def distinct_colors(path):
    image = load_ppm(path.read_bytes())
    arr = np.frombuffer(image.rgb8, dtype=np.uint8).reshape(-1, 3)
    return np.unique(arr, axis=0)


def read_report(path):
    return json.loads(path.read_text())


def strip_wall_times(doc):
    for entry in doc.get("algorithms", []):
        entry.pop("wall_time_ms", None)
    return doc


def test_segment_quantizes_to_cluster_palette(tmp_path):
    src = tmp_path / "in.ppm"
    out = tmp_path / "out.ppm"
    write_block_image(src)
    code = run_cli(["segment", str(src), str(out), "--clusters", "3", *FAST])
    assert code == 0
    colors = distinct_colors(out)
    assert len(colors) == 3
    # sigma-free blocks: the palette is exactly the input colors
    assert {tuple(c) for c in colors.tolist()} == {
        (250, 10, 10), (10, 250, 10), (10, 10, 250)
    }


def test_segment_every_algorithm(tmp_path):
    src = tmp_path / "in.ppm"
    write_block_image(src)
    for algo in ("kmeans", "fcm", "psofcm", "apsof"):
        out = tmp_path / f"{algo}.ppm"
        code = run_cli(
            ["segment", str(src), str(out), "--algo", algo, "--clusters", "3", *FAST]
        )
        assert code == 0
        assert len(distinct_colors(out)) == 3


def test_segment_writes_report_when_asked(tmp_path):
    src = tmp_path / "in.ppm"
    out = tmp_path / "out.ppm"
    rpt = tmp_path / "report.json"
    write_block_image(src)
    code = run_cli(
        [
            "segment", str(src), str(out),
            "--clusters", "3", "--report", str(rpt), *FAST,
        ]
    )
    assert code == 0
    doc = read_report(rpt)
    assert doc["algorithms"][0]["name"] == "apsof"
    assert doc["seed"] == 42
    assert doc["algorithms"][0]["final_jm"] >= 0.0


def test_segment_repeat_runs_are_byte_identical(tmp_path):
    src = tmp_path / "in.ppm"
    write_block_image(src)
    outs = []
    reports = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.ppm"
        rpt = tmp_path / f"{tag}.json"
        code = run_cli(
            [
                "segment", str(src), str(out),
                "--clusters", "3", "--seed", "7",
                "--report", str(rpt), *FAST,
            ]
        )
        assert code == 0
        outs.append(out.read_bytes())
        reports.append(strip_wall_times(read_report(rpt)))
    assert outs[0] == outs[1]
    assert reports[0] == reports[1]


def test_segment_max_side_downscales_output(tmp_path):
    src = tmp_path / "in.ppm"
    out = tmp_path / "out.ppm"
    write_block_image(src)  # 12x4
    code = run_cli(
        [
            "segment", str(src), str(out),
            "--clusters", "3", "--max-side", "6", *FAST,
        ]
    )
    assert code == 0
    image = load_ppm(out.read_bytes())
    assert (image.width, image.height) == (6, 2)


def test_unknown_algorithm_is_a_usage_error(tmp_path):
    src = tmp_path / "in.ppm"
    write_block_image(src)
    code = run_cli(["segment", str(src), str(tmp_path / "o.ppm"), "--algo", "zebra"])
    assert code == 2


def test_zero_clusters_is_a_usage_error(tmp_path):
    src = tmp_path / "in.ppm"
    write_block_image(src)
    code = run_cli(["segment", str(src), str(tmp_path / "o.ppm"), "--clusters", "0"])
    assert code == 2


def test_bad_fuzzifier_is_a_usage_error(tmp_path):
    src = tmp_path / "in.ppm"
    write_block_image(src)
    for value in ("1.0", "inf"):
        code = run_cli(["segment", str(src), str(tmp_path / "o.ppm"), "--fuzzifier", value])
        assert code == 2


def test_non_finite_swarm_coefficient_is_a_usage_error(tmp_path):
    src = tmp_path / "in.ppm"
    write_block_image(src)
    code = run_cli(["segment", str(src), str(tmp_path / "o.ppm"), "--c1-init", "nan"])
    assert code == 2


SEED_RANGE = "seed must fit in an unsigned 64-bit integer"
BAD_CONFIG_VALUES = [
    ("segment", ["--fuzzifier", "1.0"], "fuzzifier must be finite and > 1, got 1.0"),
    ("compare", ["--c1-init", "nan"], "c1_init must be finite"),
    ("bench", ["--seeds", f"0,{2**64}"], SEED_RANGE),
    ("bench", ["--seed", str(2**64 - 1), "--seed-count", "2"], SEED_RANGE),
    ("segment", ["--clusters", "0"], "cluster_count must be >= 1, got 0"),
    ("segment", ["--seed", "-1"], SEED_RANGE),
    ("compare", ["--iters", "0"], "n_max must be positive"),
    ("bench", ["--seeds=-1,2"], SEED_RANGE),
]


@pytest.mark.parametrize(
    "command, flags, message",
    BAD_CONFIG_VALUES,
    ids=[f"{command}-flags{i}" for i, (command, _, _) in enumerate(BAD_CONFIG_VALUES)],
)
def test_a_bad_config_value_shows_its_subcommands_usage(
    tmp_path, capsys, command, flags, message
):
    # the config class's own words, for int flags as for float ones
    src = tmp_path / "in.ppm"
    write_block_image(src)
    out = [] if command == "bench" else [str(tmp_path / "out")]
    report = ["--report", str(tmp_path / "r.json")] if command == "bench" else []
    # after FAST, which sets --iters too
    assert run_cli([command, str(src), *out, *report, *FAST, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: swarmseg {command} ")
    assert f"swarmseg {command}: error: {message}\n" in err


def test_every_run_flag_parses_to_its_fields_type():
    parser = cli.make_parser()
    for flag, owner, field, _ in cli.RUN_FLAGS:
        args = parser.parse_args(["segment", "in.ppm", "out.ppm", flag, "3"])
        assert type(getattr(args, field)) is type(getattr(owner, field)), flag


def test_every_run_setting_has_a_flag_defaulting_to_its_field():
    # every swarm setting and the cluster count, seed and fuzzifier; the FCM
    # stopping rule is not a flag
    settings = [(SwarmConfig, f) for f in fields(SwarmConfig)] + [
        (ClusterConfig, f) for f in fields(ClusterConfig)
        if f.name in ("cluster_count", "seed", "fuzzifier")
    ]
    flag_of = {field: flag for flag, _, field, _ in cli.RUN_FLAGS}
    parser = cli.make_parser()
    commands = (
        ["segment", "in.ppm", "out.ppm"],
        ["compare", "in.ppm", "out"],
        ["bench", "in.ppm", "--seed-count", "1"],  # bench needs a seed flag
    )
    for argv in commands:
        args = parser.parse_args(argv)
        assert cli._build_configs(args, args.parser) == (ClusterConfig(), SwarmConfig())
        for owner, field in settings:
            assert getattr(args, field.name) == field.default, (argv[0], field.name)
            # the flag reaches its field: a value off the default lands there
            value = field.default + 1 if isinstance(field.default, int) else field.default * 1.25
            changed = parser.parse_args([*argv, flag_of[field.name], str(value)])
            configs = cli._build_configs(changed, changed.parser)
            built = configs[0] if owner is ClusterConfig else configs[1]
            assert getattr(built, field.name) == value, (argv[0], field.name)


def test_missing_input_is_a_runtime_error(tmp_path, capsys):
    code = run_cli(["segment", str(tmp_path / "absent.ppm"), str(tmp_path / "o.ppm")])
    assert code == 1
    assert "swarmseg: error:" in capsys.readouterr().err


def test_too_many_clusters_reads_alike_from_fcm_and_kmeans(tmp_path, capsys):
    src = tmp_path / "in.ppm"
    write_block_image(src, colors=((250, 10, 10), (10, 250, 10)))
    errs = []
    for algo in ("fcm", "kmeans"):
        argv = ["segment", str(src), str(tmp_path / "o.ppm"), "--algo", algo, "--clusters", "3"]
        assert run_cli(argv) == 1
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == (
        "swarmseg: error: requested 3 clusters but the image has only 2 distinct pixel values\n"
    )


def test_malformed_input_is_a_runtime_error(tmp_path, capsys):
    src = tmp_path / "broken.ppm"
    src.write_bytes(b"P6\n4 4\n255\n\x00\x01")  # payload cut short
    code = run_cli(["segment", str(src), str(tmp_path / "o.ppm")])
    assert code == 1
    assert "swarmseg: error:" in capsys.readouterr().err


@pytest.mark.parametrize("message", ["", "Unable to allocate 12.0 GiB for an array"])
@pytest.mark.parametrize("command", ["segment", "compare"])
def test_out_of_memory_is_a_runtime_error(tmp_path, capsys, monkeypatch, command, message):
    def run_algorithm(*args, **kwargs):
        raise MemoryError(message)

    # one usable CPU: compare runs its engines in-process, where the patch applies
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(cli, "run_algorithm", run_algorithm)
    src = tmp_path / "in.ppm"
    write_block_image(src)
    code = run_cli([command, str(src), str(tmp_path / "out"), "--clusters", "3", *FAST])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"swarmseg: error: out of memory{': ' + message if message else ''}\n"


def test_compare_writes_all_algorithms_and_report(tmp_path):
    src = tmp_path / "in.ppm"
    outdir = tmp_path / "cmp"
    write_blob_image(src)
    code = run_cli(["compare", str(src), str(outdir), "--clusters", "3", *FAST])
    assert code == 0
    for algo in ("kmeans", "fcm", "psofcm", "apsof"):
        assert (outdir / f"{algo}.ppm").exists()
    doc = read_report(outdir / "report.json")
    assert [e["name"] for e in doc["algorithms"]] == [
        "kmeans", "fcm", "psofcm", "apsof",
    ]
    pair = doc["normalized"][0]
    assert (pair["a"], pair["b"]) == ("fcm", "apsof")
    assert abs((pair["norm_a"] + pair["norm_b"]) - 2.0) <= 1e-12


def test_compare_honors_report_flag(tmp_path):
    src = tmp_path / "in.ppm"
    outdir = tmp_path / "cmp"
    rpt = tmp_path / "elsewhere.json"
    write_blob_image(src)
    code = run_cli(
        [
            "compare", str(src), str(outdir),
            "--clusters", "3", "--report", str(rpt), *FAST,
        ]
    )
    assert code == 0
    assert rpt.exists()
    assert not (outdir / "report.json").exists()


def test_bench_requires_report_and_seeds(tmp_path):
    src = tmp_path / "in.ppm"
    write_blob_image(src)
    assert run_cli(["bench", str(src), "--seeds", "1", *FAST]) == 2
    assert (
        run_cli(
            ["bench", str(src), "--report", str(tmp_path / "b.json"), *FAST]
        )
        == 2
    )
    # a seed past 2**64 - 1 is a usage error before any seed runs, and
    # --seeds and --seed-count exclude each other
    report = tmp_path / "r.json"
    for seeds in (
        ["--seeds", f"0,{2**64}"],
        ["--seed", str(2**64 - 1), "--seed-count", "2"],
        ["--seeds", "3", "--seed-count", "5"],
    ):
        assert run_cli(["bench", str(src), *seeds, "--report", str(report), *FAST]) == 2
        assert not report.exists()


def test_bench_single_seed_matches_compare(tmp_path):
    src = tmp_path / "in.ppm"
    write_blob_image(src)
    outdir = tmp_path / "cmp"
    code = run_cli(
        [
            "compare", str(src), str(outdir),
            "--clusters", "3", "--seed", "3", *FAST,
        ]
    )
    assert code == 0
    compare_doc = read_report(outdir / "report.json")

    bench_path = tmp_path / "bench.json"
    code = run_cli(
        [
            "bench", str(src),
            "--clusters", "3", "--seeds", "3",
            "--report", str(bench_path), *FAST,
        ]
    )
    assert code == 0
    doc = read_report(bench_path)
    assert len(doc["benchmarks"]) == 1
    agg = doc["benchmarks"][0]
    assert agg["seeds"] == [3]
    want = {e["name"]: e["final_jm"] for e in compare_doc["algorithms"]}
    for entry in agg["algorithms"]:
        assert entry["mean_jm"] == want[entry["name"]]
        assert entry["min_jm"] == entry["max_jm"] == entry["mean_jm"]
    pair = agg["normalized"][0]
    assert abs((pair["mean_norm_a"] + pair["mean_norm_b"]) - 2.0) <= 1e-12


def test_bench_seed_count_expands_from_seed(tmp_path):
    src = tmp_path / "in.ppm"
    write_blob_image(src)
    bench_path = tmp_path / "bench.json"
    code = run_cli(
        [
            "bench", str(src),
            "--clusters", "3", "--seed", "5", "--seed-count", "3",
            "--report", str(bench_path), *FAST,
        ]
    )
    assert code == 0
    doc = read_report(bench_path)
    agg = doc["benchmarks"][0]
    assert agg["seeds"] == [5, 6, 7]
    rates = [a["win_rate"] for a in agg["algorithms"]]
    assert all(0.0 <= r <= 1.0 for r in rates)
    assert sum(rates) <= 1.0 + 1e-12


def test_bench_is_byte_repeatable(tmp_path):
    src = tmp_path / "in.ppm"
    write_blob_image(src)
    blobs = []
    for tag in ("x", "y"):
        path = tmp_path / f"{tag}.json"
        code = run_cli(
            [
                "bench", str(src),
                "--clusters", "3", "--seeds", "0,1",
                "--report", str(path), *FAST,
            ]
        )
        assert code == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
