"""Golden CLI outputs: segment and compare write recorded bytes on a fixed PPM.

Criterion 7 and the repeat-run tests compare a run with itself, so a
change that moves every run alike passes them. These SHA-256s pin the
written images and reports against recorded values instead. Each
report's ``wall_time_ms`` values are replaced by ``null`` before hashing,
so every other byte, the scores' full ``repr`` included, is pinned.
``compare`` runs once in-process (1 usable CPU) and once on a pool of 2.
"""

import hashlib
import re
from pathlib import Path

import pytest

from swarmseg import ALGORITHMS, processes
from swarmseg.imaging import write_ppm
from swarmseg.synthetic import gaussian_blob_image

from test_cli import FAST, run_cli

RUN = ["--clusters", "3", "--seed", "5", *FAST]

GOLDEN = {
    "segment-fcm": {
        "image": "5317eaa340728edc3b67271783d8655acc90c1cbaa63ee3767d9b21ddcc85266",
        "report": "36a8279353d6a49da49c30791d3ae62ae12014d6db0c40bfdb74cd98cb23eb04",
    },
    "segment-apsof": {
        "image": "5317eaa340728edc3b67271783d8655acc90c1cbaa63ee3767d9b21ddcc85266",
        "report": "71d6313e30f72c9f967bf8b4226dc8951ec7ae952525c9c1f36863a5cfa8ca67",
    },
    "compare": {
        "kmeans": "b45fa6767a17f8b0495f355eededda31d58deb0d773f55f294878a29bce8d239",
        "fcm": "5317eaa340728edc3b67271783d8655acc90c1cbaa63ee3767d9b21ddcc85266",
        "psofcm": "1a61cd2acfa6284c11d63d9e061eaddbe052cebe8e58b13712630d1f22baf4a5",
        "apsof": "5317eaa340728edc3b67271783d8655acc90c1cbaa63ee3767d9b21ddcc85266",
        "report": "2a83fd199b56641db3a69ff00bb94e99136ab3a18d771f17e293315a8480e6f9",
    },
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digest(path) -> str:
    text = re.sub(r'"wall_time_ms": [^,\n]+', '"wall_time_ms": null', path.read_text())
    return sha(text.encode())


@pytest.fixture
def source(tmp_path, monkeypatch):
    # a relative path, so the report's "image" field is the same in every run
    monkeypatch.chdir(tmp_path)
    image = gaussian_blob_image(
        [(200.0, 60.0, 40.0), (50.0, 180.0, 70.0), (60.0, 70.0, 210.0), (235.0, 235.0, 235.0)],
        width=20, height=14, sigma=9.0, seed=8,
    )
    path = Path("in.ppm")
    path.write_bytes(write_ppm(image))
    return path


@pytest.mark.parametrize("algo", ["fcm", "apsof"])
def test_segment_writes_the_golden_image_and_report(source, tmp_path, algo):
    out, report = tmp_path / "out.ppm", tmp_path / "report.json"
    argv = ["segment", str(source), str(out), "--algo", algo, "--report", str(report), *RUN]
    assert run_cli(argv) == 0
    got = {"image": sha(out.read_bytes()), "report": report_digest(report)}
    assert got == GOLDEN[f"segment-{algo}"]


@pytest.mark.parametrize("cpus", [1, 2])
def test_compare_writes_the_golden_images_and_report(source, tmp_path, monkeypatch, cpus):
    monkeypatch.setattr(processes, "usable_cpus", lambda: cpus)
    out = tmp_path / "out"
    assert run_cli(["compare", str(source), str(out), *RUN]) == 0
    got = {name: sha((out / f"{name}.ppm").read_bytes()) for name in ALGORITHMS}
    got["report"] = report_digest(out / "report.json")
    assert got == GOLDEN["compare"]
