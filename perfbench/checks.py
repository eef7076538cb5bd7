"""Output checks computed apart from swarmseg.

Every reference here is plain numpy written for the benchmark: it decodes
PPM bytes itself, box-averages itself and evaluates the fuzzy objective
with its own closed form. Nothing compares against a stored copy of an
earlier run's output. A check returns a list of failure messages; an empty
list means the output passed.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

# Relative slack for comparing two float64 evaluations of the same sum in a
# different order: far above the ~1e-13 seen between summation orders, far
# below any change a wrong center or membership would cause.
JM_RTOL = 1e-9
# Same slack as the acceptance gate's objective-monotonicity criterion.
MONOTONE_RTOL = 1e-9
# Two exact center distances this close count as a floating-point near-tie,
# where either label is a correct nearest-center choice.
NEAR_TIE_RTOL = 1e-9


def parse_ppm(data: bytes) -> np.ndarray:
    """Decode a canonical binary PPM ('P6\\n<w> <h>\\n255\\n' + RGB) to (h, w, 3) uint8."""
    fields = data.split(b"\n", 3)
    if len(fields) != 4 or fields[0] != b"P6" or fields[2] != b"255":
        raise ValueError("not a canonical P6 header")
    width, height = (int(v) for v in fields[1].split())
    payload = fields[3]
    if len(payload) != width * height * 3:
        raise ValueError(f"payload {len(payload)} bytes for {width}x{height}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)


def box_average(rgb: np.ndarray, k: int) -> np.ndarray:
    """k x k block means of an (h, w, 3) image whose sides are multiples of k."""
    h, w, _ = rgb.shape
    if h % k or w % k:
        raise ValueError("image sides must be multiples of the block size")
    blocks = rgb.astype(np.float64).reshape(h // k, k, w // k, k, 3)
    return blocks.sum(axis=(1, 3)).reshape(-1, 3) / float(k * k)


def center_d2(pixels: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(N, C) squared distances, built one channel at a time."""
    pixels = np.asarray(pixels, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    d2 = np.zeros((pixels.shape[0], centers.shape[0]))
    for ch in range(pixels.shape[1]):
        diff = pixels[:, ch, None] - centers[None, :, ch]
        d2 += diff * diff
    return d2


def _chunks(n: int):
    # Bounded temporaries, so the checks never set the process's peak memory.
    step = 1 << 17
    for lo in range(0, n, step):
        yield slice(lo, min(lo + step, n))


def reference_jm(pixels: np.ndarray, centers: np.ndarray) -> float:
    """Fuzzy objective at m = 2 and optimal memberships, in closed form.

    With m = 2 the optimal memberships are u_ij = (1/D_ij) / sum_k (1/D_ik),
    so each pixel contributes sum_j u_ij^2 D_ij = 1 / sum_k (1/D_ik): the
    harmonic combination of its squared distances. A pixel sitting on a
    center contributes 0.
    """
    total = 0.0
    for part in _chunks(len(pixels)):
        d2 = center_d2(pixels[part], centers)
        on_center = (d2 == 0.0).any(axis=1)
        total += float(np.sum(1.0 / (1.0 / d2[~on_center]).sum(axis=1)))
    return total


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def check_jm(label: str, program: float, reference: float) -> list[str]:
    if _close(program, reference, JM_RTOL):
        return []
    return [f"{label}: J_m {program!r} differs from reference {reference!r}"]


def check_non_increasing(label: str, values, rtol: float = 0.0) -> list[str]:
    v = np.asarray(values, dtype=np.float64)
    rises = v[1:] - v[:-1]
    slack = rtol * np.maximum(np.abs(v[:-1]), 1.0)
    bad = np.nonzero(rises > slack)[0]
    if bad.size == 0:
        return []
    i = int(bad[0])
    return [f"{label}: rises at step {i + 1} ({v[i]!r} -> {v[i + 1]!r})"]


def check_pair(label: str, norm_a: float, norm_b: float, jm_a: float, jm_b: float) -> list[str]:
    """Mean-normalized pair: sums to 2 and equals each value over the pair mean."""
    out = []
    if abs((norm_a + norm_b) - 2.0) > 1e-12:
        out.append(f"{label}: norm_a + norm_b = {norm_a + norm_b!r}, not 2")
    mean = (jm_a + jm_b) / 2.0
    if not (_close(norm_a, jm_a / mean, 1e-12) and _close(norm_b, jm_b / mean, 1e-12)):
        out.append(f"{label}: normalized pair does not match J_m / mean")
    return out


def check_quantized(
    label: str, out_rgb: np.ndarray, pixels: np.ndarray, centers: np.ndarray, max_colors: int
) -> list[str]:
    """The output repaints each pixel with its nearest center, rounded half up.

    The palette is the program's centers rounded half up and clamped. A pixel
    whose two nearest centers are a floating-point near-tie may take either.
    The image may use at most ``max_colors`` distinct colors.
    """
    out = []
    flat = out_rgb.reshape(-1, 3)
    if flat.shape[0] != pixels.shape[0]:
        return [f"{label}: {flat.shape[0]} output pixels for {pixels.shape[0]} inputs"]
    keys = (flat[:, 0].astype(np.uint32) << 16) | (flat[:, 1].astype(np.uint32) << 8) | flat[:, 2]
    n_colors = np.unique(keys).size
    if n_colors > max_colors:
        out.append(f"{label}: {n_colors} colors, at most {max_colors} allowed")
    centers = np.asarray(centers, dtype=np.float64)
    palette = np.clip(np.floor(centers + 0.5), 0, 255).astype(np.uint8)
    wrong_total = 0
    for part in _chunks(len(pixels)):
        d2 = center_d2(pixels[part], centers)
        got = flat[part]
        order = np.argsort(d2, axis=1, kind="stable")
        wrong = np.any(got != palette[order[:, 0]], axis=1)
        if wrong.any() and d2.shape[1] > 1:
            rows = np.nonzero(wrong)[0]
            best = d2[rows, order[rows, 0]]
            second = d2[rows, order[rows, 1]]
            tie = (second - best) <= NEAR_TIE_RTOL * np.maximum(best, 1.0)
            takes_second = np.all(got[rows] == palette[order[rows, 1]], axis=1)
            wrong[rows[tie & takes_second]] = False
        wrong_total += int(wrong.sum())
    if wrong_total:
        out.append(f"{label}: {wrong_total} pixels not painted with their nearest center")
    return out


def check_recovered(label: str, centers: np.ndarray, means, tol: float) -> list[str]:
    """Each generating mean has its own recovered center within ``tol`` levels."""
    centers = np.asarray(centers, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    dist = np.sqrt(center_d2(means, centers))
    match = dist.argmin(axis=1)
    out = []
    if len(set(match.tolist())) != len(means):
        out.append(f"{label}: two generating means share one recovered center")
    worst = float(dist[np.arange(len(means)), match].max())
    if not worst <= tol:
        out.append(f"{label}: a center lies {worst:.3f} levels from its mean, limit {tol}")
    return out


def report_digest(text: str) -> str:
    """SHA-256 of a report without its wall-clock fields and input path."""
    doc = json.loads(text)
    doc.pop("image", None)
    for entry in doc.get("algorithms", []):
        entry.pop("wall_time_ms", None)
    return sha256(json.dumps(doc, sort_keys=True).encode())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
