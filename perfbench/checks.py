"""Correctness checks computed apart from the program.

Nothing here imports cheatlab. Each check recomputes a documented
quantity with plain numpy or the standard library, or tests a property
the method must have, and raises CheckFailed on the first disagreement.
`selftest.py` plants a wrong input for each of them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

LSTM_GATES = ("i", "f", "o", "g")


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_close(name: str, got: float, want: float, rel: float) -> None:
    require(abs(got - want) <= rel * max(abs(want), abs(got)),
            f"{name}: {got!r} != {want!r} (relative tolerance {rel})")


# ---------------------------------------------------------------------------
# corridor-evolve


def check_nondecreasing(name: str, values) -> None:
    values = list(values)
    for i, (a, b) in enumerate(zip(values, values[1:])):
        require(b >= a, f"{name} fell from {a!r} to {b!r} at index {i + 1}")


def _controller_layout(k: int, h_dim: int, mlp_hidden) -> list[tuple[str, tuple]]:
    """Genome layout documented by policy.controller_template: per LSTM
    gate w (h, k), u (h, h), b (h); then the head's (w, b) pairs."""
    layout = []
    for gate in LSTM_GATES:
        layout += [(f"w{gate}", (h_dim, k)), (f"u{gate}", (h_dim, h_dim)),
                   (f"b{gate}", (h_dim,))]
    sizes = [k + h_dim, *mlp_hidden, 4]
    for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
        layout += [(f"mw{i}", (n_out, n_in)), (f"mb{i}", (n_out,))]
    return layout


def imitation_score(genome, episodes, k: int, h_dim: int, mlp_hidden,
                    out_scale) -> float:
    """Negative mean squared action error of one genome, teacher-forced.

    `episodes` is a list of (latents (T, k), expert actions (T, 4)). The
    recurrence is the one controller_step documents: sigmoid i, f, o,
    tanh g, c' = f c + i g, h' = o tanh(c'), then two tanh layers over
    concat(z, h'), a linear output scaled by out_scale and clamped.
    """
    genome = np.asarray(genome, dtype=np.float64)
    w, at = {}, 0
    for name, shape in _controller_layout(k, h_dim, mlp_hidden):
        n = math.prod(shape)
        w[name] = genome[at:at + n].reshape(shape)
        at += n
    require(at == genome.size, f"genome has {genome.size} genes, layout {at}")
    scale = np.asarray(out_scale, dtype=np.float64)
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))  # noqa: E731
    total, count = 0.0, 0
    for zs, acts in episodes:
        h = np.zeros(h_dim)
        c = np.zeros(h_dim)
        for z, want in zip(zs, acts):
            pre = {g: w[f"w{g}"] @ z + w[f"u{g}"] @ h + w[f"b{g}"]
                   for g in LSTM_GATES}
            c = sig(pre["f"]) * c + sig(pre["i"]) * np.tanh(pre["g"])
            h = sig(pre["o"]) * np.tanh(c)
            y = np.tanh(w["mw0"] @ np.concatenate([z, h]) + w["mb0"])
            y = np.tanh(w["mw1"] @ y + w["mb1"])
            out = np.clip((w["mw2"] @ y + w["mb2"]) * scale, -scale, scale)
            total += float(np.sum((out - want) ** 2))
            count += 4
    return -total / count


def check_evolution(history_best, best_fitness: float, own_best: float,
                    zero_fitness: float, actions: np.ndarray) -> None:
    """The four corridor-evolve properties."""
    check_nondecreasing("best-so-far fitness", history_best)
    check_close("best genome score vs plain-numpy recurrence",
                best_fitness, own_best, 1e-9)
    check_close("zero genome score vs mean squared expert action",
                zero_fitness, -float(np.mean(actions ** 2)), 1e-12)
    require(-best_fitness < -zero_fitness,
            f"best error {-best_fitness!r} not below zero error "
            f"{-zero_fitness!r}")


# ---------------------------------------------------------------------------
# room-flight


def _box_distance(x: float, y: float, boxes: np.ndarray) -> np.ndarray:
    """Euclidean distance from a point to each axis-aligned box (N, 4)."""
    dx = np.maximum.reduce([boxes[:, 0] - x, np.zeros(len(boxes)), x - boxes[:, 2]])
    dy = np.maximum.reduce([boxes[:, 1] - y, np.zeros(len(boxes)), y - boxes[:, 3]])
    return np.hypot(dx, dy)


def disc_clear(x: float, y: float, boxes, bounds, r: float) -> bool:
    """True when a disc of radius r around (x, y) touches no box or wall
    (the rule the worldsim docstrings state)."""
    bx0, by0, bx1, by1 = bounds
    if min(x - bx0, bx1 - x, y - by0, by1 - y) < r - 1e-12:
        return False
    return not (len(boxes) and np.any(_box_distance(x, y, boxes) < r - 1e-12))


def in_square_inflation(x: float, y: float, boxes, bounds, r: float) -> bool:
    """True when (x, y) lies in a wall band or box grown by r on every side."""
    bx0, by0, bx1, by1 = bounds
    if x < bx0 + r or x > bx1 - r or y < by0 + r or y > by1 - r:
        return True
    if not len(boxes):
        return False
    return bool(np.any((x >= boxes[:, 0] - r) & (x <= boxes[:, 2] + r)
                       & (y >= boxes[:, 1] - r) & (y <= boxes[:, 3] + r)))


def check_flight(name: str, states: np.ndarray, crashed_flags, ended_crashed: bool,
                 steps: int, max_steps: int, boxes, bounds, r: float) -> None:
    """One episode. `states` holds (x, y, odometer) rows of every recorded
    state in order, the last being where the episode ended."""
    for t in range(len(states) - 1):
        x, y, _ = states[t]
        require(not crashed_flags[t], f"{name}: state {t} marked crashed")
        require(disc_clear(x, y, boxes, bounds, r),
                f"{name}: state {t} at ({x:.4f}, {y:.4f}) is within "
                f"{r} of a box or wall but not crashed")
    x, y, _ = states[-1]
    if ended_crashed:
        require(in_square_inflation(x, y, boxes, bounds, r),
                f"{name}: crashed at ({x:.4f}, {y:.4f}), clear of every "
                f"inflated box and wall")
    else:
        require(steps == max_steps,
                f"{name}: ended uncrashed after {steps} of {max_steps} steps")
        require(disc_clear(x, y, boxes, bounds, r),
                f"{name}: final state within {r} of a box or wall")
    path = np.concatenate(
        [[0.0], np.cumsum(np.hypot(np.diff(states[:, 0]), np.diff(states[:, 1])))])
    err = np.max(np.abs(path - states[:, 2]))
    require(err <= 1e-9 * max(1.0, path[-1]),
            f"{name}: odometer differs from summed displacement by {err:.3g}")


def step_pose(x: float, y: float, yaw: float, action, dt: float,
              v_max: float, yaw_rate_max: float) -> tuple[float, float, float]:
    """Kinematics as step_dynamics documents them: yaw first, then the
    clamped body-frame planar velocity."""
    vx, vy, _vz, wz = action
    vx = min(max(vx, -v_max), v_max)
    vy = min(max(vy, -v_max), v_max)
    wz = min(max(wz, -yaw_rate_max), yaw_rate_max)
    yaw = yaw + dt * wz
    c, s = math.cos(yaw), math.sin(yaw)
    return x + dt * (vx * c - vy * s), y + dt * (vx * s + vy * c), yaw


def check_scan_invariants(name: str, classes: np.ndarray, depth: np.ndarray) -> None:
    require(np.isin(classes, (0, 1, 2)).all(), f"{name}: class outside {{0, 1, 2}}")
    require(((depth >= 0.0) & (depth <= 1.0)).all(), f"{name}: depth outside [0, 1]")
    require(np.array_equal(classes == 0, depth == 0.0),
            f"{name}: class 0 and depth 0 disagree")


def render_scan(x: float, y: float, yaw: float, boxes: np.ndarray, bounds,
                fov_deg: float, width: int, d_max: float):
    """Own scanline: each ray against every box edge and wall segment.

    Column 0 looks along yaw + fov/2, the last along yaw - fov/2. Boxes
    are obstacles (class 2); rooms hold no gates. Returns (classes, depth,
    exact distance).
    """
    fov = math.radians(fov_deg)
    ang = yaw + fov / 2.0 - fov * np.arange(width) / (width - 1)
    dx, dy = np.cos(ang)[:, None], np.sin(ang)[:, None]
    bx0, by0, bx1, by1 = bounds
    walls = np.array([[bx0, by0, bx0, by1], [bx1, by0, bx1, by1],
                      [bx0, by0, bx1, by0], [bx0, by1, bx1, by1]])
    b = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    edges = np.concatenate([
        walls,
        np.stack([b[:, 0], b[:, 1], b[:, 0], b[:, 3]], 1),
        np.stack([b[:, 2], b[:, 1], b[:, 2], b[:, 3]], 1),
        np.stack([b[:, 0], b[:, 1], b[:, 2], b[:, 1]], 1),
        np.stack([b[:, 0], b[:, 3], b[:, 2], b[:, 3]], 1),
    ])
    vertical = edges[:, 0] == edges[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_v = (edges[None, :, 0] - x) / dx
        s_v = y + t_v * dy
        ok_v = (vertical & (s_v >= edges[:, 1]) & (s_v <= edges[:, 3]))
        t_h = (edges[None, :, 1] - y) / dy
        s_h = x + t_h * dx
        ok_h = (~vertical & (s_h >= edges[:, 0]) & (s_h <= edges[:, 2]))
    t = np.where(vertical, np.where(ok_v, t_v, np.inf), np.where(ok_h, t_h, np.inf))
    t = np.where(np.isfinite(t) & (t > 0.0), t, np.inf)
    dist = t.min(axis=1)
    visible = dist < d_max
    depth = np.where(visible, np.clip(1.0 - dist / d_max, 0.0, 1.0), 0.0)
    classes = np.where(visible, 2, 0)
    return classes, depth, dist


DEPTH_TOL = 1e-9  # per column


def check_rerender(name: str, classes, depth, own, d_max: float) -> None:
    """Column-by-column agreement with render_scan. Depth may differ by
    DEPTH_TOL; a column whose hit lies within DEPTH_TOL of d_max is
    skipped, since either side of the visibility cut is right there."""
    own_classes, own_depth, dist = own
    sure = np.abs(dist - d_max) > DEPTH_TOL
    bad = sure & ((own_classes != classes) | (np.abs(own_depth - depth) > DEPTH_TOL))
    require(not bad.any(),
            f"{name}: own ray-box render disagrees in columns "
            f"{np.flatnonzero(bad).tolist()}")


# ---------------------------------------------------------------------------
# pipeline


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_container(path) -> tuple[bytes, dict]:
    """Own parse of the documented container layout. Returns the raw
    record bytes (the params digest stream of a checkpoint) and the JSON
    trailer, after checking the trailing sha256."""
    blob = Path(path).read_bytes()
    require(len(blob) > 44 and blob[:4] == b"LCLB", f"{path}: not a container")
    payload, stored = blob[:-32], blob[-32:]
    require(hashlib.sha256(payload).digest() == stored, f"{path}: checksum")
    (count,) = struct.unpack_from("<I", payload, 8)
    at = 12
    for _ in range(count):
        (n,) = struct.unpack_from("<I", payload, at)
        (rank,) = struct.unpack_from("<I", payload, at + 4 + n)
        dims = struct.unpack_from(f"<{rank}I", payload, at + 8 + n)
        at += 8 + n + 4 * rank + 8 * math.prod(dims)
    (meta_len,) = struct.unpack_from("<Q", payload, at)
    require(at + 8 + meta_len == len(payload), f"{path}: trailer length")
    return payload[12:at], json.loads(payload[at + 8:])


def check_digest_chain(summaries: dict[str, dict], out_dir) -> None:
    """Each stage's recorded input digest equals the output digest the
    producing stage recorded and the sha256 of the file on disk."""
    produced = {}
    for stage, summary in summaries.items():
        for art, digest in summary["outputs"].items():
            require(art not in produced, f"{art} produced twice")
            produced[art] = (stage, digest)
    for stage, summary in summaries.items():
        for art, digest in summary["inputs"].items():
            require(art in produced, f"{stage}: input {art} has no producer")
            src, recorded = produced[art]
            require(digest == recorded,
                    f"{stage}: input {art} digest {digest[:12]} != "
                    f"{recorded[:12]} recorded by {src}")
    for art, (stage, recorded) in produced.items():
        actual = sha256_file(Path(out_dir) / art)
        require(actual == recorded,
                f"{art}: file hashes to {actual[:12]}, {stage} recorded "
                f"{recorded[:12]}")


def check_frozen(out_dir, train_cheat_summary: dict) -> None:
    """Frozen digests stored with the substitute encoder equal the
    digests of the VAE and controller checkpoints, hashed here."""
    own = {}
    for name in ("vae", "controller"):
        records, meta = read_container(Path(out_dir) / f"{name}.ckpt")
        own[name] = hashlib.sha256(records).hexdigest()
        require(meta["params_digest"] == own[name],
                f"{name}.ckpt: recorded params digest != own digest")
    _, cheat_meta = read_container(Path(out_dir) / "cheat.ckpt")
    require(cheat_meta["frozen"] == own,
            f"cheat.ckpt frozen digests {cheat_meta['frozen']} != {own}")
    require(train_cheat_summary["metrics"]["frozen"] == own,
            "train-cheat summary frozen digests != checkpoint digests")


def check_zero_policy(out_dir) -> None:
    with open(Path(out_dir) / "eval_report.csv", newline="") as fh:
        rows = {row["method"]: row for row in csv.DictReader(fh)}
    require(float(rows["zero"]["mean_distance_m"]) == 0.0,
            f"zero policy flew {rows['zero']['mean_distance_m']} m")
    require(float(rows["zero"]["crash_rate"]) == 0.0, "zero policy crashed")


def check_training(summaries: dict[str, dict], out_dir) -> None:
    for stage in ("train-vae", "train-cheat", "train-baseline"):
        m = summaries[stage]["metrics"]
        require(m["loss_last"] < m["loss_first"],
                f"{stage}: loss {m['loss_first']!r} -> {m['loss_last']!r}")
    lines = (Path(out_dir) / "evolution_history.csv").read_text().split()[1:]
    best = [float(line.split(",")[1]) for line in lines]
    mean0 = float(lines[0].split(",")[2])
    check_nondecreasing("evolution best", best)
    require(best[-1] > mean0, "evolution best never beat the first mean")


def check_belief_strip(path, tiles: int, width: int, band_height: int) -> None:
    blob = Path(path).read_bytes()
    require(blob.startswith(b"P5\n"), "belief strip is not a binary PGM")
    end = blob.index(b"\n255\n") + 5  # comments precede "W H", then maxval
    w, h = map(int, blob[:end].split(b"\n")[-3].split())
    require((w, h) == (tiles * width, 2 * band_height),
            f"belief strip is {w}x{h}, {tiles} tiles need "
            f"{tiles * width}x{2 * band_height}")
    require(len(blob) - end == w * h,
            f"belief strip holds {len(blob) - end} pixels, header says {w * h}")


def check_repeat(first: dict[str, str], later: dict[str, str], rep: int) -> None:
    diff = sorted(a for a in first if later.get(a) != first[a])
    require(not diff and set(first) == set(later),
            f"repeat {rep}: artifacts differ from the first run: {diff}")
