"""Seeded inputs for the benchmark workloads.

Every workload has a fixed scene set that depends only on the profile,
never on the run seed: the run seed only orders the ops (see run.py), so
accuracy figures compare across runs. Frames are rendered once by the
ray-cast oracle, written as PPM and cached under a key that hashes the
whole ``bandpointer`` source and this file, so a changed renderer can
never be served stale frames.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from bandpointer import synthetic
from bandpointer.cli import Config
from bandpointer.imaging import load_image, load_pgm, save_pgm, save_ppm

# pattern colors of the test scenes; the background stays unsaturated
BAND_RGB = {
    1: (0.90, 0.702, 0.06),
    2: (0.702, 0.90, 0.06),
    3: (0.10, 0.85, 0.10),
}
EDGE_DISTANCES_MM = [22, 47, 67, 95, 116, 142, 162, 186, 209, 231]
PATTERNS = {
    "rg": ["red", "green"] * 5 + ["red"],
    "rgb": ["red", "green", "red", "blue"] + ["red", "green"] * 3 + ["red"],
}
GRID_ROLL_DEG = 4.0
# blur sigmas in full-sensor px; a frame binned b x b blurs by sigma / b
GRID_BLURS = (0.0, 3.0)
CALIB_BLUR = 2.0
BINNING = 2  # frame workloads render the sensor binned 2x2
SETUP_REPS = 3  # set-ups per run; setup_s is their median
MC_NOISE_PX = 0.5
MC_MAX_HIDDEN = 4
WORKLOADS = ("frames-grid", "junctions-mc")


@dataclass(frozen=True)
class Profile:
    """Full-resolution camera, pointer and scene-set size.

    ``bench`` is the README sensor (2448x2048 px, f = 3600 px) with the
    1.5 mm pointer of the acceptance scenes. ``junctions-mc`` uses it as
    is; the frame workloads bin it 2x2 (1224x1024 px, f = 1800 px) and
    double the pointer diameter, so bands stay as many pixels wide as on
    the full frame and the README detection radii (r1=3, r2=2) apply
    unchanged, while the pointer is half as many pixels long. ``smoke``
    is the same scene at half that resolution with few ops, for the
    self-tests.
    """

    name: str
    sensor_size: tuple[int, int]
    focal_px: float
    diameter_mm: float
    depths_mm: tuple[float, ...]
    tilts_deg: tuple[float, ...]
    mc_trials_per_cell: int


PROFILES = {
    "bench": Profile(
        "bench", (2448, 2048), 3600.0, 1.5,
        tuple(np.linspace(400.0, 610.0, 5)), tuple(np.linspace(0.0, 71.0, 5)),
        mc_trials_per_cell=6,
    ),
    "smoke": Profile(
        "smoke", (1224, 1024), 1800.0, 3.0,
        (400.0, 610.0), (0.0, 35.5),
        mc_trials_per_cell=1,
    ),
}


def config_dict(profile: Profile, pattern: str = "rg", binning: int = 1) -> dict:
    """Config of the profile's camera binned `binning` x `binning`."""
    w, h = (n // binning for n in profile.sensor_size)
    f = profile.focal_px / binning
    return {
        "camera": {
            "image_size_px": [w, h],
            "k_row_major": [f, 0.0, (w - 1) / 2, 0.0, f, (h - 1) / 2, 0.0, 0.0, 1.0],
            "rotation_row_major": [1, 0, 0, 0, 1, 0, 0, 0, 1],
            "translation_mm": [0, 0, 0],
        },
        "pointer": {
            "total_length_mm": 251.0,
            "edge_distances_mm": EDGE_DISTANCES_MM,
            "edge_diameters_mm": [profile.diameter_mm * binning] * len(EDGE_DISTANCES_MM),
            "band_colors": PATTERNS[pattern],
        },
        "colors": {"red": 1, "green": 2, "blue": 3},
        "detection": {"r1": 3, "r2": 2},
    }


def _template(config: Config, **kw) -> synthetic.SceneSpec:
    return synthetic.SceneSpec(
        pose=None,  # type: ignore[arg-type]  # replaced by sweep()
        spec=config.pointer, band_colors=BAND_RGB, **kw,
    )


def calibration_scene(config: Config, binning: int) -> synthetic.SceneSpec:
    """450 mm, 5 deg tilt, roll 3, blur 2 full-size px: the test suite's
    calibration view."""
    return synthetic.sweep(
        [450.0], [5.0], _template(config, blur_sigma=CALIB_BLUR / binning),
        config.camera, roll_deg=3.0,
    )[0].scene


def grid_scenes(profile: Profile, config: Config,
                binning: int) -> list[tuple[str, synthetic.SceneSpec]]:
    """The criterion-7 family: depth x tilt grid at roll 4, sharp and blurred.

    Names give the blur in full-sensor px.
    """
    cells = synthetic.sweep(
        profile.depths_mm, profile.tilts_deg, _template(config), config.camera,
        roll_deg=GRID_ROLL_DEG,
    )
    return [
        (
            f"d{c.depth_mm:.1f}-a{c.angle_deg:.1f}-b{blur:g}",
            replace(c.scene, blur_sigma=blur / binning),
        )
        for c in cells
        for blur in GRID_BLURS
    ]


@dataclass
class Truth:
    """Ground truth one op is scored against."""

    name: str
    tip: np.ndarray
    direction: np.ndarray
    junctions: dict[int, np.ndarray]  # visible spec edge index -> midpoint px


def _truth(name: str, gt: synthetic.GroundTruth) -> Truth:
    return Truth(
        name=name,
        tip=np.asarray(gt.pose.tip, dtype=np.float64),
        direction=np.asarray(gt.pose.direction, dtype=np.float64),
        junctions={e.index: 0.5 * (e.p_a + e.p_b) for e in gt.visible_edges()},
    )


@dataclass
class FrameInput:
    path: Path
    truth: Truth


@dataclass
class JunctionTrial:
    gt: synthetic.GroundTruth  # visibility already reflects the hidden edges
    config: Config
    noise_seed: int
    truth: Truth


@dataclass
class Workload:
    config_data: dict  # config of the binned frame camera, parsed at set-up
    calib_image: object  # RasterImage
    calib_mask: np.ndarray
    items: list  # FrameInput or JunctionTrial, in canonical order
    cell_ops: list[int]  # one item per cell of a cross through the grid
    scenes: list[tuple[str, synthetic.SceneSpec]]  # generation timing
    scene_config: Config  # the camera the scenes are generated for

    @property
    def renders(self) -> bool:
        """Whether the ops read rendered frames."""
        return isinstance(self.items[0], FrameInput)


def source_digest(package_dir: Path) -> str:
    """Hash of a package's Python source plus this generator."""
    h = hashlib.sha256()
    for path in sorted(package_dir.glob("*.py")) + [Path(__file__)]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def source_key(profile: Profile, workload: str) -> str:
    """Cache key over every renderer input: package source, this file, profile."""
    h = hashlib.sha256(source_digest(Path(synthetic.__file__).parent).encode())
    h.update(repr((profile, workload)).encode())
    return h.hexdigest()[:16]


def _render_frames(dest: Path, scenes, calib, config: Config) -> None:
    (dest / "frames").mkdir(parents=True)
    img, _ = synthetic.render(calib, config.camera, config.image_size)
    save_ppm(img, dest / "calib.ppm")
    save_pgm(
        synthetic.render_class_mask(calib, config.camera, config.image_size),
        dest / "calib_mask.pgm",
    )
    for k, (_, scene) in enumerate(scenes):
        img, _ = synthetic.render(scene, config.camera, config.image_size)
        save_ppm(img, dest / "frames" / f"{k:03d}.ppm")


def _cached_frames(cache_dir: Path, key: str, scenes, calib, config) -> Path:
    """Directory of rendered frames, built atomically on first use."""
    final = cache_dir / key
    if final.is_dir():
        return final
    tmp = cache_dir / f"{key}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        _render_frames(tmp, scenes, calib, config)
        os.rename(tmp, final)
    except OSError:
        if not final.is_dir():
            raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def build(workload: str, profile: Profile, cache_dir: Path) -> Workload:
    data = config_dict(profile, binning=BINNING)
    config = Config.from_dict(data)
    if workload == "junctions-mc":
        scene_config = Config.from_dict(config_dict(profile))
        scenes, items = _junction_trials(profile)
        rendered = []
    else:
        scene_config = config
        scenes = rendered = grid_scenes(profile, config, BINNING)
    key = f"{workload}-{profile.name}-{source_key(profile, workload)}"
    root = _cached_frames(cache_dir, key, rendered, calibration_scene(config, BINNING), config)
    if rendered:
        items = [
            FrameInput(
                root / "frames" / f"{k:03d}.ppm",
                _truth(name, synthetic.ground_truth(scene, config.camera, config.image_size)),
            )
            for k, (name, scene) in enumerate(scenes)
        ]
    return Workload(
        data, load_image(root / "calib.ppm"),
        load_pgm(root / "calib_mask.pgm"), items, _cell_ops(workload, profile),
        scenes, scene_config,
    )


def _cell_ops(workload: str, profile: Profile) -> list[int]:
    """Index of one op per grid cell at the middle depth or the middle tilt:
    its sharp frame, or its trial 0 with the RG and RGB patterns alternating
    from cell to cell."""
    nd, nt = len(profile.depths_mm), len(profile.tilts_deg)
    cells = [d * nt + t for d in range(nd) for t in range(nt)
             if d == nd // 2 or t == nt // 2]
    if workload != "junctions-mc":
        return [c * len(GRID_BLURS) for c in cells]
    per_cell = profile.mc_trials_per_cell
    return [((c % 2) * nd * nt + c) * per_cell for c in cells]


def _junction_trials(profile: Profile):
    """Grid cells x both band patterns on the full sensor, each trial
    hiding 0-4 random edges."""
    trials = []
    scenes = []
    for pattern in ("rg", "rgb"):
        config = Config.from_dict(config_dict(profile, pattern))
        for name, scene in grid_scenes(profile, config, 1)[:: len(GRID_BLURS)]:
            cell = len(scenes)
            scenes.append((f"{pattern}-{name}", scene))
            gt = synthetic.ground_truth(scene, config.camera, config.image_size)
            rng = np.random.default_rng(cell)
            for t in range(profile.mc_trials_per_cell):
                visible = [e.index for e in gt.visible_edges()]
                hidden = set(rng.choice(
                    visible, size=int(rng.integers(0, MC_MAX_HIDDEN + 1)), replace=False
                ).tolist())
                trial_gt = synthetic.GroundTruth(
                    edges=[replace(e, visible=e.visible and e.index not in hidden)
                           for e in gt.edges],
                    pose=gt.pose,
                )
                trials.append(JunctionTrial(
                    trial_gt, config, noise_seed=1000 * cell + t,
                    truth=_truth(f"{pattern}-{name}-t{t}", trial_gt),
                ))
    return scenes, trials


def generation_ms(fn, scenes, config: Config) -> float:
    """Median wall time of fn(scene, camera, size) over the scenes."""
    times = []
    for _, scene in scenes:
        t0 = time.perf_counter()
        fn(scene, config.camera, config.image_size)
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times)) if times else 0.0


def digest(work: Workload) -> str:
    """Hash of the generated inputs: frames, masks and ground truth."""
    h = hashlib.sha256()
    h.update(json.dumps(work.config_data, sort_keys=True).encode())
    h.update(np.ascontiguousarray(work.calib_image.pixels).tobytes())
    h.update(np.ascontiguousarray(work.calib_mask).tobytes())
    for item in work.items:
        t = item.truth
        h.update(t.name.encode())
        h.update(t.tip.tobytes() + t.direction.tobytes())
        for idx in sorted(t.junctions):
            h.update(str(idx).encode() + t.junctions[idx].tobytes())
        if isinstance(item, FrameInput):
            h.update(item.path.read_bytes())
        else:
            h.update(str(item.noise_seed).encode())
    return h.hexdigest()
