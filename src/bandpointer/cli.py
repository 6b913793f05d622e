"""Command-line interface: calibrate colors, probe frames, track, evaluate.

Commands share a JSON config carrying the camera, the pointer
measurements and the detection parameters. Failure causes map to
distinct exit codes so batch callers can tell them apart.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import synthetic
from .association import (
    PointerSpec,
    align_labels_dp,
    associate_ransac,
)
from .color_model import (
    CLASS_ID,
    ColorClassSet,
    calibrate_colors,
    deserialize_color_set,
    serialize_color_set,
)
from .detection import DetectionParams, DetectionResult, detect_pointer
from .errors import (
    AssociationError,
    BandPointerError,
    ConfigError,
    DetectionError,
    ImageFormatError,
    PoseError,
    Field,
    built,
    integer,
    listed,
    mapping,
    name_in,
    number,
    section,
)
from .imaging import DistortionModel, RasterImage, load_image, load_pgm
from .pose import CameraModel, PoseEstimate, estimate_pose

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_POINTER_NOT_FOUND = 2
EXIT_NO_ASSOCIATION = 3
EXIT_POSE_FAILURE = 4

ENV_CONFIG = "BANDPOINTER_CONFIG"
ENV_COLOR_MODEL = "BANDPOINTER_COLOR_MODEL"


@dataclass(frozen=True)
class Config:
    """Typed view of the JSON config, read by its field table,
    CONFIG_FIELDS."""

    camera: CameraModel
    image_size: tuple[int, int]
    pointer: PointerSpec
    detection: DetectionParams
    color_names: dict[str, int]  # name -> class id

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        """The config in data, which is left as it is; ConfigError leads
        with the path at fault or, for a constructor's check across a
        section's fields, with the section (camera: R must be a rotation
        matrix)."""
        values = CONFIG_FIELDS(data)
        cam, ptr = values["camera"], values["pointer"]
        camera = built(
            "camera", CameraModel,
            K=np.reshape(cam["k_row_major"], (3, 3)),
            R=np.reshape(cam["rotation_row_major"], (3, 3)),
            t=cam["translation_mm"],
            distortion=DistortionModel(**cam.get("distortion", {})),
        )
        spec = built(
            "pointer", PointerSpec,
            distances_mm=ptr["edge_distances_mm"],
            radii_mm=np.array(ptr["edge_diameters_mm"]) / 2.0,
            band_labels=ptr["band_colors"],
            total_length_mm=ptr["total_length_mm"],
        )
        params = built("detection", DetectionParams, **values.get("detection", {}))
        size = tuple(cam["image_size_px"])
        # erode_disk builds a (2 r1 + 1)^2 footprint
        if 2 * params.r1 + 1 > min(size):
            raise ConfigError(
                f"detection.r1 must be at most {(min(size) - 1) // 2} for a "
                f"{size[0]}x{size[1]} frame, got {params.r1}"
            )
        return cls(camera=camera, image_size=size, pointer=spec, detection=params,
                   color_names=values["colors"])


# the config's field table; colors comes before pointer, whose band colors
# name its entries
CONFIG_FIELDS = section(
    Field("camera", section(
        # bounded, so a typo such as 1e308 fails here and not on every frame
        Field("image_size_px", listed(integer(1, 65535), 2)),
        Field("k_row_major", listed(number(), 9)),
        Field("rotation_row_major", listed(number(), 9)),
        Field("translation_mm", listed(number(), 3)),
        Field("distortion", section(
            *(Field(k, number(), required=False) for k in ("k1", "k2", "k3", "p1", "p2")),
            closed=True,
        ), required=False),
    )),
    Field("colors", mapping(CLASS_ID)),
    Field("pointer", section(
        Field("total_length_mm", number()),
        Field("edge_distances_mm", listed(number())),
        Field("edge_diameters_mm", listed(number())),
        Field("band_colors", listed(name_in("colors"))),
    )),
    Field("detection", section(*DetectionParams.json_fields, closed=True), required=False),
)


def _load_json(path, read):
    """read(the JSON document at path); a ConfigError leads with the path."""
    with open(path) as f:
        try:
            data = json.load(f)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return read(data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_config(path) -> Config:
    return _load_json(path, Config.from_dict)


def save_color_model(color_set: ColorClassSet, path) -> None:
    with open(path, "w") as f:
        json.dump(serialize_color_set(color_set), f)


def load_color_model(path) -> ColorClassSet:
    return _load_json(path, deserialize_color_set)


MAD_FILTER_FACTOR = 5.0
MAD_FILTER_MIN_POINTS = 5


def outlier_flags(points: np.ndarray) -> Optional[np.ndarray]:
    """Flag the (N, 3) points far from the componentwise median.

    A point is an outlier when its distance to the median point exceeds
    five times the median of those distances. Fewer than five points
    give None: too few to filter.
    """
    if len(points) < MAD_FILTER_MIN_POINTS:
        return None
    dist = np.linalg.norm(points - np.median(points, axis=0), axis=1)
    return dist > MAD_FILTER_FACTOR * np.median(dist)


def write_ply(points: np.ndarray, quality: np.ndarray, path) -> None:
    """ASCII PLY with x, y, z floats and a quality property per vertex."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    quality = np.asarray(quality, dtype=np.float64)
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(points)}",
        "property float x",
        "property float y",
        "property float z",
        "property float quality",
        "end_header",
    ]
    for (x, y, z), q in zip(points, quality):
        lines.append(f"{x:.6f} {y:.6f} {z:.6f} {q:.6f}")
    Path(path).write_text("\n".join(lines) + "\n")


def run_pipeline(
    img, colors: ColorClassSet, config: Config
) -> PoseEstimate:
    """Detect, associate and estimate pose for one frame."""
    result = detect_pointer(img, colors, config.pointer, config.detection)
    return _associate_and_pose(result, config.pointer, config.camera)


def _associate_and_pose(
    result: DetectionResult, spec: PointerSpec, camera: CameraModel
) -> PoseEstimate:
    """Label alignment, RANSAC association and pose for one detection."""
    labels = [(e.left_label, e.right_label) for e in result.edges]
    alignments = align_labels_dp(labels, spec)
    hypotheses = associate_ransac(result, spec, alignments)
    return estimate_pose(result, hypotheses, camera, spec)


def _classify_error(exc: BandPointerError) -> tuple[int, str]:
    if isinstance(exc, DetectionError):
        return EXIT_POINTER_NOT_FOUND, "pointer-not-found"
    if isinstance(exc, AssociationError):
        return EXIT_NO_ASSOCIATION, "no-association"
    if isinstance(exc, PoseError):
        return EXIT_POSE_FAILURE, "pose-failure"
    if isinstance(exc, ImageFormatError):
        return EXIT_ERROR, "bad-image"
    return EXIT_ERROR, "error"


def cmd_calibrate(args) -> int:
    config = load_config(args.config)
    img = load_image(args.image)
    mask = load_pgm(args.mask)
    known_ids = set(config.color_names.values())
    present = {int(v) for v in np.unique(mask) if v != 0}
    unknown = present - known_ids
    if unknown:
        raise ConfigError(f"mask references class ids {sorted(unknown)} absent from config")
    color_set = calibrate_colors(img, mask, min_saturation=config.detection.s2)
    save_color_model(color_set, args.out)
    id_to_name = {v: k for k, v in config.color_names.items()}
    for label, hue in zip(color_set.labels, color_set.modal_hues()):
        print(f"class {label} ({id_to_name.get(label, str(label))}): modal hue {hue:.3f} rad")
    print(f"color model written to {args.out}")
    return EXIT_OK


def _pose_fields(estimate: PoseEstimate) -> list[str]:
    """Tip x, y, z (mm), direction x, y, z, rms_px and inlier count, formatted."""
    t = estimate.pose.tip
    d = estimate.pose.direction
    return (
        [f"{v:.6f}" for v in t] + [f"{v:.8f}" for v in d]
        + [f"{estimate.rms_px:.6f}", str(len(estimate.correspondence.pairs))]
    )


def format_pose_record(estimate: PoseEstimate) -> str:
    f = _pose_fields(estimate)
    return f"tip_mm={','.join(f[:3])} dir={','.join(f[3:6])} rms_px={f[6]} inliers={f[7]}"


def _load_config_and_colors(args) -> tuple[Config, ColorClassSet]:
    """The config and a color model with a class for every band color."""
    if args.color_model is None:
        raise ConfigError(f"--color-model required (or ${ENV_COLOR_MODEL})")
    config = load_config(args.config)
    colors = load_color_model(args.color_model)
    for label in config.pointer.band_labels:
        if label is not None and label not in colors.labels:
            name = next(n for n, i in config.color_names.items() if i == label)
            raise ConfigError(f"color model has no class for band color {name!r}")
    return config, colors


def _load_frame(path, config: Config) -> RasterImage:
    """A frame of the size the config's camera model was calibrated at."""
    img = load_image(path)
    if (img.width, img.height) != config.image_size:
        w, h = config.image_size
        raise ImageFormatError(
            f"{path} is {img.width}x{img.height} px, the config's camera takes {w}x{h}"
        )
    return img


def cmd_probe(args) -> int:
    config, colors = _load_config_and_colors(args)
    img = _load_frame(args.image, config)
    try:
        estimate = run_pipeline(img, colors, config)
    except BandPointerError as exc:
        code, kind = _classify_error(exc)
        print(f"{kind}: {exc}", file=sys.stderr)
        return code
    print(format_pose_record(estimate))
    return EXIT_OK


def _track_one(frame_path: str, config: Config, colors: ColorClassSet):
    try:
        img = _load_frame(frame_path, config)
        estimate = run_pipeline(img, colors, config)
    except BandPointerError as exc:
        return (frame_path, _classify_error(exc)[1], None)
    except OSError as exc:
        return (frame_path, f"io-error ({exc})", None)
    return (frame_path, "ok", estimate)


def cmd_track(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    config, colors = _load_config_and_colors(args)
    frame_dir = Path(args.frames)
    frames = sorted(
        str(p) for p in frame_dir.iterdir()
        if p.suffix.lower() in (".ppm", ".png")
    )
    if not frames:
        print(f"error: no frames in {frame_dir}", file=sys.stderr)
        return EXIT_ERROR

    workers = min(args.jobs, len(frames))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(_track_one, frames, repeat(config), repeat(colors))
            )
    else:
        results = [_track_one(f, config, colors) for f in frames]

    out_prefix = Path(args.out_prefix)
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    with open(out_prefix.parent / (out_prefix.name + ".csv"), "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([
            "frame", "status", "tip_x_mm", "tip_y_mm", "tip_z_mm",
            "dir_x", "dir_y", "dir_z", "rms_px", "inliers",
        ])
        for frame, status, estimate in results:
            fields = [""] * 8 if estimate is None else _pose_fields(estimate)
            writer.writerow([Path(frame).name, status] + fields)

    posed = [estimate for _, _, estimate in results if estimate is not None]
    points = np.array([estimate.pose.tip for estimate in posed]).reshape(-1, 3)
    rms = np.array([estimate.rms_px for estimate in posed])
    flags = outlier_flags(points)
    if flags is None:
        print("warning: too few points for outlier filtering", file=sys.stderr)
        flags = np.zeros(len(points), dtype=bool)
    write_ply(points, rms, out_prefix.parent / (out_prefix.name + "_raw.ply"))
    write_ply(
        points[~flags], rms[~flags], out_prefix.parent / (out_prefix.name + "_filtered.ply")
    )
    print(f"{len(posed)}/{len(frames)} frames tracked; outputs at {out_prefix}*")
    return EXIT_OK


MAX_TRIALS = 100_000  # per cell; a bound, so a typo cannot run without end

# the eval sweep spec's field table; a key left out takes evaluate_sweep's
# default
SWEEP_FIELDS = section(
    Field("depths_mm", listed(number(-math.inf))),
    Field("angles_deg", listed(number(-math.inf))),
    Field("trials", integer(1, MAX_TRIALS), required=False),
    Field("noise_px", number(0.0), required=False),
    Field("seed", integer(0), required=False),
    Field("roll_deg", number(-math.inf), required=False),
)


def evaluate_sweep(
    config: Config,
    depths_mm: Sequence[float],
    angles_deg: Sequence[float],
    trials: int = 1,
    noise_px: float = 0.0,
    seed: int = 0,
    roll_deg: float = 4.0,
) -> list[dict]:
    """Monte-Carlo pose evaluation on exact rendered-geometry junctions.

    Detections come from the synthetic ground truth (the raster detector
    is exercised by its own tests); noise perturbs the detected points.
    Returns one record per grid cell. A trial that fails, and every trial
    of a cell whose ground truth cannot be projected (part of the pointer
    behind the camera, or so far away that the projection is not finite),
    counts as a failure. The arguments are read by
    the sweep spec's field table, SWEEP_FIELDS, before any cell runs, so
    a bad one raises the ConfigError that eval reports for the spec.
    """
    sweep = SWEEP_FIELDS({
        "depths_mm": depths_mm, "angles_deg": angles_deg, "trials": trials,
        "noise_px": noise_px, "seed": seed, "roll_deg": roll_deg,
    })
    depths_mm, angles_deg, roll_deg = sweep["depths_mm"], sweep["angles_deg"], sweep["roll_deg"]
    trials, noise_px, seed = sweep["trials"], sweep["noise_px"], sweep["seed"]
    template = synthetic.SceneSpec(
        pose=None,  # type: ignore[arg-type]  # replaced by sweep()
        spec=config.pointer,
        band_colors={},  # ground_truth reads no colors
    )
    cells = synthetic.sweep(
        depths_mm, angles_deg, template, config.camera, roll_deg=roll_deg
    )

    records = []
    for cell_idx, cell in enumerate(cells):
        rng = np.random.default_rng(seed + cell_idx)
        tips = []
        try:
            gt = synthetic.ground_truth(cell.scene, config.camera, config.image_size)
            runs = trials
        except BandPointerError:  # e.g. part of the pointer behind the camera
            runs = 0
        for _ in range(runs):
            try:
                det = synthetic.ground_truth_detection(
                    gt, config.pointer, noise_px=noise_px, rng=rng
                )
                tips.append(_associate_and_pose(det, config.pointer, config.camera).pose.tip)
            except BandPointerError:
                pass
        record = {
            "depth_mm": float(cell.depth_mm),
            "angle_deg": float(cell.angle_deg),
            "trials": trials,
            "failures": trials - len(tips),
            "rms_tip_error_mm": float("nan"),
            "pc1": (float("nan"),) * 3,
        }
        if tips:
            tips_arr = np.array(tips)
            err = tips_arr - cell.scene.pose.tip
            record["rms_tip_error_mm"] = float(
                np.sqrt(np.mean(np.sum(err**2, axis=1)))
            )
            centered = tips_arr - tips_arr.mean(axis=0)
            if len(tips_arr) > 1:
                _, _, vt = np.linalg.svd(centered, full_matrices=False)
                record["pc1"] = tuple(float(v) for v in vt[0])
        records.append(record)
    return records


def cmd_eval(args) -> int:
    config = load_config(args.config)
    records = evaluate_sweep(config, **_load_json(args.sweep, SWEEP_FIELDS))
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([
            "depth_mm", "angle_deg", "trials", "failures",
            "rms_tip_error_mm", "pc1_x", "pc1_y", "pc1_z",
        ])
        for rec in records:
            writer.writerow([
                f"{rec['depth_mm']:.3f}", f"{rec['angle_deg']:.3f}",
                rec["trials"], rec["failures"],
                f"{rec['rms_tip_error_mm']:.6f}",
                f"{rec['pc1'][0]:.6f}", f"{rec['pc1'][1]:.6f}", f"{rec['pc1'][2]:.6f}",
            ])
    print(f"evaluation report written to {out_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandpointer",
        description="Single-camera 3D tracking of a color-banded pointer",
    )
    parser.add_argument(
        "--config",
        default=os.environ.get(ENV_CONFIG),
        help=f"JSON config path (or ${ENV_CONFIG})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cal = sub.add_parser("calibrate", help="build the hue color model")
    p_cal.add_argument("--image", required=True, help="calibration image (PPM)")
    p_cal.add_argument("--mask", required=True, help="class-id mask (PGM)")
    p_cal.add_argument("--out", required=True, help="output color model JSON")

    p_probe = sub.add_parser("probe", help="estimate the pose in one image")
    p_probe.add_argument("--image", required=True)

    p_track = sub.add_parser("track", help="track a directory of frames")
    p_track.add_argument("--frames", required=True)
    p_track.add_argument("--out-prefix", required=True)
    p_track.add_argument("--jobs", type=int, default=1)
    for p_sub in (p_probe, p_track):
        p_sub.add_argument(
            "--color-model",
            default=os.environ.get(ENV_COLOR_MODEL),
            help=f"color model JSON (or ${ENV_COLOR_MODEL})",
        )

    p_eval = sub.add_parser("eval", help="synthetic sweep evaluation")
    p_eval.add_argument("--sweep", required=True, help="sweep spec JSON")
    p_eval.add_argument("--out", required=True, help="report CSV path")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed help or a usage error
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
    if args.config is None:
        print("error: --config required", file=sys.stderr)
        return EXIT_ERROR
    handlers = {
        "calibrate": cmd_calibrate,
        "probe": cmd_probe,
        "track": cmd_track,
        "eval": cmd_eval,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ImageFormatError as exc:
        print(f"bad image: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BandPointerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
