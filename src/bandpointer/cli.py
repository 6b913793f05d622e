"""Command-line interface: calibrate colors, probe frames, track, evaluate.

Commands share a JSON config carrying the camera, the pointer
measurements and the detection parameters. Failure causes map to
distinct exit codes so batch callers can tell them apart.
"""

from __future__ import annotations

import argparse
import csv
import json
import numbers
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from itertools import repeat
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import synthetic
from .association import (
    PointerEdge,
    PointerSpec,
    align_labels_dp,
    associate_ransac,
)
from .color_model import (
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
)
from .imaging import DistortionModel, load_image, load_pgm
from .pose import CameraModel, PoseEstimate, estimate_pose

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_POINTER_NOT_FOUND = 2
EXIT_NO_ASSOCIATION = 3
EXIT_POSE_FAILURE = 4

ENV_CONFIG = "BANDPOINTER_CONFIG"
ENV_COLOR_MODEL = "BANDPOINTER_COLOR_MODEL"


@dataclass
class Config:
    """Typed view of the JSON config; to_dict/from_dict round-trip exactly."""

    camera: CameraModel
    image_size: tuple[int, int]
    pointer: PointerSpec
    detection: DetectionParams
    color_names: dict[str, int]  # name -> class id
    band_names: list[Optional[str]]

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        try:
            cam = data["camera"]
            k = np.array(cam["k_row_major"], dtype=np.float64).reshape(3, 3)
            rot = np.array(cam["rotation_row_major"], dtype=np.float64).reshape(3, 3)
            trans = np.array(cam["translation_mm"], dtype=np.float64)
            distortion = DistortionModel(**cam.get("distortion", {}))
            camera = CameraModel(K=k, R=rot, t=trans, distortion=distortion)
            size = tuple(int(v) for v in cam["image_size_px"])
            if len(size) != 2 or min(size) <= 0 or list(size) != list(cam["image_size_px"]):
                raise ConfigError("image_size_px must be two positive integers")

            ptr = data["pointer"]
            if not isinstance(data["colors"], dict):
                raise ConfigError("colors must map color names to class ids")
            colors = {str(k2): v for k2, v in data["colors"].items()}
            for name, v in colors.items():
                if type(v) is not int or not 0 < v < 256:
                    raise ConfigError(f"color {name!r} needs a class id in 1..255, got {v!r}")
            band_names = list(ptr["band_colors"])
            band_ids = [
                colors[name] if name is not None else None for name in band_names
            ]
            distances = [float(v) for v in ptr["edge_distances_mm"]]
            diameters = [float(v) for v in ptr["edge_diameters_mm"]]
            if len(band_ids) != len(distances) + 1:
                raise ConfigError("need one band color per band (edges + 1)")
            if len(diameters) != len(distances):
                raise ConfigError("need one diameter per edge")
            spec = PointerSpec(
                edges=tuple(
                    PointerEdge(d, w / 2.0) for d, w in zip(distances, diameters)
                ),
                side_labels=tuple(
                    (band_ids[i], band_ids[i + 1]) for i in range(len(distances))
                ),
                total_length_mm=float(ptr["total_length_mm"]),
            )
            det = data.get("detection", {})
            params = DetectionParams(**det)
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad config: {exc}") from exc
        return cls(
            camera=camera,
            image_size=size,
            pointer=spec,
            detection=params,
            color_names=colors,
            band_names=band_names,
        )

    def to_dict(self) -> dict:
        return {
            "camera": {
                "image_size_px": [self.image_size[0], self.image_size[1]],
                "k_row_major": [float(v) for v in self.camera.K.ravel()],
                "rotation_row_major": [float(v) for v in self.camera.R.ravel()],
                "translation_mm": [float(v) for v in self.camera.t],
                "distortion": asdict(self.camera.distortion),
            },
            "pointer": {
                "total_length_mm": self.pointer.total_length_mm,
                "edge_distances_mm": [e.distance_mm for e in self.pointer.edges],
                # exact: from_dict halves the diameters
                "edge_diameters_mm": [2.0 * e.radius_mm for e in self.pointer.edges],
                "band_colors": list(self.band_names),
            },
            "colors": dict(self.color_names),
            "detection": asdict(self.detection),
        }


def _load_json(path):
    with open(path) as f:
        try:
            return json.load(f)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def load_config(path) -> Config:
    return Config.from_dict(_load_json(path))


def save_color_model(color_set: ColorClassSet, path) -> None:
    with open(path, "w") as f:
        json.dump(serialize_color_set(color_set), f)


def load_color_model(path) -> ColorClassSet:
    return deserialize_color_set(_load_json(path))


@dataclass
class PointCloud:
    points: np.ndarray  # (N, 3) mm
    rms_px: np.ndarray
    filtered_flags: np.ndarray = field(default=None)  # type: ignore[assignment]
    filter_skipped: bool = False

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        self.rms_px = np.asarray(self.rms_px, dtype=np.float64)
        if self.filtered_flags is None:
            self.filtered_flags = np.zeros(len(self.points), dtype=bool)


MAD_FILTER_FACTOR = 5.0
MAD_FILTER_MIN_POINTS = 5


def filter_point_cloud(cloud: PointCloud) -> PointCloud:
    """Flag points far from the componentwise median.

    A point is an outlier when its distance to the median point exceeds
    five times the median of those distances. Fewer than five points
    skips filtering with a warning flag.
    """
    n = len(cloud.points)
    if n < MAD_FILTER_MIN_POINTS:
        return replace(
            cloud,
            filtered_flags=np.zeros(n, dtype=bool),
            filter_skipped=True,
        )
    median = np.median(cloud.points, axis=0)
    dist = np.linalg.norm(cloud.points - median, axis=1)
    mad = float(np.median(dist))
    flags = dist > MAD_FILTER_FACTOR * mad
    return replace(cloud, filtered_flags=flags, filter_skipped=False)


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
    return _associate_and_pose(result, config)


def _associate_and_pose(result: DetectionResult, config: Config) -> PoseEstimate:
    """Label alignment, RANSAC association and pose for one detection."""
    labels = [(e.left_label, e.right_label) for e in result.edges]
    alignments = align_labels_dp(labels, config.pointer)
    hypotheses = associate_ransac(result, config.pointer, alignments)
    return estimate_pose(result, hypotheses, config.camera, config.pointer)


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
    for label, kde in color_set.classes:
        name = id_to_name.get(label, str(label))
        print(
            f"class {label} ({name}): {len(kde.samples)} samples, "
            f"modal hue {kde.modal_hue():.3f} rad"
        )
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
    for name in config.band_names:
        if name is not None and config.color_names[name] not in colors.labels:
            raise ConfigError(f"color model has no class for band color {name!r}")
    return config, colors


def cmd_probe(args) -> int:
    config, colors = _load_config_and_colors(args)
    img = load_image(args.image)
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
        img = load_image(frame_path)
        estimate = run_pipeline(img, colors, config)
    except BandPointerError as exc:
        return (frame_path, _classify_error(exc)[1], None)
    except OSError as exc:
        return (frame_path, f"io-error ({exc})", None)
    return (frame_path, "ok", estimate)


def cmd_track(args) -> int:
    config, colors = _load_config_and_colors(args)
    frame_dir = Path(args.frames)
    frames = sorted(
        str(p) for p in frame_dir.iterdir()
        if p.suffix.lower() in (".ppm", ".png")
    )
    if not frames:
        print(f"error: no frames in {frame_dir}", file=sys.stderr)
        return EXIT_ERROR

    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(
                pool.map(_track_one, frames, repeat(config), repeat(colors))
            )
    else:
        results = [_track_one(f, config, colors) for f in frames]

    out_prefix = Path(args.out_prefix)
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    csv_path = out_prefix.with_suffix(".csv")
    points, rms = [], []
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([
            "frame", "status", "tip_x_mm", "tip_y_mm", "tip_z_mm",
            "dir_x", "dir_y", "dir_z", "rms_px", "inliers",
        ])
        for frame, status, estimate in results:
            name = Path(frame).name
            if estimate is None:
                writer.writerow([name, status] + [""] * 8)
                continue
            writer.writerow([name, "ok"] + _pose_fields(estimate))
            points.append(estimate.pose.tip)
            rms.append(estimate.rms_px)

    cloud = PointCloud(
        points=np.array(points).reshape(-1, 3),
        rms_px=np.array(rms),
    )
    cloud = filter_point_cloud(cloud)
    if cloud.filter_skipped:
        print("warning: too few points for outlier filtering", file=sys.stderr)
    write_ply(cloud.points, cloud.rms_px, out_prefix.parent / (out_prefix.name + "_raw.ply"))
    keep = ~cloud.filtered_flags
    write_ply(
        cloud.points[keep], cloud.rms_px[keep],
        out_prefix.parent / (out_prefix.name + "_filtered.ply"),
    )
    ok = sum(1 for _, status, _ in results if status == "ok")
    print(f"{ok}/{len(frames)} frames tracked; outputs at {out_prefix}*")
    return EXIT_OK


def evaluate_sweep(
    config: Config,
    depths_mm: Sequence[float],
    angles_deg: Sequence[float],
    trials: int,
    noise_px: float,
    seed: int,
    roll_deg: float = 4.0,
) -> list[dict]:
    """Monte-Carlo pose evaluation on exact rendered-geometry junctions.

    Detections come from the synthetic ground truth (the raster detector
    is exercised by its own tests); noise perturbs the detected points.
    Returns one record per grid cell. A trial that fails, and every trial
    of a cell whose ground truth cannot be projected (part of the pointer
    behind the camera), counts as a failure. trials must be an integer
    >= 1 and seed one >= 0, or ConfigError is raised.
    """
    for name, value, least in (("trials", trials, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
            raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
    palette = {
        label: (0.5, 0.5, 0.5) for label in config.color_names.values()
    }
    template = synthetic.SceneSpec(
        pose=None,  # type: ignore[arg-type]  # replaced by sweep()
        spec=config.pointer,
        band_colors=palette,
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
                tips.append(_associate_and_pose(det, config).pose.tip)
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
    sweep_spec = _load_json(args.sweep)
    try:
        depths, angles = sweep_spec["depths_mm"], sweep_spec["angles_deg"]
        if not (isinstance(depths, list) and isinstance(angles, list) and depths and angles):
            raise ValueError("depths_mm and angles_deg must be non-empty lists")
        noise_px = float(sweep_spec.get("noise_px", 0.0))
        if not 0.0 <= noise_px < np.inf:
            raise ValueError(f"noise_px must be finite and >= 0, got {noise_px!r}")
        grid = dict(
            depths_mm=[float(v) for v in depths],
            angles_deg=[float(v) for v in angles],
            trials=sweep_spec.get("trials", 1),
            noise_px=noise_px,
            seed=sweep_spec.get("seed", args.seed),
            roll_deg=float(sweep_spec.get("roll_deg", 4.0)),
        )
        if not np.isfinite(grid["depths_mm"] + grid["angles_deg"] + [grid["roll_deg"]]).all():
            raise ValueError("depths_mm, angles_deg and roll_deg must be finite")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad sweep spec {args.sweep}: {exc}") from exc
    records = evaluate_sweep(config, **grid)
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
    p_probe.add_argument(
        "--color-model",
        default=os.environ.get(ENV_COLOR_MODEL),
        help=f"color model JSON (or ${ENV_COLOR_MODEL})",
    )

    p_track = sub.add_parser("track", help="track a directory of frames")
    p_track.add_argument("--frames", required=True)
    p_track.add_argument(
        "--color-model", default=os.environ.get(ENV_COLOR_MODEL)
    )
    p_track.add_argument("--out-prefix", required=True)
    p_track.add_argument("--jobs", type=int, default=1)

    p_eval = sub.add_parser("eval", help="synthetic sweep evaluation")
    p_eval.add_argument("--sweep", required=True, help="sweep spec JSON")
    p_eval.add_argument("--out", required=True, help="report CSV path")
    p_eval.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
