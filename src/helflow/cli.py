"""Command-line front end: run orchestration and structured outputs.

Subcommands: ``flow``, ``ode``, ``energy``, ``rescale``.
Runs are configured by a flat ``key = value`` text file (schema in the
README) plus repeatable ``--override KEY=VALUE`` flags, so one artifact
captures a reproducible run.

Exit codes: 0 clean termination (converged / horizon), 2 singular termination
(a scientific outcome, not a failure), 3 inconclusive termination
(dt collapse / step budget), 10 configuration errors (usage errors and values
out of the float range included), 11 IO errors, 12 solver failures (a remesh,
a starting geometry in any command, blow-up diagnostics during a run, or a
sphere ODE integration that fails).
"""

import argparse
import json
import logging
import os
import sys
import typing
from dataclasses import asdict, dataclass, fields

import numpy as np

from .diagnostics import (KAPPA_TARGET_FRACTION, DiagnosticsError, FrameSink,
                          classify_singularity)
from .flow import (CSV_COLUMNS, SINGULAR_REASONS, FlowError, SteppingPolicy,
                   TimeSeriesRecord, run_flow)
from .geometry import (FlowParams, GeometryError, build_cache,
                       gauss_bonnet_residual, mean_curvature_integral,
                       penalized_energy, willmore_bound_residual)
from .mesh import MeshError, TriangleMesh, load_mesh, make_icosphere, save_mesh
from .remesh import RemeshError
from .sphere_ode import (MIN_RTOL, SphereOdeError, extinction_time_closed_form,
                         integrate_sphere_ode, sphere_energy, theory_bounds)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_SINGULAR = 2
EXIT_INCONCLUSIVE = 3
EXIT_CONFIG = 10
EXIT_IO = 11
EXIT_SOLVER = 12

_CLEAN_REASONS = ("converged", "horizon_reached")


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    """Everything one flow run needs, parsed from a config file."""

    params: FlowParams
    policy: SteppingPolicy
    mesh_path: str | None = None
    icosphere_subdivisions: int | None = None
    icosphere_radius: float = 1.0
    icosphere_center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    kappa_target_fraction: float = KAPPA_TARGET_FRACTION
    frames_enabled: bool = True
    out_dir: str = "out"
    seed: int = 0

    def __post_init__(self):
        if (self.mesh_path is None) == (self.icosphere_subdivisions is None):
            raise ValueError(
                "exactly one of mesh.path or mesh.icosphere.subdivisions is required")
        # 1 or more freezes a target above the first frame's total energy
        if not 0 < self.kappa_target_fraction < 1:
            raise ValueError("diagnostics.kappa_target_fraction must be in (0, 1)")

    def build_mesh(self) -> TriangleMesh:
        if self.mesh_path is not None:
            return load_mesh(self.mesh_path)
        return make_icosphere(self.icosphere_subdivisions,
                              self.icosphere_radius, self.icosphere_center)


# config key -> (owning dataclass, field); a key left out takes the field's
# default.  ``policy.remesh_min_angle_deg`` is parsed on its own.
CONFIG_FIELDS = {
    "params.c0": (FlowParams, "c0"),
    "params.lambda": (FlowParams, "lam"),
    "params.allow_negative_lambda": (FlowParams, "allow_negative_lam"),
    **{f"policy.{f.name}": (SteppingPolicy, f.name) for f in fields(SteppingPolicy)},
    "mesh.path": (RunConfig, "mesh_path"),
    "mesh.icosphere.subdivisions": (RunConfig, "icosphere_subdivisions"),
    "mesh.icosphere.radius": (RunConfig, "icosphere_radius"),
    "mesh.icosphere.center": (RunConfig, "icosphere_center"),
    "diagnostics.kappa_target_fraction": (RunConfig, "kappa_target_fraction"),
    "diagnostics.frames": (RunConfig, "frames_enabled"),
    "output.dir": (RunConfig, "out_dir"),
    "seed": (RunConfig, "seed"),
}


def parse_config_text(text: str) -> dict:
    """Flat ``key = value`` lines; ``#`` starts a comment."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        cut = line.find("#")
        if cut >= 0:
            line = line[:cut]
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def _parse_as(kind, value: str):
    """Parse ``value`` as the annotated type ``kind`` of a dataclass field:
    ``bool``, ``int``, ``float`` or ``str``, one of them ``| None``, or a
    tuple of them written with commas or spaces."""
    options, low = typing.get_args(kind), value.lower()
    if typing.get_origin(kind) is tuple:
        parts = value.replace(",", " ").split()
        if len(parts) != len(options):
            raise ValueError(f"expected {len(options)} values, got {value!r}")
        return tuple(_parse_as(t, p) for t, p in zip(options, parts))
    if options:
        if low == "none":
            return None
        (kind,) = [t for t in options if t is not type(None)]
    if kind is bool:
        if low not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
            raise ValueError(f"expected a boolean, got {value!r}")
        return low in ("1", "true", "yes", "on")
    if kind is float and low in ("inf", "infinite"):
        return np.inf
    return kind(value)


def build_run_config(raw: dict, config_dir: str = ".") -> RunConfig:
    """Build a :class:`RunConfig` from parsed ``key = value`` pairs.

    Each value is parsed by the annotation of the field it sets
    (``CONFIG_FIELDS``).  Unknown keys and values that do not parse or that
    the dataclasses reject raise :class:`ConfigError`.
    """
    kwargs = {FlowParams: {}, SteppingPolicy: {}, RunConfig: {}}
    try:
        for key, value in raw.items():
            if key == "policy.remesh_min_angle_deg":   # not a field name
                kwargs[SteppingPolicy]["remesh_min_angle"] = np.deg2rad(float(value))
                continue
            if key not in CONFIG_FIELDS:
                raise ConfigError(f"unrecognized config key {key!r}")
            if key == "mesh.path":   # relative to the config file's directory
                value = os.path.join(config_dir, value)
                if not os.path.exists(value):
                    raise ConfigError(f"mesh path not found: {value}")
            owner, name = CONFIG_FIELDS[key]
            parsed = _parse_as(typing.get_type_hints(owner)[name], value)
            # a mesh source is chosen by setting its key, so neither takes none
            if parsed is None and owner is RunConfig:
                raise ConfigError(f"{key} cannot be none")
            kwargs[owner][name] = parsed
        if "c0" not in kwargs[FlowParams]:
            raise ConfigError("params.c0 is required")
        return RunConfig(FlowParams(**kwargs[FlowParams]),
                         SteppingPolicy(**kwargs[SteppingPolicy]),
                         **kwargs[RunConfig])
    except ValueError as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc


def load_run_config(path: str, overrides=()) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = parse_config_text(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()
    return build_run_config(raw, config_dir=os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


class CsvSink:
    """Streams TimeSeriesRecords to ``series.csv`` as they are emitted."""

    def __init__(self, path: str):
        self._fh = open(path, "w", encoding="utf-8")
        self._fh.write(",".join(CSV_COLUMNS) + "\n")

    def __call__(self, state, record: TimeSeriesRecord):
        row = [_fmt(getattr(record, col)) for col in CSV_COLUMNS]
        self._fh.write(",".join(row) + "\n")
        self._fh.flush()

    def close(self):
        self._fh.close()


def _json_text(payload) -> str:
    return json.dumps(_plain(payload), indent=2, allow_nan=False)


def _plain(obj):
    """``obj`` in plain JSON values: numpy scalars and arrays as Python
    numbers and lists, and every non-finite float as the string "inf",
    "-inf" or "nan", which strict JSON (RFC 8259) can hold."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return str(obj)
    return obj


def _write_json(path: str, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(payload) + "\n")


def _write_kappa_profiles(profiles, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,r,kappa,cx,cy,cz\n")
        for prof in profiles:
            for r, k, c in zip(prof.radii, prof.kappa, prof.centers):
                fh.write(f"{prof.t:.17g},{r:.17g},{k:.17g},"
                         f"{c[0]:.17g},{c[1]:.17g},{c[2]:.17g}\n")


def _write_frames(frames, out_dir: str):
    frame_dir = os.path.join(out_dir, "frames")
    os.makedirs(frame_dir, exist_ok=True)
    for i, fr in enumerate(frames):
        save_mesh(fr.rescaled_mesh, os.path.join(frame_dir, f"{i:04d}.off"))
        meta = [
            f"t = {fr.t:.17g}",
            f"r = {fr.r:.17g}",
            f"x = {fr.x[0]:.17g} {fr.x[1]:.17g} {fr.x[2]:.17g}",
            f"rescaled_c0 = {fr.rescaled_params.c0:.17g}",
            f"rescaled_lambda = {fr.rescaled_params.lam:.17g}",
            f"kappa_target = {fr.kappa_target:.17g}",
            f"willmore = {fr.willmore:.17g}",
            f"penalized = {fr.penalized:.17g}",
            "cadence = area_halving",
        ]
        with open(os.path.join(frame_dir, f"{i:04d}.meta"), "w",
                  encoding="utf-8") as fh:
            fh.write("\n".join(meta) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_flow(args) -> int:
    try:
        cfg = load_run_config(args.config, overrides=args.override)
        if args.out is not None:
            cfg.out_dir = args.out
        if args.frames is not None:
            cfg.frames_enabled = args.frames == "on"
        mesh = cfg.build_mesh()
    except (ConfigError, MeshError) as exc:
        logger.error("configuration error: %s", exc)
        return EXIT_CONFIG

    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_sink = CsvSink(os.path.join(cfg.out_dir, "series.csv"))
    sinks = [csv_sink]
    frame_sink = None
    if cfg.frames_enabled:
        frame_sink = FrameSink(cfg.params, cfg.kappa_target_fraction)
        sinks.append(frame_sink)

    try:
        records, report = run_flow(mesh, cfg.params, cfg.policy, sinks=sinks)
    except (FlowError, RemeshError, GeometryError, DiagnosticsError) as exc:
        logger.error("solver failure: %s", exc)
        return EXIT_SOLVER
    finally:
        csv_sink.close()

    singular = report.reason in SINGULAR_REASONS
    classification = None
    if frame_sink is not None and frame_sink.profiles:
        _write_kappa_profiles(frame_sink.profiles,
                              os.path.join(cfg.out_dir, "kappa_profiles.csv"))
    if singular and frame_sink is not None and len(frame_sink.frames) >= 3:
        classification = classify_singularity(frame_sink.frames, report.reason)
        _write_frames(frame_sink.frames, cfg.out_dir)

    e0 = records[0].penalized
    bounds = theory_bounds(cfg.params, e0=e0)
    summary = {
        "params": {"c0": cfg.params.c0, "lambda": cfg.params.lam},
        "mesh": {"path": cfg.mesh_path,
                 "icosphere_subdivisions": cfg.icosphere_subdivisions,
                 "icosphere_radius": cfg.icosphere_radius,
                 "n_vertices": mesh.n_vertices, "genus": mesh.genus},
        "seed": cfg.seed,
        "termination": asdict(report),
        "theory_bounds": asdict(bounds),
        # what the run adds to the bounds; the bounds themselves are above
        "threshold_comparisons": {
            "initial_energy": e0,
            "initial_energy_below_threshold": (
                None if bounds.en_threshold is None
                else bool(e0 <= bounds.en_threshold)),
            "final_time_within_t_bound": (
                None if bounds.t_bound is None
                else bool(report.final_time < bounds.t_bound)),
        },
        "classification": (None if classification is None
                           else asdict(classification)),
        "n_frames": 0 if frame_sink is None else len(frame_sink.frames),
    }
    _write_json(os.path.join(cfg.out_dir, "summary.json"), summary)
    if not args.quiet:
        print(_json_text(summary["termination"]))

    if report.reason in _CLEAN_REASONS:
        return EXIT_OK
    if singular:
        return EXIT_SINGULAR
    return EXIT_INCONCLUSIVE


def _params_from_args(args) -> FlowParams | None:
    """The ``--c0``/``--lambda`` flags as FlowParams; None (logged) if invalid."""
    try:
        return FlowParams(args.c0, getattr(args, "lambda"))
    except ValueError as exc:
        logger.error("bad parameters: %s", exc)
        return None


def cmd_ode(args) -> int:
    params = _params_from_args(args)
    if params is None:
        return EXIT_CONFIG
    if not (0 < args.r0 < np.inf and 0 < args.horizon < np.inf):
        logger.error("r0 and horizon must be positive and finite")
        return EXIT_CONFIG
    if not MIN_RTOL <= args.rtol < 1:
        logger.error("rtol must lie in [%.3g, 1)", MIN_RTOL)
        return EXIT_CONFIG
    bounds = theory_bounds(params, e0=sphere_energy(args.r0, params))
    try:
        sol = integrate_sphere_ode(args.r0, params, horizon=args.horizon,
                                   rtol=args.rtol)
    except SphereOdeError as exc:
        logger.error("solver failure: %s", exc)
        return EXIT_SOLVER
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "ode_series.csv"), "w",
              encoding="utf-8") as fh:
        fh.write("t,r\n")
        for t, r in zip(sol.times, sol.radii):
            fh.write(f"{t:.17g},{r:.17g}\n")
    summary = {
        "params": {"c0": params.c0, "lambda": params.lam, "r0": args.r0},
        "terminal": sol.terminal,
        "extinction_time": sol.extinction_time,
        "extinction_time_closed_form": extinction_time_closed_form(args.r0, params),
        "theory_bounds": asdict(bounds),
        "final_radius": float(sol.radii[-1]),
    }
    _write_json(os.path.join(args.out, "ode_summary.json"), summary)
    if not args.quiet:
        print(_json_text(summary))
    return EXIT_OK


def cmd_energy(args) -> int:
    try:
        mesh = load_mesh(args.mesh)
    except MeshError as exc:
        logger.error("cannot load mesh: %s", exc)
        return EXIT_CONFIG
    params = _params_from_args(args)
    if params is None:
        return EXIT_CONFIG
    try:
        cache = build_cache(mesh, params)
    except GeometryError as exc:
        logger.error("cannot assemble geometry: %s", exc)
        return EXIT_SOLVER
    payload = {
        "mesh": {"path": args.mesh, "n_vertices": mesh.n_vertices,
                 "n_faces": mesh.n_faces, "genus": mesh.genus,
                 "euler_characteristic": mesh.euler_characteristic},
        "params": {"c0": params.c0, "lambda": params.lam},
        "area": cache.area,
        "volume": cache.signed_volume,
        "willmore": cache.willmore,
        "w0": cache.w0,
        "helfrich": cache.helfrich,
        "penalized": cache.penalized,
        "int_H": mean_curvature_integral(cache),
        "sup_Asq": cache.sup_Asq,
        "clamp_mass": cache.clamp_mass,
        "gauss_bonnet_residual": gauss_bonnet_residual(cache, mesh.genus),
        "angle_defect_total": float(np.sum(cache.K * cache.vertex_areas)),
        "willmore_bound_residual": (
            willmore_bound_residual(cache, params) if params.lam > 0 else None),
    }
    bounds = theory_bounds(params, e0=cache.penalized)
    payload["theory_bounds"] = asdict(bounds)
    text = _json_text(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if not args.quiet:
        print(text)
    return EXIT_OK


def cmd_rescale(args) -> int:
    if not (0 < args.r < np.inf and np.all(np.isfinite(args.x))):
        logger.error("need finite r > 0 and finite x, got r=%g x=%s", args.r, args.x)
        return EXIT_CONFIG
    try:
        mesh = load_mesh(args.mesh)
    except MeshError as exc:
        logger.error("cannot load mesh: %s", exc)
        return EXIT_CONFIG
    params = _params_from_args(args)
    if params is None:
        return EXIT_CONFIG
    x = np.asarray(args.x, dtype=np.float64)
    try:
        rescaled = mesh.translated(-x).scaled(1.0 / args.r)
        new_params = params.rescaled(args.r)
    except (ValueError, MeshError) as exc:
        logger.error("rescaling leaves the float range: %s", exc)
        return EXIT_CONFIG
    try:
        e_orig = penalized_energy(build_cache(mesh), params)
        e_new = penalized_energy(build_cache(rescaled), new_params)
    except GeometryError as exc:
        logger.error("cannot assemble geometry: %s", exc)
        return EXIT_SOLVER
    out_path = args.out or (os.path.splitext(args.mesh)[0] + "_rescaled.off")
    save_mesh(rescaled, out_path)
    identity_dev = abs(e_new - e_orig) / max(abs(e_orig), 1e-300)
    if not args.quiet:
        print(f"rescaled mesh -> {out_path}")
        print(f"transformed params: c0 = {new_params.c0:.17g}, "
              f"lambda = {new_params.lam:.17g}")
        print(f"energy identity: {e_orig:.12g} vs {e_new:.12g} "
              f"(rel dev {identity_dev:.2e})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as a configuration error; argparse's own exit
    status 2 is ``EXIT_SINGULAR`` here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: error: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="helflow",
        description="Numerical laboratory for locally area-constrained "
                    "bending flows of closed triangulated surfaces.",
    )
    parser.add_argument("--quiet", action="store_true",
                        help="suppress console output except errors")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flow", help="run a flow from a config file")
    p.add_argument("--config", required=True, help="flat key=value config file")
    p.add_argument("--out", default=None, help="output directory override")
    p.add_argument("--override", action="append", default=[],
                   metavar="KEY=VALUE", help="config override (repeatable)")
    p.add_argument("--frames", choices=("on", "off"), default=None,
                   help="force blow-up frame extraction on/off")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("ode", help="integrate the round-sphere radius ODE")
    p.add_argument("--c0", type=float, required=True)
    p.add_argument("--lambda", type=float, default=0.0, dest="lambda")
    p.add_argument("--r0", type=float, required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--rtol", type=float, default=1e-10)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_ode)

    p = sub.add_parser("energy", help="all energies and bounds of one mesh")
    p.add_argument("mesh", help="OFF/OBJ mesh path")
    p.add_argument("--c0", type=float, required=True)
    p.add_argument("--lambda", type=float, default=0.0, dest="lambda")
    p.add_argument("--out", default=None, help="also write JSON here")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("rescale", help="parabolic rescaling of a mesh")
    p.add_argument("mesh", help="OFF/OBJ mesh path")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--x", type=float, nargs=3, default=(0.0, 0.0, 0.0))
    p.add_argument("--c0", type=float, required=True)
    p.add_argument("--lambda", type=float, default=0.0, dest="lambda")
    p.add_argument("--out", default=None, help="output mesh path")
    p.set_defaults(func=cmd_rescale)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except OSError as exc:
        logger.error("IO failure: %s", exc)
        return EXIT_IO
    except OverflowError as exc:   # from float **, where * would give inf
        logger.error("a value derived from the inputs is out of range: %s", exc)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
