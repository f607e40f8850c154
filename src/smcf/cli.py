"""Command-line front end: configuration, orchestration, persistence.

Subcommands:
  run         evolve the gauged flow, writing CSV/JSON/checkpoint artifacts
  elliptic    solve the fixed-time gauge system for one data choice
  oracle      gauge-vs-immersion cross-check
  norms       spatial norm table of a stored checkpoint
  check-pairs exponent-pair verdicts in exact rational arithmetic

Configuration is a flat ``key = value`` text file with dotted section
names (``grid.n = 32``); every key can also be given on the command
line as ``--grid.n=32``.  Unknown keys are hard errors.  All floating
point output is serialized with 17 significant digits.  Exit codes:
0 success, 2 configuration error, 3 solver failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import os
import struct
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from smcf import evolution as ev
from smcf import gauge_elliptic as ge
from smcf import geometry as geo
from smcf import immersion as im
from smcf import norms as nrm
from smcf import spectral as sp
from smcf.gauge_elliptic import EllipticConfig
from smcf.geometry import MetricField
from smcf.spectral import Grid

__all__ = [
    "main",
    "ConfigError",
    "CheckpointError",
    "RunConfig",
    "save_checkpoint",
    "load_checkpoint",
    "CSV_SCHEMA",
    "csv_columns",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

CSV_SCHEMA = "smcf-csv-1"
CHECKPOINT_MAGIC = b"SMCF"
CHECKPOINT_VERSION = 2


class ConfigError(ValueError):
    """Invalid configuration key, value, or combination."""


class CheckpointError(IOError):
    """Malformed, corrupt, or mismatched checkpoint file."""


def _fail(stage: str, message: str, code: int) -> int:
    stamp = datetime.now(timezone.utc).isoformat()
    print(f"[{stamp}] {stage}: {message}", file=sys.stderr)
    return code


# --------------------------------------------------------------------------
# 17-significant-digit serialization


def g17(x: float) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.17g}"


def _json_value(obj, indent: int) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  "{k}": {_json_value(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{pad}  {_json_value(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isfinite(x):
            return g17(x)
        return f'"{g17(x)}"'
    if isinstance(obj, complex):
        return _json_value({"re": obj.real, "im": obj.imag}, indent)
    text = str(obj).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{text}"'


def dump_json(obj) -> str:
    return _json_value(obj, 0) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


# --------------------------------------------------------------------------
# configuration


def _parse_bool(v: str) -> bool:
    lv = v.strip().lower()
    if lv in ("true", "1", "yes", "on"):
        return True
    if lv in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {v!r}")


def _parse_optional_float(v: str):
    if v.strip().lower() in ("", "auto", "none"):
        return None
    return float(v)


def _parse_k_list(v: str) -> tuple:
    ks = tuple(int(p) for p in v.replace(",", " ").split())
    if not ks or any(k < 0 for k in ks):
        raise ValueError("k_list must be nonnegative integers")
    return ks


_DATA_KINDS = ("gaussian", "single_mode", "file")

# every accepted key: parser and default
_KEY_TABLE = {
    "dimension": (int, 2),
    "grid.n": (int, 32),
    "grid.length": (float, 2.0 * math.pi),
    "data.kind": (str, "gaussian"),
    "data.amplitude": (float, 1e-2),
    "data.width": (float, 0.6),
    "data.modulation": (float, 1.0),
    "data.file": (str, ""),
    "elliptic.tol": (float, 1e-10),
    "elliptic.max_iter": (int, 200),
    "elliptic.smallness_threshold": (float, 0.05),
    "time.dt": (_parse_optional_float, None),
    "time.t_end": (float, 1.0),
    "time.scheme": (str, "split_step"),
    "time.resolve_every": (int, 1),
    "time.force_v_zero": (_parse_bool, False),
    "time.trivial_gauge": (_parse_bool, False),
    "monitors.k_list": (_parse_k_list, (0, 1, 2)),
    "monitors.c_e_budget": (float, 100.0),
    "oracle.t_end": (float, 0.1),
    "oracle.dt_gauge": (float, 0.0125),
    "oracle.dt_immersion": (float, 0.002),
    "oracle.construction_tol": (float, 1e-7),
    "output.csv": (str, ""),
    "output.checkpoint": (str, ""),
    "output.checkpoint_every": (int, 0),
    "output.json": (str, ""),
}


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines; '#' starts a comment."""
    items = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in items:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        items[key] = value
    return items


def parse_overrides(tokens: list) -> dict:
    items = {}
    for tok in tokens:
        if not tok.startswith("--") or "=" not in tok:
            raise ConfigError(f"expected --key=value override, got {tok!r}")
        key, value = tok[2:].split("=", 1)
        items[key] = value
    return items


@dataclass(frozen=True)
class RunConfig:
    """Fully validated configuration for every subcommand."""

    values: dict

    def __getitem__(self, key):
        return self.values[key]

    @staticmethod
    def build(items: dict) -> "RunConfig":
        values = {k: default for k, (_, default) in _KEY_TABLE.items()}
        for key, raw in items.items():
            if key not in _KEY_TABLE:
                raise ConfigError(f"unknown configuration key {key!r}")
            parser, _ = _KEY_TABLE[key]
            try:
                values[key] = parser(raw) if isinstance(raw, str) else raw
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}") from exc
        cfg = RunConfig(values=values)
        cfg._validate()
        return cfg

    def _validate(self) -> None:
        v = self.values
        if v["data.kind"] not in _DATA_KINDS:
            raise ConfigError(f"data.kind must be one of {_DATA_KINDS}")
        if v["data.kind"] == "file" and not v["data.file"]:
            raise ConfigError("data.kind=file requires data.file")
        if v["data.amplitude"] < 0:
            raise ConfigError("data.amplitude must be nonnegative")
        if v["data.width"] <= 0:
            raise ConfigError("data.width must be positive")
        if v["output.checkpoint_every"] < 0:
            raise ConfigError("output.checkpoint_every must be >= 0")
        for name, build in (("grid", self.grid), ("elliptic", self.elliptic),
                            ("time", self.evolution), ("oracle", self.oracle)):
            try:
                build()
            except ValueError as exc:
                raise ConfigError(f"bad {name} settings: {exc}") from exc
        for key in ("output.csv", "output.checkpoint", "output.json"):
            path = v[key]
            if path and path != "-":
                parent = os.path.dirname(os.path.abspath(path))
                if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
                    raise ConfigError(f"{key} path not writable: {path!r}")

    def grid(self) -> Grid:
        v = self.values
        return Grid(d=v["dimension"], n=v["grid.n"], length=v["grid.length"])

    def elliptic(self) -> EllipticConfig:
        v = self.values
        return EllipticConfig(
            tol=v["elliptic.tol"],
            max_iter=v["elliptic.max_iter"],
            smallness_threshold=v["elliptic.smallness_threshold"],
        )

    def evolution(self) -> ev.EvolutionConfig:
        v = self.values
        return ev.EvolutionConfig(
            dt=v["time.dt"],
            t_end=v["time.t_end"],
            scheme=v["time.scheme"],
            resolve_every=v["time.resolve_every"],
            monitor_ks=v["monitors.k_list"],
            c_e_budget=v["monitors.c_e_budget"],
            force_v_zero=v["time.force_v_zero"],
            trivial_gauge=v["time.trivial_gauge"],
            elliptic=self.elliptic(),
        )

    def oracle(self) -> im.OracleConfig:
        v = self.values
        return im.OracleConfig(
            t_end=v["oracle.t_end"],
            dt_gauge=v["oracle.dt_gauge"],
            dt_immersion=v["oracle.dt_immersion"],
            construction_tol=v["oracle.construction_tol"],
            elliptic=self.elliptic(),
        )

    def initial_data(self, grid: Grid) -> np.ndarray:
        v = self.values
        kind = v["data.kind"]
        if kind == "file":
            loaded = load_checkpoint(v["data.file"])
            if loaded["d"] != grid.d or loaded["n"] != grid.n:
                raise ConfigError(
                    "data.file grid does not match the configured grid"
                )
            return loaded["psi"]
        amp, width, freq = (v["data.amplitude"], v["data.width"],
                            v["data.modulation"])
        x = grid.coords()
        if kind == "single_mode":
            return amp * np.exp(1j * freq * x[0])
        c = grid.length / 2.0
        r2 = sum((x[a] - c) ** 2 for a in range(grid.d))
        psi = amp * np.exp(-r2 / (2 * width**2)) * np.exp(1j * freq * (x[0] - c))
        return psi - np.mean(psi)

    def echo(self) -> dict:
        out = {}
        for key, val in self.values.items():
            if isinstance(val, tuple):
                out[key] = list(val)
            else:
                out[key] = val
        return out


def load_config(args, extras) -> RunConfig:
    items = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as f:
                items.update(parse_config_text(f.read()))
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
    items.update(parse_overrides(extras))
    return RunConfig.build(items)


# --------------------------------------------------------------------------
# checkpoints

_HEADER = struct.Struct("<4sIIIddQB")


def _digest(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=8).digest()


def _pack_array(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _pack_complex(arr: np.ndarray) -> bytes:
    inter = np.stack([arr.real, arr.imag], axis=-1)
    return _pack_array(inter)


def _pack_entry(arr) -> bytes:
    arr = np.asarray(arr, dtype=float)
    return (struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape)
            + _pack_array(arr))


def save_checkpoint(path: str, grid: Grid, t: float, step: int,
                    psi: np.ndarray, state=None, carry: dict | None = None):
    """Binary snapshot: header, interleaved psi payload, optional gauge
    blob followed by the monitor carry (``evolution.CARRY_KEYS``, each
    entry with its shape), trailing 64-bit digest.

    Written to a temporary file in the same directory, fsynced, then
    renamed over ``path``, so an interrupted write leaves the previous
    checkpoint intact."""
    has_blob = state is not None
    parts = [_pack_complex(psi)]
    if has_blob:
        parts.append(_pack_array(state.metric.g))
        parts.append(_pack_complex(state.lam))
        parts.append(_pack_array(state.V))
        parts.append(_pack_array(state.A))
        parts.append(_pack_array(state.B))
        parts.extend(_pack_entry(carry[key]) for key in ev.CARRY_KEYS)
    payload = b"".join(parts)
    header = _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, grid.d, grid.n,
                          grid.length, t, step, 1 if has_blob else 0)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(header)
            f.write(payload)
            f.write(_digest(payload))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path: str) -> dict:
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint: {exc}") from exc
    if len(raw) < _HEADER.size + 8:
        raise CheckpointError("checkpoint file truncated")
    magic, version, d, n, length, t, step, flags = _HEADER.unpack(
        raw[: _HEADER.size]
    )
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError("bad magic bytes")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    payload, digest = raw[_HEADER.size : -8], raw[-8:]
    if _digest(payload) != digest:
        raise CheckpointError("payload checksum mismatch")

    grid = Grid(d=d, n=n, length=length)
    shape = grid.shape
    offset = 0

    def take(shape_t):
        nonlocal offset
        count = int(np.prod(shape_t))
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        offset += count * 8
        return arr.astype(float).reshape(shape_t)

    def take_complex(shape_t):
        flat = take(shape_t + (2,))
        return flat[..., 0] + 1j * flat[..., 1]

    def take_entry():
        nonlocal offset
        (ndim,) = struct.unpack_from("<I", payload, offset)
        entry_shape = struct.unpack_from(f"<{ndim}I", payload, offset + 4)
        offset += 4 * (ndim + 1)
        return take(entry_shape)

    psi = take_complex(shape)
    out = {"grid": grid, "d": d, "n": n, "length": length, "t": t,
           "step": step, "psi": psi, "state": None, "extras": None}
    if flags & 1:
        g = take((d, d) + shape)
        lam = take_complex((d, d) + shape)
        V = take((d,) + shape)
        A = take((d,) + shape)
        B = take(shape)
        out["extras"] = {key: take_entry() for key in ev.CARRY_KEYS}
        out["state"] = ge.GaugeState(grid=grid, psi=psi,
                                     metric=MetricField(grid, g), lam=lam,
                                     V=V, A=A, B=B)
    if offset != len(payload):
        raise CheckpointError("trailing bytes in checkpoint payload")
    return out


# --------------------------------------------------------------------------
# shared reporting

_RESIDUAL_COLUMNS = (
    ("res_gauss", "gauss"),
    ("res_codazzi", "codazzi"),
    ("res_div", "divergence"),
    ("res_curlA", "curl_a"),
    ("res_coulomb", "coulomb"),
    ("res_harmonic", "harmonic"),
    ("res_symm", "symmetry"),
    ("res_trace", "trace"),
)


def csv_columns(ks) -> list:
    cols = ["t"] + [f"E{k}" for k in ks]
    cols += ["h_sd_norm", "lambda_linf", "strichartz_acc"]
    cols += [name for name, _ in _RESIDUAL_COLUMNS]
    cols += ["metric_dev", "dt_used"]
    return cols


def spatial_row(sample: ev.Sample, ks) -> dict:
    """Per-time spatial quantities of one monitor sample; shared by the
    run CSV and the ``norms`` subcommand so the two always agree."""
    row = {f"E{k}": sample.energies[k] for k in ks}
    row["h_sd_norm"] = sample.hs_norm
    row["lambda_linf"] = sample.lam_linf
    for name, attr in _RESIDUAL_COLUMNS:
        row[name] = getattr(sample.report, attr).l2
    return row


# --------------------------------------------------------------------------
# run subcommand


def _cmd_run(args, extras) -> int:
    cfg = load_config(args, extras)
    grid = cfg.grid()
    ecfg = cfg.evolution()
    ks = ecfg.monitor_ks
    n_steps, dt = ev.step_count(grid, ecfg)

    csv_path = cfg["output.csv"] or None
    ckpt_path = cfg["output.checkpoint"] or None
    ckpt_every = cfg["output.checkpoint_every"]

    start, state, carry = 0, None, None
    if args.resume:
        loaded = load_checkpoint(args.resume)
        if (loaded["d"], loaded["n"]) != (grid.d, grid.n) or not math.isclose(
            loaded["length"], grid.length, rel_tol=0, abs_tol=1e-12
        ):
            raise ConfigError("resume checkpoint grid mismatch")
        if loaded["state"] is None:
            raise ConfigError("resume checkpoint has no gauge/accumulator blob")
        psi, state, carry = loaded["psi"], loaded["state"], loaded["extras"]
        start = int(loaded["step"])
        if start > n_steps:
            raise ConfigError("resume checkpoint is past time.t_end")
        if not math.isclose(loaded["t"], start * dt, rel_tol=1e-9, abs_tol=1e-12):
            raise ConfigError("resume checkpoint was written with another dt")
        if tuple(carry["ks"]) != ks:
            raise ConfigError("resume checkpoint monitors another k_list")
    else:
        psi = cfg.initial_data(grid)
    monitor = ev.Monitor(grid, ecfg, carry)
    csv_file = None
    try:
        for i, t, psi, state in ev.stepper(grid, psi, ecfg, state, start):
            sample = monitor.record(psi, state)
            if csv_path and csv_file is None:  # no file if the first solve fails
                csv_file = open(csv_path, "a" if args.resume else "w", newline="")
                if not args.resume:
                    csv_file.write(f"# schema={CSV_SCHEMA}\n")
                    csv_file.write(",".join(csv_columns(ks)) + "\n")
            if csv_file:
                row = spatial_row(sample, ks)
                row.update(t=t, strichartz_acc=sample.strichartz,
                           metric_dev=sample.metric_dev, dt_used=dt)
                csv_file.write(",".join(g17(row[c]) for c in csv_columns(ks))
                               + "\n")
            if ckpt_path and ((ckpt_every and i % ckpt_every == 0)
                              or i == n_steps):
                save_checkpoint(ckpt_path, grid, t, i, psi, state,
                                monitor.carry)
    finally:
        if csv_file:
            csv_file.close()

    totals = monitor.summary()
    summary = {
        "schema": "smcf-json-1",
        "t_end": ecfg.t_end,
        "dt": dt,
        "n_steps": n_steps,
        "resumed_from_step": start,
        **totals,
        "rho_within_budget": all(
            r <= ecfg.c_e_budget for r in totals["rho_max"].values()),
        "config": cfg.echo(),
    }
    _emit(dump_json(summary), cfg["output.json"] or None)
    return EXIT_OK


# --------------------------------------------------------------------------
# other subcommands


def _residual_table(rep: geo.ConstraintReport) -> dict:
    return {
        name: {"l2": res.l2, "linf": res.linf}
        for name, res in rep.as_dict().items()
    }


def _cmd_elliptic(args, extras) -> int:
    cfg = load_config(args, extras)
    grid = cfg.grid()
    psi0 = cfg.initial_data(grid).astype(complex)
    state = ge.solve_elliptic_system(grid, psi0, cfg.elliptic())
    d = state.diagnostics
    summary = {
        "schema": "smcf-json-1",
        "outer_iterations": d.get("outer_iterations"),
        "final_update": d.get("final_update"),
        "norms": {
            "psi_l2": sp.l2_norm(grid, psi0),
            "lam_l2": sp.l2_norm(grid, state.lam),
            "h_linf": float(np.max(np.abs(state.metric.h))),
            "V_l2": sp.l2_norm(grid, state.V),
            "A_l2": sp.l2_norm(grid, state.A),
            "B_l2": sp.l2_norm(grid, state.B),
        },
        "residuals": _residual_table(state.constraint_report()),
        "config": cfg.echo(),
    }
    _emit(dump_json(summary), cfg["output.json"] or None)
    return EXIT_OK


def _cmd_oracle(args, extras) -> int:
    cfg = load_config(args, extras)
    grid = cfg.grid()
    psi0 = cfg.initial_data(grid).astype(complex)
    try:
        rep = im.oracle_compare(grid, psi0, cfg.oracle())
    except geo.NotContractingError as exc:
        gauge_side = isinstance(exc, im.GaugeEvolutionError)
        _emit(dump_json({
            "schema": "smcf-json-1",
            "status": "gauge_failed" if gauge_side else "alignment_failed",
            "message": str(exc),
            "config": cfg.echo(),
        }), cfg["output.json"] or None)
        return EXIT_SOLVER
    summary = {
        "schema": "smcf-json-1",
        "status": "ok",
        "t_end": rep.t_end,
        "discrepancy": rep.discrepancy,
        "alignment": {
            "coulomb_angle_linf": rep.alignment["coulomb_angle_linf"],
            "global_phase": rep.alignment["global_phase"],
            "translation": list(rep.alignment["translation"]),
            "mean_offset": rep.alignment["mean_offset"],
        },
        "config": cfg.echo(),
    }
    _emit(dump_json(summary), cfg["output.json"] or None)
    return EXIT_OK


def _cmd_norms(args, extras) -> int:
    cfg_items = parse_overrides(extras)  # RunConfig.build rejects unknown keys
    loaded = load_checkpoint(args.checkpoint)
    grid = loaded["grid"]
    cfg_items.setdefault("dimension", str(grid.d))
    cfg_items.setdefault("grid.n", str(grid.n))
    cfg_items["grid.length"] = repr(grid.length)
    cfg = RunConfig.build(cfg_items)
    ks = cfg["monitors.k_list"]
    psi = loaded["psi"]
    state = loaded["state"]
    if state is None:
        state = ge.solve_elliptic_system(grid, psi, cfg.elliptic())
    row = spatial_row(ev.Monitor(grid, cfg.evolution()).record(psi, state), ks)
    summary = {
        "schema": "smcf-json-1",
        "t": loaded["t"],
        "step": loaded["step"],
        "gauge_state": "stored" if loaded["state"] is not None else "re-solved",
        **row,
    }
    _emit(dump_json(summary), cfg["output.json"] or None)
    return EXIT_OK


def _parse_exponent(text: str):
    t = text.strip().lower()
    if t in ("inf", "infinity", "oo"):
        return math.inf
    return Fraction(t)


def _cmd_check_pairs(args, extras) -> int:
    if extras:
        raise ConfigError(f"unexpected arguments: {extras}")
    try:
        q, r = _parse_exponent(args.q), _parse_exponent(args.r)
        qd, rd = _parse_exponent(args.q_dual), _parse_exponent(args.r_dual)
    except ValueError as exc:
        raise ConfigError(f"bad exponent: {exc}") from exc
    rep = nrm.pair_check(q, r, qd, rd, args.dimension)
    verdict = {
        "schema": "smcf-json-1",
        "d": args.dimension,
        "pair": [str(q), str(r)],
        "pair_dual": [str(qd), str(rd)],
        **dataclasses.asdict(rep),
    }
    _emit(dump_json(verdict), args.output)
    return EXIT_OK


# --------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smcf",
        description="Spectral simulator for the skew mean curvature flow "
                    "in the harmonic/Coulomb gauge.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evolve the gauged flow")
    p_run.add_argument("--config", help="key = value configuration file")
    p_run.add_argument("--resume", help="checkpoint to resume from")
    p_run.set_defaults(func=_cmd_run)

    p_ell = sub.add_parser("elliptic", help="solve the fixed-time gauge system")
    p_ell.add_argument("--config")
    p_ell.set_defaults(func=_cmd_elliptic)

    p_or = sub.add_parser("oracle", help="gauge-vs-immersion comparison")
    p_or.add_argument("--config")
    p_or.set_defaults(func=_cmd_oracle)

    p_no = sub.add_parser("norms", help="norm table of a stored checkpoint")
    p_no.add_argument("--checkpoint", required=True)
    p_no.set_defaults(func=_cmd_norms)

    p_cp = sub.add_parser("check-pairs", help="exponent pair verdicts")
    p_cp.add_argument("q")
    p_cp.add_argument("r")
    p_cp.add_argument("q_dual")
    p_cp.add_argument("r_dual")
    p_cp.add_argument("--dimension", type=int, default=4)
    p_cp.add_argument("--output")
    p_cp.set_defaults(func=_cmd_check_pairs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    try:
        return args.func(args, extras)
    except ConfigError as exc:
        return _fail("configuration", str(exc), EXIT_CONFIG)
    except CheckpointError as exc:
        return _fail("checkpoint-io", str(exc), EXIT_IO)
    except (ge.SmallnessViolatedError, ge.LostPositivityError,
            geo.NotContractingError, geo.SingularMetricError,
            im.DegenerateImmersionError) as exc:
        return _fail("solver", str(exc), EXIT_SOLVER)
    except RuntimeError as exc:
        return _fail("evolution", str(exc), EXIT_SOLVER)
    except OSError as exc:
        return _fail("io", str(exc), EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
