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
CHECKPOINT_VERSION = 4


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


def _write_atomic(path: str, chunks) -> None:
    """Write the byte strings ``chunks`` to a temporary file in the same
    directory, fsync it, then rename it over ``path``: an interrupted
    write leaves the previous file intact and no temporary file behind.
    A symbolic link is followed.  A device or a pipe (``/dev/null``)
    cannot be renamed over, so it is written in place."""
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "wb") as f:
            f.writelines(chunks)
        return
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.writelines(chunks)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        _write_atomic(path, [text.encode("utf-8")])


# --------------------------------------------------------------------------
# configuration


def _parse_bool(v: str) -> bool:
    lv = v.strip().lower()
    if lv in ("true", "1", "yes", "on"):
        return True
    if lv in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {v!r}")


def _parse_float(v: str) -> float:
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {v!r}")
    return x


def _parse_optional_float(v: str):
    if v.strip().lower() in ("", "auto", "none"):
        return None
    return _parse_float(v)


def _parse_k_list(v: str) -> tuple:
    return tuple(int(p) for p in v.replace(",", " ").split())


#: a key's parser, by the type of its default
_PARSERS = {bool: _parse_bool, int: int, float: _parse_float, str: str,
            tuple: _parse_k_list, type(None): _parse_optional_float}

#: the keys not named ``<section>.<field>``
_KEY_NAMES = {"grid.d": "dimension", "time.monitor_ks": "monitors.k_list",
              "time.c_e_budget": "monitors.c_e_budget"}


def _owned_keys(section: str, cls):
    """(``<section>.<field>`` key, field) for each field of the config class
    ``cls`` without a default factory (nested configs)."""
    for f in dataclasses.fields(cls):
        if f.default_factory is dataclasses.MISSING:
            key = f"{section}.{f.name}"
            yield _KEY_NAMES.get(key, key), f


def _defaults(section: str, cls) -> dict:
    return {key: f.default for key, f in _owned_keys(section, cls)}


_DATA_KINDS = ("gaussian", "single_mode", "file")

# every accepted key and its default, in echo order: the config classes'
# own, and literals (these replace the MISSING d and n of ``Grid`` in place)
_KEY_TABLE = {
    **_defaults("grid", Grid),
    "dimension": 2,
    "grid.n": 32,
    "data.kind": "gaussian",
    "data.amplitude": 1e-2,
    "data.width": 0.6,
    "data.modulation": 1.0,
    "data.file": "",
    **_defaults("elliptic", EllipticConfig),
    **_defaults("time", ev.EvolutionConfig),
    **_defaults("oracle", im.OracleConfig),
    "output.csv": "",
    "output.checkpoint": "",
    "output.checkpoint_every": 0,
    "output.json": "",
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
    """Fully validated configuration for every subcommand: ``values``
    holds every key of ``_KEY_TABLE``, floats finite.  The fields of
    ``Grid``, ``EllipticConfig``, ``EvolutionConfig`` and ``OracleConfig``
    are keys (see ``_owned_keys``) whose defaults and checks are the
    class's own; ``grid()`` ... ``oracle()`` build those objects."""

    values: dict

    def __getitem__(self, key):
        return self.values[key]

    @staticmethod
    def build(items: dict) -> "RunConfig":
        values = dict(_KEY_TABLE)
        for key, raw in items.items():
            if key not in _KEY_TABLE:
                raise ConfigError(f"unknown configuration key {key!r}")
            try:
                values[key] = _PARSERS[type(_KEY_TABLE[key])](raw)
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
        if not v["data.amplitude"] >= 0:
            raise ConfigError("data.amplitude must be nonnegative")
        if not v["data.width"] > 0:
            raise ConfigError("data.width must be positive")
        if v["data.kind"] == "single_mode":  # amp exp(i m x_0) must be periodic
            turns = v["data.modulation"] * v["grid.length"] / (2.0 * np.pi)
            if not (math.isfinite(turns) and math.isclose(
                    turns, round(turns), rel_tol=1e-12, abs_tol=1e-12)):
                raise ConfigError("data.kind=single_mode needs data.modulation "
                                  f"* grid.length / (2 pi) whole, got {turns:.17g}")
        if v["output.checkpoint_every"] < 0:
            raise ConfigError("output.checkpoint_every must be >= 0")
        # every subcommand solves the gauge, whose dimension rule (d >= 2)
        # ``nrm.exponents`` owns; a step of 0, or one too small for a finite
        # step count, is rejected by ``ev.step_count`` here and by
        # ``OracleConfig`` itself
        for name, check in (
                ("grid", lambda: nrm.exponents(self.grid().d)),
                ("elliptic", self.elliptic),
                ("time", lambda: ev.step_count(self.grid(), self.evolution())),
                ("oracle", self.oracle)):
            try:
                check()
            except ValueError as exc:
                raise ConfigError(f"bad {name} settings: {exc}") from exc
        for key in ("output.csv", "output.checkpoint", "output.json"):
            path = v[key]
            if path == "-" and key != "output.json":  # only the JSON goes to stdout
                raise ConfigError(f"{key} cannot be '-' (stdout)")
            if path and path != "-":
                parent = os.path.dirname(os.path.abspath(path))
                if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
                    raise ConfigError(f"{key} path not writable: {path!r}")

    def _build(self, section: str, cls, **nested):
        return cls(**{f.name: self.values[key]
                      for key, f in _owned_keys(section, cls)}, **nested)

    def grid(self) -> Grid:
        return self._build("grid", Grid)

    def elliptic(self) -> EllipticConfig:
        return self._build("elliptic", EllipticConfig)

    def evolution(self) -> ev.EvolutionConfig:
        return self._build("time", ev.EvolutionConfig, elliptic=self.elliptic())

    def oracle(self) -> im.OracleConfig:
        return self._build("oracle", im.OracleConfig, elliptic=self.elliptic())

    def initial_data(self, grid: Grid) -> np.ndarray:
        v = self.values
        kind = v["data.kind"]
        if kind == "file":
            return _on_grid(load_checkpoint(v["data.file"]), grid,
                            "data.file")["psi"]
        amp, width, freq = (v["data.amplitude"], v["data.width"],
                            v["data.modulation"])
        x = grid.coords()
        if kind == "single_mode":
            return amp * np.exp(1j * freq * x[0])
        c = grid.length / 2.0
        r2 = sum((x[a] - c) ** 2 for a in range(grid.d))
        psi = amp * np.exp(-r2 / (2 * width**2)) * np.exp(1j * freq * (x[0] - c))
        return psi - np.mean(psi)


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

#: the gauge blob in file order: (GaugeState field, tensor rank, dtype),
#: each of shape (d,) * rank + grid.shape ("g" is ``state.metric.g``)
_GAUGE_FIELDS = (("g", 2, "<f8"), ("lam", 2, "<c16"), ("V", 1, "<f8"),
                 ("A", 1, "<f8"), ("B", 0, "<f8"))

#: the contraction factors of the solve record that a warm solve borrows,
#: after the gauge blob as ``<f8``, NaN where none was measured
_FACTORS = ("q", "q_V")


def _digest(body: bytes) -> bytes:
    return hashlib.blake2b(body, digest_size=8).digest()


def _pack(arr, dtype: str) -> bytes:
    return np.ascontiguousarray(arr, dtype=dtype).tobytes()


def save_checkpoint(path: str, t: float, step: int, state,
                    carry: dict | None = None):
    """Binary snapshot, format 4, of a run's ``GaugeState`` with its
    monitor ``carry``, or of a (grid, psi) pair as a psi-only data file.
    All little-endian: the 41-byte ``_HEADER`` (magic, version, d, n,
    length, t, step, blob flag), psi as ``<c16``, then for a gauge state
    the gauge blob in ``_GAUGE_FIELDS`` order, the state's ``_FACTORS``
    (so that a resumed run stops its solves where the uninterrupted one
    does) and the carry in ``evolution.CARRY_KEYS`` order (each entry
    its rank and shape as ``<u4``, then its ``<f8`` values), and last a
    64-bit digest of every byte before it.

    Written by ``_write_atomic``, so an interrupted write leaves the
    previous checkpoint intact."""
    psi_only = isinstance(state, tuple)
    grid, psi = state if psi_only else (state.grid, state.psi)
    parts = [_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, grid.d, grid.n,
                          grid.length, t, step, not psi_only),
             _pack(psi, "<c16")]
    if not psi_only:
        parts += [_pack(state.metric.g if name == "g" else getattr(state, name),
                        dtype) for name, _, dtype in _GAUGE_FIELDS]
        parts.append(_pack([state.diagnostics.get(k, np.nan) for k in _FACTORS],
                           "<f8"))
        for key in ev.CARRY_KEYS:
            entry = np.asarray(carry[key], dtype=float)
            parts += [_pack((entry.ndim,) + entry.shape, "<u4"),
                      _pack(entry, "<f8")]
    body = b"".join(parts)
    _write_atomic(path, [body, _digest(body)])


def load_checkpoint(path: str) -> dict:
    """The checkpoint at ``path`` as a dict of ``grid``, ``t``, ``step``,
    ``psi``, ``state`` and ``extras`` (the monitor carry); the last two
    are None without a gauge blob.  Raises ``CheckpointError`` on any
    unreadable, corrupt or malformed file."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint: {exc}") from exc
    if len(raw) < _HEADER.size + 8:
        raise CheckpointError("checkpoint file truncated")
    magic, version, d, n, length, t, step, flags = _HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError("bad magic bytes")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    body = memoryview(raw)[:-8]
    if _digest(body) != raw[-8:]:
        raise CheckpointError("checkpoint checksum mismatch")

    offset = _HEADER.size

    def take(dtype, shape):
        nonlocal offset
        arr = np.frombuffer(body, dtype=dtype, count=math.prod(shape),
                            offset=offset)
        offset += arr.nbytes
        return arr.reshape(shape).copy()

    try:
        grid = Grid(d=d, n=n, length=length)
        psi = take("<c16", grid.shape)
        fields = extras = None
        if flags & 1:
            fields = {name: take(dtype, (d,) * rank + grid.shape)
                      for name, rank, dtype in _GAUGE_FIELDS}
            fields["diagnostics"] = dict(zip(
                _FACTORS, take("<f8", (len(_FACTORS),)).tolist()))
            extras = {}
            for key in ev.CARRY_KEYS:
                ndim = int(take("<u4", ()))
                extras[key] = take("<f8", tuple(take("<u4", (ndim,)).tolist()))
    except (ValueError, OverflowError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc
    if offset != len(body):
        raise CheckpointError("trailing bytes in checkpoint payload")
    state = None if fields is None else ge.GaugeState(
        psi=psi, metric=MetricField(grid, fields.pop("g")), **fields)
    return {"grid": grid, "t": t, "step": step, "psi": psi, "state": state,
            "extras": extras}


def _on_grid(loaded: dict, grid: Grid, what: str) -> dict:
    """``loaded`` (from ``load_checkpoint``), which must lie on ``grid``:
    the same d and n, and a side length within 1e-12."""
    got = loaded["grid"]
    if (got.d, got.n) != (grid.d, grid.n) or not math.isclose(
            got.length, grid.length, rel_tol=0, abs_tol=1e-12):
        raise ConfigError(f"{what} grid does not match the configured grid")
    return loaded


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

    start, carry = 0, None
    if args.resume:
        loaded = _on_grid(load_checkpoint(args.resume), grid,
                          "resume checkpoint")
        if loaded["state"] is None:
            raise ConfigError("resume checkpoint has no gauge/accumulator blob")
        state, carry = loaded["state"], loaded["extras"]
        start = int(loaded["step"])
        if start > n_steps:
            raise ConfigError("resume checkpoint is past time.t_end")
        if not math.isclose(loaded["t"], start * dt, rel_tol=1e-9, abs_tol=1e-12):
            raise ConfigError("resume checkpoint was written with another dt")
        if tuple(carry["ks"]) != ks:
            raise ConfigError("resume checkpoint monitors another k_list")
        # keep the header and the rows of steps 0..start; a device keeps none
        if csv_path and (os.path.isfile(csv_path) or not os.path.exists(csv_path)):
            try:
                with open(csv_path, "rb") as f:
                    rows = f.readlines()[:2 + start + 1]
            except OSError as exc:
                raise ConfigError(f"cannot read output.csv {csv_path}: {exc}") from exc
            if len(rows) < 2 + start + 1:
                raise ConfigError(f"output.csv {csv_path} ends before the checkpoint")
            _write_atomic(csv_path, rows)
    else:
        state = ev.resolve_gauge(grid, cfg.initial_data(grid), ecfg)
    steps = ev.stepper(state, ecfg, start)
    if args.resume:
        next(steps)  # step ``start``, which the checkpoint recorded
    monitor = ev.Monitor(grid, ecfg, carry)
    csv_file = None
    try:
        if csv_path:  # after the first solve, so that a failing one leaves no file
            csv_file = open(csv_path, "a" if args.resume else "w", newline="")
            if not args.resume:
                csv_file.write(f"# schema={CSV_SCHEMA}\n")
                csv_file.write(",".join(csv_columns(ks)) + "\n")
        for i, t, state in steps:
            sample = monitor.record(state)
            if csv_file:
                row = spatial_row(sample, ks)
                row.update(t=t, strichartz_acc=sample.strichartz,
                           metric_dev=sample.metric_dev, dt_used=dt)
                csv_file.write(",".join(g17(row[c]) for c in csv_columns(ks))
                               + "\n")
            if ckpt_path and ((ckpt_every and i % ckpt_every == 0)
                              or i == n_steps):
                if csv_file:  # a resume from this checkpoint reads these rows
                    csv_file.flush()
                save_checkpoint(ckpt_path, t, i, state, monitor.carry)
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
        "config": cfg.values,
    }
    _emit(dump_json(summary), cfg["output.json"] or None)
    return EXIT_OK


# --------------------------------------------------------------------------
# other subcommands


def _cmd_elliptic(args, extras) -> int:
    cfg = load_config(args, extras)
    grid = cfg.grid()
    psi0 = cfg.initial_data(grid).astype(complex)
    state = ge.solve_elliptic_system(grid, psi0, cfg.elliptic())
    d = state.diagnostics
    report = state.constraint_report()
    summary = {
        "schema": "smcf-json-1",
        "outer_iterations": d.get("outer_iterations"),
        "final_update": d.get("final_update"),
        "q": d.get("q"),
        "V_iterations": d.get("V_iterations"),
        "q_V": d.get("q_V"),
        "B_iterations": d.get("B_iterations"),
        "norms": {
            "psi_l2": sp.l2_norm(grid, psi0),
            "lam_l2": sp.l2_norm(grid, state.lam),
            "h_linf": float(np.max(np.abs(state.metric.h))),
            "V_l2": sp.l2_norm(grid, state.V),
            "A_l2": sp.l2_norm(grid, state.A),
            "B_l2": sp.l2_norm(grid, state.B),
        },
        "residuals": {name: {"l2": res.l2, "linf": res.linf}
                      for name, res in report.as_dict().items()},
        "nondecay": report.nondecay,
        "config": cfg.values,
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
            "config": cfg.values,
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
        "config": cfg.values,
    }
    _emit(dump_json(summary), cfg["output.json"] or None)
    return EXIT_OK


def _cmd_norms(args, extras) -> int:
    loaded = load_checkpoint(args.checkpoint)
    grid = loaded["grid"]  # the default grid; an override must match it
    cfg = RunConfig.build({"dimension": str(grid.d), "grid.n": str(grid.n),
                           "grid.length": repr(grid.length),
                           **parse_overrides(extras)})
    _on_grid(loaded, cfg.grid(), "checkpoint")
    ks = cfg["monitors.k_list"]
    psi = loaded["psi"]
    state = loaded["state"]
    if state is None:
        state = ge.solve_elliptic_system(grid, psi, cfg.elliptic())
    row = spatial_row(ev.Monitor(grid, cfg.evolution()).record(state), ks)
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
    """A Lebesgue exponent: ``inf`` or a rational > 0, else ``ValueError``."""
    t = text.strip().lower()
    if t in ("inf", "infinity", "oo"):
        return math.inf
    value = Fraction(t)
    if value <= 0:
        raise ValueError(f"{text!r} is not > 0")
    return value


def _cmd_check_pairs(args, extras) -> int:
    if extras:
        raise ConfigError(f"unexpected arguments: {extras}")
    if args.dimension < 1:
        raise ConfigError(f"--dimension must be >= 1, got {args.dimension}")
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
