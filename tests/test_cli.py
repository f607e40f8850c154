import json
import math
import os
import pathlib
import shlex
import stat
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcf import cli
from smcf import evolution as ev
from smcf import gauge_elliptic as ge
from smcf import geometry as geo
from smcf import immersion as im
from smcf.spectral import Grid


def run_cli(*argv):
    return cli.main(list(argv))


BASE = [
    "--config", "/dev/null",
    "--grid.n=16",
    "--time.dt=0.05",
    "--elliptic.smallness_threshold=0.5",
]


class TestConfigParsing:
    def test_text_format(self):
        items = cli.parse_config_text(
            "# comment\n\ngrid.n = 24  # trailing\ntime.scheme=imex_rk2\n"
        )
        assert items == {"grid.n": "24", "time.scheme": "imex_rk2"}

    def test_duplicate_key(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config_text("grid.n = 16\ngrid.n = 32\n")

    def test_missing_equals(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config_text("grid.n 16\n")

    def test_unknown_key(self):
        with pytest.raises(cli.ConfigError):
            cli.RunConfig.build({"grid.m": "16"})

    @pytest.mark.parametrize("key", ["data.seed", "elliptic.under_relaxation",
                                     "time.resolve_every", "time.force_v_zero"])
    def test_removed_key_is_unknown(self, key):
        with pytest.raises(cli.ConfigError):
            cli.RunConfig.build({key: "0"})

    def test_key_table_names_and_order(self):
        assert list(cli.RunConfig.build({}).values) == [
            "dimension", "grid.n", "grid.length",
            "data.kind", "data.amplitude", "data.width", "data.modulation",
            "data.file",
            "elliptic.tol", "elliptic.max_iter", "elliptic.smallness_threshold",
            "time.dt", "time.t_end", "time.scheme", "time.trivial_gauge",
            "monitors.k_list", "monitors.c_e_budget",
            "oracle.t_end", "oracle.dt_gauge", "oracle.dt_immersion",
            "oracle.construction_tol",
            "output.csv", "output.checkpoint", "output.checkpoint_every",
            "output.json",
        ]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", [
        "grid.length", "data.amplitude", "data.width", "data.modulation",
        "elliptic.tol", "elliptic.smallness_threshold", "time.dt",
        "time.t_end", "monitors.c_e_budget", "oracle.t_end",
        "oracle.dt_gauge", "oracle.dt_immersion", "oracle.construction_tol"])
    def test_non_finite_float_exits_2(self, key, value, capsys):
        assert run_cli("elliptic", "--config", "/dev/null", "--grid.n=16",
                       f"--{key}={value}") == 2
        err = capsys.readouterr().err
        assert "configuration:" in err and "Traceback" not in err

    def test_repeated_energy_order_exits_2(self, capsys):
        assert run_cli("run", *BASE, "--monitors.k_list=1,1") == 2
        assert "configuration:" in capsys.readouterr().err

    def test_defaults_and_types(self):
        cfg = cli.RunConfig.build({})
        assert cfg["grid.n"] == 32
        assert cfg["time.dt"] is None
        assert cfg["monitors.k_list"] == (0, 1, 2)
        cfg = cli.RunConfig.build({"monitors.k_list": "0, 2"})
        assert cfg["monitors.k_list"] == (0, 2)

    def test_validation_rejects(self):
        for items in (
            {"data.amplitude": "-1"},
            {"data.kind": "nope"},
            {"time.scheme": "euler"},
            {"grid.n": "7"},
            {"time.dt": "-0.1"},
            {"output.csv": "/no/such/dir/out.csv"},
        ):
            with pytest.raises(cli.ConfigError):
                cli.RunConfig.build(items)

    def test_override_wins_exit_codes(self, tmp_path):
        assert run_cli("run", "--config", "/dev/null", "--bogus=1") == 2
        assert run_cli("run", "--config", "/dev/null", "--grid.n=7") == 2
        assert run_cli("run", "--config", "/dev/null",
                       "--time.resolve_every=2") == 2

    @pytest.mark.parametrize("key", ["output.csv", "output.checkpoint"])
    def test_dash_is_stdout_for_the_json_only(self, key, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli("run", *BASE, "--time.t_end=0.1", f"--{key}=-",
                       "--output.json=-") == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "-").exists()

    def test_t_end_below_one_step_exits_2(self):
        assert run_cli("run", "--config", "/dev/null", "--time.dt=0.5",
                       "--time.t_end=0.1") == 2

    def test_removed_scheme_exits_2(self):
        assert run_cli("run", "--config", "/dev/null",
                       "--time.scheme=imex_rk2") == 2

    def test_oracle_defaults_match_oracle_config(self):
        assert cli.RunConfig.build({}).oracle() == im.OracleConfig()

    def test_oracle_t_end_below_one_gauge_step_exits_2(self, capsys):
        assert run_cli("oracle", "--config", "/dev/null",
                       "--oracle.t_end=0.005") == 2
        assert "configuration:" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["0", "-1"])
    def test_nonpositive_construction_tol_exits_2(self, tol, capsys):
        assert run_cli("oracle", "--config", "/dev/null",
                       f"--oracle.construction_tol={tol}") == 2
        assert "configuration: " in capsys.readouterr().err

    @pytest.mark.parametrize("command, override", [
        ("run", "--time.dt=1e-320"),          # t_end / dt overflows
        ("run", "--grid.length=1e-300"),      # the default dt underflows to 0
        ("oracle", "--oracle.dt_immersion=1e-320"),
        ("run", "--time.dt=1e-300"),  # about 1e299 steps, past 2**53
        ("oracle", "--oracle.dt_immersion=1e-300"),
        ("run", "--dimension=1"),  # the gauge system needs d >= 2
        ("elliptic", "--dimension=1"),
        ("oracle", "--dimension=1")])
    def test_unusable_step_exits_2(self, command, override, capsys, monkeypatch):
        def no_transform(self, f):
            raise AssertionError("a solve started")
        monkeypatch.setattr(Grid, "fft", no_transform)
        monkeypatch.setattr(Grid, "rfft", no_transform)
        assert run_cli(command, "--config", "/dev/null", "--grid.n=16",
                       "--elliptic.smallness_threshold=0.5",
                       "--time.t_end=0.1", override) == 2
        err = capsys.readouterr().err
        assert "configuration:" in err and "Traceback" not in err

    @pytest.mark.parametrize("modulation, length, ok", [
        ("1.5", "6.283185307179586", False), ("2", "6.283185307179586", True),
        ("1", "12.566370614359172", True), ("0.5", "12.566370614359172", True),
        ("1", "10", False)])
    def test_single_mode_must_be_periodic(self, modulation, length, ok):
        items = {"data.kind": "single_mode", "data.modulation": modulation,
                 "grid.length": length}
        if ok:
            cli.RunConfig.build(items)
            return
        with pytest.raises(cli.ConfigError, match="single_mode"):
            cli.RunConfig.build(items)
        assert run_cli("elliptic", "--config", "/dev/null",
                       *(f"--{k}={v}" for k, v in items.items())) == 2

    def test_g17_roundtrip(self):
        for x in (0.1, math.pi, 1e-300, -3.5537e-10):
            assert float(cli.g17(x)) == x


def random_gauge_state(grid, rng, nk=3, ncomp=2):
    """(psi, GaugeState, monitor carry) of random fields on ``grid``."""
    d = grid.d

    def real(*lead):
        return rng.standard_normal(lead + grid.shape)

    g = np.eye(d).reshape((d, d) + (1,) * d) + 0.05 * real(d, d)
    g = 0.5 * (g + np.swapaxes(g, 0, 1))
    psi = real() + 1j * real()
    state = ge.GaugeState(psi=psi, metric=geo.MetricField(grid, g),
                          lam=real(d, d) + 1j * real(d, d), V=real(d),
                          A=real(d), B=real())
    shapes = {"ks": (nk,), "metric_integral": (d, d) + grid.shape,
              "g_tensor_prev": (d, d) + grid.shape,
              "strichartz_prev": (ncomp,), "strichartz_run": (ncomp,),
              "energies": (nk,), "lam_norms": (nk,), "sup_energies": (nk,),
              "rho_max": (nk,)}
    carry = {key: rng.standard_normal(shapes.get(key, ()))
             for key in ev.CARRY_KEYS}
    return psi, state, carry


class TestCheckpoint:
    HEADER_SIZE = 41

    def test_layout(self, tmp_path):
        # header, psi as <c16, g, lambda, V, A, B, the factors q and q_V
        # (<f8), then each carry entry as its rank and shape (<u4) and its
        # values (<f8), then the digest
        grid = Grid(d=2, n=8)
        psi, state, carry = random_gauge_state(grid, np.random.default_rng(11))
        state.diagnostics["q"] = 3.5e-6
        path = tmp_path / "layout.ckpt"
        cli.save_checkpoint(str(path), 0.5, 4, state, carry)
        expected = [psi.astype("<c16"), state.metric.g.astype("<f8"),
                    state.lam.astype("<c16"), state.V.astype("<f8"),
                    state.A.astype("<f8"), state.B.astype("<f8"),
                    np.array([3.5e-6, np.nan], dtype="<f8")]
        for key in ev.CARRY_KEYS:
            entry = np.asarray(carry[key], dtype="<f8")
            expected.append(np.array((entry.ndim,) + entry.shape, dtype="<u4"))
            expected.append(entry)
        raw = path.read_bytes()
        assert raw[self.HEADER_SIZE:-8] == b"".join(a.tobytes() for a in expected)
        assert raw[-8:] == cli._digest(raw[:-8])

    @pytest.mark.parametrize("offset, fmt, value", [
        (32, "<Q", 9999),   # step
        (24, "<d", 3.25),   # t
        (12, "<I", 32),     # n
    ])
    def test_digest_covers_header(self, tmp_path, offset, fmt, value):
        grid = Grid(d=2, n=16)
        path = tmp_path / "h.ckpt"
        cli.save_checkpoint(str(path), 0.5, 10, (grid, np.ones(grid.shape, complex)))
        raw = bytearray(path.read_bytes())
        struct.pack_into(fmt, raw, offset, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(cli.CheckpointError, match="checksum"):
            cli.load_checkpoint(str(path))

    def test_norms_on_header_not_matching_payload_exits_4(self, tmp_path, capsys):
        grid = Grid(d=2, n=16)
        path = tmp_path / "n32.ckpt"
        cli.save_checkpoint(str(path), 0.0, 0, (grid, np.zeros(grid.shape, complex)))
        raw = bytearray(path.read_bytes())
        raw[12:16] = (32).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        assert run_cli("norms", "--checkpoint", str(path)) == 4
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("offset, value", [
        (12, 32),       # n = 32 on a 16^2 payload: the buffer is short
        (12, 7),        # not a valid Grid
        (8, 9),         # nor is d = 9
        (None, 2**31),  # the first carry entry claims 2^31 axes
    ])
    def test_malformed_signed_file_raises_checkpoint_error(self, tmp_path,
                                                           offset, value):
        grid = Grid(d=2, n=16)
        psi, state, carry = random_gauge_state(grid, np.random.default_rng(2))
        path = tmp_path / "m.ckpt"
        cli.save_checkpoint(str(path), 0.0, 0, state, carry)
        if offset is None:  # past psi (16 bytes a point), the gauge blob, q and q_V
            offset = (self.HEADER_SIZE + grid.n**2 * (16 + 8 * (4 + 8 + 2 + 2 + 1))
                      + 2 * 8)
        raw = bytearray(path.read_bytes())
        raw[offset:offset + 4] = value.to_bytes(4, "little")
        raw[-8:] = cli._digest(bytes(raw[:-8]))  # re-sign the edited file
        path.write_bytes(bytes(raw))
        with pytest.raises(cli.CheckpointError, match="malformed checkpoint"):
            cli.load_checkpoint(str(path))

    def test_roundtrip_identity(self, tmp_path):
        grid = Grid(d=2, n=16)
        rng = np.random.default_rng(3)
        psi = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        path = str(tmp_path / "a.ckpt")
        cli.save_checkpoint(path, 0.375, 7, (grid, psi))
        loaded = cli.load_checkpoint(path)
        assert loaded["t"] == 0.375
        assert loaded["step"] == 7
        assert loaded["psi"].tobytes() == psi.tobytes()
        assert loaded["state"] is None

    def test_corruption_detected(self, tmp_path):
        grid = Grid(d=2, n=16)
        path = tmp_path / "b.ckpt"
        cli.save_checkpoint(str(path), 0.0, 0, (grid, np.zeros(grid.shape, complex)))
        raw = bytearray(path.read_bytes())
        raw[60] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(cli.CheckpointError):
            cli.load_checkpoint(path)

    def test_failed_write_keeps_previous(self, tmp_path, monkeypatch):
        grid = Grid(d=2, n=16)
        path = str(tmp_path / "e.ckpt")
        psi = np.full(grid.shape, 0.5 + 0.25j)
        cli.save_checkpoint(path, 0.25, 5, (grid, psi))

        def broken_digest(payload):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "_digest", broken_digest)
        with pytest.raises(OSError):
            cli.save_checkpoint(path, 0.5, 10, (grid, 2.0 * psi))
        monkeypatch.undo()
        loaded = cli.load_checkpoint(path)  # checks the digest
        assert (loaded["t"], loaded["step"]) == (0.25, 5)
        assert loaded["psi"].tobytes() == psi.tobytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e.ckpt"]

    def test_version_1_rejected(self, tmp_path):
        grid = Grid(d=2, n=16)
        path = tmp_path / "v1.ckpt"
        cli.save_checkpoint(str(path), 0.0, 0, (grid, np.zeros(grid.shape, complex)))
        raw = bytearray(path.read_bytes())
        raw[4:8] = (1).to_bytes(4, "little")  # the version is checked before the digest
        path.write_bytes(bytes(raw))
        with pytest.raises(cli.CheckpointError, match="unsupported checkpoint version 1"):
            cli.load_checkpoint(str(path))

    def test_version_3_resume_exits_4(self, tmp_path, capsys):
        # a format-3 file has no contraction factors after the gauge blob
        grid = Grid(d=2, n=16)
        psi, state, carry = random_gauge_state(grid, np.random.default_rng(5))
        path = tmp_path / "v3.ckpt"
        cli.save_checkpoint(str(path), 0.0, 0, state, carry)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (3).to_bytes(4, "little")
        raw[-8:] = cli._digest(bytes(raw[:-8]))
        path.write_bytes(bytes(raw))
        with pytest.raises(cli.CheckpointError, match="unsupported checkpoint version 3"):
            cli.load_checkpoint(str(path))
        assert run_cli("run", *BASE, "--time.t_end=0.1", f"--resume={path}",
                       "--output.json=/dev/null") == 4
        assert "unsupported checkpoint version 3" in capsys.readouterr().err

    @pytest.mark.parametrize("factors", [(2.5e-5, 7.25e-6), (np.nan, 1e-3),
                                         (np.nan, np.nan)])
    def test_contraction_factors_roundtrip(self, tmp_path, factors):
        grid = Grid(d=2, n=8)
        psi, state, carry = random_gauge_state(grid, np.random.default_rng(7))
        state.diagnostics.update(zip(("q", "q_V"), factors))
        path = str(tmp_path / "q.ckpt")
        cli.save_checkpoint(path, 0.0, 0, state, carry)
        got = cli.load_checkpoint(path)["state"].diagnostics
        assert np.array([got["q"], got["q_V"]]).tobytes() == \
            np.array(factors).tobytes()

    @settings(max_examples=12, deadline=None)
    @given(d=st.sampled_from([2, 3]), n=st.sampled_from([8, 10, 12]),
           nk=st.integers(1, 3), ncomp=st.integers(1, 2),
           seed=st.integers(0, 2**32 - 1),
           t=st.floats(0.0, 1e3, allow_nan=False), step=st.integers(0, 2**40))
    def test_roundtrip_gauge_blob_and_carry(self, d, n, nk, ncomp, seed, t, step):
        grid = Grid(d=d, n=n)
        psi, state, carry = random_gauge_state(grid, np.random.default_rng(seed),
                                               nk, ncomp)
        g = state.metric.g
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/p.ckpt"
            cli.save_checkpoint(path, t, step, state, carry)
            loaded = cli.load_checkpoint(path)
        assert (loaded["t"], loaded["step"]) == (t, step)
        got = loaded["state"]
        for a, b in ((psi, loaded["psi"]), (g, got.metric.g),
                     (state.lam, got.lam), (state.V, got.V),
                     (state.A, got.A), (state.B, got.B)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert list(loaded["extras"]) == list(ev.CARRY_KEYS)
        for key, value in carry.items():
            back = loaded["extras"][key]
            assert back.shape == value.shape and back.tobytes() == value.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(cli.CheckpointError):
            cli.load_checkpoint(str(path))

    def test_norms_on_corrupt_exits_4(self, tmp_path):
        path = tmp_path / "d.ckpt"
        path.write_bytes(b"garbage")
        assert run_cli("norms", "--checkpoint", str(path)) == 4


class TestAtomicWrite:
    """JSON summaries and checkpoints are renamed into place whole."""

    @pytest.mark.parametrize("kind", ["json", "checkpoint"])
    def test_failing_part_way_keeps_previous(self, tmp_path, monkeypatch, kind):
        # the data is in the temporary file when fsync fails, before the rename
        grid = Grid(d=2, n=8)
        path = str(tmp_path / f"out.{kind}")
        psi = np.full(grid.shape, 0.5 + 0.25j)

        def write(step):
            if kind == "json":
                cli._emit(cli.dump_json({"step": step}), path)
            else:
                cli.save_checkpoint(path, 0.25 * step, step, (grid, step * psi))

        write(1)
        before = (tmp_path / f"out.{kind}").read_bytes()

        def broken_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(cli.os, "fsync", broken_fsync)
        with pytest.raises(OSError, match="disk full"):
            write(2)
        monkeypatch.undo()
        assert (tmp_path / f"out.{kind}").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"out.{kind}"]

    def test_symlink_is_followed(self, tmp_path):
        target, link = tmp_path / "real.json", tmp_path / "link.json"
        target.write_text("old")
        link.symlink_to(target)
        cli._emit("new", str(link))
        assert link.is_symlink()
        assert target.read_text() == "new"

    def test_pipe_is_written_in_place(self, tmp_path):
        # a device or a pipe (/dev/null) must not be renamed over
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            cli._emit("{}\n", str(fifo))
            assert os.read(fd, 64) == b"{}\n"
        finally:
            os.close(fd)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe"]


class TestRun:
    def test_zero_amplitude_zero_rows(self, tmp_path):
        csv = tmp_path / "zero.csv"
        code = run_cli("run", *BASE, "--data.amplitude=0",
                       "--time.t_end=0.1", f"--output.csv={csv}",
                       "--output.json=/dev/null")
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "# schema=" + cli.CSV_SCHEMA
        header = lines[1].split(",")
        assert header == cli.csv_columns((0, 1, 2))
        for line in lines[2:]:
            vals = dict(zip(header, (float(v) for v in line.split(","))))
            for col in header:
                if col not in ("t", "dt_used"):
                    assert vals[col] == 0.0

    def test_small_run_artifacts(self, tmp_path):
        csv = tmp_path / "run.csv"
        js = tmp_path / "run.json"
        ck = tmp_path / "run.ckpt"
        code = run_cli("run", *BASE, "--time.t_end=0.2",
                       f"--output.csv={csv}", f"--output.json={js}",
                       f"--output.checkpoint={ck}")
        assert code == 0
        lines = csv.read_text().splitlines()
        assert len(lines) == 2 + 5  # schema, header, t=0 and 4 steps
        last = lines[-1].split(",")
        assert float(last[0]) == 0.2
        text = js.read_text()
        assert '"sup_hs_norm"' in text and '"rho_max"' in text
        loaded = cli.load_checkpoint(str(ck))
        assert loaded["step"] == 4
        assert loaded["state"] is not None

    def test_resume_bit_for_bit(self, tmp_path):
        full_ck = tmp_path / "full.ckpt"
        half_ck = tmp_path / "half.ckpt"
        res_ck = tmp_path / "res.ckpt"
        assert run_cli("run", *BASE, "--time.t_end=0.2",
                       f"--output.checkpoint={full_ck}",
                       "--output.json=/dev/null") == 0
        assert run_cli("run", *BASE, "--time.t_end=0.1",
                       f"--output.checkpoint={half_ck}",
                       "--output.json=/dev/null") == 0
        assert run_cli("run", *BASE, "--time.t_end=0.2",
                       f"--resume={half_ck}",
                       f"--output.checkpoint={res_ck}",
                       "--output.json=/dev/null") == 0
        a = cli.load_checkpoint(str(full_ck))
        b = cli.load_checkpoint(str(res_ck))
        assert a["psi"].tobytes() == b["psi"].tobytes()
        assert a["state"].metric.g.tobytes() == b["state"].metric.g.tobytes()
        assert np.array_equal(a["extras"]["strichartz_run"],
                              b["extras"]["strichartz_run"])

    def test_resumed_summary_matches_uninterrupted(self, tmp_path):
        args = [*BASE, "--data.amplitude=3e-2"]
        full_js = tmp_path / "full.json"
        half_ck = tmp_path / "half.ckpt"
        res_js = tmp_path / "res.json"
        assert run_cli("run", *args, "--time.t_end=0.4",
                       f"--output.json={full_js}") == 0
        assert run_cli("run", *args, "--time.t_end=0.2",
                       f"--output.checkpoint={half_ck}",
                       "--output.json=/dev/null") == 0
        assert run_cli("run", *args, "--time.t_end=0.4", f"--resume={half_ck}",
                       f"--output.json={res_js}") == 0
        full = json.loads(full_js.read_text())
        res = json.loads(res_js.read_text())
        assert (full["resumed_from_step"], res["resumed_from_step"]) == (0, 4)
        for key in ("resumed_from_step", "config"):
            del full[key], res[key]
        assert res == full

    def test_lawson_resume_matches_uninterrupted(self, tmp_path):
        # the first Lawson stage reads the checkpointed gauge state, so
        # resuming from step 5 must reproduce the run bit for bit
        args = [*BASE, "--time.scheme=lawson_rk4", "--data.amplitude=3e-2"]
        full_csv, full_js = tmp_path / "full.csv", tmp_path / "full.json"
        res_csv, res_js = tmp_path / "res.csv", tmp_path / "res.json"
        half_ck = tmp_path / "half.ckpt"
        assert run_cli("run", *args, "--time.t_end=0.5",
                       f"--output.csv={full_csv}",
                       f"--output.json={full_js}") == 0
        assert run_cli("run", *args, "--time.t_end=0.25",
                       f"--output.csv={res_csv}",
                       f"--output.checkpoint={half_ck}",
                       "--output.json=/dev/null") == 0
        assert cli.load_checkpoint(str(half_ck))["step"] == 5
        assert run_cli("run", *args, "--time.t_end=0.5", f"--resume={half_ck}",
                       f"--output.csv={res_csv}",
                       f"--output.json={res_js}") == 0
        assert res_csv.read_text() == full_csv.read_text()
        full = json.loads(full_js.read_text())
        res = json.loads(res_js.read_text())
        for key in ("resumed_from_step", "config"):
            del full[key], res[key]
        assert res == full

    def test_interrupted_resume_writes_each_row_once(self, tmp_path, monkeypatch):
        # the run stops at t = 0.175, two steps past its step-5 checkpoint;
        # the resumed CSV drops those rows and matches the uninterrupted one
        args = [*BASE, "--time.dt=0.025", "--time.t_end=0.25",
                "--output.checkpoint_every=5", "--output.json=/dev/null"]
        full_csv, res_csv = tmp_path / "full.csv", tmp_path / "res.csv"
        ck = tmp_path / "run.ckpt"
        assert run_cli("run", *args, f"--output.csv={full_csv}") == 0
        step = ev.step

        def interrupted(state, cfg, dt=None, t=0.0):
            if math.isclose(t, 0.175):
                raise RuntimeError("interrupted")
            return step(state, cfg, dt=dt, t=t)

        monkeypatch.setattr(ev, "step", interrupted)
        assert run_cli("run", *args, f"--output.csv={res_csv}",
                       f"--output.checkpoint={ck}") == 3
        monkeypatch.undo()
        assert cli.load_checkpoint(str(ck))["step"] == 5
        assert len(res_csv.read_text().splitlines()) == 2 + 8
        assert run_cli("run", *args, f"--output.csv={res_csv}",
                       f"--output.checkpoint={ck}", f"--resume={ck}") == 0
        assert res_csv.read_bytes() == full_csv.read_bytes()

    @pytest.mark.parametrize("rows", [None, 5])
    def test_resume_without_the_checkpoint_rows_exits_2(self, tmp_path, capsys,
                                                       rows):
        # a checkpoint at step 5 needs the rows of steps 0..5: 6 rows
        args = [*BASE, "--time.dt=0.025", "--output.json=/dev/null"]
        csv, ck = tmp_path / "run.csv", tmp_path / "run.ckpt"
        assert run_cli("run", *args, "--time.t_end=0.125", f"--output.csv={csv}",
                       f"--output.checkpoint={ck}") == 0
        lines = csv.read_text().splitlines(keepends=True)
        if rows is None:
            csv.unlink()
        else:
            csv.write_text("".join(lines[:2 + rows]))
        assert run_cli("run", *args, "--time.t_end=0.25", f"--output.csv={csv}",
                       f"--resume={ck}") == 2
        assert str(csv) in capsys.readouterr().err

    def test_resume_with_other_dt_exits_2(self, tmp_path):
        ck = tmp_path / "h.ckpt"
        assert run_cli("run", *BASE, "--time.t_end=0.2",
                       f"--output.checkpoint={ck}",
                       "--output.json=/dev/null") == 0
        assert run_cli("run", *BASE, "--time.dt=0.025", "--time.t_end=0.2",
                       f"--resume={ck}", "--output.json=/dev/null") == 2

    def test_resume_grid_mismatch(self, tmp_path):
        ck = tmp_path / "m.ckpt"
        grid = Grid(d=2, n=24)
        cli.save_checkpoint(str(ck), 0.0, 0, (grid, np.zeros(grid.shape, complex)))
        assert run_cli("run", *BASE, f"--resume={ck}") == 2

    def test_data_file_on_another_length_exits_2(self, tmp_path, capsys):
        ck = tmp_path / "len.ckpt"
        grid = Grid(d=2, n=16)
        cli.save_checkpoint(str(ck), 0.0, 0, (grid, np.zeros(grid.shape, complex)))
        assert run_cli("elliptic", *BASE, "--data.kind=file",
                       f"--data.file={ck}", "--grid.length=6.0") == 2
        assert "data.file grid does not match" in capsys.readouterr().err

    def test_smallness_violation_exits_3(self):
        assert run_cli("run", "--config", "/dev/null", "--grid.n=16",
                       "--time.dt=0.05", "--time.t_end=0.05",
                       "--data.amplitude=5") == 3


class TestNorms:
    def test_matches_run_csv_row(self, tmp_path):
        csv = tmp_path / "run.csv"
        ck = tmp_path / "run.ckpt"
        js = tmp_path / "norms.json"
        assert run_cli("run", *BASE, "--time.t_end=0.1",
                       f"--output.csv={csv}", f"--output.checkpoint={ck}",
                       "--output.json=/dev/null") == 0
        assert run_cli("norms", "--checkpoint", str(ck),
                       f"--output.json={js}") == 0
        lines = csv.read_text().splitlines()
        header = lines[1].split(",")
        row = dict(zip(header, (float(v) for v in lines[-1].split(","))))
        import re
        table = dict(re.findall(r'"([A-Za-z0-9_]+)": ([-0-9.e+]+)',
                                js.read_text()))
        for col in header:
            if col in ("strichartz_acc", "metric_dev", "dt_used"):
                continue
            assert abs(float(table[col]) - row[col]) <= 1e-12 * max(
                1.0, abs(row[col])
            )

    @pytest.fixture
    def checkpoint(self, tmp_path):
        ck = tmp_path / "n.ckpt"
        grid = Grid(d=2, n=16)
        psi = 1e-3 * np.exp(1j * grid.coords()[0])
        cli.save_checkpoint(str(ck), 0.0, 0, (grid, psi))
        return str(ck)

    @pytest.mark.parametrize("override", ["--grid.n=32", "--dimension=3",
                                          "--grid.length=3"])
    def test_other_grid_exits_2(self, checkpoint, override, capsys):
        assert run_cli("norms", "--checkpoint", checkpoint, override) == 2
        assert "checkpoint grid does not match" in capsys.readouterr().err

    def test_grid_defaults_to_the_checkpoint(self, checkpoint, capsys):
        assert run_cli("norms", "--checkpoint", checkpoint) == 0
        plain = capsys.readouterr().out
        assert run_cli("norms", "--checkpoint", checkpoint, "--dimension=2",
                       "--grid.n=16", f"--grid.length={2 * math.pi!r}") == 0
        assert capsys.readouterr().out == plain
        assert '"gauge_state": "re-solved"' in plain


class TestElliptic:
    def test_zero_data_one_iteration(self, capsys):
        assert run_cli("elliptic", "--config", "/dev/null",
                       "--data.amplitude=0", "--grid.n=16") == 0
        out = capsys.readouterr().out
        assert '"outer_iterations": 1' in out
        assert '"lam_l2": 0' in out

    def test_json_carries_the_solve_record(self, tmp_path):
        out = tmp_path / "ell.json"
        args = ["--config", "/dev/null", "--grid.n=16",
                "--elliptic.smallness_threshold=0.5"]
        assert run_cli("elliptic", *args, f"--output.json={out}") == 0
        summary = json.loads(out.read_text())
        keys = list(summary)
        at = keys.index("outer_iterations")
        assert keys[at:at + 6] == ["outer_iterations", "final_update", "q",
                                   "V_iterations", "q_V", "B_iterations"]
        cfg = cli.RunConfig.build(cli.parse_overrides(args[2:]))
        grid = cfg.grid()
        d = ge.solve_elliptic_system(
            grid, cfg.initial_data(grid).astype(complex), cfg.elliptic()).diagnostics
        for key in keys[at:at + 6]:
            want = d[key]
            assert summary[key] == (want if math.isfinite(want) else "nan"), key
        assert 0 < summary["q"] < 0.5
        assert summary["V_iterations"] >= 1 and summary["B_iterations"] >= 1

    def test_json_carries_the_dropped_means(self, tmp_path):
        out = tmp_path / "ell.json"
        args = ["--config", "/dev/null", "--grid.n=16",
                "--elliptic.smallness_threshold=0.5"]
        assert run_cli("elliptic", *args, f"--output.json={out}") == 0
        summary = json.loads(out.read_text())
        cfg = cli.RunConfig.build(cli.parse_overrides(args[2:]))
        grid = cfg.grid()
        state = ge.solve_elliptic_system(
            grid, cfg.initial_data(grid).astype(complex), cfg.elliptic())
        want = state.constraint_report().nondecay
        assert summary["nondecay"] == want  # 17 digits round-trip a double
        assert list(summary["nondecay"]) == list(summary["residuals"])


def readme_commands(subcommand):
    """The ``smcf <subcommand>`` lines of README's Command line block."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith(f"smcf {subcommand} ")]


class TestReadmeExamples:
    @pytest.mark.parametrize("subcommand", ["elliptic", "oracle"])
    def test_example_exits_0(self, subcommand, capsys):
        commands = readme_commands(subcommand)
        assert commands
        for command in commands:
            assert run_cli(*command) == 0
            assert '"schema": "smcf-json-1"' in capsys.readouterr().out


class TestOracle:
    def test_three_dimensions_exit_0(self, tmp_path):
        out = tmp_path / "oracle.json"
        assert run_cli("oracle", "--config", "/dev/null", "--dimension=3",
                       "--grid.n=8", "--elliptic.smallness_threshold=0.5",
                       f"--output.json={out}") == 0
        summary = json.loads(out.read_text())
        assert summary["status"] == "ok"
        assert summary["discrepancy"] <= 1e-6
        assert len(summary["alignment"]["translation"]) == 3

    def test_alignment_failure_exits_3(self, tmp_path, capsys):
        code = run_cli("oracle", "--config", "/dev/null", "--grid.n=16",
                       "--oracle.t_end=0", "--oracle.construction_tol=1e-30",
                       "--elliptic.smallness_threshold=0.5")
        assert code == 3
        assert '"status": "alignment_failed"' in capsys.readouterr().out

    def test_gauge_failure_exits_3(self, monkeypatch, capsys):
        def stalled(*args, **kwargs):
            raise geo.NotContractingError("outer elliptic sweep did not converge")

        monkeypatch.setattr(ev, "step", stalled)
        code = run_cli("oracle", "--config", "/dev/null", "--grid.n=16",
                       "--elliptic.smallness_threshold=0.5")
        assert code == 3
        out = capsys.readouterr().out
        assert '"status": "gauge_failed"' in out
        assert "outer elliptic sweep did not converge" in out

    def test_singular_metric_exits_3(self, monkeypatch, capsys):
        def singular(*args, **kwargs):
            raise geo.SingularMetricError("metric not positive definite")

        monkeypatch.setattr(im, "oracle_compare", singular)
        code = run_cli("oracle", "--config", "/dev/null", "--grid.n=16",
                       "--elliptic.smallness_threshold=0.5")
        assert code == 3
        assert "metric not positive definite" in capsys.readouterr().err


class TestCheckPairs:
    def test_verdict_object(self, capsys):
        assert run_cli("check-pairs", "2", "4", "2", "4",
                       "--dimension", "4") == 0
        out = capsys.readouterr().out
        assert '"admissible": true' in out
        assert '"inhomogeneous_case": "sharp"' in out

    def test_infinity_carveout(self, capsys):
        assert run_cli("check-pairs", "inf", "2", "inf", "2",
                       "--dimension", "4") == 0
        out = capsys.readouterr().out
        assert '"acceptable": true' in out

    def test_fraction_exponents(self, capsys):
        assert run_cli("check-pairs", "2", "40/9", "2", "40/9",
                       "--dimension", "5") == 0
        out = capsys.readouterr().out
        assert '"40/9"' in out
        assert '"acceptable": true' in out

    def test_bad_exponent(self):
        assert run_cli("check-pairs", "two", "4", "2", "4") == 2

    @pytest.mark.parametrize("pairs", [("2", "0", "2", "3"), ("-2", "4", "2", "4"),
                                       ("2", "4", "0/5", "4")])
    def test_exponent_not_positive(self, pairs, capsys):
        assert run_cli("check-pairs", *pairs) == 2
        assert "bad exponent" in capsys.readouterr().err

    @pytest.mark.parametrize("dimension", ["0", "-1"])
    def test_dimension_below_one(self, dimension, capsys):
        assert run_cli("check-pairs", "2", "4", "2", "4", "--dimension", dimension) == 2
        assert "--dimension must be >= 1" in capsys.readouterr().err
