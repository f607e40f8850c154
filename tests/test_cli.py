import json
import math
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

    @pytest.mark.parametrize("key", ["data.seed", "elliptic.under_relaxation"])
    def test_removed_key_is_unknown(self, key):
        with pytest.raises(cli.ConfigError):
            cli.RunConfig.build({key: "0"})

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

    def test_t_end_below_one_step_exits_2(self):
        assert run_cli("run", "--config", "/dev/null", "--time.dt=0.5",
                       "--time.t_end=0.1") == 2

    def test_g17_roundtrip(self):
        for x in (0.1, math.pi, 1e-300, -3.5537e-10):
            assert float(cli.g17(x)) == x


class TestCheckpoint:
    def test_roundtrip_identity(self, tmp_path):
        grid = Grid(d=2, n=16)
        rng = np.random.default_rng(3)
        psi = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        path = str(tmp_path / "a.ckpt")
        cli.save_checkpoint(path, grid, 0.375, 7, psi)
        loaded = cli.load_checkpoint(path)
        assert loaded["t"] == 0.375
        assert loaded["step"] == 7
        assert loaded["psi"].tobytes() == psi.tobytes()
        assert loaded["state"] is None

    def test_corruption_detected(self, tmp_path):
        grid = Grid(d=2, n=16)
        path = tmp_path / "b.ckpt"
        cli.save_checkpoint(str(path), grid, 0.0, 0, np.zeros(grid.shape, complex))
        raw = bytearray(path.read_bytes())
        raw[60] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(cli.CheckpointError):
            cli.load_checkpoint(path)

    def test_failed_write_keeps_previous(self, tmp_path, monkeypatch):
        grid = Grid(d=2, n=16)
        path = str(tmp_path / "e.ckpt")
        psi = np.full(grid.shape, 0.5 + 0.25j)
        cli.save_checkpoint(path, grid, 0.25, 5, psi)

        def broken_digest(payload):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "_digest", broken_digest)
        with pytest.raises(OSError):
            cli.save_checkpoint(path, grid, 0.5, 10, 2.0 * psi)
        monkeypatch.undo()
        loaded = cli.load_checkpoint(path)  # checks the digest
        assert (loaded["t"], loaded["step"]) == (0.25, 5)
        assert loaded["psi"].tobytes() == psi.tobytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e.ckpt"]

    def test_version_1_rejected(self, tmp_path):
        grid = Grid(d=2, n=16)
        path = tmp_path / "v1.ckpt"
        cli.save_checkpoint(str(path), grid, 0.0, 0, np.zeros(grid.shape, complex))
        raw = bytearray(path.read_bytes())
        raw[4:8] = (1).to_bytes(4, "little")  # the digest covers the payload only
        path.write_bytes(bytes(raw))
        with pytest.raises(cli.CheckpointError, match="unsupported checkpoint version 1"):
            cli.load_checkpoint(str(path))

    @settings(max_examples=12, deadline=None)
    @given(d=st.sampled_from([2, 3]), n=st.sampled_from([8, 10, 12]),
           nk=st.integers(1, 3), ncomp=st.integers(1, 2),
           seed=st.integers(0, 2**32 - 1),
           t=st.floats(0.0, 1e3, allow_nan=False), step=st.integers(0, 2**40))
    def test_roundtrip_gauge_blob_and_carry(self, d, n, nk, ncomp, seed, t, step):
        grid = Grid(d=d, n=n)
        rng = np.random.default_rng(seed)

        def real(*lead):
            return rng.standard_normal(lead + grid.shape)

        g = np.eye(d).reshape((d, d) + (1,) * d) + 0.05 * real(d, d)
        g = 0.5 * (g + np.swapaxes(g, 0, 1))
        psi = real() + 1j * real()
        state = ge.GaugeState(grid=grid, psi=psi, metric=geo.MetricField(grid, g),
                              lam=real(d, d) + 1j * real(d, d), V=real(d),
                              A=real(d), B=real())
        shapes = {"ks": (nk,), "metric_integral": (d, d) + grid.shape,
                  "g_tensor_prev": (d, d) + grid.shape,
                  "strichartz_prev": (ncomp,), "strichartz_run": (ncomp,),
                  "energies": (nk,), "lam_norms": (nk,), "sup_energies": (nk,),
                  "rho_max": (nk,)}
        carry = {key: rng.standard_normal(shapes.get(key, ()))
                 for key in ev.CARRY_KEYS}
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/p.ckpt"
            cli.save_checkpoint(path, grid, t, step, psi, state, carry)
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
        cli.save_checkpoint(str(ck), grid, 0.0, 0, np.zeros(grid.shape, complex))
        assert run_cli("run", *BASE, f"--resume={ck}") == 2

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


class TestElliptic:
    def test_zero_data_one_iteration(self, capsys):
        assert run_cli("elliptic", "--config", "/dev/null",
                       "--data.amplitude=0", "--grid.n=16") == 0
        out = capsys.readouterr().out
        assert '"outer_iterations": 1' in out
        assert '"lam_l2": 0' in out


class TestOracle:
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
