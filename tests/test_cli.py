import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinflux
from spinflux import cli, operators
from spinflux.cli import main

BASE = """\
chain.n = 3
chain.omega = 1.0
chain.lambda = 0.01
bath.left.beta = 0.41
bath.left.kappa = 0.01
bath.right.beta = 1.39
bath.right.kappa = 0.01
time.t_max = 40.0
time.steps = 8
mcwf.realizations = 300
mcwf.seed = 91
"""


def write_config(tmp_path, text, name="run.conf"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def read_csv(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data


class TestSteadyMode:
    def test_report_contents(self, tmp_path):
        cfg = write_config(tmp_path, BASE + "mode = steady\nvariant = weak_coupling\n")
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "steady.json").read_text())
        steady = payload["steady"]
        assert steady["variant"] == "weak_coupling"
        assert len(steady["currents"]) == 2
        assert len(steady["local_energies"]) == 3
        assert steady["null_space_dim"] == 1
        assert all(c > 0 for c in steady["currents"])
        prov = payload["provenance"]
        assert prov["artifact"] == "spinflux"
        assert "config_sha256" in prov and "version" in prov
        assert prov["tolerances"]["nullspace"] == 1e-10

    def test_artifacts_independent_of_blas_threads(self, tmp_path):
        # n=5, where a complex sparse LU used to round with the thread count
        text = BASE.replace("chain.n = 3", "chain.n = 5")
        runs = {"compare": write_config(tmp_path, text + "mode = compare\n", "c.conf"),
                "steady": write_config(
                    tmp_path, text + "mode = steady\nvariant = secular\n", "s.conf")}
        src = str(Path(spinflux.__file__).resolve().parents[1])
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")]))}
            for mode, cfg in runs.items():
                subprocess.run([sys.executable, "-m", "spinflux.cli", "run", str(cfg),
                                "--out", str(tmp_path / threads / mode),
                                "--realizations", "8"],
                               env=env, capture_output=True, check=True)
        files = sorted(p.relative_to(tmp_path / "1")
                       for p in (tmp_path / "1").rglob("*.*"))
        assert [str(f) for f in files] == ["compare/compare.csv", "compare/steady.json",
                                           "steady/steady.json"]
        for f in files:
            assert (tmp_path / "1" / f).read_bytes() == (tmp_path / "2" / f).read_bytes()

    def test_equal_temperature_currents_vanish(self, tmp_path):
        text = BASE.replace("bath.left.beta = 0.41", "bath.left.beta = 1.39")
        cfg = write_config(tmp_path, text + "mode = steady\nvariant = weak_coupling\n")
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        steady = json.loads((out / "steady.json").read_text())["steady"]
        assert max(abs(c) for c in steady["currents"]) <= 1e-10 * 0.01 * 1.0


class TestEvolveMode:
    def test_csv_schema(self, tmp_path):
        cfg = write_config(tmp_path, BASE + "mode = evolve\nvariant = redfield\n")
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        header, data = read_csv(out / "series.csv")
        assert header[0] == "time"
        assert header[1:] == ["current_b1", "current_b2",
                              "energy_s1", "energy_s2", "energy_s3"]
        assert data.shape == (9, 6)
        assert data[0, 0] == 0.0 and data[-1, 0] == 40.0
        # maximally mixed start carries no current or local energy
        assert abs(data[0, 1]) <= 1e-12 and abs(data[0, 3]) <= 1e-12


class TestMcwfMode:
    def test_csv_schema_and_se_columns(self, tmp_path):
        cfg = write_config(tmp_path, BASE + "mode = mcwf\nvariant = weak_coupling\n")
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        header, data = read_csv(out / "mcwf.csv")
        assert header[0] == "time"
        assert header[1] == "current_b1" and header[2] == "current_b1_se"
        assert len(header) == 1 + 2 * 5
        assert np.all(data[:, 2::2] >= 0.0)

    def test_byte_identical_reruns_and_worker_independence(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, BASE + "mode = mcwf\nvariant = weak_coupling\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("SPINFLUX_WORKERS", "1")
        assert main(["run", str(cfg), "--out", str(out1)]) == 0
        monkeypatch.setenv("SPINFLUX_WORKERS", "2")
        assert main(["run", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "mcwf.csv").read_bytes() == (out2 / "mcwf.csv").read_bytes()

    def test_redfield_is_rejected_for_unraveling(self, tmp_path):
        cfg = write_config(tmp_path, BASE + "mode = mcwf\nvariant = redfield\n")
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["exit_code"] == 2
        assert "Lindblad" in record["message"]


class TestCompareMode:
    def test_bundle_columns_share_grid(self, tmp_path):
        cfg = write_config(tmp_path, BASE + "mode = compare\n")
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        header, data = read_csv(out / "compare.csv")
        assert header == ["time", "current_redfield", "current_weak_coupling",
                          "current_weak_coupling_mcwf",
                          "current_weak_coupling_mcwf_se"]
        assert data.shape == (9, 5)
        steady = json.loads((out / "steady.json").read_text())["steady"]
        assert set(steady) == {"redfield", "weak_coupling"}

    def test_each_generator_is_assembled_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_assemble(gen):
            calls.append(gen.variant)
            return assemble(gen)

        assemble = cli.assemble
        monkeypatch.setattr(cli, "assemble", counting_assemble)
        cfg = write_config(tmp_path, BASE + "mode = compare\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert sorted(calls) == ["redfield", "weak_coupling"]

    def test_builds_only_the_compared_current(self, tmp_path, monkeypatch):
        def refuse(config):
            raise AssertionError("compare mode reads only current_b1")

        monkeypatch.setattr(cli, "_observables", refuse)
        cfg = write_config(tmp_path, BASE + "mode = compare\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_seeded_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, BASE + "mode = compare\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(cfg), "--out", str(out1), "--seed", "5"]) == 0
        assert main(["run", str(cfg), "--out", str(out2), "--seed", "5"]) == 0
        assert (out1 / "compare.csv").read_bytes() == (out2 / "compare.csv").read_bytes()


class TestFailureModes:
    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "chain.omega = 1.0\n")
        assert main(["run", str(cfg)]) == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.conf")]) == 2

    def test_solver_failure_exit_code_and_record(self, tmp_path):
        # decoupled baths leave a degenerate stationary manifold
        text = BASE.replace("bath.left.kappa = 0.01", "bath.left.kappa = 0.0")
        text = text.replace("bath.right.kappa = 0.01", "bath.right.kappa = 0.0")
        cfg = write_config(tmp_path, text + "mode = steady\nvariant = weak_coupling\n")
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 3
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "DegenerateSteadyStateError"
        assert record["exit_code"] == 3

    def test_chain_beyond_dense_cap_exit_code_and_record(self, tmp_path):
        text = BASE.replace("chain.n = 3", "chain.n = 7")
        cfg = write_config(tmp_path, text + "mode = steady\nvariant = weak_coupling\n")
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 3
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "DimensionError"
        assert record["exit_code"] == 3

    def test_mcwf_memory_preflight_exit_code_and_record(self, tmp_path, monkeypatch):
        # 5 observables + 4 ensemble matrices at d = 8 need 9216 bytes, and
        # the samples of 5 observables at 9 points for 256 trajectories
        # 92160 bytes more
        monkeypatch.setattr(operators, "available_memory", lambda: 101375)
        cfg = write_config(tmp_path, BASE + "mode = mcwf\nvariant = weak_coupling\n")
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 3
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "DimensionError"
        assert record["exit_code"] == 3
        assert not (out / "mcwf.csv").exists()

    def test_bohr_memory_preflight_exit_code_and_record(self, tmp_path, monkeypatch):
        # 64 positive Bohr-frequency groups at n = 4: (2*64 + 1) * 16 * 16**2
        # = 528384 bytes per bath
        monkeypatch.setattr(operators, "available_memory", lambda: 528383)
        text = BASE.replace("chain.n = 3", "chain.n = 4")
        cfg = write_config(tmp_path, text + "mode = steady\nvariant = redfield\n")
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out), "--variant", "secular"]) == 3
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "DimensionError"
        assert record["exit_code"] == 3
        assert not (out / "steady.json").exists()

    def test_bohr_memory_preflight_leaves_redfield_alone(self, tmp_path, monkeypatch):
        # the amount at which the secular run above is refused
        monkeypatch.setattr(operators, "available_memory", lambda: 528383)
        text = BASE.replace("chain.n = 3", "chain.n = 4")
        cfg = write_config(tmp_path, text + "mode = steady\nvariant = redfield\n")
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out), "--mode", "steady",
                     "--variant", "redfield"]) == 0
        steady = json.loads((out / "steady.json").read_text())["steady"]
        assert steady["variant"] == "redfield"

    def test_out_flag_is_not_cut_at_a_hash(self, tmp_path):
        cfg = write_config(tmp_path, BASE + "mode = steady\n")
        assert main(["run", str(cfg), "--mode", "steady",
                     "--out", str(tmp_path / "run#1")]) == 0
        assert (tmp_path / "run#1" / "steady.json").is_file()
        assert not (tmp_path / "run").exists()

    def test_flag_overrides_apply(self, tmp_path):
        cfg = write_config(tmp_path, BASE + "mode = steady\nvariant = redfield\n")
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out), "--variant", "secular"]) == 0
        steady = json.loads((out / "steady.json").read_text())["steady"]
        assert steady["variant"] == "secular"
        assert max(abs(c) for c in steady["currents"]) <= 1e-12
