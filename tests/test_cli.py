import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import spinflux
from spinflux import chain, cli, config, dissipators, operators
from spinflux.cli import main
from spinflux.config import parse_config
from spinflux.dissipators import VARIANTS, Generator
from spinflux.liouville import assemble, steady_state
from spinflux.observables import reported_current_operator, transport_report

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
                "evolve": write_config(
                    tmp_path, text + "mode = evolve\nvariant = redfield\n", "e.conf"),
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
                                           "evolve/series.csv", "steady/steady.json"]
        for f in files:
            assert (tmp_path / "1" / f).read_bytes() == (tmp_path / "2" / f).read_bytes()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_row_is_the_transport_report(self, tmp_path, variant):
        text = BASE + f"mode = steady\nvariant = {variant}\n"
        out = tmp_path / "o"
        assert main(["run", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
        run_config = parse_config(text)
        gen = Generator(variant, run_config.chain, run_config.bath_left,
                        run_config.bath_right)
        row = transport_report(steady_state(assemble(gen)), gen.eigensystem)
        steady = json.loads((out / "steady.json").read_text())["steady"]
        assert steady == json.loads(json.dumps(row))

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


def record_calls(monkeypatch, name):
    """The first argument of every call to ``name`` through any spinflux
    module that binds it."""
    seen = []
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "spinflux" and hasattr(module, name):
            monkeypatch.setattr(module, name, lambda *args, f=getattr(module, name):
                                seen.append(args[0]) or f(*args))
    return seen


def exact_start(run_config):
    """rho0 of a ``ground`` or ``gibbs:`` start, from eigh and expm of H."""
    h = chain.build_hamiltonian(run_config.chain).matrix
    if run_config.initial_state == "ground":
        ground = np.linalg.eigh(h)[1][:, 0]
        return np.outer(ground, ground.conj())
    rho = scipy.linalg.expm(-float(run_config.initial_state.split(":")[1]) * h)
    return rho / np.trace(rho)


STARTS = ["ground", "gibbs:1.0"]
ARTIFACTS = {"evolve": "series.csv", "mcwf": "mcwf.csv", "compare": "compare.csv"}


class TestInitialStates:
    @pytest.mark.parametrize("start", STARTS)
    @pytest.mark.parametrize("mode", ["evolve", "mcwf", "compare"])
    def test_first_row_is_the_start(self, tmp_path, mode, start):
        # exact columns to rounding; ensemble columns within 3 SE, which is
        # rounding too for the pure ground state
        text = BASE + f"mode = {mode}\nvariant = weak_coupling\ninitial_state = {start}\n"
        out = tmp_path / "o"
        assert main(["run", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
        run_config = parse_config(text)
        spec, rho = run_config.chain, exact_start(run_config)
        ops = {f"current_b{b}": reported_current_operator(spec, b)
               for b in range(1, spec.n)}
        ops.update({f"energy_s{site}": chain.build_local_hamiltonian_site(spec, site)
                    for site in range(1, spec.n + 1)})
        want = {name: np.trace(rho @ op.matrix).real for name, op in ops.items()}
        if mode == "compare":
            exact = {"current_redfield": want["current_b1"],
                     "current_weak_coupling": want["current_b1"]}
            sampled = {"current_weak_coupling_mcwf": want["current_b1"]}
        else:
            exact, sampled = (want, {}) if mode == "evolve" else ({}, want)
        header, data = read_csv(out / ARTIFACTS[mode])
        row = dict(zip(header, data[0]))
        assert row["time"] == 0.0
        assert set(exact) | set(sampled) <= set(row)
        for column, value in exact.items():
            assert abs(row[column] - value) <= 1e-12
        for column, value in sampled.items():
            assert abs(row[column] - value) <= 3.0 * row[column + "_se"] + 1e-12

    @pytest.mark.parametrize("start", ["maximally_mixed", *STARTS])
    def test_compare_diagonalizes_the_hamiltonian_once(self, tmp_path, monkeypatch,
                                                        start):
        # the start and both stationary rows read the redfield eigensystem
        seen = record_calls(monkeypatch, "eig_hermitian")
        text = BASE + f"mode = compare\ninitial_state = {start}\n"
        assert main(["run", str(write_config(tmp_path, text)),
                     "--out", str(tmp_path / "o")]) == 0
        h = chain.build_hamiltonian(parse_config(text).chain).matrix
        assert sum(np.array_equal(op.matrix, h) for op in seen) == 1

    @pytest.mark.parametrize("start", STARTS)
    @pytest.mark.parametrize("mode", ["evolve", "mcwf"])
    def test_start_builds_no_hamiltonian_of_its_own(self, tmp_path, monkeypatch,
                                                    mode, start):
        seen = record_calls(monkeypatch, "build_hamiltonian")
        text = BASE + f"mode = {mode}\nvariant = weak_coupling\ninitial_state = {start}\n"
        assert main(["run", str(write_config(tmp_path, text)),
                     "--out", str(tmp_path / "o")]) == 0
        assert len(seen) == 1


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

    def test_missing_file_record(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run", str(tmp_path / "nope.conf"), "--out", str(out)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "FileNotFoundError"
        assert record["exit_code"] == 2

    def test_undecodable_file_exit_code_and_record(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_bytes(b"\xff\xfe" + BASE.encode())
        assert main(["run", str(cfg)]) == 2
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "UnicodeDecodeError"
        assert record["exit_code"] == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", [key for key, _, kind, _ in config._KEYS
                                     if kind is float])
    def test_non_finite_number_exit_code_and_record(self, tmp_path, key, value):
        # nan passed every `x < 0` check: tolerance.cluster = nan merged all
        # levels into one group and the run exited 0 with wrong currents
        lines = [l for l in BASE.splitlines() if not l.startswith(key + " ")]
        text = "\n".join(lines + [f"{key} = {value}", "mode = steady",
                                   "variant = redfield", ""])
        out = tmp_path / "o"
        assert main(["run", str(write_config(tmp_path, text)), "--out", str(out)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ConfigError" and record["exit_code"] == 2
        assert key in record["message"] and "finite" in record["message"]
        assert not (out / "steady.json").exists()

    def test_infinite_time_is_refused_before_sampling(self, tmp_path):
        # t_max = inf used to give a nan grid and unwritten samples in mcwf.csv
        text = BASE.replace("time.t_max = 40.0", "time.t_max = inf")
        cfg = write_config(tmp_path, text + "mode = mcwf\nvariant = weak_coupling\n")
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["exit_code"] == 2 and "time.t_max" in record["message"]
        assert not (out / "mcwf.csv").exists()

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
        # at d = 8, run_ensemble's count for the sectors 1, 3, 3, 1, 2 jumps
        # and the decay with 3 * 8 non-zeros, 5 observables of 8 non-zeros, 9
        # points and one batch of 256 of the 300 trajectories from a mixed
        # start on fresh terms: 262144 fixed bytes, 4 * 16 * 20 of kernel
        # blocks, 4 * 1024 of dense matrices, 56 * (24 + 40) + 8 * 9 * 8 of CSR
        # matrices and a batch of 256 * (360 + 1024 + 16 * 100) + 196608;
        # then the CLI's dense rho0, 5 observables, H and 2 jumps, 9 * 1024,
        # and building one more, 4 * 1024 + 1024 + 8192.  In all
        # 262144 + 1280 + 4096 + 4160 + 960512 + 9216 + 13312 = 1254720 bytes
        monkeypatch.delenv("SPINFLUX_WORKERS", raising=False)
        monkeypatch.setattr(operators, "available_memory", lambda: 1254719)
        cfg = write_config(tmp_path, BASE + "mode = mcwf\nvariant = weak_coupling\n")
        out = tmp_path / "o"
        with monkeypatch.context() as m:
            m.setattr(cli, "Generator",
                      lambda *args, **kw: pytest.fail("built past the pre-check"))
            assert main(["run", str(cfg), "--out", str(out)]) == 3
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "DimensionError"
        assert record["exit_code"] == 3
        assert not (out / "mcwf.csv").exists()
        monkeypatch.setattr(operators, "available_memory", lambda: 1254720)
        assert main(["run", str(cfg), "--out", str(out)]) == 0

    @pytest.mark.parametrize("mode", ["steady", "evolve", "compare"])
    def test_site_cap_refuses_before_any_generator(self, tmp_path, monkeypatch, mode):
        monkeypatch.setattr(Generator, "__init__",
                            lambda *args, **kw: pytest.fail("built past the site cap"))
        text = BASE.replace("chain.n = 3", "chain.n = 7")
        cfg = write_config(tmp_path, text + f"mode = {mode}\nvariant = redfield\n")
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 3
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "DimensionError" and record["exit_code"] == 3
        assert "capped at 6 sites" in record["message"]

    def test_mcwf_at_twelve_sites_refused_before_allocating(self, tmp_path, monkeypatch):
        # 23 dense observables, rho0, H and 2 jumps are 6.75 GiB at n = 12;
        # with the kernel and the transients they exceed 7.34 GiB
        monkeypatch.setattr(operators, "available_memory", lambda: int(7.34 * 2 ** 30))
        for module in (operators, chain, dissipators):
            monkeypatch.setattr(module, "embedded_sum",
                                lambda *args: pytest.fail("allocated past the pre-check"))
        text = BASE.replace("chain.n = 3", "chain.n = 12")
        cfg = write_config(tmp_path, text + "mode = mcwf\nvariant = weak_coupling\n")
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out), "--realizations", "8"]) == 3
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "DimensionError" and record["exit_code"] == 3
        assert "mcwf mode on 12 sites" in record["message"]

    def test_mcwf_pre_check_covers_traced_peak(self, tmp_path, monkeypatch):
        # n = 9 from the maximally mixed start: the count the CLI requires
        # before it builds anything bounds what the whole run allocates
        required = []
        monkeypatch.setattr(cli, "require_memory",
                            lambda nbytes, what: required.append(nbytes))
        text = BASE.replace("chain.n = 3", "chain.n = 9")
        run_config = config.with_overrides(
            parse_config(text + "mode = mcwf\nvariant = weak_coupling\n"),
            realizations=8, output_dir=str(tmp_path))
        tracemalloc.start()
        try:
            cli.run(run_config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "mcwf.csv").is_file()
        assert peak <= required[0]

    def test_evolve_memory_preflight_exit_code_and_record(self, tmp_path, monkeypatch):
        # 9 states at n = 3: 9 * 16 bytes * 64 entries + (64 + 40 for the
        # real form) bytes * 320 Liouvillian non-zeros + 32768 bytes = 75264
        monkeypatch.setattr(operators, "available_memory", lambda: 75263)
        cfg = write_config(tmp_path, BASE + "mode = evolve\nvariant = weak_coupling\n")
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 3
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "DimensionError"
        assert "propagating 9 states" in record["message"]
        assert record["exit_code"] == 3
        assert not (out / "series.csv").exists()

    def test_evolve_grid_refused_before_it_is_allocated(self, tmp_path, monkeypatch):
        # 2e9 + 1 points of 8 bytes, and 16 * 64 bytes each for the propagated
        # states, are about 1.9 TiB: refused before np.linspace makes the grid
        monkeypatch.setattr(operators, "available_memory", lambda: 4 * 2 ** 30)
        monkeypatch.setattr(np, "linspace",
                            lambda *args, **kw: pytest.fail("allocated the grid"))
        text = BASE.replace("time.steps = 8", "time.steps = 2000000000")
        cfg = write_config(tmp_path, text + "mode = evolve\nvariant = weak_coupling\n")
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 3
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "DimensionError" and record["exit_code"] == 3
        assert "evolve mode on 3 sites over 2000000001 points" in record["message"]
        assert not (out / "series.csv").exists()

    @pytest.mark.parametrize("mode,value", [("mcwf", "abc"), ("mcwf", "0"),
                                            ("compare", "-2")])
    def test_bad_worker_count_is_a_config_error(self, tmp_path, monkeypatch, mode,
                                                value):
        monkeypatch.setenv("SPINFLUX_WORKERS", value)
        monkeypatch.setattr(cli, "Generator",
                            lambda *args, **kw: pytest.fail("built past the check"))
        cfg = write_config(tmp_path, BASE + f"mode = {mode}\nvariant = weak_coupling\n")
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ValueError" and record["exit_code"] == 2
        assert "SPINFLUX_WORKERS" in record["message"]

    def test_worker_variable_is_not_read_without_an_ensemble(self, tmp_path,
                                                             monkeypatch):
        monkeypatch.setenv("SPINFLUX_WORKERS", "abc")
        cfg = write_config(tmp_path, BASE + "mode = steady\nvariant = weak_coupling\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_outside_64_bits_is_a_config_error(self, tmp_path, seed):
        cfg = write_config(tmp_path, BASE + "mode = mcwf\nvariant = weak_coupling\n")
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out), "--seed", seed]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ConfigError" and "mcwf.seed" in record["message"]
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
