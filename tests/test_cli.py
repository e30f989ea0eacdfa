"""Tests for the command-line interface (run, verify, bench, dump-config)."""

import configparser
import contextlib
import io
import json
import os
import socket
import subprocess
import sys
import tempfile
import types
from dataclasses import asdict, fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamfp import cli, stream_sim
from streamfp.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    apply_overrides,
    default_config_text,
    load_config,
    main,
)
from streamfp.stream_sim import StreamConfig

FAST_OVERRIDES = [
    "--override", "dataset_size=100",
    "--override", "batch_size=10",
    "--override", "tasks=2",
    "--override", "n_classes=4",
    "--override", "dim=6",
    "--override", "tokens=1",
    "--override", "eval_size=10",
    "--override", "buffer_size=20",
    "--override", "pinned_batch_time=1e-9",
]


# the FAST_OVERRIDES settings as a manifest config
FAST_CONFIG = asdict(StreamConfig(
    lam=6028.0, seed=3, dataset_size=100, batch_size=10, tasks=2, n_classes=4,
    dim=6, tokens=1, eval_size=10, buffer_size=20, pinned_batch_time=1e-9,
))

# a valid small value of every key, and whether 0 is valid too; -1, nan,
# inf and a junk string are valid only for run_id, which takes any string
VALID_VALUES = {
    "lambda": ("100", False), "dataset_size": ("50", False),
    "batch_size": ("5", False), "tasks": ("3", False), "class_order": ("3", True),
    "sigma": ("0.3", False), "buffer_size": ("5", False), "K": ("2", False),
    "seed": ("5", True), "selector": ("kcenter", False),
    "buffer_policy": ("reservoir", False), "skip_mode": ("lower_ratio", False),
    "warmup_batches": ("2", False), "run_id": ("fuzz", True),
    "n_classes": ("5", False), "dim": ("4", False), "tokens": ("2", False),
    "n_fingerprints": ("3", False), "fingerprint_length": ("4", False),
    "num_experts": ("2", False), "noise_std": ("0.2", True), "drift_std": ("0.1", True),
    "outlier_fraction": ("0.1", True), "outlier_scale": ("2", False),
    "dominant_fraction": ("0.1", True), "class_concentration": ("0.5", True),
    "learning_rate": ("0.1", True), "eval_size": ("5", False),
    "pinned_batch_time": ("1e-6", False), "c_s_override": ("2", False),
    "pinned_selection_throughput": ("100", True), "pinned_total_runtime": ("1", True),
}


def write_minimal_config(path, **extra):
    parser = configparser.ConfigParser()
    parser["stream"] = {"lambda": "6028", "seed": "3", **extra}
    with open(path, "w") as fh:
        parser.write(fh)


class TestLoadConfig:
    def test_missing_file(self):
        config, errors = load_config("/nonexistent/run.ini")
        assert config is None
        assert "not found" in errors[0]

    def test_minimal_valid(self, tmp_path):
        path = tmp_path / "run.ini"
        write_minimal_config(path)
        config, errors = load_config(path)
        assert errors == []
        assert config.lam == 6028.0
        assert config.seed == 3

    def test_missing_lambda_reported(self, tmp_path):
        path = tmp_path / "run.ini"
        parser = configparser.ConfigParser()
        parser["stream"] = {"seed": "1", "sigma": "0.5"}
        with open(path, "w") as fh:
            parser.write(fh)
        config, errors = load_config(path)
        assert config is None
        assert any("lambda" in e for e in errors)

    def test_all_errors_listed(self, tmp_path):
        path = tmp_path / "run.ini"
        parser = configparser.ConfigParser()
        parser["stream"] = {"sigma": "not-a-number", "mystery": "1"}
        parser["rocket"] = {"thrust": "9000"}
        with open(path, "w") as fh:
            parser.write(fh)
        config, errors = load_config(path)
        assert config is None
        joined = "\n".join(errors)
        assert "lambda" in joined  # missing required
        assert "seed" in joined  # missing required
        assert "sigma" in joined  # unparsable
        assert "mystery" in joined  # unknown key
        assert "rocket" in joined  # unknown section

    def test_values_are_literal(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[stream]\nlambda = 6028\nseed = 3\nrun_id = 50%(x)s\n")
        config, errors = load_config(path)
        assert errors == []
        assert config.run_id == "50%(x)s"

    def test_manifest_json_roundtrip(self, tmp_path):
        from dataclasses import asdict

        cfg = StreamConfig(seed=9, sigma=0.4)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"config": asdict(cfg)}))
        loaded, errors = load_config(path)
        assert errors == []
        assert loaded == cfg


class TestOverrides:
    def test_apply(self):
        cfg = StreamConfig()
        errors = apply_overrides(cfg, ["sigma=0.25", "K=3", "selector=random"])
        assert errors == []
        assert cfg.sigma == 0.25
        assert cfg.grad_steps == 3
        assert cfg.selector == "random"

    def test_bad_overrides_collected(self):
        cfg = StreamConfig()
        errors = apply_overrides(cfg, ["sigma", "warp=9", "K=lots"])
        assert len(errors) == 3


class TestRunCommand:
    def test_exit_2_on_invalid_config(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        write_minimal_config(path, sigma="3.0", selector="magic")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "sigma" in err and "selector" in err

    def test_run_writes_outputs(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        write_minimal_config(path)
        out = tmp_path / "out"
        code = main(["run", "--config", str(path), "--out", str(out)]
                    + FAST_OVERRIDES)
        assert code == EXIT_OK
        assert (out / "metrics.csv").exists()
        assert (out / "metrics.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 3
        assert manifest["config"]["pinned_batch_time"] is not None
        assert manifest["config"]["c_s_override"] is not None
        assert "avg_accuracy" in capsys.readouterr().out

    def test_manifest_rerun_is_byte_identical(self, tmp_path):
        path = tmp_path / "run.ini"
        write_minimal_config(path)
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        assert main(["run", "--config", str(path), "--out", str(out1)]
                    + FAST_OVERRIDES) == EXIT_OK
        assert main(["run", "--config", str(out1 / "manifest.json"),
                     "--out", str(out2)]) == EXIT_OK
        assert (out1 / "metrics.csv").read_bytes() == \
            (out2 / "metrics.csv").read_bytes()
        assert (out1 / "metrics.json").read_bytes() == \
            (out2 / "metrics.json").read_bytes()

    @pytest.mark.parametrize("flags, key", [
        (["--override", "lambda=nan"], "lambda"),
        (["--override", "lambda=inf"], "lambda"),
        (["--override", "n_fingerprints=0"], "n_fingerprints"),
        (["--override", "dim=0"], "dim"),
        (["--override", "num_experts=0"], "num_experts"),
        (["--override", "eval_size=0"], "eval_size"),
        (["--override", "pinned_batch_time=0"], "pinned_batch_time"),
        (["--override", "class_order=-1"], "class_order"),
        (["--override", "learning_rate=nan"], "learning_rate"),
        (["--override", "tokens=0"], "tokens"),
        (["--override", "c_s_override=-1"], "c_s_override"),
        (["--seed", "-1"], "seed"),
        # each is finite, but the C_S they give is not
        (["--override", "lambda=1e300", "--override", "pinned_batch_time=1e300"],
         "pinned_batch_time"),
        # rejected by the memory estimate before anything is allocated
        (["--override", "dim=1000000000"], "dim"),
        # a warm-up that would time batches for days
        (["--override", "warmup_batches=100000000000"], "warmup_batches"),
    ])
    def test_bad_value_exits_2_naming_its_key(self, tmp_path, capsys, flags, key):
        path = tmp_path / "run.ini"
        write_minimal_config(path)
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")]
                    + FAST_OVERRIDES + flags)
        assert code == EXIT_CONFIG
        assert f"`{key}`" in capsys.readouterr().err

    @pytest.mark.parametrize("manifest, key", [
        ([FAST_CONFIG], "config"),
        ({"config": [FAST_CONFIG]}, "config"),
        ({"config": {**FAST_CONFIG, "lam": "abc"}}, "lam"),
        ({"config": {**FAST_CONFIG, "lam": 10**400}}, "lam"),
        ({"config": {**FAST_CONFIG, "seed": 1.5}}, "seed"),
        ({"config": {**FAST_CONFIG, "seed": True}}, "seed"),
        ({"config": {**FAST_CONFIG, "selector": 3}}, "selector"),
        ({"config": {**FAST_CONFIG, "warp": 9}}, "warp"),
    ])
    def test_bad_manifest_exits_2_naming_its_key(self, tmp_path, capsys, manifest, key):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert f"`{key}`" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, keys", [
        ({"sigma": "abc", "buffer_size": "0"}, ["sigma", "buffer_size"]),
        ({"K": "1.5", "tasks": "0", "selector": "magic"}, ["K", "tasks", "selector"]),
    ])
    def test_bad_ini_exits_2_listing_every_key(self, tmp_path, capsys, extra, keys):
        path = tmp_path / "run.ini"
        path.write_text("[stream]\nlambda = 6028\nseed = 3\n"
                        + "".join(f"{k} = {v}\n" for k, v in extra.items()))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert all(f"`{key}`" in err for key in keys)

    def test_out_that_cannot_be_created_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        write_minimal_config(path)
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory")
        code = main(["run", "--config", str(path), "--out", str(taken)] + FAST_OVERRIDES)
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    # configparser.read would skip a path it cannot open and report the
    # required `lambda` and `seed` keys as missing
    @pytest.mark.parametrize("name", ["configs", "configs.json"])
    def test_config_that_is_a_directory_exits_2(self, tmp_path, capsys, name):
        path = tmp_path / name
        path.mkdir()
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"cannot read config file {path}" in err and "lambda" not in err

    @pytest.mark.skipif(not hasattr(socket, "AF_UNIX"), reason="needs Unix sockets")
    def test_config_that_cannot_be_opened_exits_2(self, tmp_path, capsys):
        # a socket exists but no one, the superuser included, can open it
        path = tmp_path / "run.ini"
        with socket.socket(socket.AF_UNIX) as sock:
            sock.bind(str(path))
            code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"cannot read config file {path}" in err and "lambda" not in err

    def test_valid_values_name_every_key(self):
        assert set(VALID_VALUES) == {f.metadata["key"] for f in fields(StreamConfig)}

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(st.lists(
        st.tuples(st.sampled_from(sorted(VALID_VALUES)),
                  st.sampled_from(["valid", "0", "-1", "nan", "inf", "junk"])),
        min_size=1, max_size=3, unique_by=lambda change: change[0],
    ))
    def test_perturbed_config_runs_or_exits_2(self, changes):
        flags, invalid = [], []
        for key, kind in changes:
            valid, zero_ok = VALID_VALUES[key]
            value = valid if kind == "valid" else "abc" if kind == "junk" else kind
            flags += ["--override", f"{key}={value}"]
            if kind != "valid" and key != "run_id" and not (kind == "0" and zero_ok):
                invalid.append(key)
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            path = Path(tmp) / "run.ini"
            write_minimal_config(path)
            code = main(["run", "--config", str(path), "--out", str(Path(tmp) / "o")]
                        + FAST_OVERRIDES + flags)
        assert code == (EXIT_CONFIG if invalid else EXIT_OK), err.getvalue()
        assert all(f"`{key}`" in err.getvalue() for key in invalid)

    def test_measured_c_s_overflow_is_a_runtime_error(self, tmp_path, capsys, monkeypatch):
        # a driver clock that advances 10 s per reading: each warm-up batch
        # measures 50 s, and 50 s * lambda / b overflows
        ticks = iter(range(0, 10**6, 10))
        monkeypatch.setattr(stream_sim, "time",
                            types.SimpleNamespace(perf_counter=lambda: float(next(ticks))))
        path = tmp_path / "run.ini"
        write_minimal_config(path, **{"lambda": "1.7e308", "warmup_batches": "2"})
        out = tmp_path / "out"
        code = main(["run", "--config", str(path), "--out", str(out)]
                    + FAST_OVERRIDES[:-2])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "runtime error" in err and "lambda" in err and "batch time of 50 s" in err
        assert list(out.iterdir()) == []

    def test_seed_flag_overrides(self, tmp_path):
        path = tmp_path / "run.ini"
        write_minimal_config(path)
        out = tmp_path / "o"
        main(["run", "--config", str(path), "--out", str(out), "--seed", "77"]
             + FAST_OVERRIDES)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 77


class TestVerifyCommand:
    def test_unknown_theorem(self, capsys):
        assert main(["verify", "everything"]) == EXIT_CONFIG
        assert "unknown theorem" in capsys.readouterr().err

    def test_too_few_trials(self, capsys):
        assert main(["verify", "coreset", "--trials", "5"]) == EXIT_CONFIG
        assert "trials" in capsys.readouterr().err

    def test_coreset_suite_passes(self, capsys):
        assert main(["verify", "coreset", "--trials", "50"]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_sampler_suite_passes(self, capsys):
        assert main(["verify", "sampler", "--trials", "2000"]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("theorem", ["coreset", "buffer", "gradients", "sampler"])
    def test_negative_seed_exits_2(self, capsys, theorem):
        assert main(["verify", theorem, "--seed", "-1"]) == EXIT_CONFIG
        assert "config error: --seed" in capsys.readouterr().err


class TestBenchCommand:
    def test_empty_selector_list(self, capsys):
        assert main(["bench", "--selectors", ""]) == EXIT_CONFIG
        assert "empty selector" in capsys.readouterr().err

    def test_unknown_selector(self, capsys):
        assert main(["bench", "--selectors", "streamfp,quantum"]) == EXIT_CONFIG
        assert "quantum" in capsys.readouterr().err

    def test_bench_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--selectors", "streamfp,random",
                     "--batch-size", "32", "--dim", "8",
                     "--fingerprints", "4", "--repeats", "3",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "selector,median_latency_s,samples_per_sec"
        assert len(lines) == 3
        assert capsys.readouterr().out.startswith("selector,")

    def test_none_times_the_identity_selection(self, capsys):
        code = main(["bench", "--selectors", "streamfp,random,kcenter,none",
                     "--batch-size", "16", "--dim", "4", "--fingerprints", "2",
                     "--repeats", "1"])
        assert code == EXIT_OK
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert [row.split(",")[0] for row in rows] == ["streamfp", "random", "kcenter", "none"]

    def test_unknown_selector_raises_before_timing(self, monkeypatch):
        def no_timing(*args):
            raise AssertionError("a selector was timed")

        monkeypatch.setattr(cli, "select", no_timing)
        with pytest.raises(ValueError, match="quantum"):
            cli.bench_selectors(["streamfp", "quantum"], 8, 4, 2, 1)

    def test_negative_seed_exits_2(self, capsys):
        assert main(["bench", "--seed", "-1"]) == EXIT_CONFIG
        assert "config error: --seed" in capsys.readouterr().err

    def test_unwritable_out_exits_2_before_timing(self, tmp_path, capsys, monkeypatch):
        def no_timing(*args, **kwargs):
            raise AssertionError("the benchmark ran before --out was checked")

        monkeypatch.setattr(cli, "bench_selectors", no_timing)
        for out in (tmp_path / "missing" / "bench.csv", tmp_path):
            assert main(["bench", "--out", str(out)]) == EXIT_CONFIG
            assert "config error: cannot write --out" in capsys.readouterr().err


class TestDumpConfig:
    def test_prints_parseable_defaults(self, capsys):
        assert main(["dump-config"]) == EXIT_OK
        text = capsys.readouterr().out
        parser = configparser.ConfigParser()
        parser.read_string(text)
        assert parser.getfloat("stream", "lambda") == 6028.0
        assert parser.getint("stream", "seed") == 1
        assert parser.getfloat("stream", "sigma") == 0.5

    def test_defaults_round_trip_through_loader(self, tmp_path):
        path = tmp_path / "defaults.ini"
        path.write_text(default_config_text())
        config, errors = load_config(path)
        assert errors == []
        assert config.validate() == []


# imports the CLI in a fresh interpreter, then prints the BLAS thread
# variable and, where NumPy bundles OpenBLAS, the count OpenBLAS runs with
THREAD_PROBE = """
import ctypes, glob, os
import streamfp.cli
import numpy
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                              "numpy.libs", "libscipy_openblas*"))
blas = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_() if libs else None
print(os.environ["OPENBLAS_NUM_THREADS"], blas)
"""


def probe_threads(**env_vars):
    env = {k: v for k, v in os.environ.items()
           if k not in ("STREAMFP_THREADS", "OMP_NUM_THREADS",
                        "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    env.update(env_vars)
    out = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout.split()
    return out[0], None if out[1] == "None" else int(out[1])


class TestThreadBound:
    def test_default_is_one_thread_before_numpy_loads(self):
        variable, blas = probe_threads()
        assert variable == "1"
        assert blas in (1, None)

    def test_streamfp_threads_sets_the_bound(self):
        variable, blas = probe_threads(STREAMFP_THREADS="3")
        assert variable == "3"
        # OpenBLAS caps its count at the usable CPUs
        assert blas in (min(3, os.cpu_count()), None)

    def test_explicit_blas_variable_is_kept(self):
        variable, _ = probe_threads(STREAMFP_THREADS="3", OPENBLAS_NUM_THREADS="2")
        assert variable == "2"
