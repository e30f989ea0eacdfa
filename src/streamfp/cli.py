"""Command-line entry point: run experiments, verify guarantees, benchmark.

Subcommands: run, verify, bench, dump-config. All randomness flows from
a single master seed through named sub-streams; STREAMFP_THREADS bounds
BLAS worker threads (default 1, determinism first; set in the package's
``__init__``).
"""

import argparse
import configparser
import json
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .checks import (
    buffer_drift_check,
    coreset_scaling_check,
    gradient_check,
    mmd_oracle_check,
    sampler_check,
    update_count_expectation_check,
)
from .coreset import select_coreset
from .core_math import batch_similarity
from .seeding import substream
from .stream_sim import (
    StreamConfig,
    kcenter_coreset,
    metrics_csv,
    random_coreset,
    run_experiment,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

# INI schema: section -> key -> (field name, parser)
CONFIG_SCHEMA = {
    "stream": {
        "lambda": ("lam", float),
        "dataset_size": ("dataset_size", int),
        "batch_size": ("batch_size", int),
        "tasks": ("tasks", int),
        "class_order": ("class_order", int),
        "sigma": ("sigma", float),
        "buffer_size": ("buffer_size", int),
        "K": ("grad_steps", int),
        "seed": ("seed", int),
        "selector": ("selector", str),
        "buffer_policy": ("buffer_policy", str),
        "skip_mode": ("skip_mode", str),
        "warmup_batches": ("warmup_batches", int),
        "run_id": ("run_id", str),
    },
    "learner": {
        "n_classes": ("n_classes", int),
        "dim": ("dim", int),
        "tokens": ("tokens", int),
        "n_fingerprints": ("n_fingerprints", int),
        "fingerprint_length": ("fingerprint_length", int),
        "num_experts": ("num_experts", int),
        "noise_std": ("noise_std", float),
        "drift_std": ("drift_std", float),
        "outlier_fraction": ("outlier_fraction", float),
        "outlier_scale": ("outlier_scale", float),
        "dominant_fraction": ("dominant_fraction", float),
        "class_concentration": ("class_concentration", float),
        "learning_rate": ("learning_rate", float),
        "eval_size": ("eval_size", int),
    },
    "timing": {
        "pinned_batch_time": ("pinned_batch_time", float),
        "c_s_override": ("c_s_override", float),
        "pinned_selection_throughput": ("pinned_selection_throughput", float),
        "pinned_total_runtime": ("pinned_total_runtime", float),
    },
}

REQUIRED_KEYS = [("stream", "lambda"), ("stream", "seed")]

_FIELD_TO_KEY = {
    field: (section, key)
    for section, keys in CONFIG_SCHEMA.items()
    for key, (field, _) in keys.items()
}


def load_config(path):
    """Load a StreamConfig from an INI file or a run-manifest JSON.

    Returns (config, errors): errors is a list of messages; the config is
    None whenever errors is non-empty.
    """
    path = Path(path)
    if not path.exists():
        return None, [f"config file not found: {path}"]
    if path.suffix == ".json":
        try:
            manifest = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            return None, [f"invalid manifest JSON: {exc}"]
        cfg_dict = manifest.get("config", manifest)
        try:
            return StreamConfig(**cfg_dict), []
        except TypeError as exc:
            return None, [f"manifest config mismatch: {exc}"]

    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys like `K` are case-sensitive
    try:
        parser.read(path)
    except configparser.Error as exc:
        return None, [f"invalid config file: {exc}"]
    errors = []
    values = {}
    for section, key in REQUIRED_KEYS:
        if not parser.has_option(section, key):
            errors.append(f"missing required key `{key}` in section [{section}]")
    for section in parser.sections():
        if section not in CONFIG_SCHEMA:
            errors.append(f"unknown config section [{section}]")
            continue
        for key, raw in parser.items(section):
            if key not in CONFIG_SCHEMA[section]:
                errors.append(f"unknown key `{key}` in section [{section}]")
                continue
            field, cast = CONFIG_SCHEMA[section][key]
            try:
                values[field] = cast(raw)
            except ValueError:
                errors.append(f"key `{key}`: cannot parse {raw!r} as {cast.__name__}")
    if errors:
        return None, errors
    return StreamConfig(**values), []


def apply_overrides(config, overrides):
    """Apply repeatable --override KEY=VALUE flags; returns error list."""
    errors = []
    for item in overrides:
        if "=" not in item:
            errors.append(f"override {item!r} is not KEY=VALUE")
            continue
        key, raw = item.split("=", 1)
        key = key.strip()
        found = None
        for section, keys in CONFIG_SCHEMA.items():
            if key in keys:
                found = keys[key]
                break
        if found is None:
            errors.append(f"override names unknown key `{key}`")
            continue
        field, cast = found
        try:
            setattr(config, field, cast(raw))
        except ValueError:
            errors.append(f"override `{key}`: cannot parse {raw!r} as {cast.__name__}")
    return errors


def default_config_text():
    lines = []
    defaults = StreamConfig()
    for section, keys in CONFIG_SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (field, _) in keys.items():
            value = getattr(defaults, field)
            if value is None:
                lines.append(f"# {key} = <unset>")
            else:
                lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def cmd_run(args):
    config, errors = load_config(args.config)
    if config is not None:
        errors += apply_overrides(config, args.override)
        if args.seed is not None:
            config.seed = args.seed
    if config is not None and not errors:
        errors += config.validate()
    if errors:
        for e in errors:
            print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    try:
        report = run_experiment(config)
    except Exception as exc:  # config already validated; this is a runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    # pin every measured figure so a rerun from the manifest reproduces
    # each output byte-for-byte; the pinned config is what gets recorded
    pinned = asdict(config)
    pinned["pinned_batch_time"] = report.batch_time_s
    pinned["c_s_override"] = report.c_s
    pinned["pinned_selection_throughput"] = report.selection_throughput_sps
    pinned["pinned_total_runtime"] = report.total_runtime_s
    pinned_config = StreamConfig(**pinned)

    csv_path = out_dir / "metrics.csv"
    json_path = out_dir / "metrics.json"
    manifest_path = out_dir / "manifest.json"
    csv_path.write_text(metrics_csv([(report, pinned_config)]))
    json_path.write_text(
        json.dumps(report.to_json_dict(pinned_config), indent=2, sort_keys=True) + "\n"
    )
    manifest = {
        "engine_version": __version__,
        "master_seed": config.seed,
        "config": pinned,
        "outputs": {"csv": csv_path.name, "json": json_path.name},
        "started_unix": started,
        "finished_unix": time.time(),
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(
        f"run {config.run_id}: avg_accuracy={report.avg_accuracy:.4f} "
        f"avg_forgetting={report.avg_forgetting:.4f} C_S={report.c_s:.4f} "
        f"retained={report.retained_batches}/{report.total_batches}"
    )
    print(f"outputs written to {out_dir}")
    return EXIT_OK


VERIFY_SUITES = {
    "coreset": lambda trials, seed: [coreset_scaling_check(trials=trials, seed=seed)],
    "buffer": lambda trials, seed: [
        mmd_oracle_check(instances=min(trials, 1000), seed=seed),
        buffer_drift_check(n_seeds=50),
    ],
    "gradients": lambda trials, seed: [gradient_check(configs=min(trials, 50), seed=seed)],
    "sampler": lambda trials, seed: [
        sampler_check(trials=trials, seed=seed),
        update_count_expectation_check(trials=trials, seed=seed),
    ],
}


def cmd_verify(args):
    if args.theorem not in VERIFY_SUITES:
        print(
            f"unknown theorem {args.theorem!r}; choose from "
            f"{sorted(VERIFY_SUITES)}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    if args.trials < 10:
        print("config error: trials must be >= 10", file=sys.stderr)
        return EXIT_CONFIG
    results = VERIFY_SUITES[args.theorem](args.trials, args.seed)
    all_ok = True
    for res in results:
        print(res.summary())
        all_ok &= res.passed
    return EXIT_OK if all_ok else EXIT_RUNTIME


def bench_selectors(selectors, batch_size, dim, n_fingerprints, repeats, seed=1):
    """Median per-batch selection latency and samples/sec per selector."""
    rng = substream(seed, "bench")
    emd = rng.standard_normal((batch_size, 1, dim))
    fingerprints = rng.standard_normal((n_fingerprints, dim))
    sigma = 0.5
    rows = []
    for name in selectors:
        times = []
        for _ in range(repeats):
            sel_rng = substream(seed, f"bench-{name}")
            t0 = time.perf_counter()
            if name == "streamfp":
                _, s = batch_similarity(emd, fingerprints)
                select_coreset(s, sigma)
            elif name == "random":
                random_coreset(batch_size, sigma, sel_rng)
            elif name == "kcenter":
                kcenter_coreset(emd, sigma)
            else:
                raise ValueError(f"unknown selector {name!r}")
            times.append(time.perf_counter() - t0)
        median = statistics.median(times)
        rows.append((name, median, batch_size / median))
    return rows


def cmd_bench(args):
    selectors = [s for s in args.selectors.split(",") if s]
    if not selectors:
        print("config error: empty selector list", file=sys.stderr)
        return EXIT_CONFIG
    for s in selectors:
        if s not in ("streamfp", "random", "kcenter"):
            print(f"config error: unknown selector {s!r}", file=sys.stderr)
            return EXIT_CONFIG
    if min(args.batch_size, args.dim, args.fingerprints, args.repeats) < 1:
        print("config error: b, D, N, repeats must all be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    rows = bench_selectors(
        selectors, args.batch_size, args.dim, args.fingerprints, args.repeats,
        seed=args.seed,
    )
    lines = ["selector,median_latency_s,samples_per_sec"]
    for name, median, sps in rows:
        lines.append(f"{name},{median:.9f},{sps:.1f}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text)
    return EXIT_OK


def cmd_dump_config(args):
    print(default_config_text())
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="streamfp",
        description="Fingerprint-guided data selection engine for stream learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a stream experiment")
    p_run.add_argument("--config", required=True, help="INI config or manifest JSON")
    p_run.add_argument("--seed", type=int, default=None, help="master seed override")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument(
        "--override", action="append", default=[], metavar="KEY=VALUE",
        help="config override, repeatable",
    )
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run an empirical guarantee checker")
    p_verify.add_argument("theorem", help="one of: coreset, buffer, gradients, sampler")
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="benchmark selector throughput")
    p_bench.add_argument("--selectors", default="streamfp,random,kcenter")
    p_bench.add_argument("--batch-size", type=int, default=512)
    p_bench.add_argument("--dim", type=int, default=768)
    p_bench.add_argument("--fingerprints", type=int, default=100)
    p_bench.add_argument("--repeats", type=int, default=9)
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.add_argument("--out", default=None, help="optional CSV output path")
    p_bench.set_defaults(func=cmd_bench)

    p_dump = sub.add_parser("dump-config", help="print the default config")
    p_dump.set_defaults(func=cmd_dump_config)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
