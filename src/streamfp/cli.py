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
from dataclasses import asdict, fields, replace
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
from .learner import EmbeddingBatch
from .seeding import substream
from .stream_sim import SELECTORS, StreamConfig, coerce, metrics_csv, run_experiment, select

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

# config fields by INI section and key, in declaration order
_SCHEMA = {}
for _f in fields(StreamConfig):
    _SCHEMA.setdefault(_f.metadata["section"], {})[_f.metadata["key"]] = _f
_BY_KEY = {key: f for keys in _SCHEMA.values() for key, f in keys.items()}


def _coerce_items(items, by_key, where, errors):
    """{field name: value} of the (key, raw value) items; unknown keys and
    values that do not coerce are added to errors."""
    values = {}
    for key, raw in items:
        if key not in by_key:
            errors.append(f"unknown key `{key}` {where}")
            continue
        try:
            values[by_key[key].name] = coerce(by_key[key], raw)
        except ValueError as exc:
            errors.append(f"key `{key}`: {exc}")
    return values


def _read(path):
    """(field values, errors) of an INI config or a run-manifest JSON; the
    values are None if the file cannot be read at all."""
    try:
        text = path.read_text()
    except (OSError, ValueError) as exc:  # a directory, no permission, not text
        return None, [f"cannot read config file {path}: {exc}"]
    if path.suffix == ".json":
        try:
            manifest = json.loads(text)
        except ValueError as exc:
            return None, [f"invalid manifest JSON: {exc}"]
        config = manifest.get("config", manifest) if isinstance(manifest, dict) else manifest
        if not isinstance(config, dict):
            return None, ["manifest `config` (or the whole manifest) must be a JSON "
                          f"object, got {type(config).__name__}"]
        errors = []
        by_name = {f.name: f for f in _BY_KEY.values()}
        return _coerce_items(config.items(), by_name, "in manifest config", errors), errors
    parser = configparser.ConfigParser(interpolation=None)  # values are literal
    parser.optionxform = str  # keys like `K` are case-sensitive
    try:
        parser.read_string(text, source=str(path))
    except (configparser.Error, ValueError) as exc:
        return None, [f"invalid config file: {exc}"]
    errors = [
        f"missing required key `{key}` in section [{f.metadata['section']}]"
        for key, f in _BY_KEY.items()
        if f.metadata["required"] and not parser.has_option(f.metadata["section"], key)
    ]
    values = {}
    for section in parser.sections():
        if section in _SCHEMA:
            values |= _coerce_items(parser.items(section), _SCHEMA[section],
                                    f"in section [{section}]", errors)
        else:
            errors.append(f"unknown config section [{section}]")
    return values, errors


def load_config(path, overrides=()):
    """Load a StreamConfig from an INI file or a run-manifest JSON, apply
    ``--override KEY=VALUE`` items and validate it. Returns (config, errors):
    errors lists every problem, values that do not parse and range errors
    alike; the config is None whenever errors is non-empty."""
    path = Path(path)
    if not path.exists():
        return None, [f"config file not found: {path}"]
    values, errors = _read(path)
    if values is None:
        return None, errors
    config = StreamConfig(**values)
    errors += apply_overrides(config, overrides)
    errors += config.validate()
    return (None, errors) if errors else (config, [])


def apply_overrides(config, overrides):
    """Apply repeatable --override KEY=VALUE flags; returns error list."""
    errors = [f"override {item!r} is not KEY=VALUE" for item in overrides if "=" not in item]
    pairs = [(key.strip(), raw) for key, _, raw in
             (item.partition("=") for item in overrides if "=" in item)]
    for name, value in _coerce_items(pairs, _BY_KEY, "in --override", errors).items():
        setattr(config, name, value)
    return errors


def default_config_text():
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        lines += [f"# {key} = <unset>" if f.default is None else f"{key} = {f.default}"
                  for key, f in keys.items()]
        lines.append("")
    return "\n".join(lines)


def cmd_run(args):
    seed = [] if args.seed is None else [f"seed={args.seed}"]
    config, errors = load_config(args.config, args.override + seed)
    if errors:
        for e in errors:
            print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create --out {out_dir}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    started = time.time()
    try:
        report = run_experiment(config)
    except Exception as exc:  # config already validated; this is a runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    # pin every measured figure so a rerun from the manifest reproduces
    # each output byte-for-byte; the pinned config is what gets recorded
    pinned_config = replace(
        config,
        pinned_batch_time=report.batch_time_s,
        c_s_override=report.c_s,
        pinned_selection_throughput=report.selection_throughput_sps,
        pinned_total_runtime=report.total_runtime_s,
    )
    pinned = asdict(pinned_config)

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
    if args.seed < 0:
        print(f"config error: --seed must be >= 0, got {args.seed}", file=sys.stderr)
        return EXIT_CONFIG
    results = VERIFY_SUITES[args.theorem](args.trials, args.seed)
    all_ok = True
    for res in results:
        print(res.summary())
        all_ok &= res.passed
    return EXIT_OK if all_ok else EXIT_RUNTIME


def bench_selectors(selectors, batch_size, dim, n_fingerprints, repeats, seed=1):
    """Median per-batch selection latency and samples/sec per selector, each
    summarizing its batch and calling ``stream_sim.select`` as a run does."""
    for name in selectors:
        if name not in SELECTORS:
            raise ValueError(f"unknown selector {name!r}")
    rng = substream(seed, "bench")
    batch = EmbeddingBatch(rng.standard_normal((batch_size, 1, dim)),
                           np.zeros(batch_size, dtype=np.int64), np.arange(batch_size))
    fingerprints = rng.standard_normal((n_fingerprints, dim))
    sigma = 0.5
    rows = []
    for name in selectors:
        times = []
        for _ in range(repeats):
            sel_rng = substream(seed, f"bench-{name}")
            t0 = time.perf_counter()
            select(name, sigma, batch.summary(), fingerprints, sel_rng)
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
        if s not in SELECTORS:
            print(f"config error: unknown selector {s!r}", file=sys.stderr)
            return EXIT_CONFIG
    if min(args.batch_size, args.dim, args.fingerprints, args.repeats) < 1:
        print("config error: b, D, N, repeats must all be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed < 0:
        print(f"config error: --seed must be >= 0, got {args.seed}", file=sys.stderr)
        return EXIT_CONFIG
    if args.out:
        # fail before any timing, not after: append mode creates a missing
        # file but leaves an existing one intact
        try:
            open(args.out, "a").close()
        except OSError as exc:
            print(f"config error: cannot write --out {args.out}: {exc}", file=sys.stderr)
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
