"""Arrival-rate stream simulation, baseline selectors, experiment driver.

No wall-clock pacing is simulated: the stream-model relative complexity
C_S is computed from a timed warm-up (or a pinned measurement) and
translates directly into a batch-skipping schedule.
"""

import math
import numbers
import os
import time
import typing
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .buffer import RehearsalBuffer, keep_first_update, reservoir_update, update_buffer
from .coreset import coreset_size, select_coreset
# batch_similarity stays importable here: perfbench wraps it at this name
from .core_math import _NDTR_BLOCK, batch_similarity, sum_similarity  # noqa: F401
from .fingerprints import aggregate
from .learner import (
    SUMMARY_BLOCK,
    PrototypeModel,
    SyntheticEmbedder,
    average_accuracy,
    average_forgetting,
    evaluate,
    train_step,
)
from .seeding import substream

SELECTORS = ("streamfp", "random", "kcenter", "none")
BUFFER_POLICIES = ("streamfp", "reservoir", "keep_first", "none")
SKIP_MODES = ("skip_batches", "lower_ratio")
# the most warm-up batches a run may time; each one runs a full batch
MAX_WARMUP_BATCHES = 10_000

# the metrics CSV: each column and its text, from (report, config)
_CSV_TABLE = (
    ("run_id", lambda r, c: c.run_id),
    ("selector", lambda r, c: c.selector),
    ("buffer_policy", lambda r, c: c.buffer_policy),
    ("lambda", lambda r, c: f"{c.lam:.6g}"),
    ("C_S", lambda r, c: f"{r.c_s:.6f}"),
    ("sigma", lambda r, c: f"{c.sigma:.6g}"),
    ("m", lambda r, c: str(c.buffer_size)),
    ("K", lambda r, c: str(c.grad_steps)),
    ("seed", lambda r, c: str(c.seed)),
    ("class_order", lambda r, c: str(c.class_order)),
    ("avg_accuracy", lambda r, c: f"{r.avg_accuracy:.6f}"),
    ("avg_forgetting", lambda r, c: f"{r.avg_forgetting:.6f}"),
    ("selection_throughput_sps", lambda r, c: f"{r.selection_throughput_sps:.3f}"),
    ("total_runtime_s", lambda r, c: f"{r.total_runtime_s:.6f}"),
)
CSV_COLUMNS = [column for column, _ in _CSV_TABLE]


# range rules, by the text that names them in error messages
_RULES = {
    "> 0": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
    "in [0, 1)": lambda v: 0 <= v < 1,
    "even and >= 2": lambda v: v >= 2 and v % 2 == 0,
    f"in [1, {MAX_WARMUP_BATCHES}]": lambda v: 1 <= v <= MAX_WARMUP_BATCHES,
}


def _key(section, key, default, rule=None, required=False):
    """A config field: its INI ``[section] key``, default, range rule (a key
    of ``_RULES``, a tuple of allowed values, or None for any value) and
    whether an INI file must set it. Its type is the field's annotation."""
    metadata = dict(section=section, key=key, rule=rule, required=required)
    return field(default=default, metadata=metadata)


@dataclass
class StreamConfig:
    """Fully explicit description of one experiment run. The ``_key`` of each
    field is all that the config loaders and ``validate`` know of it."""

    # arrival rate, samples/sec
    lam: float = _key("stream", "lambda", 6028.0, "> 0", required=True)
    dataset_size: int = _key("stream", "dataset_size", 2000, ">= 1")
    batch_size: int = _key("stream", "batch_size", 20, ">= 1")
    tasks: int = _key("stream", "tasks", 5, ">= 1")
    # the seed of a reproducible class permutation
    class_order: int = _key("stream", "class_order", 1, ">= 0")
    sigma: float = _key("stream", "sigma", 0.5, "in (0, 1]")
    buffer_size: int = _key("stream", "buffer_size", 102, ">= 1")
    grad_steps: int = _key("stream", "K", 1, ">= 1")
    seed: int = _key("stream", "seed", 1, ">= 0", required=True)
    selector: str = _key("stream", "selector", "streamfp", SELECTORS)
    buffer_policy: str = _key("stream", "buffer_policy", "streamfp", BUFFER_POLICIES)
    skip_mode: str = _key("stream", "skip_mode", "skip_batches", SKIP_MODES)
    # surrogate learner / embedder; n_classes must also be >= tasks
    n_classes: int = _key("learner", "n_classes", 10, ">= 1")
    dim: int = _key("learner", "dim", 16, ">= 1")
    tokens: int = _key("learner", "tokens", 2, ">= 1")
    n_fingerprints: int = _key("learner", "n_fingerprints", 8, ">= 1")
    fingerprint_length: int = _key("learner", "fingerprint_length", 2, "even and >= 2")
    num_experts: int = _key("learner", "num_experts", 3, ">= 1")
    noise_std: float = _key("learner", "noise_std", 0.3, ">= 0")
    drift_std: float = _key("learner", "drift_std", 0.3, ">= 0")
    outlier_fraction: float = _key("learner", "outlier_fraction", 0.0, "in [0, 1)")
    outlier_scale: float = _key("learner", "outlier_scale", 1.0, "> 0")
    dominant_fraction: float = _key("learner", "dominant_fraction", 0.0, "in [0, 1)")
    class_concentration: float = _key("learner", "class_concentration", 0.0, "in [0, 1)")
    learning_rate: float = _key("learner", "learning_rate", 0.001, ">= 0")
    eval_size: int = _key("learner", "eval_size", 100, ">= 1")  # held-out samples per task
    warmup_batches: int = _key("stream", "warmup_batches", 50, f"in [1, {MAX_WARMUP_BATCHES}]")
    # pinned timing inputs; when set, wall-clock measurement is skipped and
    # every derived figure is reproducible bit-for-bit
    pinned_batch_time: float | None = _key("timing", "pinned_batch_time", None, "> 0")
    c_s_override: float | None = _key("timing", "c_s_override", None, "> 0")
    pinned_selection_throughput: float | None = _key(
        "timing", "pinned_selection_throughput", None, ">= 0")
    pinned_total_runtime: float | None = _key("timing", "pinned_total_runtime", None, ">= 0")
    run_id: str = _key("stream", "run_id", "run")

    def validate(self):
        """Return the list of all violated-field messages (empty if valid)."""
        errors = []
        for f in fields(self):
            value, rule = getattr(self, f.name), f.metadata["rule"]
            name = f"key `{f.metadata['key']}`" + (
                f" ({f.name})" if f.name != f.metadata["key"] else "")
            try:
                if isinstance(value, str) and f.type is not str:  # coerce would parse it
                    raise ValueError(f"must be a number, got {value!r}")
                coerce(f, value)
            except ValueError as exc:
                errors.append(f"{name}: {exc}")
                continue
            if value is None or rule is None:
                continue
            if isinstance(rule, tuple) and value not in rule:
                errors.append(f"{name}: must be one of {rule}, got {value!r}")
            elif isinstance(rule, str) and not _RULES[rule](value):
                errors.append(f"{name}: must be {rule}, got {value!r}")
        if all(isinstance(v, numbers.Real) for v in (self.n_classes, self.tasks)) \
                and self.n_classes < self.tasks:
            errors.append(f"key `n_classes`: must be >= tasks ({self.tasks}), got {self.n_classes}")
        if not errors and self.pinned_batch_time is not None and self.c_s_override is None:
            try:
                relative_complexity(
                    self.pinned_batch_time, self.lam, self.dataset_size, self.batch_size)
            except ValueError as exc:
                errors.append(f"keys `lambda` and `pinned_batch_time`: {exc}")
        # a run whose largest float64 arrays cannot fit in memory is a config
        # error, found before anything is allocated
        if not errors:
            row, r, n, lp, d = (self.tokens * self.dim, self.num_experts,
                                self.n_fingerprints, self.fingerprint_length, self.dim)
            # attune's expert group: as many experts as one ndtr block holds
            group = min(r, max(1, _NDTR_BLOCK // (n * lp * d)))
            # (name, INI keys, float64 count) of each array a run holds at once
            terms = [
                ("MLP bank 2*R*D^2", ("num_experts", "dim"), 2 * r * d * d),
                # each task's (n, D) unit-token sums and token means, and the
                # tokens of the one row block being summarized
                ("eval sets", ("tasks", "eval_size", "tokens", "dim"),
                 self.tasks * self.eval_size * 2 * d
                 + min(self.eval_size, max(1, SUMMARY_BLOCK // row)) * row),
                ("buffer", ("buffer_size", "tokens", "dim"), self.buffer_size * row),
                ("buffer unit-sum cache m*D", ("buffer_size", "dim"), self.buffer_size * d),
                # the stream batches the warm-up embeds and holds for the run
                ("held warm-up batches", ("warmup_batches", "batch_size", "tokens", "dim"),
                 0 if self.pinned_batch_time is not None
                 else min(self.warmup_batches, self.num_batches) * self.batch_size * row),
                ("batch", ("batch_size", "tokens", "dim"), self.batch_size * row),
                ("pool N*L_p*D", ("n_fingerprints", "fingerprint_length", "dim"), n * lp * d),
                # the (R, N, L_p, D) GELU slope and the (R, N, D) expert sums
                ("attunement cache R*N*(L_p+1)*D",
                 ("num_experts", "n_fingerprints", "fingerprint_length", "dim"),
                 r * n * (lp + 1) * d),
                ("pre-activations of one expert group",
                 ("num_experts", "n_fingerprints", "fingerprint_length", "dim"),
                 group * n * lp * d),
            ]
            floats = sum(count for _, _, count in terms)
            have = _physical_memory_bytes()
            if have is not None and 8 * floats > have:
                name, keys, count = max(terms, key=lambda term: term[2])
                errors.append(
                    f"keys {', '.join(f'`{key}`' for key in keys)}: the run needs about "
                    f"{8 * floats / 2**30:.3g} GiB of float64 arrays, more than the "
                    f"{have / 2**30:.3g} GiB of physical memory; its largest term is the "
                    f"{name}, {8 * count / 2**30:.3g} GiB")
        return errors

    @property
    def num_batches(self):
        """Batches in the stream, at least one per task."""
        return max(self.dataset_size // self.batch_size, self.tasks)


def _physical_memory_bytes():
    """Bytes of physical memory, or None where the platform does not tell."""
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return have if have > 0 else None


def coerce(f, raw):
    """The value of config field ``f`` given as ``raw``: an INI or
    ``--override`` string, a JSON value or a Python value. Raises ValueError
    saying what is wrong with it."""
    args = typing.get_args(f.type)
    kind, nullable = (args[0], True) if args else (f.type, False)
    if raw is None and nullable:
        return None
    if isinstance(raw, str) and kind is not str:
        try:
            raw = kind(raw)
        except ValueError:
            raise ValueError(f"cannot parse {raw!r} as {kind.__name__}") from None
    if kind is str:
        if not isinstance(raw, str):
            raise ValueError(f"must be a string, got {raw!r}")
        return raw
    if not isinstance(raw, numbers.Real) or isinstance(raw, bool):
        raise ValueError(f"must be a number, got {raw!r}")
    try:
        value = kind(raw)  # int(nan), int(inf) and float(10**400) raise
    except (ValueError, OverflowError):
        value = None
    if value is None or kind is float and not math.isfinite(value):
        raise ValueError(f"must be finite, got {raw!r}")
    if kind is int and value != raw:  # int(1.5) == 1
        raise ValueError(f"must be an integer, got {raw!r}")
    return value


@dataclass
class MetricsReport:
    """Per-run outcome: accuracy matrix, derived metrics, timing figures."""

    acc_rows: list
    avg_accuracy: float
    avg_forgetting: float
    c_s: float
    retained_batches: int
    total_batches: int
    selection_throughput_sps: float
    total_runtime_s: float
    stage_seconds: dict
    batch_time_s: float = 0.0

    def csv_row(self, config):
        return [text(self, config) for _, text in _CSV_TABLE]

    def to_json_dict(self, config):
        return {
            "run_id": config.run_id,
            "config": asdict(config),
            "acc_matrix": [list(map(float, row)) for row in self.acc_rows],
            "avg_accuracy": self.avg_accuracy,
            "avg_forgetting": self.avg_forgetting,
            "C_S": self.c_s,
            "retained_batches": self.retained_batches,
            "total_batches": self.total_batches,
            "selection_throughput_sps": self.selection_throughput_sps,
            "total_runtime_s": self.total_runtime_s,
        }


def metrics_csv(reports_and_configs):
    """Render the metrics CSV (header + one row per run)."""
    lines = [",".join(CSV_COLUMNS)]
    for report, config in reports_and_configs:
        lines.append(",".join(report.csv_row(config)))
    return "\n".join(lines) + "\n"


def relative_complexity(measured_batch_time, lam, dataset_size, batch_size):
    """Expected total training time divided by the total stream duration.
    Raises ValueError where it overflows, since a C_S of inf would skip
    every batch."""
    if measured_batch_time <= 0 or lam <= 0 or dataset_size <= 0 or batch_size <= 0:
        raise ValueError("relative_complexity needs strictly positive inputs")
    total_duration = dataset_size / lam
    expected_train = measured_batch_time * (dataset_size / batch_size)
    c_s = expected_train / total_duration
    if not math.isfinite(c_s):
        raise ValueError(f"C_S = {c_s}, not finite, for lambda = {lam:g} and a batch "
                         f"time of {measured_batch_time:g} s")
    return c_s


def skip_schedule(num_batches, c_s, rng):
    """Retained batch indices under complexity c_s, in stream order."""
    if num_batches < 1:
        raise ValueError("num_batches must be >= 1")
    if c_s <= 1:
        return np.arange(num_batches)
    keep = math.ceil(num_batches / c_s)
    chosen = rng.choice(num_batches, size=keep, replace=False)
    return np.sort(chosen)


def random_coreset(batch_size, sigma, rng):
    """Uniform random coreset of size ``coreset_size(b, sigma)``."""
    c = coreset_size(batch_size, sigma)
    return np.sort(rng.choice(batch_size, size=c, replace=False))


def kcenter_coreset(points, sigma):
    """Greedy farthest-point k-center selection on the ``(b, D)`` rows of ``points``.

    The first center is the point farthest from the centroid (ties to the
    lower index), which makes the selection deterministic. A selected
    point is never picked again, so a batch with fewer distinct points
    than ``c`` still yields ``c`` distinct indices.
    """
    pooled = np.asarray(points, dtype=np.float64)
    if pooled.ndim != 2:
        raise ValueError(f"points must be rank-2 (b, D), got shape {pooled.shape}")
    c = coreset_size(pooled.shape[0], sigma)
    centroid = pooled.mean(axis=0)
    d0 = np.linalg.norm(pooled - centroid, axis=1)
    first = int(np.argmax(d0))
    selected = [first]
    min_dist = np.linalg.norm(pooled - pooled[first], axis=1)
    min_dist[first] = -np.inf
    while len(selected) < c:
        nxt = int(np.argmax(min_dist))
        selected.append(nxt)
        min_dist = np.minimum(min_dist, np.linalg.norm(pooled - pooled[nxt], axis=1))
        min_dist[nxt] = -np.inf
    return np.array(sorted(selected))


def class_order_permutation(order_id, n_classes):
    """Built-in reproducible class orders: permutation from seed = order id."""
    rng = np.random.default_rng(int(order_id))
    return rng.permutation(n_classes)


def select(selector, sigma, summary, fingerprints, rng):
    """Coreset of the batch that ``summary`` (a ``BatchSummary``) summarizes,
    by the named selector of ``SELECTORS``; returns (indices, similarity or
    None). ``streamfp`` scores the unit-token sums against the ``(N, D)``
    fingerprints, ``kcenter`` reads the token means, and only ``random``
    draws from ``rng``. The driver and ``streamfp bench`` both select here.

    The driver passes the raw ``aggregate(model.pool)``, not the attuned
    pool that the loss sees, and so does the buffer's resident scoring.
    This is kept on purpose: scoring through the attuned pool would change
    every selection and buffer decision, and so every recorded run output.
    """
    if selector == "none":
        return np.arange(len(summary)), None
    if selector == "random":
        return random_coreset(len(summary), sigma, rng), None
    if selector == "kcenter":
        return kcenter_coreset(summary.means, sigma), None
    if selector != "streamfp":
        raise ValueError(f"unknown selector {selector!r}")
    s = sum_similarity(summary.unit_sums, fingerprints, summary.tokens)
    return select_coreset(s, sigma).indices, s


def run_experiment(config):
    """Execute one full stream run and return its MetricsReport.

    Pipeline per retained batch: embed, one summary, similarity, coreset
    selection, K-step training on the coreset's summary rows plus a buffer
    mini-batch, then a buffer update over the whole batch. Deterministic
    given the master seed (timing figures excepted unless pinned).
    """
    errors = config.validate()
    if errors:
        raise ValueError("invalid config: " + "; ".join(errors))

    t_start = time.perf_counter()
    seed = config.seed
    sel_rng = substream(seed, "selection")
    buf_rng = substream(seed, "buffer")
    skip_rng = substream(seed, "skip")
    retrieval_rng = substream(seed, "retrieval")

    # the class geometry that the stream and the eval sets share
    geometry = dict(
        seed=seed,
        n_classes=config.n_classes,
        dim=config.dim,
        tokens=config.tokens,
        n_tasks=config.tasks,
        noise_std=config.noise_std,
        drift_std=config.drift_std,
        class_concentration=config.class_concentration,
        class_order=class_order_permutation(config.class_order, config.n_classes),
    )
    embedder = SyntheticEmbedder(
        **geometry,
        outlier_fraction=config.outlier_fraction,
        outlier_scale=config.outlier_scale,
        dominant_fraction=config.dominant_fraction,
    )
    # the run's one model, and so its one frozen MLP bank
    model = PrototypeModel.init_random(
        n_classes=config.n_classes,
        dim=config.dim,
        pool_count=config.n_fingerprints,
        pool_length=config.fingerprint_length,
        num_experts=config.num_experts,
        rng=substream(seed, "init"),
        learning_rate=config.learning_rate,
        grad_steps=config.grad_steps,
    )

    num_batches = config.num_batches
    batches_per_task = max(1, num_batches // config.tasks)
    # the task of each batch; the last task takes the remainder
    task_of = np.minimum(np.arange(num_batches) // batches_per_task, config.tasks - 1)

    def make_batch(batch_idx):
        task = int(task_of[batch_idx])
        start = (batch_idx - task * batches_per_task) * config.batch_size
        return embedder.embed(task, np.arange(start, start + config.batch_size))

    def run_batch(model, buffer, batch, timings, sigma):
        t0 = time.perf_counter()
        # the batch's one summary: everything below reads its rows
        summary = batch.summary()
        sel_idx, s = select(
            config.selector, sigma, summary, aggregate(model.pool), sel_rng)
        t1 = time.perf_counter()
        train_step(model, summary.take(sel_idx, buffer.minibatch(len(sel_idx), retrieval_rng)))
        t2 = time.perf_counter()
        if config.buffer_policy == "streamfp":
            if s is None:
                s = sum_similarity(summary.unit_sums, aggregate(model.pool), summary.tokens)
            if len(buffer):
                # residents' embeddings never change, so their unit-token
                # sums are cached and only the fingerprint side is new
                s_buf = sum_similarity(
                    buffer.unit_token_sums(), aggregate(model.pool), config.tokens
                )
            else:
                s_buf = np.zeros(0)
            update_buffer(buffer, batch, s, s_buf, buf_rng)
        elif config.buffer_policy == "reservoir":
            reservoir_update(buffer, batch, buf_rng)
        elif config.buffer_policy == "keep_first":
            keep_first_update(buffer, batch)
        t3 = time.perf_counter()
        timings["selection"] += t1 - t0
        timings["train"] += t2 - t1
        timings["buffer"] += t3 - t2

    # the stream batches the warm-up embedded, by index, for the main loop
    held = {}

    def warmup_batch_time():
        """Median time of a batch on a throwaway copy of the run's model,
        which shares its frozen MLP bank, and a throwaway buffer; both are
        freed on return. Each stream batch it embeds stays in ``held``."""
        warm_model = model.trainable_copy()
        warm_buffer = RehearsalBuffer(config.buffer_size)
        warm_timings = {"selection": 0.0, "train": 0.0, "buffer": 0.0}
        per_batch = []
        for w in range(config.warmup_batches):
            batch_idx = w % num_batches
            if batch_idx not in held:
                held[batch_idx] = make_batch(batch_idx)
            batch = held[batch_idx]
            tw = time.perf_counter()
            run_batch(warm_model, warm_buffer, batch, warm_timings, config.sigma)
            per_batch.append(time.perf_counter() - tw)
        return float(np.median(per_batch))

    # warm-up timing (or pinned measurement) -> C_S -> skip schedule. The
    # warm-up draws from the selection, retrieval and buffer substreams
    # before the run does, but how many draws a batch makes is fixed by b,
    # sigma and the buffer fill, never by a similarity value: the coreset
    # size max(1, floor(sigma * b)), the retrieval mini-batch size, the
    # compute_update_count draws, and one uniform per weighted draw (rank
    # weights are all > 0 for n >= 2). So the warm-up copy's values reach
    # no output. The batches it embedded reach the main loop unchanged: a
    # batch is a pure function of (seed, task, index), and nothing writes
    # into one, so the run takes the held copy instead of embedding it again.
    if config.pinned_batch_time is not None:
        batch_time = config.pinned_batch_time
    else:
        batch_time = warmup_batch_time()
    # raises where C_S overflows, before the run trains on anything
    if config.c_s_override is not None:
        c_s = config.c_s_override
    else:
        c_s = relative_complexity(
            batch_time, config.lam, config.dataset_size, config.batch_size
        )
    if config.skip_mode == "lower_ratio":
        retained = np.arange(num_batches)
        run_sigma = max(config.sigma / max(1.0, c_s), 1e-9)
    else:
        retained = skip_schedule(num_batches, c_s, skip_rng)
        run_sigma = config.sigma
    # free the held batches that the skip schedule drops
    held = {idx: held[idx] for idx in retained.tolist() if idx in held}
    buffer = RehearsalBuffer(config.buffer_size)

    # evaluation uses clean, balanced samples from the same class geometry,
    # in an index range disjoint from any training sample. A set is a pure
    # function of (seed, task, index), so it is summarized at its task's first
    # checkpoint, in row blocks, and held only as its summary: the classifier
    # reads nothing else of it
    eval_embedder = SyntheticEmbedder(**geometry)
    eval_base = config.dataset_size + 1_000_000
    eval_indices = np.arange(eval_base, eval_base + config.eval_size)
    eval_sets = []

    timings = {"selection": 0.0, "train": 0.0, "buffer": 0.0, "eval": 0.0}
    acc_rows = []
    for task in range(config.tasks):
        # retained is sorted, so each task's batches run in stream order
        for batch_idx in retained[task_of[retained] == task].tolist():
            batch = held.pop(batch_idx) if batch_idx in held else make_batch(batch_idx)
            run_batch(model, buffer, batch, timings, run_sigma)
        te = time.perf_counter()
        eval_sets.append(eval_embedder.summarize(task, eval_indices))
        # one attunement serves every eval set of this checkpoint
        p_agg = model.attuned_pool()
        acc_rows.append([evaluate(model, eval_set, p_agg) for eval_set in eval_sets])
        timings["eval"] += time.perf_counter() - te

    total_runtime = time.perf_counter() - t_start
    if config.pinned_selection_throughput is not None:
        throughput = config.pinned_selection_throughput
    else:
        # every batch has batch_size rows
        throughput = len(retained) * config.batch_size / max(timings["selection"], 1e-12)
    if config.pinned_total_runtime is not None:
        total_runtime = config.pinned_total_runtime

    return MetricsReport(
        acc_rows=acc_rows,
        avg_accuracy=average_accuracy(acc_rows),
        avg_forgetting=average_forgetting(acc_rows),
        c_s=float(c_s),
        retained_batches=len(retained),
        total_batches=num_batches,
        selection_throughput_sps=float(throughput),
        total_runtime_s=float(total_runtime),
        stage_seconds=timings,
        batch_time_s=float(batch_time),
    )
