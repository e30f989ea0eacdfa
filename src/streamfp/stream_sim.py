"""Arrival-rate stream simulation, baseline selectors, experiment driver.

No wall-clock pacing is simulated: the stream-model relative complexity
C_S is computed from a timed warm-up (or a pinned measurement) and
translates directly into a batch-skipping schedule.
"""

import json
import math
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .buffer import BufferItem, RehearsalBuffer, update_buffer
from .coreset import select_coreset
from .core_math import batch_similarity
from .fingerprints import aggregate
from .learner import (
    EmbeddingBatch,
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

CSV_COLUMNS = [
    "run_id",
    "selector",
    "buffer_policy",
    "lambda",
    "C_S",
    "sigma",
    "m",
    "K",
    "seed",
    "class_order",
    "avg_accuracy",
    "avg_forgetting",
    "selection_throughput_sps",
    "total_runtime_s",
]


@dataclass
class StreamConfig:
    """Fully explicit description of one experiment run."""

    lam: float = 6028.0  # arrival rate, samples/sec
    dataset_size: int = 2000
    batch_size: int = 20
    tasks: int = 5
    class_order: int = 1  # 1..5 pick a built-in seed-generated permutation
    sigma: float = 0.5
    buffer_size: int = 102
    grad_steps: int = 1
    seed: int = 1
    selector: str = "streamfp"
    buffer_policy: str = "streamfp"
    skip_mode: str = "skip_batches"
    # surrogate learner / embedder
    n_classes: int = 10
    dim: int = 16
    tokens: int = 2
    n_fingerprints: int = 8
    fingerprint_length: int = 2
    num_experts: int = 3
    noise_std: float = 0.3
    drift_std: float = 0.3
    outlier_fraction: float = 0.0
    outlier_scale: float = 1.0
    dominant_fraction: float = 0.0
    class_concentration: float = 0.0
    learning_rate: float = 0.001
    eval_size: int = 100  # held-out samples per task
    warmup_batches: int = 50
    # pinned timing inputs; when set, wall-clock measurement is skipped and
    # every derived figure is reproducible bit-for-bit
    pinned_batch_time: float | None = None
    c_s_override: float | None = None
    pinned_selection_throughput: float | None = None
    pinned_total_runtime: float | None = None
    run_id: str = "run"

    def validate(self):
        """Return the list of all violated-field messages (empty if valid)."""
        errors = []
        if self.lam <= 0:
            errors.append("lambda must be > 0")
        if self.dataset_size < 1:
            errors.append("dataset_size must be >= 1")
        if self.batch_size < 1:
            errors.append("batch_size must be >= 1")
        if self.tasks < 1:
            errors.append("tasks must be >= 1")
        if not 0 < self.sigma <= 1:
            errors.append("sigma must be in (0, 1]")
        if self.buffer_size < 1:
            errors.append("buffer_size must be >= 1")
        if self.grad_steps < 1:
            errors.append("K (grad_steps) must be >= 1")
        if self.selector not in SELECTORS:
            errors.append(f"selector must be one of {SELECTORS}")
        if self.buffer_policy not in BUFFER_POLICIES:
            errors.append(f"buffer_policy must be one of {BUFFER_POLICIES}")
        if self.skip_mode not in SKIP_MODES:
            errors.append(f"skip_mode must be one of {SKIP_MODES}")
        if self.n_classes < self.tasks:
            errors.append("n_classes must be >= tasks")
        if self.fingerprint_length < 2 or self.fingerprint_length % 2:
            errors.append("fingerprint_length must be even and >= 2")
        if self.learning_rate < 0:
            errors.append("learning_rate must be >= 0")
        if self.warmup_batches < 1:
            errors.append("warmup_batches must be >= 1")
        if not 0 <= self.outlier_fraction < 1:
            errors.append("outlier_fraction must be in [0, 1)")
        if self.outlier_scale <= 0:
            errors.append("outlier_scale must be > 0")
        if not 0 <= self.dominant_fraction < 1:
            errors.append("dominant_fraction must be in [0, 1)")
        if not 0 <= self.class_concentration < 1:
            errors.append("class_concentration must be in [0, 1)")
        return errors


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
        return [
            config.run_id,
            config.selector,
            config.buffer_policy,
            f"{config.lam:.6g}",
            f"{self.c_s:.6f}",
            f"{config.sigma:.6g}",
            str(config.buffer_size),
            str(config.grad_steps),
            str(config.seed),
            str(config.class_order),
            f"{self.avg_accuracy:.6f}",
            f"{self.avg_forgetting:.6f}",
            f"{self.selection_throughput_sps:.3f}",
            f"{self.total_runtime_s:.6f}",
        ]

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
    """Expected total training time divided by the total stream duration."""
    if measured_batch_time <= 0 or lam <= 0 or dataset_size <= 0 or batch_size <= 0:
        raise ValueError("relative_complexity needs strictly positive inputs")
    total_duration = dataset_size / lam
    expected_train = measured_batch_time * (dataset_size / batch_size)
    return expected_train / total_duration


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
    """Uniform random coreset of size max(1, floor(sigma * b))."""
    if not 0 < sigma <= 1:
        raise ValueError("sigma must be in (0, 1]")
    c = max(1, math.floor(sigma * batch_size))
    return np.sort(rng.choice(batch_size, size=c, replace=False))


def kcenter_coreset(emd, sigma):
    """Greedy farthest-point k-center selection on mean-pooled embeddings.

    The first center is the point farthest from the centroid (ties to the
    lower index), which makes the selection deterministic.
    """
    if not 0 < sigma <= 1:
        raise ValueError("sigma must be in (0, 1]")
    pooled = np.asarray(emd, dtype=np.float64)
    if pooled.ndim == 3:
        pooled = pooled.mean(axis=1)
    n = pooled.shape[0]
    c = max(1, math.floor(sigma * n))
    centroid = pooled.mean(axis=0)
    d0 = np.linalg.norm(pooled - centroid, axis=1)
    first = int(np.argmax(d0))
    selected = [first]
    min_dist = np.linalg.norm(pooled - pooled[first], axis=1)
    while len(selected) < c:
        nxt = int(np.argmax(min_dist))
        selected.append(nxt)
        min_dist = np.minimum(min_dist, np.linalg.norm(pooled - pooled[nxt], axis=1))
    return np.array(sorted(selected))


def reservoir_update(buffer, batch_items, rng):
    """Classic reservoir sampling over the offered stream."""
    for it in batch_items:
        if len(buffer.items) < buffer.capacity:
            buffer.items.append(it)
        else:
            j = int(rng.integers(0, buffer.n_seen + 1))
            if j < buffer.capacity:
                buffer.items[j] = it
        buffer.n_seen += 1
    return buffer


def keep_first_update(buffer, batch_items):
    """Fill-once baseline: residents are never replaced."""
    for it in batch_items:
        if len(buffer.items) < buffer.capacity:
            buffer.items.append(it)
        buffer.n_seen += 1
    return buffer


def class_order_permutation(order_id, n_classes):
    """Built-in reproducible class orders: permutation from seed = order id."""
    rng = np.random.default_rng(int(order_id))
    return rng.permutation(n_classes)


def _batch_items(batch):
    return [
        BufferItem(int(batch.sample_ids[i]), batch.embeddings[i], int(batch.labels[i]), 0.0)
        for i in range(len(batch))
    ]


def _buffer_minibatch(buffer, size, rng):
    if not buffer.items or size < 1:
        return None
    take = min(size, len(buffer.items))
    idx = rng.choice(len(buffer.items), size=take, replace=False)
    emb = np.stack([buffer.items[i].embedding for i in idx])
    labels = np.array([buffer.items[i].label for i in idx], dtype=np.int64)
    ids = np.array([buffer.items[i].sample_id for i in idx], dtype=np.int64)
    return EmbeddingBatch(emb, labels, ids)


def _concat_batches(a, b):
    if b is None:
        return a
    return EmbeddingBatch(
        np.concatenate([a.embeddings, b.embeddings]),
        np.concatenate([a.labels, b.labels]),
        np.concatenate([a.sample_ids, b.sample_ids]),
    )


def _select(selector, sigma, model, batch, rng):
    """Run the configured selector; returns (indices, similarity or None).

    Scoring uses the raw ``aggregate(model.pool)``, not the attuned pool
    that the loss sees, and so does the buffer's resident scoring. This is
    kept on purpose: scoring through the attuned pool would change every
    selection and buffer decision, and so every recorded run output.
    """
    if selector == "none":
        return np.arange(len(batch)), None
    if selector == "random":
        return random_coreset(len(batch), sigma, rng), None
    if selector == "kcenter":
        return kcenter_coreset(batch.embeddings, sigma), None
    _, s = batch_similarity(batch.embeddings, aggregate(model.pool))
    return select_coreset(s, sigma).indices, s


def run_experiment(config):
    """Execute one full stream run and return its MetricsReport.

    Pipeline per retained batch: embed, similarity, coreset selection,
    K-step training on coreset plus a buffer mini-batch, then a buffer
    update over the whole batch. Deterministic given the master seed
    (timing figures excepted unless pinned).
    """
    errors = config.validate()
    if errors:
        raise ValueError("invalid config: " + "; ".join(errors))

    t_start = time.perf_counter()
    seed = config.seed
    init_rng = substream(seed, "init")
    sel_rng = substream(seed, "selection")
    buf_rng = substream(seed, "buffer")
    skip_rng = substream(seed, "skip")
    retrieval_rng = substream(seed, "retrieval")

    order = class_order_permutation(config.class_order, config.n_classes)
    embedder = SyntheticEmbedder(
        seed=seed,
        n_classes=config.n_classes,
        dim=config.dim,
        tokens=config.tokens,
        n_tasks=config.tasks,
        noise_std=config.noise_std,
        drift_std=config.drift_std,
        outlier_fraction=config.outlier_fraction,
        outlier_scale=config.outlier_scale,
        dominant_fraction=config.dominant_fraction,
        class_concentration=config.class_concentration,
        class_order=order,
    )
    # evaluation uses clean, balanced samples from the same class geometry
    eval_embedder = SyntheticEmbedder(
        seed=seed,
        n_classes=config.n_classes,
        dim=config.dim,
        tokens=config.tokens,
        n_tasks=config.tasks,
        noise_std=config.noise_std,
        drift_std=config.drift_std,
        class_concentration=config.class_concentration,
        class_order=order,
    )
    model = PrototypeModel.init_random(
        n_classes=config.n_classes,
        dim=config.dim,
        pool_count=config.n_fingerprints,
        pool_length=config.fingerprint_length,
        num_experts=config.num_experts,
        rng=init_rng,
        learning_rate=config.learning_rate,
        grad_steps=config.grad_steps,
    )
    buffer = RehearsalBuffer(config.buffer_size)

    num_batches = config.dataset_size // config.batch_size
    num_batches = max(num_batches, config.tasks)
    batches_per_task = max(1, num_batches // config.tasks)

    def batch_task(batch_idx):
        return min(batch_idx // batches_per_task, config.tasks - 1)

    def make_batch(batch_idx):
        task = batch_task(batch_idx)
        local = batch_idx - task * batches_per_task
        start = local * config.batch_size
        return task, embedder.embed(task, np.arange(start, start + config.batch_size))

    # eval sets live in a disjoint index range above any training sample
    eval_base = config.dataset_size + 1_000_000
    eval_sets = [
        eval_embedder.embed(t, np.arange(eval_base, eval_base + config.eval_size))
        for t in range(config.tasks)
    ]

    def run_batch(model, buffer, batch, timings, sigma):
        t0 = time.perf_counter()
        sel_idx, s = _select(config.selector, sigma, model, batch, sel_rng)
        t1 = time.perf_counter()
        coreset_batch = EmbeddingBatch(
            batch.embeddings[sel_idx], batch.labels[sel_idx], batch.sample_ids[sel_idx]
        )
        train_batch = _concat_batches(
            coreset_batch, _buffer_minibatch(buffer, len(sel_idx), retrieval_rng)
        )
        train_step(model, train_batch)
        t2 = time.perf_counter()
        items = _batch_items(batch)
        if config.buffer_policy == "streamfp":
            if s is None:
                _, s = batch_similarity(batch.embeddings, aggregate(model.pool))
            if buffer.items:
                _, s_buf = batch_similarity(buffer.embeddings(), aggregate(model.pool))
            else:
                s_buf = np.zeros(0)
            update_buffer(buffer, items, s, s_buf, buf_rng)
        elif config.buffer_policy == "reservoir":
            reservoir_update(buffer, items, buf_rng)
        elif config.buffer_policy == "keep_first":
            keep_first_update(buffer, items)
        t3 = time.perf_counter()
        timings["selection"] += t1 - t0
        timings["train"] += t2 - t1
        timings["buffer"] += t3 - t2

    # warm-up timing (or pinned measurement) -> C_S -> skip schedule
    if config.pinned_batch_time is not None:
        batch_time = config.pinned_batch_time
    else:
        warm_model = PrototypeModel.init_random(
            config.n_classes, config.dim, config.n_fingerprints,
            config.fingerprint_length, config.num_experts,
            substream(seed, "warmup-init"),
            learning_rate=config.learning_rate, grad_steps=config.grad_steps,
        )
        warm_buffer = RehearsalBuffer(config.buffer_size)
        warm_timings = {"selection": 0.0, "train": 0.0, "buffer": 0.0}
        per_batch = []
        for w in range(config.warmup_batches):
            _, batch = make_batch(w % num_batches)
            tw = time.perf_counter()
            run_batch(warm_model, warm_buffer, batch, warm_timings, config.sigma)
            per_batch.append(time.perf_counter() - tw)
        batch_time = float(np.median(per_batch))

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
    retained_set = set(int(i) for i in retained)

    timings = {"selection": 0.0, "train": 0.0, "buffer": 0.0, "eval": 0.0}
    acc_rows = []
    selected_samples = 0
    for task in range(config.tasks):
        lo = task * batches_per_task
        hi = num_batches if task == config.tasks - 1 else lo + batches_per_task
        for batch_idx in range(lo, hi):
            if batch_idx not in retained_set:
                continue
            _, batch = make_batch(batch_idx)
            run_batch(model, buffer, batch, timings, run_sigma)
            selected_samples += len(batch)
        te = time.perf_counter()
        # one attunement serves every eval set of this checkpoint; it is
        # dropped before the next task's training, where it would raise the
        # peak memory
        p_att = model.attuned_pool()
        acc_rows.append([evaluate(model, eval_sets[j], p_att) for j in range(task + 1)])
        del p_att
        timings["eval"] += time.perf_counter() - te

    total_runtime = time.perf_counter() - t_start
    if config.pinned_selection_throughput is not None:
        throughput = config.pinned_selection_throughput
    else:
        throughput = selected_samples / max(timings["selection"], 1e-12)
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
