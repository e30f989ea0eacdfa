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
from .core_math import batch_similarity, sum_similarity  # noqa: F401
from .fingerprints import aggregate, expert_group
from .learner import (
    PrototypeModel,
    SyntheticEmbedder,
    average_accuracy,
    average_forgetting,
    evaluate,
    summary_block_rows,
    train_step,
)
from .seeding import substream

SELECTORS = ("streamfp", "random", "kcenter", "none")
BUFFER_POLICIES = ("streamfp", "reservoir", "keep_first", "none")
SKIP_MODES = ("skip_batches", "lower_ratio")
# the most warm-up batches a run may time; each one runs a full batch
MAX_WARMUP_BATCHES = 10_000
# the most gradient steps (K) a run may take per retained batch
MAX_GRAD_STEPS = 1_000
# the most frozen MLP experts a model may hold; each one is two (D, D)
# matrices drawn at start-up and run in every attunement
MAX_EXPERTS = 1_000

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
    f"in [1, {MAX_GRAD_STEPS}]": lambda v: 1 <= v <= MAX_GRAD_STEPS,
    # while the two bounds are equal, the two fields share this one rule
    f"in [1, {MAX_EXPERTS}]": lambda v: 1 <= v <= MAX_EXPERTS,
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
    grad_steps: int = _key("stream", "K", 1, f"in [1, {MAX_GRAD_STEPS}]")
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
    num_experts: int = _key("learner", "num_experts", 3, f"in [1, {MAX_EXPERTS}]")
    noise_std: float = _key("learner", "noise_std", 0.3, ">= 0")
    drift_std: float = _key("learner", "drift_std", 0.3, ">= 0")
    outlier_fraction: float = _key("learner", "outlier_fraction", 0.0, "in [0, 1)")
    outlier_scale: float = _key("learner", "outlier_scale", 1.0, "> 0")
    dominant_fraction: float = _key("learner", "dominant_fraction", 0.0, "in [0, 1)")
    class_concentration: float = _key("learner", "class_concentration", 0.0, "in [0, 1)")
    learning_rate: float = _key("learner", "learning_rate", 0.001, ">= 0")
    eval_size: int = _key("learner", "eval_size", 100, ">= 1")  # held-out samples per task
    warmup_batches: int = _key("stream", "warmup_batches", 50, f"in [1, {MAX_WARMUP_BATCHES}]")
    # the two measurements that steer a run; with the batch time set, the
    # warm-up is skipped and every output but the timings is reproducible
    # bit for bit
    pinned_batch_time: float | None = _key("timing", "pinned_batch_time", None, "> 0")
    c_s_override: float | None = _key("timing", "c_s_override", None, "> 0")
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
            # (name, INI keys, float64 count) of each array a run holds at once
            terms = [
                ("MLP bank 2*R*D^2", ("num_experts", "dim"), 2 * r * d * d),
                # each task's (n, D) unit-token sums and token means, and the
                # tokens of the one row block being summarized
                ("eval sets", ("tasks", "eval_size", "tokens", "dim"),
                 self.tasks * self.eval_size * 2 * d
                 + min(self.eval_size, summary_block_rows(self.tokens, d)) * row),
                ("buffer", ("buffer_size", "tokens", "dim"), self.buffer_size * row),
                ("buffer unit-token sums m*D", ("buffer_size", "dim"), self.buffer_size * d),
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
                 expert_group(r, n, lp, d) * n * lp * d),
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
    batch_time_s: float

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


class BatchRunner:
    """The per-batch state of one run: the model it trains, its own buffer,
    the ``(selection, retrieval, buffer)`` generators it draws from, its
    stage ``timings``, and ``attuned``, the ``(p_agg, cache or None)`` of
    the model's current parameters, or None. Each layer is looked up in
    this module when called, so a wrapper set on it sees every call."""

    def __init__(self, config, model, rngs):
        self.config, self.model = config, model
        self.buffer = RehearsalBuffer(config.buffer_size)
        self.selection_rng, self.retrieval_rng, self.buffer_rng = rngs
        self.timings = {"selection": 0.0, "train": 0.0, "buffer": 0.0, "eval": 0.0}
        self.attuned = None

    def attuned_pool(self, with_cache):
        """The attuned pool of the model's current parameters, attuned only
        where no attunement of them is held. With ``with_cache``, a new
        attunement keeps its cache for the next step."""
        if self.attuned is None:
            self.attuned = (self.model.attuned_pool(with_cache=True) if with_cache
                            else (self.model.attuned_pool(), None))
        return self.attuned[0]

    def step(self, batch, sigma):
        """One retained batch: a coreset at ``sigma``, a training step on it
        and a buffer mini-batch, then the buffer update over the batch."""
        config, model, buffer = self.config, self.model, self.buffer
        t0 = time.perf_counter()
        # the batch's one summary: everything below reads its rows
        summary = batch.summary()
        sel_idx, s = select(
            config.selector, sigma, summary, aggregate(model.pool), self.selection_rng)
        t1 = time.perf_counter()
        # a held cache feeds this step, and is freed when the step returns;
        # the step changes the parameters, so no attunement is held after it
        attuned, self.attuned = self.attuned, None
        train_step(model, summary.take(sel_idx, buffer.minibatch(len(sel_idx), self.retrieval_rng)),
                   config.learning_rate, config.grad_steps,
                   attuned=attuned if attuned and attuned[1] is not None else None)
        del attuned
        t2 = time.perf_counter()
        if config.buffer_policy == "streamfp":
            # only the exchange ranks the residents, and it runs on them only
            # for an offer that overflows a non-empty buffer. The residents
            # are scored against the pool after this batch's training step;
            # under the streamfp selector the batch keeps its selection
            # scores, from the pool before it. So the offer that overflows a
            # partly filled buffer ranks both kinds in one drop ranking: the
            # residents beside the rows that filled the room (at b=20 and
            # m=102, the 6th offer: 2 rows fill it after 100 residents)
            overflows = buffer.overflows(len(batch))
            p_agg = aggregate(model.pool) if s is None or overflows else None
            if s is None:
                s = sum_similarity(summary.unit_sums, p_agg, summary.tokens)
            # residents' embeddings never change, and the buffer stores the
            # unit-token sums of each batch's summary with them, so only the
            # fingerprint side is new
            s_buf = (sum_similarity(buffer.unit_token_sums(), p_agg, config.tokens)
                     if overflows else None)
            update_buffer(buffer, batch, s, s_buf, self.buffer_rng, summary.unit_sums)
        elif config.buffer_policy == "reservoir":
            reservoir_update(buffer, batch, self.buffer_rng, summary.unit_sums)
        elif config.buffer_policy == "keep_first":
            keep_first_update(buffer, batch, summary.unit_sums)
        t3 = time.perf_counter()
        self.timings["selection"] += t1 - t0
        self.timings["train"] += t2 - t1
        self.timings["buffer"] += t3 - t2


def run_experiment(config):
    """Execute one full stream run and return its MetricsReport.

    Pipeline per retained batch: embed, one summary, similarity, coreset
    selection, K-step training on the coreset's summary rows plus a buffer
    mini-batch, then a buffer update over the whole batch. With the batch
    time pinned, everything but the timing figures is a pure function of
    the config.
    """
    errors = config.validate()
    if errors:
        raise ValueError("invalid config: " + "; ".join(errors))

    t_start = time.perf_counter()
    seed = config.seed
    # the generators of the run's BatchRunner, and of the warm-up's
    rngs = tuple(substream(seed, label) for label in ("selection", "retrieval", "buffer"))

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
    )

    num_batches = config.num_batches
    batches_per_task = max(1, num_batches // config.tasks)
    # the task of each batch; the last task takes the remainder
    task_of = np.minimum(np.arange(num_batches) // batches_per_task, config.tasks - 1)

    def make_batch(batch_idx):
        task = int(task_of[batch_idx])
        start = (batch_idx - task * batches_per_task) * config.batch_size
        return embedder.embed(task, np.arange(start, start + config.batch_size))

    # warm-up timing (or pinned measurement) -> C_S -> skip schedule. The
    # warm-up times batches on a BatchRunner of its own, over a throwaway
    # copy of the run's model (which shares its frozen MLP bank) and a
    # throwaway buffer, but with the run's own three generators, so it draws
    # from them before the run does. How many draws a batch makes is fixed
    # by b, sigma and the buffer fill, never by a similarity value: the
    # coreset size max(1, floor(sigma * b)), the retrieval mini-batch size,
    # the compute_update_count draws, and one uniform per weighted draw (rank
    # weights are all > 0 for n >= 2). So the warm-up copy's model values
    # reach no output, but it leaves those three generators a fixed count of
    # draws ahead: an un-pinned run is deterministic, yet differs from the
    # same config pinned, which skips the warm-up (the tests' GOLDEN_UNPINNED).
    # The batches it embedded reach the main loop unchanged: a batch is a pure
    # function of (seed, task, index), and nothing writes into one, so the run
    # takes the held copy instead of embedding it again.
    held = {}
    if config.pinned_batch_time is not None:
        batch_time = config.pinned_batch_time
    else:
        warmup, per_batch = BatchRunner(config, model.trainable_copy(), rngs), []
        for w in range(config.warmup_batches):
            batch_idx = w % num_batches
            if batch_idx not in held:
                held[batch_idx] = make_batch(batch_idx)
            tw = time.perf_counter()
            warmup.step(held[batch_idx], config.sigma)
            per_batch.append(time.perf_counter() - tw)
        batch_time = float(np.median(per_batch))
        del warmup  # its model copy and buffer
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
        retained = skip_schedule(num_batches, c_s, substream(seed, "skip"))
        run_sigma = config.sigma
    # free the held batches that the skip schedule drops
    held = {idx: held[idx] for idx in retained.tolist() if idx in held}
    runner = BatchRunner(config, model, rngs)

    # evaluation uses clean, balanced samples from the same class geometry,
    # in an index range disjoint from any training sample. A set is a pure
    # function of (seed, task, index), so it is summarized at its task's first
    # checkpoint, in row blocks, and held only as its summary: the classifier
    # reads nothing else of it
    eval_embedder = SyntheticEmbedder(**geometry)
    eval_base = config.dataset_size + 1_000_000
    eval_indices = np.arange(eval_base, eval_base + config.eval_size)
    eval_sets = []

    # retained is sorted, so each task's batches run in stream order
    task_batches = [retained[task_of[retained] == task].tolist() for task in range(config.tasks)]
    acc_rows = []
    for task in range(config.tasks):
        for batch_idx in task_batches[task]:
            batch = held.pop(batch_idx) if batch_idx in held else make_batch(batch_idx)
            runner.step(batch, run_sigma)
        te = time.perf_counter()
        eval_sets.append(eval_embedder.summarize(task, eval_indices))
        # one attunement serves every eval set of this checkpoint, and its
        # cache the next task's first step, if that task trains
        p_agg = runner.attuned_pool(
            with_cache=task + 1 < config.tasks and bool(task_batches[task + 1]))
        acc_rows.append([evaluate(model, eval_set, p_agg) for eval_set in eval_sets])
        del p_agg  # the runner holds it until a step changes the parameters
        runner.timings["eval"] += time.perf_counter() - te

    # every batch has batch_size rows
    throughput = len(retained) * config.batch_size / max(runner.timings["selection"], 1e-12)
    return MetricsReport(
        acc_rows=acc_rows,
        avg_accuracy=average_accuracy(acc_rows),
        avg_forgetting=average_forgetting(acc_rows),
        c_s=float(c_s),
        retained_batches=len(retained),
        total_batches=num_batches,
        selection_throughput_sps=float(throughput),
        total_runtime_s=time.perf_counter() - t_start,
        stage_seconds=runner.timings,
        batch_time_s=float(batch_time),
    )
