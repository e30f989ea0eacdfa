"""Empirical checkers for the engine's statistical guarantees.

Each checker returns a CheckResult with the measured values, so the CLI
and the test suite share one implementation. Thresholds are fixed here,
not calibrated at run time.
"""

from dataclasses import dataclass, field

import numpy as np

from .buffer import (
    RehearsalBuffer,
    compute_update_count,
    keep_first_update,
    mmd_squared,
    update_buffer,
    weighted_sample_without_replacement,
)
from .coreset import check_quality_bound, select_coreset
from .core_math import batch_similarity, l2_normalize
from .fingerprints import AttunementParams, FingerprintPool
from .learner import EmbeddingBatch, PrototypeModel, loss_gradients, forward_loss
from .seeding import substream, substream_indexed


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def summary(self):
        status = "PASS" if self.passed else "FAIL"
        parts = ", ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{status}] {self.name}: {parts}"


def _median_window_deviation(b, sigma, trials, rng, dim=16, n_fp=4):
    devs = []
    for _ in range(trials):
        emb = rng.standard_normal((b, 1, dim))
        fp = rng.standard_normal((n_fp, dim))
        s = batch_similarity(emb, fp)
        sel = select_coreset(s, sigma)
        devs.append(check_quality_bound(s, sel).deviation)
    return float(np.median(devs))


def coreset_scaling_check(trials=200, seed=1):
    """Median cost deviation must shrink with sigma*b (square-root law).

    Compares sigma*b = 200 (b=400) against sigma*b = 800 (b=1600) at
    sigma = 0.5; the large setting must come in at <= 0.8x the small one.
    """
    rng = substream(seed, "check-coreset")
    med_small = _median_window_deviation(400, 0.5, trials, rng)
    med_large = _median_window_deviation(1600, 0.5, trials, rng)
    ratio = med_large / med_small if med_small > 0 else float("inf")
    return CheckResult(
        "coreset deviation scaling",
        passed=ratio <= 0.8,
        details={
            "median_dev_sigma_b_200": f"{med_small:.3e}",
            "median_dev_sigma_b_800": f"{med_large:.3e}",
            "ratio": f"{ratio:.4f}",
            "threshold": 0.8,
        },
    )


def mmd_oracle_check(instances=100, max_n=200, seed=1):
    """Closed-form rank-1 MMD^2 vs the brute-force double sum, 1e-12."""
    rng = substream(seed, "check-mmd")
    worst = 0.0
    for _ in range(instances):
        n1 = int(rng.integers(1, max_n + 1))
        n2 = int(rng.integers(1, max_n + 1))
        fb = rng.uniform(-1, 1, size=n1)
        fs = rng.uniform(-1, 1, size=n2)
        closed = mmd_squared(fb, fs)
        # brute force: E[k(x,x')] + E[k(y,y')] - 2 E[k(x,y)] over all pairs
        kxx = np.outer(fb, fb).sum() / (n1 * n1)
        kyy = np.outer(fs, fs).sum() / (n2 * n2)
        kxy = np.outer(fb, fs).sum() / (n1 * n2)
        brute = kxx + kyy - 2 * kxy
        worst = max(worst, abs(closed - brute))
    return CheckResult(
        "mmd closed form vs brute force",
        passed=worst < 1e-12,
        details={"max_abs_diff": f"{worst:.3e}", "threshold": 1e-12},
    )


def _drift_stream_mmds(seed, tasks=5, batches_per_task=6, batch_size=20,
                       capacity=60, dim=8, n_fp=4):
    """One drifting stream; returns (retain_drop_mmd2, keep_first_mmd2).

    The batch centre rotates steadily from alignment with the fingerprint
    bulk to anti-alignment, so the mean similarity drifts monotonically
    across tasks; a buffer stuck on early data is far off the stream mean.
    """
    rng = substream(seed, "check-drift")
    fp = rng.standard_normal((n_fp, dim))
    rd = RehearsalBuffer(capacity)
    kf = RehearsalBuffer(capacity)
    seen = np.zeros(0)  # similarity of every sample offered, by sample id
    u = l2_normalize(fp.sum(axis=0))
    w = rng.standard_normal(dim)
    v = l2_normalize(w - (w @ u) * u)
    for task in range(tasks):
        theta = np.pi * task / (tasks - 1)
        center = np.cos(theta) * u + np.sin(theta) * v
        for _ in range(batches_per_task):
            emb = center[None, None, :] + 0.1 * rng.standard_normal((batch_size, 1, dim))
            s = batch_similarity(emb, fp)
            ids = np.arange(seen.size, seen.size + batch_size)
            seen = np.concatenate([seen, s])
            batch = EmbeddingBatch(emb, np.full(batch_size, task), ids)
            update_buffer(rd, batch, s, seen[rd.sample_ids], rng)
            keep_first_update(kf, batch)
    return mmd_squared(seen[rd.sample_ids], seen), mmd_squared(seen[kf.sample_ids], seen)


def buffer_drift_check(n_seeds=50, min_win_fraction=0.8):
    """Retain-Drop must track a drifting stream better than keep-first.

    MMD^2 between buffer similarities and all seen similarities must be
    no worse than the keep-first baseline in >= 80% of seeded runs.
    """
    wins = 0
    for seed in range(1, n_seeds + 1):
        rd, kf = _drift_stream_mmds(seed)
        if rd <= kf:
            wins += 1
    frac = wins / n_seeds
    return CheckResult(
        "retain-drop drift tracking",
        passed=frac >= min_win_fraction,
        details={"win_fraction": f"{frac:.2f}", "threshold": min_win_fraction,
                 "seeds": n_seeds},
    )


def _finite_difference(f, param, h=1e-5):
    grad = np.zeros_like(param)
    it = np.nditer(param, flags=["multi_index"])
    while not it.finished:
        ix = it.multi_index
        orig = param[ix]
        param[ix] = orig + h
        up = f()
        param[ix] = orig - h
        down = f()
        param[ix] = orig
        grad[ix] = (up - down) / (2 * h)
        it.iternext()
    return grad


def _block_rel_error(analytic, numeric):
    denom = np.linalg.norm(analytic) + np.linalg.norm(numeric)
    if denom == 0:
        return 0.0
    return float(np.linalg.norm(analytic - numeric) / denom)


def gradient_check(configs=20, seed=1, h=1e-5, tol=1e-4):
    """Analytic loss gradients vs central finite differences.

    Random small configurations; the relative error of each parameter
    block (prototypes, fingerprints, gate) must stay below tol.
    """
    worst = 0.0
    for i in range(configs):
        rng = substream_indexed(seed, "check-grad", i)
        n_cls = int(rng.integers(2, 5))
        dim = int(rng.integers(2, 6))
        n_fp = int(rng.integers(1, 4))
        lp = 2 * int(rng.integers(1, 3))
        bsz = int(rng.integers(2, 5))
        tokens = int(rng.integers(1, 4))
        model = PrototypeModel(
            prototypes=rng.standard_normal((n_cls, dim)),
            pool=FingerprintPool(0.5 * rng.standard_normal((n_fp, lp, dim))),
            attn=AttunementParams.init_random(dim, 3, rng, gate_scale=0.5),
        )
        batch = EmbeddingBatch(
            rng.standard_normal((bsz, tokens, dim)),
            rng.integers(0, n_cls, size=bsz),
            np.arange(bsz),
        )
        _, g_proto, g_pool, g_gate = loss_gradients(model, batch)

        def loss():
            value, _ = forward_loss(model, batch)
            return value

        fd_proto = _finite_difference(loss, model.prototypes, h)
        fd_pool = _finite_difference(loss, model.pool.weights, h)
        fd_gate = _finite_difference(loss, model.attn.gate, h)
        worst = max(
            worst,
            _block_rel_error(g_proto, fd_proto),
            _block_rel_error(g_pool, fd_pool),
            _block_rel_error(g_gate, fd_gate),
        )
    return CheckResult(
        "analytic vs finite-difference gradients",
        passed=worst < tol,
        details={"max_rel_error": f"{worst:.3e}", "threshold": tol,
                 "configs": configs},
    )


def sampler_check(trials=100_000, seed=1):
    """First-draw frequencies within 3-sigma binomial bounds of the weights."""
    cases = {
        "uniform4": np.ones(4) / 4,
        "skewed": np.array([0.75, 0.25]),
    }
    all_ok = True
    details = {}
    for name, weights in cases.items():
        probs = weights / weights.sum()
        counts = np.zeros(weights.size, dtype=np.int64)
        rng = substream(seed, f"check-sampler-{name}")
        for _ in range(trials):
            first = weighted_sample_without_replacement(weights, 1, rng)[0]
            counts[first] += 1
        freqs = counts / trials
        sigma = np.sqrt(probs * (1 - probs) / trials)
        ok = bool(np.all(np.abs(freqs - probs) <= 3 * sigma))
        all_ok &= ok
        details[name] = (
            f"freqs={np.round(freqs, 4).tolist()} "
            f"target={np.round(probs, 4).tolist()} ok={ok}"
        )
    return CheckResult("sampler first-draw frequencies", passed=all_ok, details=details)


def _analytic_nu_expectation(b, m, n_seen):
    """E[min(floor(b/2), max(1, Binomial(n_left, m / n_seen)))]."""
    from scipy.stats import binom

    n_left = b - max(0, m - n_seen)
    p = min(1.0, m / n_seen) if n_seen > 0 else 1.0
    cap = b // 2
    ks = np.arange(0, n_left + 1)
    pmf = binom.pmf(ks, n_left, p)
    clamped = np.minimum(cap, np.maximum(1, ks))
    return float(np.sum(pmf * clamped))


def update_count_expectation_check(trials=100_000, seed=1, rel_tol=0.01):
    """Monte-Carlo mean of the exchange count vs the binomial expectation."""
    settings = [
        (20, 102, 102),
        (20, 102, 10_000),
        (20, 102, 500),
        (50, 200, 1_000),
        (10, 40, 40),
    ]
    worst = 0.0
    details = {}
    for b, m, n_seen in settings:
        rng = substream(seed, f"check-nu-{b}-{m}-{n_seen}")
        nus = np.array(
            [compute_update_count(b, m, n_seen, rng) for _ in range(trials)]
        )
        mc = float(nus.mean())
        exact = _analytic_nu_expectation(b, m, n_seen)
        rel = abs(mc - exact) / exact
        worst = max(worst, rel)
        details[f"b{b}_m{m}_seen{n_seen}"] = f"mc={mc:.4f} exact={exact:.4f} rel={rel:.4f}"
    return CheckResult(
        "exchange-count expectation",
        passed=worst <= rel_tol,
        details={**details, "max_rel_error": f"{worst:.4f}", "threshold": rel_tol},
    )
