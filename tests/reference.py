"""The plain model the oracle tests compare against: each rule of the
package written once, slowly and for reading, the way it stood before a fast
path replaced it. An oracle holds the fast path to these bytes, or to 1e-12
where the fast path sums in another order.

A change that moves the package's last bits re-pins here and ``GOLDEN`` in
``test_cli.py``, nowhere else: no test module defines a reference of its
own."""

import math
from functools import partial

import numpy as np

from ternrc import harness
from ternrc.errors import UsageError
from ternrc.optimizer import STD_FLOOR, _positive_class, midpoint_threshold, n_mirrors
from ternrc.readout import ALPHABETS, DetectorModel, TernaryMask
from ternrc.substrate import advance_drift, circle_mask, laser_response
from ternrc.tasks import _GLYPH_BLOCK, _GLYPHS, _SIGMA_BUCKETS, _blur_operator


# the substrate

def transmission(config):
    """The (K, D) complex transmission and the random stream after it, as
    drawn before the substrate held its real fields: two real draws, their
    complex sum, scaled by a divide."""
    rng = np.random.default_rng(config.seed)
    shape = (int(circle_mask(config.grid_side).sum()), int(circle_mask(config.input_side).sum()))
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0), rng


def forward_frame(sub, frame):
    """Node intensities of one (d, d) frame, one matvec at a time. The
    forward pass sums the same terms in a GEMM's blocked order, so the two
    agree to rounding."""
    t, _ = transmission(sub.config)
    p = np.abs(t @ frame[sub.input_mask].astype(float)) ** 2
    if not sub.config.vcsel_on:
        return p
    s = sub.config.saturation
    x = p / (1.0 + s * p) if s > 0 else p
    return x if sub._coupling is None else sub._coupling @ x


def forward_batch(sub, batch):
    """The forward pass over the complex transmission, concatenating its real
    and imaginary rows on every call: (distinct states, index)."""
    t, _ = transmission(sub.config)
    flat = batch.reshape(len(batch), -1)
    packed = np.packbits(flat, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, index = np.unique(keys, return_index=True, return_inverse=True)
    u = flat[first][:, sub.input_mask.ravel()].astype(float)
    f = np.concatenate((t.real, t.imag)) @ u.T
    p = (f[:len(t)] ** 2 + f[len(t):] ** 2).T
    return laser_response(sub, p), index


def unflushed_coupling(node_mask, sigma):
    """The coupling matrix as built before its subnormal entries were zeroed."""
    rows, cols = np.nonzero(node_mask)
    d2 = (rows[:, None] - rows[None, :]) ** 2 + (cols[:, None] - cols[None, :]) ** 2
    w = np.exp(-d2 / (2.0 * sigma * sigma))
    return w / w.sum(axis=0, keepdims=True)


# the readout

def full_product(states, plane):
    """A plane's noiseless power as one uncached full product."""
    return states @ plane.astype(float)


def powers(states):
    """The uncached plane-power lookup of a state matrix."""
    return partial(full_product, states)


class Detector(DetectorModel):
    """The detector as one plain formula per sweep: a fresh draw, scaled."""

    def detect(self, power, gain):
        sd = self.noise_sigma * self.noise_scale
        return gain * power + sd * self._rng.standard_normal(power.shape[0])


class Rig(harness.BatchReadout):
    """The rig's plane lookup as written before each base kept its key."""

    def power(self, plane):
        key = plane.tobytes()
        for base, p, *_ in self._bases:
            if base.tobytes() == key:
                return p
        h = [np.count_nonzero(plane != base) for base, *_ in self._bases]
        near = h.index(min(h)) if h else 0
        if h and 8 * h[near] < self.n_nodes and self._bases[near][-1] != key:
            diff = (plane != self._bases[near][0]).nonzero()[0]
            self._bases[near][-1] = key
            return self._bases[near][1] + self.states[:, diff] @ np.where(plane[diff], 1.0, -1.0)
        p = self.states @ plane.astype(float)
        if len(self._bases) == 2:
            del self._bases[near]
        self._bases.append([plane.copy(), p, None])
        return p


# the error, the normaliser and the search

def nmse(y, t):
    """nmse as written with np.std and np.sum."""
    sd = float(np.std(y))
    if sd < STD_FLOOR:
        return math.inf
    return float(np.sum((y - t) ** 2) / (y.size * sd))


class Normalizer:
    """The normalizer as written with np.mean and np.std."""

    def __init__(self, mode, t):
        self.mode, self.t, self.transform = mode, t, None

    def __call__(self, y):
        t = self.t
        if self.mode == "off":
            return y
        if self.mode == "first_epoch":
            if self.transform is None:
                lo, hi = float(np.min(y)), float(np.max(y))
                self.transform = (lo, hi - lo if hi > lo else 1.0)
            lo, span = self.transform
            return (y - lo) / span * (float(np.max(t)) - float(np.min(t))) + float(np.min(t))
        sd = float(np.std(y))
        if sd < STD_FLOOR:
            return np.full_like(y, float(np.mean(t)))
        return (y - np.mean(y)) / sd * float(np.std(t)) + float(np.mean(t))


def zscore_nmse(y, t):
    """The z-scored error in two steps: the conditioned trace, then its error."""
    return nmse(Normalizer("zscore", t)(y), t)


def train(rig, t, cfg, k):
    """The search loop as written with rng.choice, the checked mask
    constructor, np.std and np.mean: (best mask, [(epoch, best error,
    mirrors, accepted)])."""
    rng = np.random.default_rng(cfg.seed)
    alphabet = ALPHABETS[cfg.mode]
    mask = TernaryMask(weights=rng.choice(alphabet, size=k), mode=cfg.mode)
    norm = Normalizer(cfg.normalize, t)
    best = nmse(norm(rig(mask)), t)
    history = []
    for epoch in range(1, cfg.max_epochs + 1):
        n = n_mirrors(cfg.alpha, best, cap=k)
        positions = rng.integers(0, k, size=n)
        values = rng.choice(alphabet, size=n)
        w = np.array(mask.weights, dtype=np.int8, copy=True)
        w[positions] = values
        cand = TernaryMask(weights=w, mode=cfg.mode)
        e = nmse(norm(rig(cand)), t)
        accepted = e < best
        if accepted:
            mask, best = cand, e
        history.append((epoch, best, n, accepted))
    return mask, history


# the stability protocol

def consistency(a, b):
    """Pearson correlation as written with np.std and np.linalg.norm."""
    if np.array_equal(a, b):
        return 1.0
    if a.std() == 0.0 or b.std() == 0.0:
        raise UsageError("constant trace")
    ac, bc = a - a.mean(), b - b.mean()
    return float((ac @ bc) / (np.linalg.norm(ac) * np.linalg.norm(bc)))


def run_stability(cfg, n_checks, drift_steps_per_check):
    """The stability protocol as one measurement and one set of statistics
    per check, on the same trained rig."""
    sub, batches, states, power = harness._acquired(cfg, 0, harness._task_batches(cfg))
    rigs, _, result = harness._arm(cfg, 0, "", sub, states, batches, power)
    t = batches[1].targets
    norm = Normalizer(cfg.train.normalize, t)
    first = None
    rows = []
    for check in range(n_checks):
        advance_drift(sub, drift_steps_per_check)
        trace = rigs[1].measure(result.best_mask)
        if first is None:
            first = trace
        rows.append({"check": check, "consistency": consistency(first, trace),
                     "nmse": nmse(norm(trace), t), "gain": sub.gain})
    return rows


# the ridge baseline

def lambda_sweep(states, targets, grid, folds=5):
    """The sweep as it was with every fold's gram and rows prepared at once,
    looping over lambda outside and folds inside."""
    x = np.asarray(states, dtype=float)
    y = np.asarray(targets, dtype=float)
    n, k = x.shape
    fold_of = np.arange(n) % folds
    prepared = []
    for f in range(folds):
        tr = fold_of != f
        xt, yt = x[tr], y[tr]
        x_mean, y_mean = xt.mean(axis=0), float(yt.mean())
        xc = xt - x_mean
        prepared.append((xc.T @ xc, xc.T @ (yt - y_mean), x_mean, y_mean,
                         x[~tr], y[~tr], xt, yt))
    best_lam, best_acc = None, -1.0
    eye = np.eye(k)
    for lam in sorted(float(v) for v in grid):
        accs = []
        for gram, rhs, x_mean, y_mean, xv, yv, xt, yt in prepared:
            try:
                w = np.linalg.solve(gram + lam * eye, rhs)
            except np.linalg.LinAlgError:
                accs.append(0.0)
                continue
            bias = y_mean - float(x_mean @ w)
            thr = midpoint_threshold(xt @ w + bias, yt)
            pred = xv @ w + bias > thr
            accs.append(float(np.mean(pred == _positive_class(yv))))
        acc = float(np.mean(accs))
        if acc > best_acc:
            best_lam, best_acc = lam, acc
    return best_lam


# the glyph set

def three_roll_glyphs(n_images, seed, distortion):
    """The glyph generator as first written: the same draws, placed by three
    take_along_axis rolls and blurred by a stacked op @ x @ op.T per block.
    Returns (images, labels)."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, size=n_images).astype(np.uint8)
    variants = np.zeros((10, 3, 28, 28))
    for d in range(10):
        g = np.array([[int(ch) for ch in row] for row in _GLYPHS[d]], dtype=float)
        big = np.kron(g, np.ones((3, 3)))
        variants[d, 0, 3:24, 6:21] = big
        variants[d, 1, 3:24, 6:21] = np.maximum(big, np.roll(big, 1, axis=0))
        variants[d, 2, 3:24, 6:21] = np.maximum(big, np.roll(big, 1, axis=1))
    variant_idx = np.where(rng.random(n_images) < 0.5 * distortion,
                           rng.integers(1, 3, size=n_images), 0)
    dy = rng.integers(-3, 4, size=n_images)
    dx = rng.integers(-4, 5, size=n_images)
    offsets = np.rint((rng.standard_normal((n_images, 28)) * 1.6 * distortion)
                      @ _blur_operator(28, 1.5).T).astype(int)
    sigma = rng.uniform(0.5, 1.1, size=n_images) * max(distortion, 1e-9)
    edges = np.asarray(_SIGMA_BUCKETS) * max(distortion, 1e-9)
    bucket = np.argmin(np.abs(sigma[:, None] - edges[None, :]), axis=1)
    ops = [_blur_operator(28, float(sg)) if distortion > 0 else np.eye(28) for sg in edges]
    amp = rng.uniform(0.65, 1.0, size=n_images)[:, None, None]

    images = np.empty((n_images, 28, 28), dtype=np.uint8)
    for lo in range(0, n_images, _GLYPH_BLOCK):
        blk = slice(lo, lo + _GLYPH_BLOCK)
        canvas = variants[labels[blk], variant_idx[blk]]
        rows = (np.arange(28)[None, :, None] - dy[blk, None, None]) % 28
        canvas = np.take_along_axis(canvas, np.broadcast_to(rows, canvas.shape), axis=1)
        cols = (np.arange(28)[None, None, :] - dx[blk, None, None]) % 28
        canvas = np.take_along_axis(canvas, np.broadcast_to(cols, canvas.shape), axis=2)
        cols = (np.arange(28)[None, None, :] - offsets[blk, :, None]) % 28
        canvas = np.take_along_axis(canvas, cols, axis=2)
        out = np.empty_like(canvas)
        for b, op in enumerate(ops):
            sel = bucket[blk] == b
            if sel.any():
                out[sel] = op @ canvas[sel] @ op.T
        noise = rng.standard_normal(canvas.shape) * 10.0 * distortion
        images[blk] = np.clip(out * amp[blk] * 255.0 + noise, 0.0, 255.0).astype(np.uint8)
    return images, labels
