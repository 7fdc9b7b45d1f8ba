"""The plain model the oracle tests compare against: each rule of the
package written once, slowly and for reading, the way it stood before a fast
path replaced it. An oracle holds the fast path to these bytes, or to 1e-12
where the fast path takes another formula.

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
from ternrc.substrate import advance_drift, circle_mask
from ternrc.tasks import _GLYPH_BLOCK, _GLYPHS, _SIGMA_BUCKETS, _blur_operator


# the substrate
#
# Three grids make every sum of the optics and the laser exact, in any order:
# - each transmission entry is a multiple of 2**-30;
# - each frame's intensities, and its states, are multiples of 2**(e - b),
#   2**e the least power of two above the frame's largest and b = 53 -
#   ceil(log2 K) bits; the laser's map keeps 18 bits fewer, b - 18;
# - each coupling weight is a multiple of 2**-18, and each column sums to 1.

def transmission(config):
    """The (K, D) complex transmission and the random stream after it: two
    real draws, their complex sum, scaled by a divide, then its real and
    imaginary parts each rounded to the nearest multiple of 2**-30."""
    rng = np.random.default_rng(config.seed)
    shape = (int(circle_mask(config.grid_side).sum()), int(circle_mask(config.input_side).sum()))
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    t = (re + 1j * im) / np.sqrt(2.0)
    for part in (t.real, t.imag):
        part[...] = np.rint(part * 2.0 ** 30) / 2.0 ** 30
    return t, rng


def state_bits(k):
    """Bits a state of K nodes keeps below its frame's largest."""
    return 53 - math.ceil(math.log2(k))


def on_grid(x, bits):
    """One frame's values rounded to the nearest multiple of 2**(e - bits),
    2**e the least power of two above the largest of them."""
    q = 2.0 ** (math.frexp(float(np.max(x)))[1] - bits)
    return np.rint(x / q) * q


def coupling(config):
    """The rig's coupling matrix, or None without diffusion: the gaussian
    weights, each column divided by its sum and floored to a multiple of
    2**-18, then the column's remainder added on the diagonal."""
    if config.diffusion_sigma == 0:
        return None
    rows, cols = np.nonzero(circle_mask(config.grid_side))
    d2 = (rows[:, None] - rows[None, :]) ** 2 + (cols[:, None] - cols[None, :]) ** 2
    w = np.exp(-d2 / (2.0 * config.diffusion_sigma ** 2))
    c = np.floor(w / w.sum(axis=0) * 2.0 ** 18) / 2.0 ** 18
    return c + np.diag(1.0 - c.sum(axis=0))


def saturated(config, x):
    """One frame's laser map: x / (1 + s x) on the grid of 18 bits fewer than
    a state, or x as it is on a linear rig (saturation 0, no diffusion)."""
    s = config.saturation
    if s == 0 and config.diffusion_sigma == 0:
        return x
    return on_grid(x / (1.0 + s * x), state_bits(len(x)) - 18)


def forward_frames(sub, frames):
    """(N, K) node states of an (N, d, d) frame stack on one draw, one frame
    at a time: a complex matrix-vector product, the squares of its real and
    imaginary parts on the state grid, the laser map and a coupling
    matrix-vector product. Every sum is exact, so these are the bytes of the
    package's batched pass."""
    t, _ = transmission(sub.config)
    c, states = coupling(sub.config), []
    for frame in frames:
        f = t @ frame[sub.input_mask].astype(float)
        x = saturated(sub.config, on_grid(f.real ** 2 + f.imag ** 2, state_bits(len(t))))
        states.append(x if c is None else c @ x)
    return np.array(states)


def forward_batch(sub, batch):
    """The optical pass over the complex transmission, concatenating its real
    and imaginary rows on every call: the (U, K) intensities of every frame."""
    t, _ = transmission(sub.config)
    u = batch.reshape(len(batch), -1)[:, sub.input_mask.ravel()].astype(float)
    f = np.concatenate((t.real, t.imag)) @ u.T
    p = f[:len(t)] ** 2 + f[len(t):] ** 2
    for column in p.T:
        column[...] = on_grid(column, state_bits(len(t)))
    return p.T


def laser_response(sub, p):
    """Node states of (U, K) intensities, mapped as one matrix: the laser map
    of each row, then one coupling GEMM over every row."""
    c = coupling(sub.config)
    x = np.array([saturated(sub.config, row) for row in p])
    return x if c is None else (c @ x.T).T


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


# the error, the z-score map and the search

def flat(y):
    """Whether a trace is flat: its spread at most STD_FLOOR times its mean's
    magnitude, whatever its level or scale. The spread is np.std of the
    deviations scaled by their peak, times that peak, so their squares
    neither underflow nor overflow."""
    d = y - np.mean(y)
    peak = float(np.max(np.abs(d))) or 1.0
    return peak * float(np.std(d / peak)) <= STD_FLOOR * abs(float(np.mean(y)))


def zscored(y, t):
    """The z-scored trace as written with np.mean and np.std."""
    if flat(y):
        return np.full_like(y, float(np.mean(t)))
    return (y - np.mean(y)) / float(np.std(y)) * float(np.std(t)) + float(np.mean(t))


def zscore_nmse(y, t):
    """The error in two steps: the z-scored trace, then its squared residuals
    over N times its spread, as written with np.std and np.sum."""
    z = zscored(y, t)
    if flat(z):
        return math.inf
    return float(np.sum((z - t) ** 2) / (z.size * float(np.std(z))))


def train(rig, t, cfg, k):
    """The search loop as written with rng.choice, the checked mask
    constructor, np.std and np.mean: (best mask, [(epoch, best error,
    mirrors, accepted)])."""
    rng = np.random.default_rng(cfg.seed)
    alphabet = ALPHABETS[cfg.mode]
    mask = TernaryMask(weights=rng.choice(alphabet, size=k), mode=cfg.mode)
    best = zscore_nmse(rig(mask), t)
    history = []
    for epoch in range(1, cfg.max_epochs + 1):
        n = n_mirrors(cfg.alpha, best, cap=k)
        positions = rng.integers(0, k, size=n)
        values = rng.choice(alphabet, size=n)
        w = np.array(mask.weights, dtype=np.int8, copy=True)
        w[positions] = values
        cand = TernaryMask(weights=w, mode=cfg.mode)
        e = zscore_nmse(rig(cand), t)
        accepted = e < best
        if accepted:
            mask, best = cand, e
        history.append((epoch, best, n, accepted))
    return mask, history


# the stability protocol

def consistency(a, b):
    """Pearson correlation as written with np.std, np.sum and np.sqrt."""
    if np.array_equal(a, b):
        return 1.0
    if flat(a) or flat(b):
        raise UsageError("constant trace")
    ac, bc = a - a.mean(), b - b.mean()
    return float(np.sum(ac * bc) / (np.sqrt(np.sum(ac * ac)) * np.sqrt(np.sum(bc * bc))))


def run_stability(cfg, n_checks, drift_steps_per_check):
    """The stability protocol as one measurement and one set of statistics
    per check, on the same trained rig."""
    sub, batches = harness._substrate(cfg, 0), next(harness._task_batches(cfg))
    states, power = harness._acquired(sub, batches)
    rigs, result = harness._arm(cfg, 0, "", sub, states, batches, power)
    t = batches[1].targets
    first = None
    rows = []
    for check in range(n_checks):
        advance_drift(sub, drift_steps_per_check)
        trace = rigs[1].measure(result.best_mask)
        if first is None:
            first = trace
        rows.append({"check": check, "consistency": consistency(first, trace),
                     "nmse": zscore_nmse(trace, t), "gain": sub.gain})
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
