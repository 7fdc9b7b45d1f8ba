"""Experiment orchestration: seeded batch acquisition, the four-arm
comparison, alpha scans, the header benchmark and the long-term stability
protocol, with CSV/JSON persistence of every run.

All randomness is derived from the config seeds through tagged seed
sequences, so any experiment rerun with the same config reproduces its
output files byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import math
import zlib
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .baselines import RIDGE_FOLDS, lambda_sweep, ridge_eval, ridge_fit
from .errors import ConfigError, DataError, NumericalError, UsageError, _check_count, _check_types
from .optimizer import Metrics, TrainConfig, TrainResult, _centred, evaluate, nmse, train
from .readout import DetectorModel, TernaryMask, readout_batch
from .substrate import (Substrate, SubstrateConfig, build_substrate, advance_drift, circle_mask,
                        forward_batch, laser_response, states_matrix)
from .tasks import (HeaderTask, LabeledBatch, MnistTask, load_mnist, make_header_batch,
                    make_onevsall_batch)

RESULTS_SCHEMA = "ternrc-results-v1"
CURVES_SCHEMA = "ternrc-curves-v1"

#: lambda grid for the ridge baseline's cross-validated selection
RIDGE_GRID = tuple(float(v) for v in np.logspace(-6, 2, 9))

#: stability checks measured before their statistics are taken: about 0.5 MB
#: of traces at 1000 samples
STABILITY_BLOCK = 64


def derive_seed(base: int, tag: str, index: int = 0) -> int:
    """Deterministic child seed for one component of one repeat."""
    ss = np.random.SeedSequence([int(base), zlib.crc32(tag.encode()), int(index)])
    return int(ss.generate_state(1, np.uint32)[0])


# ---------------------------------------------------------------------------
# Experiment configuration

@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs: physics, optimizer, workload,
    repeat count and output location.

    ``off_brightness`` models the laser-off reference arm of the comparison:
    without the laser only weakly transmitted light reaches the detector, so
    that arm's detected power is scaled to this fraction of the lasing arm's
    calibrated power while the detector noise scale stays frozen from the
    lasing configuration.
    """

    substrate: SubstrateConfig
    train: TrainConfig
    task: HeaderTask | MnistTask
    repeats: int = 1
    output_dir: str | None = None
    off_brightness: float = 0.15
    ridge_grid: tuple[float, ...] = RIDGE_GRID
    alphas: tuple[float, ...] = (0.0, 5.0, 10.0, 20.0)

    def __post_init__(self):
        # each nested section checked itself when it was built
        for name, kind in (("substrate", SubstrateConfig), ("train", TrainConfig),
                           ("task", (HeaderTask, MnistTask))):
            if not isinstance(section := getattr(self, name), kind):
                raise ConfigError(f"config {name} must be a config section, got {section!r}")
        _check_types(self, "config")
        if self.repeats < 1:
            raise ConfigError(f"repeats must be an integer >= 1, got {self.repeats!r}")
        for name in ("alphas", "ridge_grid"):
            values = getattr(self, name)
            if not values or not all(math.isfinite(v) and v >= 0 for v in values):
                raise ConfigError(
                    f"{name} must be a non-empty list of finite numbers >= 0, got {values!r}")
        if not 0.0 < self.off_brightness <= 1.0:
            raise ConfigError(f"off_brightness must be in (0, 1], got {self.off_brightness}")
        if isinstance(self.task, HeaderTask) and self.task.image_side != self.substrate.input_side:
            raise ConfigError(
                f"header image_side {self.task.image_side} != substrate input_side "
                f"{self.substrate.input_side}")

    @classmethod
    def from_json(cls, doc: str | dict) -> "ExperimentConfig":
        """Parse and check a config document, the exact inverse of
        :meth:`to_json_dict`. Omitted fields take the dataclass defaults, and
        a header task's omitted substrate ``input_side`` is its
        ``image_side``; an unknown, malformed, mistyped or too deeply nested
        field, a ``derived_seeds`` record this config does not derive, or a
        :data:`RETIRED` key holding any value but its one kept value raises
        :class:`ConfigError`. These keys are checked and dropped."""
        try:
            top = _section(cls, json.loads(doc) if isinstance(doc, str) else doc, "config",
                           "derived_seeds")
            task_doc = top.pop("task", {})
            kind = task_doc.get("type", "header") if isinstance(task_doc, dict) else "header"
            task_cls = {"header": HeaderTask, "mnist": MnistTask}.get(kind)
            if task_cls is None:
                raise ConfigError(f"unknown task type {kind!r}")
            task = task_cls(**_section(task_cls, task_doc, "task"))
            sub = _section(SubstrateConfig, top.pop("substrate", {}), "substrate")
            if isinstance(task, HeaderTask):
                sub.setdefault("input_side", task.image_side)
            seeds = top.pop("derived_seeds", None)
            train = TrainConfig(**_section(TrainConfig, top.pop("train", {}), "train"))
            cfg = cls(substrate=SubstrateConfig(**sub), train=train, task=task, **top)
            if seeds is not None and seeds != cfg.derived_seeds():
                raise ConfigError(f"derived_seeds {seeds!r} differ from the seeds this "
                                  f"config derives, {cfg.derived_seeds()!r}")
        except ConfigError:
            raise
        except (TypeError, ValueError, RecursionError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc
        return cfg

    def derived_seeds(self) -> dict:
        """Record of the seeds derived from the config seeds, per repeat."""
        return {f"repeat{r}": {"substrate": derive_seed(self.substrate.seed, "substrate", r)}
                for r in range(self.repeats)}

    def to_json_dict(self) -> dict:
        """The config as a JSON-ready document, with its derived seeds."""
        return {**asdict(self), "derived_seeds": self.derived_seeds()}


#: keys of earlier documents, by section: the test of the one value each keeps, and its successor
RETIRED = {"substrate": {"vcsel_on": (lambda v: v is True, "the laser is always on; a linear "
                                      "rig is saturation 0 and diffusion_sigma 0")},
           "train": {"normalize": (lambda v: v == "zscore", "the error is always z-scored"),
                     "target_levels": (lambda v: v in ([0, 1], (0, 1)) and bool not in map(type, v),
                                       "the targets are always 1 and 0")}}


def _section(cls, doc, name: str, *extra: str) -> dict:
    """One config section as constructor keywords of ``cls`` (plus the
    ``extra`` keys): unknown fields are rejected by name, JSON arrays become
    tuples and the section's :data:`RETIRED` keys are checked and dropped."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be a JSON object, got {doc!r}")
    retired = RETIRED.get(name, {})
    unknown = set(doc) - set(cls.__dataclass_fields__) - set(retired) - set(extra)
    if unknown:
        raise ConfigError(f"unknown {name} fields: {sorted(unknown)}")
    for key, (kept, replaced_by) in retired.items():
        if key in doc and not kept(doc[key]):
            raise ConfigError(f"{name} {key} {doc[key]!r} is retired: {replaced_by}; "
                              f"delete the {key} key")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items() if k not in retired}


# ---------------------------------------------------------------------------
# Measurement rig

class BatchReadout:
    """One arm's data-acquisition loop over a fixed batch.

    ``states`` are the batch's noiseless (N, K) node intensities, computed
    once because the forward path is deterministic, and frozen read-only.
    Each row is on its frame's grid, so every power below is an exact sum,
    with the bytes of the full product ``states @ plane``. Up to two base
    planes keep their full products. A plane a few positions from its
    nearest base reads that power plus the signed sum of the differing
    columns, as local search evaluates a move. A plane read again after such
    a correction (the search's incumbent), or far from every base, gets a
    full product that replaces the nearest base, so that its candidates
    gather only the columns they move. Each measurement then applies the
    live detector-path gain, the arm's brightness and fresh detector noise.
    Calling it with a mask returns the N-vector of readout outputs: the
    optimizer's ``forward_pass`` contract.
    """

    def __init__(self, substrate: Substrate, states: np.ndarray, detector: DetectorModel,
                 brightness: float = 1.0):
        states.setflags(write=False)
        self.substrate = substrate
        self.states = states
        self.detector = detector
        self.brightness = brightness
        self._bases: list[list] = []  # [plane, full product, its key, last corrected key]

    @property
    def n_nodes(self) -> int:
        return self.states.shape[1]

    def power(self, plane: np.ndarray) -> np.ndarray:
        """The noiseless (N,) power of one Boolean plane."""
        if plane.shape != (self.n_nodes,):
            raise UsageError(f"state width {self.n_nodes} != plane shape {plane.shape}")
        # the plane's bytes, one per node, as an integer: the popcount of its
        # XOR with a base's key is the number of positions where they differ
        key = int.from_bytes(plane.tobytes(), "little")
        for base in self._bases:
            if base[2] == key:
                return base[1]
        h = [(key ^ base[2]).bit_count() for base in self._bases]
        near = h.index(min(h)) if h else 0
        # h gathered columns cost about as much as 8h columns of a product
        if h and 8 * h[near] < self.n_nodes and self._bases[near][3] != key:
            diff = (plane != self._bases[near][0]).nonzero()[0]
            self._bases[near][3] = key
            return self._bases[near][1] + self.states[:, diff] @ np.where(plane[diff], 1.0, -1.0)
        p = self.states @ plane.astype(float)
        p.setflags(write=False)
        if len(self._bases) == 2:
            del self._bases[near]
        self._bases.append([plane.copy(), p, key, None])
        return p

    def measure(self, mask: TernaryMask) -> np.ndarray:
        return readout_batch(self.power, mask,
                             self.substrate.gain * self.brightness, self.detector)

    __call__ = measure


# ---------------------------------------------------------------------------
# Batch acquisition per task

def make_task_batches(cfg: ExperimentConfig, repeat: int, partitions,
                      digit: int | None = None) -> tuple[LabeledBatch, LabeledBatch]:
    """Build the (train, test) batches for one repeat, a digit task's from
    its parsed (train, test) ``partitions``. Test batches are disjoint from
    training: headers use an independent seed, digit batches come from the
    test partition if given, else from a disjoint draw of the training one."""
    t = cfg.task
    if isinstance(t, HeaderTask):
        tr_seed = derive_seed(cfg.train.seed, "batch-train", repeat)
        te_seed = derive_seed(cfg.train.seed, "batch-test", repeat)
        return make_header_batch(t, tr_seed), make_header_batch(t, te_seed)
    digit = t.digit if digit is None else digit
    train_part, test_part = partitions
    seed = derive_seed(cfg.train.seed, f"batch-d{digit}", repeat)
    side = cfg.substrate.input_side
    test = ((test_part, derive_seed(cfg.train.seed, f"batch-test-d{digit}", repeat), 0)
            if test_part is not None else (train_part, seed, 1))
    return tuple(make_onevsall_batch(part, digit, t.n_samples, part_seed, draw=draw,
                                     input_side=side)
                 for part, part_seed, draw in ((train_part, seed, 0), test))


def _task_batches(cfg: ExperimentConfig, digits=(None,)):
    """Yield the (train, test) batches of each repeat's ``digits`` in turn. A
    digit task's IDX pairs are parsed once, and freed before the last batches
    are yielded, so no partition stays alive through training."""
    t, partitions = cfg.task, None
    if isinstance(t, MnistTask):
        if not t.images:
            raise DataError("no digit dataset given; pass --mnist-images/--mnist-labels "
                            "or point the task config at IDX files")
        # load_mnist raises DataError on an unreadable file
        partitions = (load_mnist(t.images, t.labels),
                      load_mnist(t.test_images, t.test_labels) if t.test_images else None)
    keys = [(r, d) for r in range(cfg.repeats) for d in digits]
    for i, (repeat, digit) in enumerate(keys, 1):
        batches = make_task_batches(cfg, repeat, partitions, digit)
        partitions = partitions if i < len(keys) else None
        yield batches


def _check_one_digit(cfg: ExperimentConfig) -> None:
    if isinstance(cfg.task, MnistTask) and cfg.task.digit is None:
        raise ConfigError("task digit null (all ten digits) runs only in the comparison")


# ---------------------------------------------------------------------------
# Metrics helpers

def consistency(reference, traces) -> np.ndarray:
    """Pearson correlation of each row of a (C, N) stack of output traces
    with the reference trace of the same inputs: (C,) values, a row identical
    to the reference exactly 1.0. Its sums are ``np.add.reduce`` over each
    row, so a row's value is bit for bit that of a one-row stack."""
    a = np.asarray(reference, dtype=float)
    rows = np.asarray(traces, dtype=float)
    if a.ndim != 1 or a.size < 2 or rows.ndim != 2 or rows.shape[1:] != a.shape:
        raise UsageError(f"need a reference vector of >= 2 samples and a (C, N) stack of "
                         f"traces as wide, got {a.shape} / {rows.shape}")
    r = np.ones(len(rows))
    moved = np.flatnonzero(~(rows == a).all(axis=1))
    if moved.size:
        # the block form, unscaled: its spread is 0 where these products underflow
        ((ac,), (sa,)), (bc, sb) = _centred(a[None]), _centred(rows)
        if sa == 0.0 or (sb[moved] == 0.0).any():
            raise UsageError("consistency is undefined for a constant trace")
        b = bc[moved]
        r[moved] = np.add.reduce(ac * b, 1) / (np.sqrt(np.add.reduce(ac * ac))
                                               * np.sqrt(np.add.reduce(b * b, 1)))
    return r


def epochs_to_convergence(result: TrainResult) -> int:
    """First epoch whose best error is within 5% of the run's final
    improvement, as the last one's always is (0 when the run never improved)."""
    improvement = result.initial_nmse - result.final_nmse
    if not improvement > 0:
        return 0
    level = result.final_nmse + 0.05 * improvement
    return next(rec.epoch for rec in result.history if rec.nmse_best <= level)


# ---------------------------------------------------------------------------
# Experiment drivers
#
# Every arm runs the same in-situ sequence: ``_acquired``, the one path from
# (train, test) frames to state matrices, gives a frozen substrate's
# noiseless states, ``_arm`` trains a mask on the training rig of a seeded
# detector and ``_scored`` scores it on both rigs. ``_arm`` seeds the
# detector by the tag ``det{tag}`` and the search by ``train{tag}``, ``tag``
# naming the arm; the detector draws for training, then for the train score,
# then for the test score, even where only the test score is reported.

def _substrate(cfg: ExperimentConfig, repeat: int) -> Substrate:
    seed = derive_seed(cfg.substrate.seed, "substrate", repeat)
    return build_substrate(dataclasses.replace(cfg.substrate, seed=seed))


def _acquired(sub: Substrate, batches, laser_off: bool = False):
    """The lasing (train, test) state matrices of ``batches`` and the training
    matrix's mean all-on power at unit gain; with ``laser_off``, also the
    laser-off matrices and their power. One forward pass over both batches'
    frames draws the transmission once. The laser maps each row on its own
    grid, so it maps whichever is fewer rows, with the same bytes: the U
    frames' intensities in place, then gathered, when 2U is at most the N
    batch rows (header tasks), else the gathered matrices once the
    intensities are gone, in place or as copies that keep the laser-off pair."""
    train, test = batches
    p = forward_batch(sub, np.concatenate((train.frames, test.frames)))
    indices = (train.index, test.index + len(train.frames))
    distinct = 2 * len(p) <= len(train.index) + len(test.index)
    off = tuple(states_matrix(p, i) for i in indices) if laser_off or not distinct else None
    if distinct:
        p = laser_response(sub, p)
        on = tuple(states_matrix(p, i) for i in indices)
    else:
        del p
        on = tuple(laser_response(sub, s.copy("F") if laser_off else s) for s in off)
    power = lambda s: float(s[0].sum(axis=1).mean())
    return (on, power(on), off, power(off)) if laser_off else (on, power(on))


def _arm(cfg: ExperimentConfig, repeat: int, tag: str, sub: Substrate, states, batches,
         noise_scale: float, brightness: float = 1.0, **overrides):
    """Train one arm on (train, test) rigs that share one seeded detector,
    its noise frozen to ``noise_scale``; ``overrides`` replace train config
    fields. Returns (rigs, result)."""
    det = DetectorModel(cfg.substrate.noise_sigma, noise_scale=noise_scale,
                        seed=derive_seed(cfg.train.seed, f"det{tag}", repeat))
    rigs = tuple(BatchReadout(sub, s, det, brightness) for s in states)
    tc = dataclasses.replace(cfg.train, seed=derive_seed(cfg.train.seed, f"train{tag}", repeat),
                             **overrides)
    result = train(rigs[0], batches[0].targets, tc, n_nodes=rigs[0].n_nodes)
    if math.isinf(result.final_nmse):
        raise _flat(tag, tc.mode, repeat)
    return rigs, result


def _scored(rigs, batches, result: TrainResult, tag: str, repeat: int) -> tuple[Metrics, Metrics]:
    """Train and test metrics of the arm's best mask: the test batch is
    scored at the training threshold. A flat trace raises, as a flat search does in ``_arm``."""
    m_tr = evaluate(rigs[0], result.best_mask, batches[0].targets, "midpoint")
    m_te = evaluate(rigs[1], result.best_mask, batches[1].targets, m_tr.threshold)
    if math.inf in (m_tr.nmse, m_te.nmse):
        raise _flat(tag, result.best_mask.mode, repeat)
    return m_tr, m_te


def _flat(tag: str, mode: str, repeat: int) -> NumericalError:
    """An arm, named by its tag or mode, whose traces are all flat has no error."""
    return NumericalError(f"arm {tag[1:] or mode} of repeat {repeat}: every trace read flat")


def run_comparison(cfg: ExperimentConfig) -> list[dict]:
    """Four-arm comparison: Boolean mask + laser on, ternary + on, ternary + off,
    and the ridge baseline, all on the same frozen substrate and batches per
    repeat. Returns one result row per (task, arm, repeat); a digit task with
    ``digit`` null runs all ten digits. An arm's files are written once it is scored."""
    if cfg.task.n_samples < RIDGE_FOLDS:
        raise ConfigError(f"task n_samples {cfg.task.n_samples} is fewer than the ridge "
                          f"arm's {RIDGE_FOLDS} cross-validation folds")
    digits = ([None] if isinstance(cfg.task, HeaderTask)
              else list(range(10)) if cfg.task.digit is None else [cfg.task.digit])
    rows: list[dict] = []
    out = _OutputSink(cfg)
    batch_sets = _task_batches(cfg, digits)
    for repeat in range(cfg.repeats):
        sub = _substrate(cfg, repeat)
        for digit in digits:
            task = "header" if digit is None else f"digit{digit}"
            batches = next(batch_sets)
            # detector calibrated once, lasing config
            on, sbar, off, power_off = _acquired(sub, batches, laser_off=True)
            # laser off: same optics, faint detected signal, same detector calibration
            for arm, mode, states, brightness in (
                    ("boolean_on", "boolean", on, 1.0), ("ternary_on", "ternary", on, 1.0),
                    ("ternary_off", "ternary", off, cfg.off_brightness * sbar / power_off)):
                tag = f"-{arm}" + ("" if digit is None else f"-d{digit}")
                rigs, result = _arm(cfg, repeat, tag, sub, states, batches, sbar,
                                    brightness, mode=mode)
                rows.append(_row(task, arm, repeat, result,
                                 *_scored(rigs, batches, result, tag, repeat)))
                out.arm(f"{arm}_{task}_s{repeat}", result, cfg.substrate.grid_side)
            # digital reference: ridge regression on the noiseless lasing states,
            # the laser-off states and the last arm's rigs gone before the sweep
            del off, states, rigs
            (s_tr, s_te), (t_tr, t_te) = on, (b.targets for b in batches)
            lam = lambda_sweep(s_tr, t_tr, cfg.ridge_grid, RIDGE_FOLDS)
            model = ridge_fit(s_tr, t_tr, lam)
            m_tr = ridge_eval(model, s_tr, t_tr, "midpoint")
            m_te = ridge_eval(model, s_te, t_te, m_tr.threshold)
            rows.append({**_row(task, "ridge", repeat, None, m_tr, m_te), "lambda": lam})
    out.results(rows)
    return rows


def _row(task: str, arm: str, repeat: int, result: TrainResult | None, m_train: Metrics,
         m_test: Metrics) -> dict:
    return {
        "task": task, "arm": arm, "repeat": repeat,
        "train_nmse": m_train.nmse, "test_nmse": m_test.nmse,
        "train_accuracy": m_train.accuracy, "test_accuracy": m_test.accuracy,
        "test_ser": m_test.ser, "threshold": m_train.threshold,
        "epochs_run": len(result.history) if result else 0,
        "n_accepted": result.n_accepted if result else 0,
    }


def run_alpha_scan(cfg: ExperimentConfig) -> list[dict]:
    """Train at each mutation gain of ``cfg.alphas`` over ``repeats`` seeds,
    recording full learning curves and the epochs-to-convergence summary."""
    _check_one_digit(cfg)
    rows, curves = [], []
    out = _OutputSink(cfg)
    batch_sets = _task_batches(cfg)
    for repeat in range(cfg.repeats):
        sub, batches = _substrate(cfg, repeat), next(batch_sets)
        states, power = _acquired(sub, batches)
        for alpha in cfg.alphas:
            tag = f"-a{alpha}"
            rigs, result = _arm(cfg, repeat, tag, sub, states, batches, power,
                                alpha=float(alpha))
            _, m_te = _scored(rigs, batches, result, tag, repeat)
            rows.append({
                "alpha": float(alpha), "repeat": repeat,
                "final_nmse": result.final_nmse, "initial_nmse": result.initial_nmse,
                "epochs_to_convergence": epochs_to_convergence(result),
                "test_accuracy": m_te.accuracy, "test_ser": m_te.ser,
                "mean_n_mirrors": float(np.mean([r.n_mirrors for r in result.history])),
            })
            seed = derive_seed(cfg.train.seed, f"train{tag}", repeat)  # the search's, as in _arm
            for rec in result.history:
                curves.append({"alpha": float(alpha), "seed": seed,
                               "epoch": rec.epoch, "nmse_best": rec.nmse_best})
    out.csv("curves.csv", list(curves[0]), curves, CURVES_SCHEMA)
    out.csv("alpha_summary.csv", list(rows[0]), rows, RESULTS_SCHEMA)
    return rows


def run_header_task(cfg: ExperimentConfig) -> list[dict]:
    """Train on the header batch and report the symbol error rate on a
    disjoint test batch, once per repeat."""
    if not isinstance(cfg.task, HeaderTask):
        raise ConfigError("run_header_task needs a header task config")
    rows = []
    out = _OutputSink(cfg)
    batch_sets = _task_batches(cfg)
    for repeat in range(cfg.repeats):
        sub, batches = _substrate(cfg, repeat), next(batch_sets)
        states, power = _acquired(sub, batches)
        rigs, result = _arm(cfg, repeat, "", sub, states, batches, power)
        rows.append(_row(f"header{cfg.task.n_bits}b", cfg.train.mode, repeat, result,
                         *_scored(rigs, batches, result, "", repeat)))
        out.arm(f"header_s{repeat}", result, cfg.substrate.grid_side)
    out.results(rows)
    return rows


def run_stability(cfg: ExperimentConfig, n_checks: int = 3600,
                  drift_steps_per_check: int = 1) -> list[dict]:
    """Train to convergence, freeze the mask, then repeatedly advance the
    substrate drift and re-measure the full test-batch trace; consistency is
    each trace's Pearson correlation with the first. Returns one row per
    check: its consistency, nmse and detector-path gain.

    The traces of up to :data:`STABILITY_BLOCK` checks are measured one by
    one into a block, so the work arrays stay bounded whatever ``n_checks``;
    a block's errors are taken check by check, its consistencies together on
    the traces scaled by one power of two, which moves no bit of a
    consistency but keeps a tiny rig's squares from underflowing.
    A non-finite or flat trace raises :class:`NumericalError` naming its check."""
    if cfg.repeats != 1:
        raise UsageError(f"stability runs one repeat, got repeats={cfg.repeats}")
    _check_count(n_checks, "n_checks", 2)
    _check_count(drift_steps_per_check, "drift_steps_per_check", 0)
    _check_one_digit(cfg)
    out = _OutputSink(cfg)
    sub, batches = _substrate(cfg, 0), next(_task_batches(cfg))
    states, power = _acquired(sub, batches)
    rigs, result = _arm(cfg, 0, "", sub, states, batches, power)

    t = batches[1].targets
    ct = _centred(t)
    buf = np.empty((min(n_checks, STABILITY_BLOCK), t.size))
    rows = []
    for start in range(0, n_checks, STABILITY_BLOCK):
        block = buf[:min(STABILITY_BLOCK, n_checks - start)]
        gains = []
        for trace in block:
            advance_drift(sub, drift_steps_per_check)
            trace[:] = rigs[1].measure(result.best_mask)
            gains.append(sub.gain)
        if not np.isfinite(block).all():
            bad = start + int(np.flatnonzero(~np.isfinite(block).all(axis=1))[0])
            raise NumericalError(f"stability check {bad} measured a non-finite trace")
        errors = [nmse(trace, t, ct) for trace in block]
        if math.inf in errors:
            raise NumericalError(f"flat trace at stability check {start + errors.index(math.inf)}")
        if start == 0:  # a power-of-two scale keeps consistency's bits and its squares in range
            scale = 2.0 ** -math.frexp(float(np.abs(block[0]).max()))[1]
            reference = block[0] * scale
        block *= scale
        checks = zip(consistency(reference, block).tolist(), errors, gains)
        rows += [{"check": start + i, "consistency": c, "nmse": e, "gain": g}
                 for i, (c, e, g) in enumerate(checks)]
    out.csv("stability.csv", list(rows[0]), rows, RESULTS_SCHEMA)
    return rows


# ---------------------------------------------------------------------------
# Persistence

class _OutputSink:
    """The one writer of result files: every file format of a run is defined
    here. Opening it starts a run: it makes the config's ``output_dir`` and
    writes the resolved config there. The sink is inert without one."""

    def __init__(self, cfg: ExperimentConfig):
        self.root = Path(cfg.output_dir) if cfg.output_dir else None
        if self.root:
            try:
                self.root.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise UsageError(f"cannot create output directory {self.root}: {exc}") from exc
        self.write("config.resolved.json",
                   json.dumps(cfg.to_json_dict(), sort_keys=True, indent=2) + "\n")

    def write(self, name: str, text: str) -> None:
        if not self.root:
            return
        try:
            (self.root / name).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write result file {self.root / name}: {exc}") from exc

    def csv(self, name: str, columns, rows, schema: str | None = None) -> None:
        """``rows`` (dicts) as CSV under an optional ``# schema:`` line; a
        key a row lacks is an empty cell."""
        lines = [f"# schema: {schema}"] if schema else []
        lines.append(",".join(columns))
        lines.extend(",".join(_cell(r.get(c)) for c in columns) for r in rows)
        self.write(name, "\n".join(lines) + "\n")

    def results(self, rows: list[dict]) -> None:
        """One row per task, arm and repeat, then each task and arm's mean
        and median test accuracy."""
        summary = []
        for task, arm in sorted({(r["task"], r["arm"]) for r in rows}):
            sel = [r["test_accuracy"] for r in rows if (r["task"], r["arm"]) == (task, arm)]
            summary += [{"task": task, "arm": arm, "repeat": stat, "test_accuracy": float(f(sel))}
                        for stat, f in (("mean", np.mean), ("median", np.median))]
        self.csv("results.csv", ["task", "arm", "repeat", "train_nmse", "test_nmse",
                                 "train_accuracy", "test_accuracy", "test_ser", "threshold",
                                 "epochs_run", "n_accepted", "lambda"],
                 rows + summary, RESULTS_SCHEMA)

    def arm(self, tag: str, result: TrainResult, grid_side: int) -> None:
        """Learning curve and best mask of one trained arm. The mask file is
        the flat weights plus mode; ``grid_side`` records the display
        geometry (row-major over the active disk), so the mask must fill
        that disk exactly."""
        mask = result.best_mask
        n_active = int(circle_mask(grid_side).sum())
        if len(mask) != n_active:
            raise UsageError(f"mask length {len(mask)} != {n_active} active cells of a "
                             f"{grid_side}-side grid")
        # rows spelled out: vars() would give each record its own __dict__
        self.csv(f"history_{tag}.csv", ["epoch", "nmse_best", "n_mirrors", "accepted"],
                 ({"epoch": r.epoch, "nmse_best": r.nmse_best, "n_mirrors": r.n_mirrors,
                   "accepted": r.accepted} for r in result.history))
        self.write(f"mask_{tag}.json", json.dumps(
            {"weights": [int(v) for v in mask.weights], "mode": mask.mode,
             "grid_side": int(grid_side)}))


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(int(v))
    return repr(v) if isinstance(v, float) else str(v)
