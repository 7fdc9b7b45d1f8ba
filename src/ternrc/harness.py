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

from .baselines import lambda_sweep, ridge_eval, ridge_fit
from .errors import ConfigError, DataError, ShapeError, UsageError, _check_types
from .optimizer import (Metrics, Normalizer, TrainConfig, TrainResult, _centred, evaluate, nmse,
                        train)
from .readout import DetectorModel, TernaryMask, plane_power, readout_batch
from .substrate import (Substrate, SubstrateConfig, build_substrate, advance_drift, circle_mask,
                        forward_batch, laser_response, states_matrix)
from .tasks import (HeaderTask, LabeledBatch, MnistTask, load_mnist, make_header_batch,
                    make_onevsall_batch)

RESULTS_SCHEMA = "ternrc-results-v1"
CURVES_SCHEMA = "ternrc-curves-v1"

#: lambda grid for the ridge baseline's cross-validated selection
RIDGE_GRID = tuple(float(v) for v in np.logspace(-6, 2, 9))


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
        ``image_side``; an unknown, malformed or mistyped field, or a
        ``derived_seeds`` record this config does not derive, raises
        :class:`ConfigError`."""
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
            cfg = cls(substrate=SubstrateConfig(**sub),
                      train=TrainConfig(**_section(TrainConfig, top.pop("train", {}), "train")),
                      task=task, **top)
            if seeds is not None and seeds != cfg.derived_seeds():
                raise ConfigError(f"derived_seeds {seeds!r} differ from the seeds this "
                                  f"config derives, {cfg.derived_seeds()!r}")
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc
        return cfg

    def derived_seeds(self) -> dict:
        """Record of the seeds derived from the config seeds, per repeat."""
        return {f"repeat{r}": {"substrate": derive_seed(self.substrate.seed, "substrate", r)}
                for r in range(self.repeats)}

    def to_json_dict(self) -> dict:
        """The config as a JSON-ready document, with its derived seeds."""
        return {**asdict(self), "derived_seeds": self.derived_seeds()}


def _section(cls, doc, name: str, *extra: str) -> dict:
    """One config section as constructor keywords of ``cls`` (plus the
    ``extra`` keys): unknown fields are rejected by name and JSON arrays
    become tuples."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be a JSON object, got {doc!r}")
    unknown = set(doc) - set(cls.__dataclass_fields__) - set(extra)
    if unknown:
        raise ConfigError(f"unknown {name} fields: {sorted(unknown)}")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}


# ---------------------------------------------------------------------------
# Measurement rig

class BatchReadout:
    """One arm's data-acquisition loop over a fixed batch.

    ``states`` are the batch's noiseless (N, K) node intensities, computed
    once because the forward path is deterministic, and frozen read-only.
    Up to two base planes keep their full products ``states @ plane``; a
    base re-reads its own power bit for bit. A plane a few positions from
    its nearest base reads that power plus the signed sum of the differing
    columns, as local search evaluates a move. A plane read again after such
    a correction (the search's incumbent), or far from every base, gets a
    full product that replaces the nearest base, so corrections never chain.
    Each measurement then applies the live detector-path gain, the arm's
    brightness and fresh detector noise. Calling it with a mask returns the
    N-vector of readout outputs: the optimizer's ``forward_pass`` contract.
    """

    def __init__(self, substrate: Substrate, states: np.ndarray, detector: DetectorModel,
                 brightness: float = 1.0):
        states.setflags(write=False)
        self.substrate = substrate
        self.states = states
        self.detector = detector
        self.brightness = brightness
        self._bases: list[list] = []  # [plane, full product, its bytes, last corrected bytes]

    @property
    def n_nodes(self) -> int:
        return self.states.shape[1]

    def power(self, plane: np.ndarray) -> np.ndarray:
        """The noiseless (N,) power of one Boolean plane."""
        if plane.shape != (self.n_nodes,):
            raise ShapeError(f"state width {self.n_nodes} != plane shape {plane.shape}")
        key = plane.tobytes()
        for base in self._bases:
            if base[2] == key:
                return base[1]
        moved = [plane != base[0] for base in self._bases]
        h = [np.count_nonzero(m) for m in moved]
        near = h.index(min(h)) if h else 0
        # h gathered columns cost about as much as 8h columns of a product
        if h and 8 * h[near] < self.n_nodes and self._bases[near][3] != key:
            diff = moved[near].nonzero()[0]
            self._bases[near][3] = key
            return self._bases[near][1] + self.states[:, diff] @ np.where(plane[diff], 1.0, -1.0)
        p = plane_power(self.states, plane)
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

def make_task_batches(cfg: ExperimentConfig, repeat: int,
                      digit: int | None = None) -> tuple[LabeledBatch, LabeledBatch]:
    """Build the (train, test) batches for one repeat. Test batches are
    disjoint from training: headers use an independent seed, digit batches
    come from the test partition when available and otherwise from a
    disjoint draw of the training partition."""
    levels, t = cfg.train.target_levels, cfg.task
    if isinstance(t, HeaderTask):
        tr_seed = derive_seed(cfg.train.seed, "batch-train", repeat)
        te_seed = derive_seed(cfg.train.seed, "batch-test", repeat)
        return make_header_batch(t, tr_seed, levels), make_header_batch(t, te_seed, levels)
    digit = t.digit if digit is None else digit
    if not (t.images and t.labels):
        raise DataError("no digit dataset given; pass --mnist-images/--mnist-labels "
                        "or point the task config at IDX files")
    # load_mnist raises DataError on an unreadable file
    train_part = load_mnist(t.images, t.labels)
    test_part = load_mnist(t.test_images, t.test_labels) if t.test_images and t.test_labels else None
    seed = derive_seed(cfg.train.seed, f"batch-d{digit}", repeat)
    side = cfg.substrate.input_side
    train_batch = make_onevsall_batch(train_part, digit, t.n_samples, seed, draw=0,
                                      input_side=side, target_levels=levels)
    if test_part is not None:
        test_batch = make_onevsall_batch(test_part, digit, t.n_samples,
                                         derive_seed(cfg.train.seed, f"batch-test-d{digit}", repeat),
                                         draw=0, input_side=side, target_levels=levels)
    else:
        test_batch = make_onevsall_batch(train_part, digit, t.n_samples, seed, draw=1,
                                         input_side=side, target_levels=levels)
    return train_batch, test_batch


def _check_one_digit(cfg: ExperimentConfig) -> None:
    if isinstance(cfg.task, MnistTask) and cfg.task.digit is None:
        raise ConfigError("task digit null (all ten digits) runs only in the comparison")


# ---------------------------------------------------------------------------
# Metrics helpers

def consistency(reference, trace) -> float:
    """Pearson correlation between an output trace and the reference trace
    of the same inputs. Identical traces are exactly 1.0."""
    a = np.asarray(reference, dtype=float)
    b = np.asarray(trace, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise UsageError(f"traces must be equal-length vectors of >= 2 samples, "
                         f"got {a.shape} / {b.shape}")
    if np.array_equal(a, b):
        return 1.0
    (ac, sa), (bc, sb) = _centred(a), _centred(b)
    if sa == 0.0 or sb == 0.0:
        raise UsageError("consistency is undefined for a constant trace")
    return float((ac @ bc) / (np.sqrt(ac @ ac) * np.sqrt(bc @ bc)))


def epochs_to_convergence(result: TrainResult) -> int:
    """First epoch whose best error is within 5% of the run's final
    improvement (0 when the run never improved)."""
    improvement = result.initial_nmse - result.final_nmse
    if not improvement > 0:
        return 0
    level = result.final_nmse + 0.05 * improvement
    for rec in result.history:
        if rec.nmse_best <= level:
            return rec.epoch
    return result.history[-1].epoch


# ---------------------------------------------------------------------------
# Experiment drivers
#
# Every arm runs the same in-situ sequence: a frozen substrate gives the
# noiseless states, a seeded detector measures them, the optimizer trains a
# mask on the training rig and the mask is scored on both rigs. ``tag`` names
# the arm in its derived detector and train seeds.

def _substrate(cfg: ExperimentConfig, repeat: int, **overrides) -> Substrate:
    seed = derive_seed(cfg.substrate.seed, "substrate", repeat)
    return build_substrate(dataclasses.replace(cfg.substrate, seed=seed, **overrides))


def _gathered(passes):
    """(train, test) state matrices of two forward passes, and the training
    batch's mean all-on power at unit gain."""
    s_tr, s_te = (states_matrix(*fp) for fp in passes)
    return (s_tr, s_te), float(s_tr.sum(axis=1).mean())


def _rigs(cfg: ExperimentConfig, repeat: int, tag: str, sub: Substrate, states,
          noise_scale: float, brightness: float = 1.0) -> tuple[BatchReadout, BatchReadout]:
    """(train, test) rigs sharing one seeded detector, its noise frozen to
    ``noise_scale``."""
    det = DetectorModel(cfg.substrate.noise_sigma, noise_scale=noise_scale,
                        seed=derive_seed(cfg.train.seed, f"det{tag}", repeat))
    return tuple(BatchReadout(sub, s, det, brightness) for s in states)


def _train_arm(cfg: ExperimentConfig, repeat: int, tag: str, rigs, batch_tr: LabeledBatch,
               batch_te: LabeledBatch, score: bool = True, **overrides):
    """Train one arm and score its best mask on both rigs. Returns (train
    config, result, train metrics, test metrics); ``score=False`` skips the
    two scoring measurements and returns no metrics."""
    tc = dataclasses.replace(cfg.train, seed=derive_seed(cfg.train.seed, f"train{tag}", repeat),
                             **overrides)
    rig_tr, rig_te = rigs
    result = train(rig_tr, batch_tr.targets, tc, n_nodes=rig_tr.n_nodes)
    if not score:
        return tc, result, None, None
    m_tr = evaluate(rig_tr, result.best_mask, batch_tr.targets, "midpoint",
                    tc.normalize, result.output_transform)
    m_te = evaluate(rig_te, result.best_mask, batch_te.targets, m_tr.threshold,
                    tc.normalize, result.output_transform)
    return tc, result, m_tr, m_te


def run_comparison(cfg: ExperimentConfig) -> list[dict]:
    """Four-arm comparison: Boolean mask + laser on, ternary + on, ternary +
    off, and the ridge baseline, all on the same frozen substrate and
    batches per repeat. Returns one result row per (task, arm, repeat); a
    digit task with ``digit`` null runs all ten digits."""
    if isinstance(cfg.task, MnistTask):
        digits = list(range(10)) if cfg.task.digit is None else [cfg.task.digit]
    else:
        digits = [None]
    rows: list[dict] = []
    out = _OutputSink(cfg.output_dir)
    out.config(cfg)
    for repeat in range(cfg.repeats):
        sub_on = _substrate(cfg, repeat, vcsel_on=True)
        for digit in digits:
            task_name = "header" if digit is None else f"digit{digit}"
            batch_tr, batch_te = make_task_batches(cfg, repeat, digit)
            arms = _comparison_arms(cfg, repeat, digit, sub_on, batch_tr, batch_te)
            for arm_name, row, result in arms:
                row.update(task=task_name, arm=arm_name, repeat=repeat)
                rows.append(row)
                if result is not None:
                    out.arm(f"{arm_name}_{task_name}_s{repeat}", result, cfg.substrate.grid_side)
    out.results(rows)
    return rows


def _comparison_arms(cfg, repeat, digit, sub_on, batch_tr, batch_te):
    """Train/evaluate the four arms on shared batches; returns (arm, row,
    result) tuples, with no result for the ridge arm."""
    dtag = "" if digit is None else f"-d{digit}"
    # the laser-off view shares the lasing transmission, so one pass serves
    # both arms: the lasing states are the laser response to the laser-off
    # intensities. It also shares the drift stream, which is safe only
    # because the comparison never advances drift.
    sub_off = dataclasses.replace(
        sub_on, config=dataclasses.replace(sub_on.config, vcsel_on=False))
    passes = [forward_batch(sub_off, b.pixels) for b in (batch_tr, batch_te)]
    off, power_off = _gathered(passes)
    # detector calibrated once, lasing config
    on, sbar = _gathered([(laser_response(sub_on, p), index) for p, index in passes])
    # laser off: same optics, faint detected signal, same detector calibration
    bright_off = cfg.off_brightness * sbar / power_off
    produced = []
    for arm, mode, sub, states, brightness in (
            ("boolean_on", "boolean", sub_on, on, 1.0),
            ("ternary_on", "ternary", sub_on, on, 1.0),
            ("ternary_off", "ternary", sub_off, off, bright_off)):
        tag = f"-{arm}{dtag}"
        rigs = _rigs(cfg, repeat, tag, sub, states, sbar, brightness)
        _, res, m_tr, m_te = _train_arm(cfg, repeat, tag, rigs, batch_tr, batch_te, mode=mode)
        produced.append((arm, _row(res, m_tr, m_te), res))

    # digital reference: ridge regression on the noiseless lasing states
    s_tr, s_te = on
    t_tr, t_te = batch_tr.targets, batch_te.targets
    lam = lambda_sweep(s_tr, t_tr, cfg.ridge_grid)
    model = ridge_fit(s_tr, t_tr, lam)
    m_tr = ridge_eval(model, s_tr, t_tr, "midpoint")
    m_te = ridge_eval(model, s_te, t_te, m_tr.threshold)
    produced.append(("ridge", {**_row(None, m_tr, m_te), "lambda": lam}, None))
    return produced


def _row(result: TrainResult | None, m_train: Metrics, m_test: Metrics) -> dict:
    return {
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
    out = _OutputSink(cfg.output_dir)
    out.config(cfg)
    for repeat in range(cfg.repeats):
        sub = _substrate(cfg, repeat)
        batch_tr, batch_te = make_task_batches(cfg, repeat)
        states, power = _gathered([forward_batch(sub, b.pixels) for b in (batch_tr, batch_te)])
        for alpha in cfg.alphas:
            tag = f"-a{alpha}"
            rigs = _rigs(cfg, repeat, tag, sub, states, power)
            tc, result, _, m_te = _train_arm(cfg, repeat, tag, rigs, batch_tr, batch_te,
                                             alpha=float(alpha))
            rows.append({
                "alpha": float(alpha), "repeat": repeat,
                "final_nmse": result.final_nmse, "initial_nmse": result.initial_nmse,
                "epochs_to_convergence": epochs_to_convergence(result),
                "test_accuracy": m_te.accuracy, "test_ser": m_te.ser,
                "mean_n_mirrors": float(np.mean([r.n_mirrors for r in result.history])),
            })
            for rec in result.history:
                curves.append({"alpha": float(alpha), "seed": tc.seed,
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
    out = _OutputSink(cfg.output_dir)
    out.config(cfg)
    for repeat in range(cfg.repeats):
        sub = _substrate(cfg, repeat)
        batch_tr, batch_te = make_task_batches(cfg, repeat)
        states, power = _gathered([forward_batch(sub, b.pixels) for b in (batch_tr, batch_te)])
        rigs = _rigs(cfg, repeat, "", sub, states, power)
        _, result, m_tr, m_te = _train_arm(cfg, repeat, "", rigs, batch_tr, batch_te)
        rows.append({"task": f"header{cfg.task.n_bits}b", "arm": cfg.train.mode,
                     "repeat": repeat, **_row(result, m_tr, m_te)})
        out.arm(f"header_s{repeat}", result, cfg.substrate.grid_side)
    out.results(rows)
    return rows


def run_stability(cfg: ExperimentConfig, n_checks: int = 3600,
                  drift_steps_per_check: int = 1) -> list[dict]:
    """Train to convergence, freeze the mask, then repeatedly advance the
    substrate drift and re-measure the full test-batch trace; consistency is
    each trace's Pearson correlation with the first. Returns one row per
    check: its consistency, nmse and detector-path gain."""
    if cfg.repeats != 1:
        raise UsageError(f"stability runs one repeat, got repeats={cfg.repeats}")
    if n_checks < 2:
        raise UsageError(f"n_checks must be >= 2, got {n_checks}")
    if drift_steps_per_check < 0:
        raise UsageError(f"drift_steps_per_check must be >= 0, got {drift_steps_per_check}")
    _check_one_digit(cfg)
    out = _OutputSink(cfg.output_dir)
    out.config(cfg)
    sub = _substrate(cfg, 0)
    batch_tr, batch_te = make_task_batches(cfg, 0)
    states, power = _gathered([forward_batch(sub, b.pixels) for b in (batch_tr, batch_te)])
    rigs = _rigs(cfg, 0, "", sub, states, power)
    _, result, _, _ = _train_arm(cfg, 0, "", rigs, batch_tr, batch_te, score=False)
    mask = result.best_mask

    norm = Normalizer(cfg.train.normalize, batch_te.targets)
    reference = None
    rows = []
    for check in range(n_checks):
        advance_drift(sub, drift_steps_per_check)
        trace = rigs[1].measure(mask)
        if reference is None:
            reference = trace
        rows.append({"check": check, "consistency": consistency(reference, trace),
                     "nmse": nmse(norm(trace), batch_te.targets), "gain": sub.gain})
    out.csv("stability.csv", list(rows[0]), rows, RESULTS_SCHEMA)
    return rows


# ---------------------------------------------------------------------------
# Persistence

class _OutputSink:
    """The one writer of result files: every file format of a run is defined
    here. Files go under ``output_dir``; the sink is inert without one."""

    def __init__(self, output_dir: str | Path | None):
        self.root = Path(output_dir) if output_dir else None
        if self.root:
            try:
                self.root.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise UsageError(f"cannot create output directory {self.root}: {exc}") from exc

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
        if not self.root:
            return
        lines = [f"# schema: {schema}"] if schema else []
        lines.append(",".join(columns))
        lines.extend(",".join(_cell(r.get(c)) for c in columns) for r in rows)
        self.write(name, "\n".join(lines) + "\n")

    def results(self, rows: list[dict]) -> None:
        """One row per task, arm and repeat, then each task and arm's mean
        and median test accuracy."""
        if not self.root or not rows:
            return
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
        if not self.root:
            return
        mask = result.best_mask
        n_active = int(circle_mask(grid_side).sum())
        if len(mask) != n_active:
            raise ShapeError(f"mask length {len(mask)} != {n_active} active cells of a "
                             f"{grid_side}-side grid")
        # rows spelled out: vars() would give each record its own __dict__
        self.csv(f"history_{tag}.csv", ["epoch", "nmse_best", "n_mirrors", "accepted"],
                 ({"epoch": r.epoch, "nmse_best": r.nmse_best, "n_mirrors": r.n_mirrors,
                   "accepted": r.accepted} for r in result.history))
        self.write(f"mask_{tag}.json", json.dumps(
            {"weights": [int(v) for v in mask.weights], "mode": mask.mode,
             "grid_side": int(grid_side)}))

    def config(self, cfg: ExperimentConfig) -> None:
        self.write("config.resolved.json",
                   json.dumps(cfg.to_json_dict(), sort_keys=True, indent=2) + "\n")


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)
