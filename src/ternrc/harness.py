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
import numbers
import zlib
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .baselines import lambda_sweep, ridge_eval, ridge_fit
from .errors import ConfigError, DataError, UsageError
from .optimizer import (Metrics, Normalizer, TrainConfig, TrainResult, evaluate,
                        history_to_csv, nmse, train)
from .readout import DetectorModel, TernaryMask, mask_to_json, readout_batch
from .substrate import (Substrate, SubstrateConfig, build_substrate, advance_drift,
                        forward_batch, states_matrix)
from .tasks import (DigitDataset, HeaderSpec, LabeledBatch, load_mnist,
                    make_header_batch, make_onevsall_batch)

RESULTS_SCHEMA = "ternrc-results-v1"
CURVES_SCHEMA = "ternrc-curves-v1"

#: lambda grid for the ridge baseline's cross-validated selection
RIDGE_GRID = tuple(float(v) for v in np.logspace(-6, 2, 9))

COMPARISON_ARMS = ("boolean_on", "ternary_on", "ternary_off", "ridge")


def derive_seed(base: int, tag: str, index: int = 0) -> int:
    """Deterministic child seed for one component of one repeat."""
    ss = np.random.SeedSequence([int(base) & 0xFFFFFFFF, zlib.crc32(tag.encode()), int(index)])
    return int(ss.generate_state(1, np.uint32)[0])


# ---------------------------------------------------------------------------
# Experiment configuration

def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_n_samples(n) -> None:
    if not _is_int(n) or n < 2 or n % 2:
        raise ConfigError(f"task n_samples must be an even integer >= 2, got {n!r}")


@dataclass(frozen=True)
class HeaderTask:
    n_bits: int = 4
    target_value: int = 5
    n_samples: int = 1000
    image_side: int = 64
    type: str = "header"

    def validate(self) -> None:
        if not all(map(_is_int, (self.n_bits, self.target_value, self.image_side))):
            raise ConfigError(f"task n_bits, target_value and image_side must be integers: {self}")
        _check_n_samples(self.n_samples)
        HeaderSpec(self.n_bits, self.image_side, self.target_value).validate()


@dataclass(frozen=True)
class MnistTask:
    images: str = ""
    labels: str = ""
    test_images: str | None = None
    test_labels: str | None = None
    digit: int | None = 0
    n_samples: int = 1000
    type: str = "mnist"

    def validate(self) -> None:
        paths = [self.images, self.labels] + [
            p for p in (self.test_images, self.test_labels) if p is not None]
        if not all(isinstance(p, str) for p in paths):
            raise ConfigError(f"task image and label paths must be strings, got {paths!r}")
        if self.digit is not None and not (_is_int(self.digit) and 0 <= self.digit <= 9):
            raise ConfigError(f"task digit must be an integer 0-9 or null, got {self.digit!r}")
        _check_n_samples(self.n_samples)


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

    def validate(self) -> None:
        self.substrate.validate()
        self.train.validate()
        self.task.validate()
        if not _is_int(self.repeats) or self.repeats < 1:
            raise ConfigError(f"repeats must be an integer >= 1, got {self.repeats!r}")
        for name in ("alphas", "ridge_grid"):
            values = getattr(self, name)
            if not values or not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                                     and math.isfinite(v) and v >= 0 for v in values):
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
        """Parse and validate a config document, the exact inverse of
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
            cfg.validate()
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
    once because the forward path is deterministic; each measurement applies
    the live detector-path gain, the arm's brightness and fresh detector
    noise. Calling it with a mask returns the N-vector of readout outputs,
    which is exactly the contract the optimizer expects.
    """

    def __init__(self, substrate: Substrate, states: np.ndarray, detector: DetectorModel,
                 brightness: float = 1.0):
        self.substrate = substrate
        self.states = states
        self.detector = detector
        self.brightness = brightness

    @property
    def n_nodes(self) -> int:
        return self.states.shape[1]

    def measure(self, mask: TernaryMask) -> np.ndarray:
        return readout_batch(self.states, mask,
                             self.substrate.gain * self.brightness, self.detector)

    __call__ = measure


# ---------------------------------------------------------------------------
# Batch acquisition per task

def _load_partitions(task: MnistTask) -> tuple[DigitDataset, DigitDataset | None]:
    """(train, test) partitions; load_mnist raises DataError on unreadable files."""
    if not (task.images and task.labels):
        raise DataError("no digit dataset given; pass --mnist-images/--mnist-labels "
                        "or point the task config at IDX files")
    train_part = load_mnist(task.images, task.labels)
    test_part = None
    if task.test_images and task.test_labels:
        test_part = load_mnist(task.test_images, task.test_labels)
    return train_part, test_part


def make_task_batches(cfg: ExperimentConfig, repeat: int, digit: int | None = None,
                      _cache: dict | None = None) -> tuple[LabeledBatch, LabeledBatch]:
    """Build the (train, test) batches for one repeat. Test batches are
    disjoint from training: headers use an independent seed, digit batches
    come from the test partition when available and otherwise from a
    disjoint draw of the training partition."""
    levels = cfg.train.target_levels
    if isinstance(cfg.task, HeaderTask):
        t = cfg.task
        tr_seed = derive_seed(cfg.train.seed, "batch-train", repeat)
        te_seed = derive_seed(cfg.train.seed, "batch-test", repeat)
        return (make_header_batch(t.n_bits, t.target_value, t.n_samples, tr_seed,
                                  t.image_side, levels),
                make_header_batch(t.n_bits, t.target_value, t.n_samples, te_seed,
                                  t.image_side, levels))
    t = cfg.task
    if digit is None:
        digit = t.digit if t.digit is not None else 0
    if _cache is not None and "parts" in _cache:
        train_part, test_part = _cache["parts"]
    else:
        train_part, test_part = _load_partitions(t)
        if _cache is not None:
            _cache["parts"] = (train_part, test_part)
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
    sa, sb = a.std(), b.std()
    if sa == 0.0 or sb == 0.0:
        raise UsageError("consistency is undefined for a constant trace")
    ac, bc = a - a.mean(), b - b.mean()
    return float((ac @ bc) / (np.linalg.norm(ac) * np.linalg.norm(bc)))


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


def _states(sub: Substrate, batch_tr: LabeledBatch, batch_te: LabeledBatch):
    """Noiseless (train, test) state matrices, and the training batch's mean
    all-on power at unit gain."""
    s_tr = states_matrix(*forward_batch(sub, batch_tr.pixels))
    s_te = states_matrix(*forward_batch(sub, batch_te.pixels))
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


def run_comparison(cfg: ExperimentConfig, digits=None) -> list[dict]:
    """Four-arm comparison: Boolean mask + laser on, ternary + on, ternary +
    off, and the ridge baseline, all on the same frozen substrate and
    batches per repeat. Returns one result row per (task, arm, repeat)."""
    cfg.validate()
    if digits is None:
        if isinstance(cfg.task, MnistTask):
            digits = list(range(10)) if cfg.task.digit is None else [cfg.task.digit]
        else:
            digits = [None]
    cache: dict = {}
    rows: list[dict] = []
    out = _OutputSink(cfg)
    for repeat in range(cfg.repeats):
        sub_on = _substrate(cfg, repeat, vcsel_on=True)
        sub_off = _substrate(cfg, repeat, vcsel_on=False)
        for digit in digits:
            task_name = "header" if digit is None else f"digit{digit}"
            batch_tr, batch_te = make_task_batches(cfg, repeat, digit, _cache=cache)
            arms = _comparison_arms(cfg, repeat, digit, sub_on, sub_off,
                                    batch_tr, batch_te)
            for arm_name, row, result in arms:
                row.update(task=task_name, arm=arm_name, repeat=repeat)
                rows.append(row)
                if result is not None:
                    tag = f"{arm_name}_{task_name}_s{repeat}"
                    out.write_history(tag, result)
                    out.write_mask(tag, result.best_mask, cfg.substrate.grid_side)
    out.write_results(rows)
    out.write_config(cfg)
    return rows


def _comparison_arms(cfg, repeat, digit, sub_on, sub_off, batch_tr, batch_te):
    """Train/evaluate the four arms on shared batches; returns (arm, row,
    result) tuples, with no result for the ridge arm."""
    dtag = "" if digit is None else f"-d{digit}"
    on, sbar = _states(sub_on, batch_tr, batch_te)  # detector calibrated once, lasing config
    off, power_off = _states(sub_off, batch_tr, batch_te)
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
    cfg.validate()
    cache: dict = {}
    rows, curves = [], []
    out = _OutputSink(cfg)
    for repeat in range(cfg.repeats):
        sub = _substrate(cfg, repeat)
        batch_tr, batch_te = make_task_batches(cfg, repeat, _cache=cache)
        states, power = _states(sub, batch_tr, batch_te)
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
    out.write_curves(curves)
    out.write_alpha_summary(rows)
    out.write_config(cfg)
    return rows


def run_header_task(cfg: ExperimentConfig) -> list[dict]:
    """Train on the header batch and report the symbol error rate on a
    disjoint test batch, once per repeat."""
    cfg.validate()
    if not isinstance(cfg.task, HeaderTask):
        raise ConfigError("run_header_task needs a header task config")
    rows = []
    out = _OutputSink(cfg)
    for repeat in range(cfg.repeats):
        sub = _substrate(cfg, repeat)
        batch_tr, batch_te = make_task_batches(cfg, repeat)
        states, power = _states(sub, batch_tr, batch_te)
        rigs = _rigs(cfg, repeat, "", sub, states, power)
        _, result, m_tr, m_te = _train_arm(cfg, repeat, "", rigs, batch_tr, batch_te)
        rows.append({"task": f"header{cfg.task.n_bits}b", "arm": cfg.train.mode,
                     "repeat": repeat, **_row(result, m_tr, m_te)})
        tag = f"header_s{repeat}"
        out.write_history(tag, result)
        out.write_mask(tag, result.best_mask, cfg.substrate.grid_side)
    out.write_results(rows)
    out.write_config(cfg)
    return rows


@dataclass(frozen=True)
class StabilityReport:
    """Re-measurement record of a frozen mask under drift and noise."""

    reference_trace: np.ndarray
    traces: list[np.ndarray]
    consistencies: np.ndarray
    nmse_series: np.ndarray
    gain_series: np.ndarray


def run_stability(cfg: ExperimentConfig, n_checks: int = 3600,
                  drift_steps_per_check: int = 1) -> StabilityReport:
    """Train to convergence, freeze the mask, then repeatedly advance the
    substrate drift and re-measure the full test-batch trace; consistency is
    each trace's Pearson correlation with the first."""
    cfg.validate()
    if n_checks < 2:
        raise UsageError(f"n_checks must be >= 2, got {n_checks}")
    if drift_steps_per_check < 0:
        raise UsageError(f"drift_steps_per_check must be >= 0, got {drift_steps_per_check}")
    out = _OutputSink(cfg)
    sub = _substrate(cfg, 0)
    batch_tr, batch_te = make_task_batches(cfg, 0)
    states, power = _states(sub, batch_tr, batch_te)
    rigs = _rigs(cfg, 0, "", sub, states, power)
    _, result, _, _ = _train_arm(cfg, 0, "", rigs, batch_tr, batch_te, score=False)
    mask = result.best_mask

    norm = Normalizer(cfg.train.normalize, batch_te.targets)
    traces, gains, errs = [], [], []
    for _ in range(n_checks):
        advance_drift(sub, drift_steps_per_check)
        trace = rigs[1].measure(mask)
        traces.append(trace)
        gains.append(sub.gain)
        errs.append(nmse(norm(trace), batch_te.targets))
    reference = traces[0]
    cons = np.array([consistency(reference, tr) for tr in traces])
    report = StabilityReport(reference_trace=reference, traces=traces,
                             consistencies=cons, nmse_series=np.array(errs),
                             gain_series=np.array(gains))
    out.write_stability(report)
    out.write_config(cfg)
    return report


# ---------------------------------------------------------------------------
# Persistence

class _OutputSink:
    """Writes result files under the config's output directory; inert when
    no directory is configured."""

    def __init__(self, cfg: ExperimentConfig):
        self.root = Path(cfg.output_dir) if cfg.output_dir else None
        if self.root:
            try:
                self.root.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise UsageError(f"cannot create output directory {self.root}: {exc}") from exc

    def _csv(self, name: str, schema: str, columns: list[str], rows: list[dict]) -> None:
        if not self.root:
            return
        lines = [f"# schema: {schema}", ",".join(columns)]
        for r in rows:
            lines.append(",".join(_cell(r.get(c)) for c in columns))
        (self.root / name).write_text("\n".join(lines) + "\n")

    def write_results(self, rows: list[dict]) -> None:
        if not self.root or not rows:
            return
        columns = ["task", "arm", "repeat", "train_nmse", "test_nmse",
                   "train_accuracy", "test_accuracy", "test_ser", "threshold",
                   "epochs_run", "n_accepted", "lambda"]
        summary = []
        for task in sorted({r["task"] for r in rows}):
            for arm in sorted({r["arm"] for r in rows if r["task"] == task}):
                sel = [r["test_accuracy"] for r in rows
                       if r["task"] == task and r["arm"] == arm]
                summary.append({"task": task, "arm": arm, "repeat": "mean",
                                "test_accuracy": float(np.mean(sel))})
                summary.append({"task": task, "arm": arm, "repeat": "median",
                                "test_accuracy": float(np.median(sel))})
        self._csv("results.csv", RESULTS_SCHEMA, columns, rows + summary)

    def write_curves(self, curves: list[dict]) -> None:
        self._csv("curves.csv", CURVES_SCHEMA, ["alpha", "seed", "epoch", "nmse_best"], curves)

    def write_alpha_summary(self, rows: list[dict]) -> None:
        self._csv("alpha_summary.csv", RESULTS_SCHEMA,
                  ["alpha", "repeat", "final_nmse", "initial_nmse",
                   "epochs_to_convergence", "test_accuracy", "test_ser",
                   "mean_n_mirrors"], rows)

    def write_stability(self, report: StabilityReport) -> None:
        rows = [{"check": i, "consistency": float(c), "nmse": float(e), "gain": float(g)}
                for i, (c, e, g) in enumerate(zip(report.consistencies,
                                                  report.nmse_series, report.gain_series))]
        self._csv("stability.csv", RESULTS_SCHEMA,
                  ["check", "consistency", "nmse", "gain"], rows)

    def write_history(self, tag: str, result: TrainResult) -> None:
        if not self.root:
            return
        (self.root / f"history_{tag}.csv").write_text(history_to_csv(result))

    def write_mask(self, tag: str, mask: TernaryMask, grid_side: int) -> None:
        if not self.root:
            return
        (self.root / f"mask_{tag}.json").write_text(mask_to_json(mask, grid_side))

    def write_config(self, cfg: ExperimentConfig) -> None:
        if not self.root:
            return
        (self.root / "config.resolved.json").write_text(
            json.dumps(cfg.to_json_dict(), sort_keys=True, indent=2) + "\n")


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)
