"""Four-step hardware-guided synthesis flow.

Order: seed -> weight growth (wg) -> row/column pruning (rcp) -> row/column
growth back to the nearest latency hysteresis point (rcg) -> weight pruning
(wp). CPU mode skips rcp and rcg to maximize weight sparsity. The flow
builds rcg's LHP map once, before any training. Each step appends a report
row (the model's dims, parameter counts, validation perplexity, measured
forward latency); prune phases restore the last passing checkpoint,
and a flow is complete only if its final model meets the accuracy threshold.

The dense baseline, which sets the default threshold, shares nothing with
the seed model, so `SynthesisFlow.run` trains it in a child process forked
before wg, beside wg's training. The parent joins the child once wg's epochs
end and before wg's row is measured, so no latency is measured while the
child trains. The baseline's row stays the report's first; its epoch log
lines are logged at the join, after wg's. The child is a numkit.Child, made
by `os.fork`, so the flow needs a POSIX host.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import pickle
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import growprune, latlab
from .corpus import Corpus, batch_windows, bundled_corpus_path, load_corpus
from .growprune import GrowPruneConfig, HalveDecision
from .hlstm import (GATES, Backward, HLSTMCellParams, LMModel, bptt, evaluate, freeze,
                    perplexity, unroll_forward)
from .numkit import (Child, ContractViolation, MaskedLinear, make_rng, sgd_step,
                     sgd_update, write_atomic)

CONFIG_VERSION = 1
CHECKPOINT_VERSION = 1

PHASES = ("wg", "rcp", "rcg", "wp", "done")
VALID_BATCH = 4     # lanes of every validation pass, the flow's and `hwsynth eval`'s


class ConfigError(ValueError):
    pass


class CheckpointError(RuntimeError):
    pass


@dataclass
class OptimizerConfig:
    lr: float = 1.0
    lr_decay: float = 0.1
    lr_patience: int = 4          # epochs without validation improvement
    weight_decay: float = 1.2e-6

    def __post_init__(self):
        for name, ok, rule in (
                ("lr", math.isfinite(self.lr) and self.lr > 0, "finite and positive"),
                ("weight_decay", self.weight_decay >= 0, "non-negative"),
                ("lr_decay", 0.0 < self.lr_decay <= 1.0, "in (0, 1]"),
                ("lr_patience", self.lr_patience >= 0, "non-negative")):
            if not ok:
                raise ConfigError(f"optimizer.{name} must be {rule}, got {getattr(self, name)}")


@dataclass
class LatencyConfig:
    mode: str = "virtual"         # "virtual" (synthetic clock) or "real"
    curve: latlab.SyntheticCurveSpec = field(default_factory=latlab.SyntheticCurveSpec)
    measure_batch: int = 16
    measure_seq: int = 64
    runs: int = 9


@dataclass
class FlowConfig:
    corpus_path: str = "bundled"
    train_frac: float = 0.8
    valid_frac: float = 0.1
    d_x: int = 32
    d_s: int = 128
    d_h: int = 128
    seed_sparsity: float = 0.5
    growprune: GrowPruneConfig = field(default_factory=GrowPruneConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    baseline_epochs: int = 2
    wg_epochs: int = 4
    growth_epochs: int = 3        # weight growth applied after these epochs
    rcg_epochs: int = 2
    batch: int = 32
    seq_len: int = 64
    cpu_mode: bool = False
    profile_path: str | None = None   # pre-measured CSV; else sweep
    profile_grid: tuple[int, int, int] = (1, 128, 1)
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    seed: int = 0
    max_prune_iters: int = 40

    def __post_init__(self):
        # annotations are strings in these modules (from __future__ import annotations)
        ints = [(f"{prefix}{f.name}", getattr(obj, f.name))
                for prefix, obj in (("", self), ("growprune.", self.growprune),
                                    ("optimizer.", self.optimizer), ("latency.", self.latency),
                                    ("latency.curve.", self.latency.curve))
                for f in fields(obj) if f.type == "int"]
        ints += [(f"profile_grid[{k}]", v) for k, v in enumerate(self.profile_grid)]
        for name, value in ints:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("d_x", "d_s", "d_h", "batch", "seq_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not 0.0 < self.seed_sparsity < 1.0:
            raise ConfigError("seed_sparsity must be in (0, 1)")
        if self.d_s != self.d_h:
            raise ConfigError("the flow ties d_s and d_h; set them equal")
        for name in ("baseline_epochs", "wg_epochs", "growth_epochs", "rcg_epochs",
                     "max_prune_iters", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.growth_epochs > self.wg_epochs:
            raise ConfigError(f"growth_epochs {self.growth_epochs} exceeds wg_epochs "
                              f"{self.wg_epochs}; growth runs only in wg's epochs")
        if self.latency.mode not in ("virtual", "real"):
            raise ConfigError(f"latency.mode {self.latency.mode!r} is not 'virtual' or 'real'")
        for name, floor in (("runs", 5), ("measure_batch", 1), ("measure_seq", 1)):
            if getattr(self.latency, name) < floor:
                raise ConfigError(f"latency.{name} must be at least {floor}")
        try:
            latlab.dim_grid(self.profile_grid)
        except ContractViolation as exc:
            raise ConfigError(f"profile_grid: {exc}") from None

    @classmethod
    def from_json(cls, path: str | Path) -> "FlowConfig":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read flow config {path}: {exc}") from exc

        def section(value, key: str) -> dict:
            if not isinstance(value, dict):
                raise ConfigError(f"{key} of flow config {path} is not a JSON object")
            return value

        data = section(data, "top level")
        if data.pop("version", CONFIG_VERSION) != CONFIG_VERSION:
            raise ConfigError(f"unsupported config version in {path}")
        try:
            gp = GrowPruneConfig(**section(data.pop("growprune", {}), "growprune"))
            opt = OptimizerConfig(**section(data.pop("optimizer", {}), "optimizer"))
            raw = section(data.pop("latency", {}), "latency")
            try:
                curve = latlab.SyntheticCurveSpec(
                    **section(raw.pop("curve", {}), "latency.curve"))
            except ContractViolation as exc:   # it names the curve's field
                raise ConfigError(f"latency.curve.{exc}") from None
            lat = LatencyConfig(curve=curve, **raw)
            if "profile_grid" in data:
                data["profile_grid"] = tuple(data["profile_grid"])
            return cls(growprune=gp, optimizer=opt, latency=lat, **data)
        except TypeError as exc:
            raise ConfigError(f"bad flow config {path}: {exc}") from exc


@dataclass
class FlowState:
    phase: str = "wg"

    def advance(self, phase: str) -> None:
        if PHASES.index(phase) < PHASES.index(self.phase):
            raise ContractViolation(f"phase regression {self.phase} -> {phase}")
        self.phase = phase


@dataclass
class ReportRow:
    step: str
    d_s: int
    d_h: int
    d_x: int
    total_params: int
    active_params: int
    valid_ppl: float
    latency_median_ns: float
    latency_mean_ns: float
    latency_p95_ns: float


@dataclass
class FlowReport:
    rows: list[ReportRow] = field(default_factory=list)
    complete: bool = False
    threshold: float | None = None      # set by the baseline
    lhp_target: int | None = None

    CSV_HEADER = [f.name for f in fields(ReportRow)]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.CSV_HEADER)
        for r in self.rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in astuple(r)])
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps({
            "complete": self.complete,
            "threshold": self.threshold,
            "lhp_target": self.lhp_target,
            "rows": [vars(r) for r in self.rows],
        }, indent=2) + "\n"


def param_count(model: LMModel) -> tuple[int, int]:
    """(total, active) parameters: the embedding, then every masked layer's
    weights and biases; a bias is active while its row has a connection."""
    total = active = model.embedding.size
    for layer in model.masked_layers():
        total += layer.w.size + layer.b.size
        active += layer.active_count() + int(layer.mask.any(axis=1).sum())
    return total, active


def make_seed(cfg: FlowConfig, vocab_size: int, rng: np.random.Generator) -> LMModel:
    """Partially connected seed model: each masked layer keeps exactly
    ceil((1 - seed_sparsity) * size) randomly chosen active entries."""
    model = LMModel.create(vocab_size, cfg.d_x, cfg.d_s, cfg.d_h, rng)
    for layer in model.masked_layers():
        n = layer.w.size
        keep = int(math.ceil((1.0 - cfg.seed_sparsity) * n))
        chosen = rng.choice(n, size=keep, replace=False)
        mask = np.zeros(n, layer.mask.dtype)
        mask[chosen] = 1.0
        layer.mask[...] = mask.reshape(layer.w.shape)
        layer.apply_mask()
    return model


# --- training loop -------------------------------------------------------------

class Trainer:
    """SGD with validation-plateau learning-rate decay, shared across phases."""

    def __init__(self, cfg: OptimizerConfig):
        self.cfg = cfg
        self.lr = cfg.lr
        self.best_valid = math.inf
        self.stale = 0

    def epoch(self, model: LMModel, train_ids: np.ndarray, batch: int,
              seq_len: int, rng: np.random.Generator | None = None,
              grad_sink: list | None = None) -> float:
        """One pass over the training stream, stateful across windows, with
        an SGD step per window; returns the mean training NLL.

        grad_sink, when given, receives the epoch-averaged full gradient
        (dormant entries included) of each masked layer, in masked_layers()
        order, which weight growth ranks.

        Every window's bptt runs on one Backward (`Backward.for_pass`): on
        a large enough model, in a process that may run on two cores, a
        GradHelper, whose process is stopped and reaped before this returns
        or raises.

        `rng` is ignored, as an epoch draws nothing at random; it stays while
        the benchmark script passes one positionally, ahead of grad_sink.
        """
        layers = model.masked_layers()
        sums = [np.zeros_like(l.w) for l in layers] if grad_sink is not None else None
        total_nll = 0.0
        count = windows = 0
        states = None
        with Backward.for_pass(model.cell, batch, seq_len) as backward:
            for xs, ys in batch_windows(train_ids, batch, seq_len):
                logits, rec, states = unroll_forward(model, xs, init=states, train=True)
                total_nll += bptt(model, logits, rec, xs, ys, grad_scale=1.0 / xs.size,
                                  backward=backward)
                count += xs.size
                windows += 1
                for k, layer in enumerate(layers):
                    if sums is not None:
                        sums[k] += layer.grad_w
                    sgd_step(layer, self.lr, self.cfg.weight_decay)
                sgd_update(model.embedding, model.embedding_grad, self.lr,
                           self.cfg.weight_decay)
                model.embedding_grad[...] = 0.0
        if count == 0:
            raise ContractViolation("training stream shorter than one window")
        if sums is not None:
            grad_sink[:] = [acc / windows for acc in sums]
        return total_nll / count

    def note_valid(self, valid_nll: float) -> None:
        if valid_nll < self.best_valid - 1e-6:
            self.best_valid = valid_nll
            self.stale = 0
        else:
            self.stale += 1
            if self.stale > self.cfg.lr_patience:
                self.lr *= self.cfg.lr_decay
                self.stale = 0


# --- latency of the full model ---------------------------------------------------

def measure_model_latency(model: LMModel, lat: LatencyConfig) -> latlab.SampleStats:
    """Forward latency of the unrolled model (batch x seq per config).

    Virtual mode: deterministic closed-form sum over the per-layer active
    output dimensions, scaled by sequence length. Real mode: wall-clock
    timing of forwards of freeze(model), frozen once: what a deployment runs.
    """
    if lat.mode == "virtual":
        total = 0.0
        for layer in model.cell.layers():
            dim = max(int(layer.mask.any(axis=1).sum()), 1)
            total += lat.curve.latency_ns(dim)
        total += lat.curve.latency_ns(max(model.head.out_dim, 1))
        total *= lat.measure_seq
        return latlab.SampleStats(mean_ns=total, median_ns=total,
                                  p95_ns=total, runs=lat.runs)
    frozen = freeze(model)
    tokens = make_rng(12345).integers(0, model.vocab_size,
                                      size=(lat.measure_batch, lat.measure_seq))
    return latlab.time_task(lambda: frozen.forward(tokens),
                            warmup_runs=1, measured_runs=lat.runs)


# --- checkpointing ----------------------------------------------------------------

def checkpoint_save(model: LMModel, meta: dict, path: str | Path) -> None:
    """Lossless npz snapshot: all matrices in the model's dtype, masks (as
    uint8), dims, and metadata."""
    arrays = {"embedding": model.embedding}
    for i, layer in enumerate(model.masked_layers()):
        arrays[f"w_{i}"] = layer.w
        arrays[f"mask_{i}"] = layer.mask.astype(np.uint8)
        arrays[f"b_{i}"] = layer.b
    meta_full = {
        **meta,
        "version": CHECKPOINT_VERSION,
        "layer_names": [layer.name for layer in model.masked_layers()],
        "d_x": model.d_x,
        "d_s": model.cell.d_s,
        "d_h": model.cell.d_h,
        "depth": 1,
        "hidden_depth": 1,
        "vocab_size": model.vocab_size,
    }
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta_full).encode("utf-8"), dtype=np.uint8)
    write_atomic(Path(path), lambda fh: np.savez(fh, **arrays))


def checkpoint_load(path: str | Path) -> tuple[LMModel, dict]:
    """The model of a checkpoint_save file, built from its arrays in the
    dtype of its stored embedding (float32, or float64 for checkpoints
    written before models ran in float32), then swept (`growprune.sweep`):
    a checkpoint of a run that kept every layer at the seed's dims, with
    zero masks on its cut units, loads at its read-or-written dims."""
    try:
        data = np.load(path)
        meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
    except Exception as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise CheckpointError(f"checkpoint {path}: its meta_json is not a JSON object")
    for key, supported in (("version", CHECKPOINT_VERSION), ("depth", 1), ("hidden_depth", 1)):
        if meta.get(key) != supported:
            raise CheckpointError(f"checkpoint {path} has {key} {meta.get(key)}; only "
                                  f"{supported} is supported")
    try:
        vocab, d_x, d_s, d_h = (meta[key] for key in ("vocab_size", "d_x", "d_s", "d_h"))
        names = meta["layer_names"]
    except KeyError as exc:
        raise CheckpointError(f"checkpoint {path}: its meta has no {exc} key") from None
    n_layers = 2 * len(GATES) + 1
    if not (isinstance(names, list) and len(names) == n_layers):
        raise CheckpointError(f"checkpoint {path}: its meta's layer_names {names!r} is not "
                              f"one name per masked layer ({n_layers})")

    def array(name: str, shape: tuple[int, ...]) -> np.ndarray:
        found = data.get(name)
        if found is None or found.shape != shape:
            raise CheckpointError(f"checkpoint {path}: {name} is "
                                  f"{'missing' if found is None else found.shape}, and its "
                                  f"meta's dims make it {shape}")
        return found

    embedding = array("embedding", (vocab, d_x))
    dtype = embedding.dtype
    if dtype.kind != "f":
        raise CheckpointError(f"checkpoint {path}: embedding is {dtype}, not float")

    def stored(i: int, out_dim: int, in_dim: int) -> tuple[np.ndarray, ...]:
        """Masked layer i's (w * mask, mask, b), as stored."""
        mask = array(f"mask_{i}", (out_dim, in_dim))
        if not np.all((mask == 0) | (mask == 1)):
            raise CheckpointError(f"checkpoint {path}: mask_{i} has entries other than 0 and 1")
        return (array(f"w_{i}", mask.shape) * mask).astype(dtype), mask, array(f"b_{i}", (out_dim,))

    cell = HLSTMCellParams(d_x, d_s, d_h, name="cell0", dtype=dtype)
    for i, view in enumerate(cell.layers()):
        view.w[...], view.mask[...], view.b[...] = stored(i, *view.w.shape)
    model = LMModel(embedding, cell, MaskedLinear(*stored(n_layers - 1, vocab, d_s), names[-1]))
    growprune.sweep(model.cell, model.head)
    return model, meta


# --- the flow ----------------------------------------------------------------------

class SynthesisFlow:
    def __init__(self, cfg: FlowConfig, out_dir: str | Path | None = None):
        # rcg's LHP map, built before the corpus is read or anything trains; here, not in
        # FlowConfig, because the CLI sets cpu_mode and profile_path after the config is built.
        self.hmap: latlab.HysteresisMap | None = None
        if not cfg.cpu_mode:
            profile = latlab.load_profile(cfg.profile_path) if cfg.profile_path else None
            dims = profile.grid if profile is not None else latlab.dim_grid(cfg.profile_grid)
            if max(dims, default=0) < cfg.d_s:
                source = (f"profile {cfg.profile_path}" if profile is not None
                          else f"profile_grid {cfg.profile_grid}")
                raise ConfigError(f"{source} stops below d_s {cfg.d_s}; rcg could not "
                                  f"look up the pruned dim")
            if profile is None:
                backend = (latlab.SyntheticBackend(cfg.latency.curve)
                           if cfg.latency.mode == "virtual"
                           else latlab.NativeBackend(seed=cfg.seed))
                profile = latlab.sweep(backend, dims, cfg.latency.measure_batch,
                                       latlab.SweepConfig(hardware_id="flow"))
            self.hmap = latlab.detect_lhps(profile)
        self.cfg = cfg
        path = bundled_corpus_path() if cfg.corpus_path == "bundled" else cfg.corpus_path
        self.corpus: Corpus = load_corpus(path, cfg.train_frac, cfg.valid_frac)
        for split, batch in (("train", cfg.batch), ("valid", VALID_BATCH)):
            ids = getattr(self.corpus, split)
            if next(batch_windows(ids, batch, cfg.seq_len), None) is None:
                raise ConfigError(f"{split} split of {path} has {len(ids)} tokens; a batch "
                                  f"{batch} x seq_len {cfg.seq_len} window needs "
                                  f"{batch * cfg.seq_len + 1}")
        self.out_dir = Path(out_dir) if out_dir is not None else None
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        self.state = FlowState()
        self.report = FlowReport()
        self.gp = cfg.growprune
        self.model: LMModel | None = None
        self.trainer: Trainer | None = None
        self.log = print
        # the baseline's child process, from run()'s fork until train_baseline takes it
        self._baseline: Child | None = None

    # - helpers -

    def _row(self, step: str, model: LMModel, ppl: float) -> ReportRow:
        total, active = param_count(model)
        lat = measure_model_latency(model, self.cfg.latency)
        return ReportRow(step=step, d_s=model.cell.d_s, d_h=model.cell.d_h, d_x=model.d_x,
                         total_params=total, active_params=active,
                         valid_ppl=ppl, latency_median_ns=lat.median_ns,
                         latency_mean_ns=lat.mean_ns, latency_p95_ns=lat.p95_ns)

    def _snapshot(self):
        t = self.trainer
        return (copy.deepcopy(self.model), t.lr, t.best_valid, t.stale)

    def _restore(self, snap) -> None:
        # each prune iteration takes a fresh snapshot, so this one is not reused
        t = self.trainer
        self.model, t.lr, t.best_valid, t.stale = snap

    def _save_phase_artifacts(self, tag: str) -> None:
        if self.out_dir is None:
            return
        # the split and window length `hwsynth eval` scores the checkpoint with, and
        # the curve `hwsynth bench --virtual` times it on
        meta = {k: getattr(self.cfg, k) for k in ("seed", "seq_len", "train_frac", "valid_frac")}
        checkpoint_save(self.model, {"phase": tag, **meta,
                                     "latency_curve": asdict(self.cfg.latency.curve)},
                        self.out_dir / f"checkpoint_{tag}.npz")

    def _fit(self, label: str, model: LMModel, trainer: Trainer, epochs: int,
             growth_epochs: int = 0) -> float:
        """Train `epochs` epochs, each followed by a validation pass that
        feeds the lr schedule; weight growth runs between the epoch and the
        validation pass of the first `growth_epochs` epochs. Returns the
        last validation perplexity; with no epochs, that of the model as is."""
        if epochs == 0:
            return perplexity(evaluate(model, self.corpus.valid,
                                       seq_len=self.cfg.seq_len, batch=VALID_BATCH))
        for ep in range(epochs):
            sink: list | None = [] if ep < growth_epochs else None
            trainer.epoch(model, self.corpus.train, self.cfg.batch, self.cfg.seq_len,
                          grad_sink=sink)
            for layer, grad in zip(model.masked_layers(), sink or ()):
                growprune.weight_grow(layer, grad, self.gp.g_w, trainer.lr)
            valid_nll = evaluate(model, self.corpus.valid,
                                 seq_len=self.cfg.seq_len, batch=VALID_BATCH)
            trainer.note_valid(valid_nll)
            ppl = perplexity(valid_nll)
            self.log(f"[{label}] epoch {ep + 1}/{epochs} valid ppl {ppl:.3f} "
                     f"active {param_count(model)[1]} trained {model.cell.d_s}x{model.cell.d_h}")
        return ppl

    # - steps -

    def _train_dense(self, _cmd: int, reply: int) -> None:
        """The baseline child's work: a dense model with the flow's dims,
        trained baseline_epochs. Pickles (model, last valid ppl, log lines),
        or the exception that stopped the training, into `reply`, and leaves
        it open: it closes as the child exits, so EOF means the child has."""
        lines: list[str] = []
        self.log = lines.append
        try:
            model = LMModel.create(self.corpus.vocab_size, self.cfg.d_x, self.cfg.d_s,
                                   self.cfg.d_h, make_rng(self.cfg.seed + 1))
            ppl = self._fit("baseline", model, Trainer(self.cfg.optimizer),
                            self.cfg.baseline_epochs)
            result = (model, ppl, lines)
        except Exception as exc:
            result = exc
        with open(reply, "wb", closefd=False) as fh:
            pickle.dump(result, fh)

    def train_baseline(self) -> float:
        """Dense model with the same dims; its validation perplexity is the
        default accuracy threshold and the baseline report row.

        The model trains in a forked child process: `run` forks it before wg
        and calls this once wg's epochs end; called alone, this forks it and
        waits. Here, in the parent, the child's reply is read and the child
        reaped, its log lines logged, its row measured, and an exception
        that stopped it raised.
        """
        child, self._baseline = self._baseline or Child(self._train_dense), None
        with child, open(child.reply, "rb", closefd=False) as fh:
            data = fh.read()
        if child.code != 0:
            raise RuntimeError(f"baseline: its training process exited with code "
                               f"{child.code} and sent no model")
        reply = pickle.loads(data)
        if isinstance(reply, Exception):
            raise reply
        baseline, ppl, lines = reply
        for line in lines:
            self.log(line)
        self.report.rows.append(self._row("baseline", baseline, ppl))
        if math.isinf(self.gp.accuracy_threshold):
            self.gp = replace(self.gp, accuracy_threshold=ppl)
        self.report.threshold = self.gp.accuracy_threshold
        return ppl

    def step_weight_growth(self) -> None:
        self.state.advance("wg")
        self.model = make_seed(self.cfg, self.corpus.vocab_size, make_rng(self.cfg.seed))
        self.trainer = Trainer(self.cfg.optimizer)
        ppl = self._fit("wg", self.model, self.trainer, self.cfg.wg_epochs,
                        self.cfg.growth_epochs)
        if self._baseline is not None:      # forked by run(), beside wg's epochs
            self.train_baseline()
        self.report.rows.append(self._row("wg", self.model, ppl))
        self._save_phase_artifacts("wg")

    def _prune_loop(self, label: str, prune_once, halve) -> float:
        """Shared prune -> retrain -> halve-or-stop loop with checkpoint
        restore; returns the final (passing) validation perplexity."""
        gp = self.gp
        single_mode = False
        last_ppl = self.report.rows[-1].valid_ppl   # the previous phase's score
        for _ in range(self.cfg.max_prune_iters):
            snap = self._snapshot()
            try:
                pruned = prune_once(gp, single_mode)
            except growprune.DegenerateLayerError:
                self._restore(snap)
                break
            if not pruned:
                break
            ppl = self._fit(label, self.model, self.trainer, gp.retrain_patience)
            gp, decision = halve(gp, ppl, single_mode)
            if decision is HalveDecision.CONTINUE:
                last_ppl = ppl
                self.log(f"[{label}] kept prune, valid ppl {ppl:.3f}")
                continue
            self._restore(snap)
            self.log(f"[{label}] reverted prune ({decision.value}), ppl {ppl:.3f}")
            if decision is HalveDecision.SINGLE_MODE:
                single_mode = True
            elif decision is HalveDecision.STOP:
                break
        self.gp = replace(self.gp, p_r=gp.p_r, p_c=gp.p_c, p_w=gp.p_w)
        return last_ppl

    def step_rc_prune(self) -> None:
        self.state.advance("rcp")

        def prune_once(gp, single_mode):
            cell = self.model.cell
            before = cell.active_dims()
            if single_mode:
                after = growprune.coordinated_rc_prune_counts(
                    cell, self.model.head, 1, 1)
            else:
                after = growprune.coordinated_rc_prune(cell, self.model.head,
                                                       gp.p_r, gp.p_c)
            return after != before

        ppl = self._prune_loop("rcp", prune_once, growprune.halve_on_violation)
        self.report.rows.append(self._row("rcp", self.model, ppl))
        self._save_phase_artifacts("rcp")

    def step_rc_grow(self) -> None:
        self.state.advance("rcg")
        cell = self.model.cell
        tied = max(cell.d_s, cell.d_h)
        # a loaded profile may reach past d_s; growth cannot
        target = latlab.nearest_lhp(self.hmap, tied, self.cfg.d_s)
        self.report.lhp_target = target
        if target == tied:
            self.log(f"[rcg] tied dim {tied} is already an LHP; no growth")
        elif target is not None:
            growprune.coordinated_rc_grow_counts(cell, self.model.head, target - cell.d_s,
                                                 target - cell.d_h)
            self.log(f"[rcg] grew tied dim {tied} -> {target}")
        else:
            self.log(f"[rcg] no LHP in [{tied}, {self.cfg.d_s}]; no growth")
        ppl = self._fit("rcg", self.model, self.trainer, self.cfg.rcg_epochs)
        self.report.rows.append(self._row("rcg", self.model, ppl))
        self._save_phase_artifacts("rcg")

    def step_weight_prune(self) -> None:
        self.state.advance("wp")

        def prune_once(gp, _single_mode):
            total = 0
            for layer in self.model.masked_layers():
                total += growprune.weight_prune(layer, gp.p_w)
            growprune.sweep(self.model.cell, self.model.head)
            return total

        def halve(gp, ppl, _single_mode):
            return growprune.halve_weight_ratio(gp, ppl)

        ppl = self._prune_loop("wp", prune_once, halve)
        self.report.rows.append(self._row("wp", self.model, ppl))
        self._save_phase_artifacts("wp")
        self.state.advance("done")

    def run(self) -> FlowReport:
        try:
            # stopped here only if the flow fails before train_baseline takes it
            with Child(self._train_dense) as self._baseline:
                self.step_weight_growth()
                if not self.cfg.cpu_mode:
                    self.step_rc_prune()
                    self.step_rc_grow()
                self.step_weight_prune()
            final, threshold = self.report.rows[-1].valid_ppl, self.report.threshold
            self.report.complete = final <= threshold
            if not self.report.complete:
                self.log(f"[flow] final valid ppl {final:.3f} above threshold {threshold:.3f}")
        finally:
            if self.out_dir is not None:
                for name, text in (("report.csv", self.report.to_csv()),
                                   ("report.json", self.report.to_json())):
                    write_atomic(self.out_dir / name,
                                 lambda fh: fh.write(text.encode("utf-8")))
        return self.report


def run_flow(cfg: FlowConfig, out_dir: str | Path | None = None,
             log=print) -> FlowReport:
    flow = SynthesisFlow(cfg, out_dir)
    flow.log = log
    flow.run()
    return flow.report
