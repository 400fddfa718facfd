"""Four-step hardware-guided synthesis flow.

Order: seed -> weight growth (wg) -> row/column pruning (rcp) -> row/column
growth back to the nearest latency hysteresis point (rcg) -> weight pruning
(wp). CPU mode skips rcp and rcg to maximize weight sparsity. The flow
builds rcg's LHP map once, before any training. Each step appends a report
row (freeze(model)'s dims, parameter counts, validation perplexity,
measured forward latency); prune phases restore the last passing checkpoint,
and a flow is complete only if its final model meets the accuracy threshold.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
from contextlib import nullcontext
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import growprune, latlab
from .corpus import Corpus, batch_windows, bundled_corpus_path, load_corpus
from .growprune import GrowPruneConfig, HalveDecision
from .hlstm import (LMModel, bptt, evaluate, freeze, perplexity, read_dims,
                    training_copy, unroll_forward)
from .numkit import ContractViolation, make_rng, sgd_step, sgd_update, write_atomic

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
        for name in ("d_x", "d_s", "d_h", "batch", "seq_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not 0.0 < self.seed_sparsity < 1.0:
            raise ConfigError("seed_sparsity must be in (0, 1)")
        if self.d_s != self.d_h:
            raise ConfigError("the flow ties d_s and d_h; set them equal")
        for name in ("baseline_epochs", "wg_epochs", "growth_epochs", "rcg_epochs",
                     "max_prune_iters"):
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
    threshold: float = math.inf
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
        mask = np.zeros(n)
        mask[chosen] = 1.0
        layer.mask[...] = mask.reshape(layer.w.shape)
        layer.apply_mask()
    return model


# --- training loop -------------------------------------------------------------

def _window_pass(model: LMModel, ids: np.ndarray, batch: int, seq_len: int,
                 step=None, collect: bool = False) -> tuple[float, dict | None]:
    """Stateful forward + BPTT over every window of `ids`.

    With `step`, a training pass that applies each window's gradients;
    without, a bridging pass that clears them after each window. Both run
    at the shape of the model given: the bridging pass and growth epochs get
    the full model, so a dead unit's dormant entries get gradients; other
    epochs get a training copy (see `Trainer.epoch`). Returns the mean NLL
    and, with `collect`, the window-averaged full gradient (dormant entries
    included) of every masked layer, keyed by id(layer).
    """
    layers = model.masked_layers()
    sums = {id(l): np.zeros_like(l.w) for l in layers} if collect else None
    total_nll = 0.0
    count = windows = 0
    states = None
    for xs, ys in batch_windows(ids, batch, seq_len):
        logits, rec, states = unroll_forward(model, xs, init=states, train=True)
        total_nll += bptt(model, logits, rec, xs, ys, grad_scale=1.0 / xs.size)
        count += xs.size
        windows += 1
        if collect:
            for layer in layers:
                sums[id(layer)] += layer.grad_w
        if step is None:
            model.zero_grads()
        else:
            step()
    if count == 0:
        raise ContractViolation("training stream shorter than one window")
    grads = {key: acc / windows for key, acc in sums.items()} if collect else None
    return total_nll / count, grads


class Trainer:
    """SGD with validation-plateau learning-rate decay, shared across phases."""

    def __init__(self, cfg: OptimizerConfig):
        self.cfg = cfg
        self.lr = cfg.lr
        self.best_valid = math.inf
        self.stale = 0
        self.trained: tuple[int, int] | None = None

    def epoch(self, model: LMModel, train_ids: np.ndarray, batch: int,
              seq_len: int, rng: np.random.Generator | None = None,
              grad_sink: dict | None = None) -> float:
        """One pass over the training stream; returns mean training NLL.

        grad_sink, when given, receives the epoch-averaged full gradient
        (dormant entries included) per masked layer, keyed by id(layer);
        such a growth epoch runs at full shape, since growth ranks the
        dormant entries of every unit. Any other epoch trains
        `training_copy(model)`, only the units that are read or written,
        and writes it back: the same result up to BLAS summation order.
        `self.trained` is the (d_s, d_h) the last epoch ran at.

        `rng` is ignored, as an epoch draws nothing at random; it stays while
        the benchmark script passes one positionally, ahead of grad_sink.
        """
        growth = grad_sink is not None
        run = nullcontext(model) if growth else training_copy(model)
        with run as live:
            def step():
                for layer in live.masked_layers():
                    sgd_step(layer, self.lr, self.cfg.weight_decay)
                sgd_update(live.embedding, live.embedding_grad, self.lr,
                           self.cfg.weight_decay)
                live.embedding_grad[...] = 0.0

            self.trained = (live.cell.d_s, live.cell.d_h)
            mean_nll, grads = _window_pass(live, train_ids, batch, seq_len, step, collect=growth)
        if growth:
            grad_sink.update(grads)
        return mean_nll

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
    """Lossless npz snapshot: all matrices, masks (as uint8), dims, and
    metadata."""
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
    try:
        data = np.load(path)
        meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
    except Exception as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    for key, supported in (("version", CHECKPOINT_VERSION), ("depth", 1), ("hidden_depth", 1)):
        if meta.get(key) != supported:
            raise CheckpointError(f"checkpoint {path} has {key} {meta.get(key)}; only "
                                  f"{supported} is supported")
    try:
        dims = [meta[key] for key in ("vocab_size", "d_x", "d_s", "d_h")]
        names = meta["layer_names"]
    except KeyError as exc:
        raise CheckpointError(f"checkpoint {path}: its meta has no {exc} key") from None
    model = LMModel.create(*dims, make_rng(0))

    def array(name: str, shape: tuple[int, ...]) -> np.ndarray:
        found = data.get(name)
        if found is None or found.shape != shape:
            raise CheckpointError(f"checkpoint {path}: {name} is "
                                  f"{'missing' if found is None else found.shape}, and its "
                                  f"meta's dims make it {shape}")
        return found

    model.embedding[...] = array("embedding", model.embedding.shape)
    for i, layer in enumerate(model.masked_layers()):
        mask = array(f"mask_{i}", layer.w.shape)
        if not np.all((mask == 0) | (mask == 1)):
            raise CheckpointError(f"checkpoint {path}: mask_{i} has entries other than 0 and 1")
        layer.mask[...] = mask
        layer.w[...] = array(f"w_{i}", layer.w.shape)
        layer.b[...] = array(f"b_{i}", layer.b.shape)
        layer.name = names[i]
        layer.apply_mask()
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

    # - helpers -

    def _row(self, step: str, model: LMModel, ppl: float) -> ReportRow:
        total, active = param_count(model)
        d_s, d_h = read_dims(model)    # what forward passes and real mode run
        lat = measure_model_latency(model, self.cfg.latency)
        return ReportRow(step=step, d_s=d_s, d_h=d_h, d_x=model.d_x,
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
        # the split and window length `hwsynth eval` scores the checkpoint with
        meta = {k: getattr(self.cfg, k) for k in ("seed", "seq_len", "train_frac", "valid_frac")}
        checkpoint_save(self.model, {"phase": tag, **meta},
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
            sink: dict | None = {} if ep < growth_epochs else None
            trainer.epoch(model, self.corpus.train, self.cfg.batch, self.cfg.seq_len,
                          grad_sink=sink)
            if sink is not None:
                for layer in model.masked_layers():
                    growprune.weight_grow(layer, sink[id(layer)], self.gp.g_w,
                                          trainer.lr)
            valid_nll = evaluate(model, self.corpus.valid,
                                 seq_len=self.cfg.seq_len, batch=VALID_BATCH)
            trainer.note_valid(valid_nll)
            ppl = perplexity(valid_nll)
            d_s, d_h = trainer.trained
            self.log(f"[{label}] epoch {ep + 1}/{epochs} valid ppl {ppl:.3f} "
                     f"active {param_count(model)[1]} trained {d_s}x{d_h}")
        return ppl

    # - steps -

    def train_baseline(self) -> float:
        """Dense model with the same dims; its validation perplexity is the
        default accuracy threshold and the baseline report row."""
        baseline = LMModel.create(self.corpus.vocab_size, self.cfg.d_x, self.cfg.d_s,
                                  self.cfg.d_h, make_rng(self.cfg.seed + 1))
        ppl = self._fit("baseline", baseline, Trainer(self.cfg.optimizer),
                        self.cfg.baseline_epochs)
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
        cur_s, cur_h = read_dims(self.model)
        tied = max(cur_s, cur_h)
        target = latlab.nearest_lhp(self.hmap, tied)
        if target is not None and target > self.cfg.d_s:
            target = None       # a loaded profile may reach past d_s; growth cannot
        self.report.lhp_target = target
        if target is not None and target > tied:
            # bridging gradients: epoch-averaged, no parameter updates
            grads = _window_pass(self.model, self.corpus.train, self.cfg.batch,
                                 self.cfg.seq_len, collect=True)[1]
            growprune.coordinated_rc_grow_counts(
                self.model.cell, self.model.head, grads,
                target - cur_s, target - cur_h, self.trainer.lr)
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
            return total

        def halve(gp, ppl, _single_mode):
            return growprune.halve_weight_ratio(gp, ppl)

        ppl = self._prune_loop("wp", prune_once, halve)
        self.report.rows.append(self._row("wp", self.model, ppl))
        self._save_phase_artifacts("wp")
        self.state.advance("done")

    def run(self) -> FlowReport:
        try:
            self.train_baseline()
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
