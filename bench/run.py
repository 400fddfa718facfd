#!/usr/bin/env python3
"""hwsynth benchmark: train, flow and infer stages on one seeded input set.

Run from the repository root:

    python3 bench/run.py --workload default --seed 0 --seconds 55 --trace 0

Each run reports every end-to-end metric, so each run carries all three
stages below, interleaved in one process (see `measure`), through the
public `hwsynth` API. The set-up (fresh import, corpus load, seed model,
pruned variants) is repeated between them and its median reported.

train   Whole epochs of `Trainer.epoch` on a seed model (d_x=32,
        d_s=d_h=128) over the bundled train split at B=32, T=64, each
        followed by a validation pass at batch 4. Every replica restarts
        from the same seed model and RNG, so its NLL must repeat bitwise.
        This is the hot loop of every flow phase: forward, backward and
        SGD at full shape, with no grow/prune, latency lookup or artifact IO.
flow    A reduced synthesis flow (`run_flow`, virtual clock, d=64) on the
        first 30% of the bundled corpus, writing artifacts to a temporary
        directory; the final checkpoint is then read back and evaluated on
        the test split. This is the command users run: it adds prune/revert
        cycles on shrinking masks, checkpoint and mask IO, and the LHP
        lookup. Its `report.csv` must be byte-identical across flows.
infer   Forward-only `unroll_forward` at batch 16 x 64 steps on the seed
        model and on copies pruned with `coordinated_rc_prune_counts`,
        sampled round-robin so host drift hits every d alike. Logits must
        be finite and identical across repeats and no gradient may move.

Both workloads start from the paper's 50%-sparse seed and differ only in
the flow the users run: `default` is the four-step flow (wg, rcp, rcg, wp),
`cpu_mode` the `--cpu-mode` flow, which skips rcp and rcg and weight-prunes
at full dimensions. The train and infer stages are the same in both.

Timings are reported at a reference host speed: each timed op is scaled by
a fixed calibration kernel timed before and during it (see `timed` and
`calibration.py`), which removes most of a shared host's 10-30% drift.
The values as read on this host are printed beside them.

With `--trace 0` the last line of stdout holds the end-to-end metrics of
`BENCHMARK.json`. With `--trace 1` span shims (see `tracing.py`) wrap the
library, one op of each stage runs traced next to an untraced twin, and
the last line holds the per-layer metrics instead. Per-layer times are self
times (a span minus its child spans) unless named as a phase or call total.
"""

import os

# Pin BLAS to one thread before numpy loads: steady timings, and matmul
# results that repeat bitwise. One is at most nproc on any host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import copy
import importlib
import json
import math
import platform
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from calibration import REF_MS, HostClock
from tracing import MODULES, SpanSummary, Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = {"default": False, "cpu_mode": True}   # FlowConfig.cpu_mode
SPARSITY = 0.5                     # the paper's seed

D_X, D = 32, 128
BATCH, SEQ, EVAL_BATCH, INFER_BATCH = 32, 64, 4, 16
INFER_DIMS = (128, 64, 51, 32)     # 51: the off-LHP dim rcp leaves in the toy flow
E2E_DIMS = {"dense": 128, "pruned": 32}
FLOW_CORPUS_FRAC = 0.3
CALIB_REPEATS = 5                  # calibration kernels before each long op
CALIB_PERIOD = 0.3                 # ... and one per this many seconds in it
SHARE_INFER = 0.25                 # of --seconds, spread over the infer slices
MIN_CYCLES = 2                     # train replicas and flows per run
MIN_ROUNDS = {0: 100, 1: 50}       # p90 needs >= 100 samples per dim
TRACED_ROUNDS = 5
STEPS = {False: ["baseline", "wg", "rcp", "rcg", "wp"], True: ["baseline", "wg", "wp"]}


def quiet(*_args, **_kwargs):
    pass


def now() -> float:
    return time.perf_counter()


def p90(values) -> float:
    """Nearest-rank 90th percentile; with n >= 100 at least 10 lie above."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


@dataclass
class Tally:
    """Operations attempted and failed, plus the failed checks by name."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, ops: int, ok: bool, what: str = "") -> None:
        self.attempted += ops
        if not ok:
            self.failed += ops
            self.problems.append(what)


# --- set-up ---------------------------------------------------------------------

def is_hwsynth(module_name: str) -> bool:
    return module_name == "hwsynth" or module_name.startswith("hwsynth.")


def import_library() -> dict:
    """Import hwsynth afresh from the checkout's src/ directory."""
    for name in [n for n in sys.modules if is_hwsynth(n)]:
        del sys.modules[name]
    pkg = importlib.import_module("hwsynth")
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "hwsynth":
        raise ImportError(f"hwsynth imported from {pkg.__file__}, not this checkout")
    return {m: sys.modules[f"hwsynth.{m}"] for m in MODULES}


@dataclass
class Inputs:
    lib: dict
    corpus: object
    base: object                       # seed model, d=128
    variants: dict                     # d -> model pruned to d


def build_inputs(seed: int) -> tuple[Inputs, float, float]:
    """Import, corpus load, seed model and pruned variants; returns the
    inputs, the whole set-up time and the corpus-load part of it."""
    t0 = now()
    lib = import_library()
    t1 = now()
    corpus = lib["corpus"].load_corpus(lib["corpus"].bundled_corpus_path())
    t2 = now()
    cfg = lib["synthflow"].FlowConfig(d_x=D_X, d_s=D, d_h=D, seed_sparsity=SPARSITY,
                                      seed=seed)
    base = lib["synthflow"].make_seed(cfg, corpus.vocab_size, lib["numkit"].make_rng(seed))
    variants = {}
    for d in INFER_DIMS:
        model = copy.deepcopy(base)
        if d < D:
            lib["growprune"].coordinated_rc_prune_counts(model.cells[0], model.head,
                                                         D - d, D - d)
        variants[d] = model
    return Inputs(lib, corpus, base, variants), now() - t0, t2 - t1


# --- stages ---------------------------------------------------------------------
#
# The three stages interleave (see `measure`), so each samples the whole run:
# on a shared host, speed drifts by 10-30% over seconds to minutes.

def n_windows(lib, tokens, batch) -> int:
    return sum(1 for _ in lib["corpus"].batch_windows(tokens, batch, SEQ))


def timed(lib, clock, tracer, stage, op):
    """Run `op()`; returns (result, s as read, s at the reference host speed).

    Untraced, the op's time is scaled stretch by stretch: the calibration
    kernel runs before the op and between its batch windows, once per
    CALIB_PERIOD seconds and outside the op's time, and each stretch is
    scaled by the kernel time taken last before it. `batch_windows` is
    rebound for this wherever hwsynth binds it by name (hlstm.evaluate reads
    it from corpus at call time); an op that never calls it is scaled by
    the kernel time before it. Traced, the shims are installed instead and
    the scaled time is None.
    """
    if tracer is not None:
        with traced(tracer, stage):
            t0 = now()
            result = op()
            return result, now() - t0, None
    original = lib["corpus"].batch_windows
    kernel_ms = statistics.median(clock.sample(CALIB_REPEATS))
    raw = ref = 0.0
    mark = last_kernel = now()

    def close_stretch() -> float:
        nonlocal raw, ref
        t = now()
        raw += t - mark
        ref += (t - mark) * REF_MS / kernel_ms
        return t

    def windows(*args, **kwargs):
        nonlocal kernel_ms, mark, last_kernel
        for window in original(*args, **kwargs):
            if close_stretch() - last_kernel >= CALIB_PERIOD:
                kernel_ms = clock.sample()[0]
                last_kernel = now()
            mark = now()
            yield window

    owners = [m for m in lib.values() if getattr(m, "batch_windows", None) is original]
    for owner in owners:
        owner.batch_windows = windows
    try:
        mark = now()
        result = op()
        close_stretch()
    finally:
        for owner in owners:
            owner.batch_windows = original
    return result, raw, ref


@contextmanager
def traced(tracer, stage):
    """Install the shims for one op (no-op without a tracer); the op's wall
    time counts as traced."""
    if tracer is None:
        yield
        return
    t0 = now()
    tracer.stage = stage
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()
        tracer.traced_wall += now() - t0


class TrainStage:
    """1-epoch replicas from the same seed model and RNG, each followed by a
    validation pass; every replica must repeat the first one bitwise."""

    def __init__(self, inp, seed, clock, tally):
        self.inp, self.seed, self.clock, self.tally = inp, seed, clock, tally
        self.windows = n_windows(inp.lib, inp.corpus.train, BATCH)
        self.train_tok = self.windows * BATCH * SEQ
        self.valid_tok = n_windows(inp.lib, inp.corpus.valid, EVAL_BATCH) * EVAL_BATCH * SEQ
        self.first = None
        self.rates, self.eval_rates = [], []   # (tok/s as read, at reference)
        self.traced_rate = None

    def once(self, tracer=None) -> None:
        lib, corpus = self.inp.lib, self.inp.corpus
        model = copy.deepcopy(self.inp.base)
        trainer = lib["synthflow"].Trainer(lib["synthflow"].OptimizerConfig())
        rng = lib["numkit"].make_rng(self.seed)
        nll, train_s, train_ref = timed(
            lib, self.clock, tracer, "train",
            lambda: trainer.epoch(model, corpus.train, BATCH, SEQ, rng))
        valid_nll, valid_s, valid_ref = timed(
            lib, self.clock, tracer, "train",
            lambda: lib["hlstm"].evaluate(model, corpus.valid, seq_len=SEQ,
                                          batch=EVAL_BATCH))
        got = (nll, valid_nll)
        self.first = self.first or got
        self.tally.record(self.windows, math.isfinite(nll) and math.isfinite(valid_nll)
                          and got == self.first,
                          f"train: (nll, valid nll) {got}, first replica {self.first}")
        if tracer:
            self.traced_rate = self.train_tok / train_s
        else:
            self.rates.append((self.train_tok / train_s, self.train_tok / train_ref))
            self.eval_rates.append((self.valid_tok / valid_s, self.valid_tok / valid_ref))


def flow_config(lib, cpu_mode, seed, corpus_path):
    sf, gp, lat = lib["synthflow"], lib["growprune"], lib["latlab"]
    return sf.FlowConfig(
        corpus_path=str(corpus_path), d_x=D_X, d_s=64, d_h=64,
        seed_sparsity=SPARSITY, cpu_mode=cpu_mode,
        growprune=gp.GrowPruneConfig(retrain_patience=1),
        baseline_epochs=1, wg_epochs=2, growth_epochs=1, rcg_epochs=1,
        batch=BATCH, seq_len=SEQ, profile_grid=(1, 64, 1),
        latency=sf.LatencyConfig(curve=lat.SyntheticCurveSpec(period=16)),
        max_prune_iters=3, seed=seed)


class FlowStage:
    """Repeated flows of one config. Every `report.csv` must equal the first
    byte for byte; in a traced run that also shows the shims are inert."""

    def __init__(self, inp, cpu_mode, seed, workdir, clock, tally):
        self.inp, self.workdir, self.clock, self.tally = inp, workdir, clock, tally
        lib = inp.lib
        text = lib["corpus"].bundled_corpus_path().read_text(encoding="utf-8")
        corpus_path = workdir / "corpus.txt"
        corpus_path.write_text(text[:int(len(text) * FLOW_CORPUS_FRAC)], encoding="utf-8")
        self.test_ids = lib["corpus"].load_corpus(corpus_path).test
        self.cfg = flow_config(lib, cpu_mode, seed, corpus_path)
        self.steps = STEPS[cpu_mode]
        self.first = None                  # (report.csv bytes, report, test ppl)
        self.times = []                    # (s as read, at reference)
        self.traced_s, self.traced_bytes = None, None

    def once(self, tracer=None) -> None:
        lib = self.inp.lib
        out_dir = Path(tempfile.mkdtemp(prefix="flow", dir=self.workdir))
        report, flow_s, flow_ref = timed(
            lib, self.clock, tracer, "flow",
            lambda: lib["synthflow"].run_flow(self.cfg, out_dir, log=quiet))
        with traced(tracer, "flow"):
            model, _ = lib["synthflow"].checkpoint_load(out_dir / "checkpoint_wp.npz")
            test_ppl = lib["hlstm"].perplexity(lib["hlstm"].evaluate(
                model, self.test_ids, seq_len=SEQ, batch=EVAL_BATCH))
        csv = (out_dir / "report.csv").read_bytes()
        steps = [r.step for r in report.rows]
        self.first = self.first or (csv, report, test_ppl)
        self.tally.record(1, report.complete and steps == self.steps
                          and report.rows[-1].valid_ppl <= report.threshold
                          and math.isfinite(test_ppl) and csv == self.first[0],
                          f"flow: complete {report.complete}, steps {steps}, final ppl "
                          f"{report.rows[-1].valid_ppl} vs threshold {report.threshold}, "
                          f"test ppl {test_ppl}, same report.csv {csv == self.first[0]}")
        if tracer:
            self.traced_s = flow_s
            self.traced_bytes = sum(f.stat().st_size for f in out_dir.rglob("*")
                                    if f.is_file())
        else:
            self.times.append((flow_s, flow_ref))


class InferStage:
    """Forward-only passes over the pruned variants, round-robin, with the
    starting d rotated each round so host drift hits every d alike."""

    def __init__(self, inp, seed, dims, clock, tally):
        self.inp, self.dims, self.clock, self.tally = inp, list(dims), clock, tally
        self.tokens = inp.lib["numkit"].make_rng(seed).integers(
            0, inp.corpus.vocab_size, size=(INFER_BATCH, SEQ))
        self.dims_ok = {d: inp.variants[d].cells[0].active_dims() == (d, d) for d in dims}
        self.ref, self.rounds = {}, 0
        self.times = {d: [] for d in dims}     # (ms as read, at reference)

    def forward(self, d) -> float:
        """One timed forward, in ms."""
        model = self.inp.variants[d]
        t0 = now()
        logits, _, _ = self.inp.lib["hlstm"].unroll_forward(model, self.tokens)
        t1 = now()
        ref = self.ref.setdefault(d, logits)
        self.tally.record(1, self.dims_ok[d] and bool(np.all(np.isfinite(logits)))
                          and np.array_equal(logits, ref),
                          f"infer d={d}: active dims match {self.dims_ok[d]}, "
                          f"logits finite and equal to the first pass")
        return (t1 - t0) * 1e3

    def one_round(self) -> None:
        scale = self.clock.scale()
        shift = self.rounds % len(self.dims)
        for d in self.dims[shift:] + self.dims[:shift]:
            ms = self.forward(d)
            self.times[d].append((ms, ms * scale))
        self.rounds += 1

    def run_for(self, seconds) -> None:
        end = now() + seconds
        while now() < end:
            self.one_round()

    def top_up(self, rounds) -> None:
        while self.rounds < rounds:
            self.one_round()

    def traced_rounds(self, tracer) -> object:
        """A few traced rounds and a real matmul sweep; returns the profile."""
        with traced(tracer, "infer"):
            for _ in range(TRACED_ROUNDS):
                for d in self.dims:
                    self.forward(d)
            return sweep_profile(self.inp)

    def check_no_backward(self) -> None:
        moved = [layer.name for m in self.inp.variants.values()
                 for layer in m.masked_layers() if layer.grad_w.any() or layer.grad_b.any()]
        self.tally.record(0, not moved, f"infer moved the gradients of {moved}")


def measure(setup_rep, train, flow, infer, seconds, deadline, tracer, min_rounds):
    """Interleave the stages: per cycle, a train replica and a flow, each
    preceded by an infer slice and two set-up repeats. A traced run makes
    two cycles, the second traced; otherwise cycles repeat while the next
    is expected to end before `deadline`. Infer rounds then fill the run up
    to `deadline` and to at least `min_rounds`."""
    slice_s = SHARE_INFER * seconds / (2 * MIN_CYCLES)
    last, cycle = 0.0, 0
    while cycle < MIN_CYCLES or (tracer is None and now() + last <= deadline):
        t0 = now()
        op_tracer = tracer if cycle == 1 else None
        for op in (train.once, flow.once):
            infer.run_for(slice_s)
            setup_rep()
            setup_rep()
            op(op_tracer)
        last = now() - t0
        cycle += 1
    infer.run_for(deadline - now())
    infer.top_up(min_rounds)
    infer.check_no_backward()


def sweep_profile(inp):
    """Real matmul sweep over the infer dims and the head's output dim."""
    lat = inp.lib["latlab"]
    grid = sorted(set(INFER_DIMS) | {inp.corpus.vocab_size})
    return lat.sweep(lat.NativeBackend(seed=0), grid, INFER_BATCH,
                     lat.SweepConfig(hardware_id="bench"))


def predicted_ms(model, d, profile) -> float:
    """The flow's virtual latency formula (one matmul per layer at its output
    dim, times the steps) with the measured profile as the curve."""
    at = dict(zip(profile.grid, profile.medians()))
    total = len(model.cells[0].layers()) * at[d] + at[model.head.out_dim]
    return total * SEQ / 1e6


# --- metrics --------------------------------------------------------------------

def e2e_metrics(setup, train, flow, infer, scaled=True) -> dict:
    """End-to-end metrics; timings at the reference host speed, or as read
    on this host with `scaled=False`."""
    def values(pairs):
        return [ref if scaled else raw for raw, ref in pairs]

    def med(pairs):
        return statistics.median(values(pairs))

    _, report, test_ppl = flow.first
    rows = {r.step: r for r in report.rows}
    m = {"setup_s": med(setup),
         "train_tok_s": med(train.rates),
         "eval_tok_s": med(train.eval_rates),
         "flow_s": med(flow.times),
         "final_valid_ppl": rows["wp"].valid_ppl,
         "final_test_ppl": test_ppl,
         "final_active_frac": rows["wp"].active_params / rows["baseline"].active_params,
         "final_latency_ns": rows["wp"].latency_median_ns}
    for name, d in E2E_DIMS.items():
        samples = values(infer.times[d])
        m[f"infer_{name}_ms_p50"] = statistics.median(samples)
        m[f"infer_{name}_ms_p90"] = p90(samples)
    return m


# Spans whose self time a layer metric reads, and spans whose inclusive
# time one reads. The self time of every other span (Trainer.epoch,
# SynthesisFlow.*, run_flow, ...) and traced wall time outside any span is
# unattributed.
SELF_TIMED = ("numkit.MaskedLinear.forward", "numkit.MaskedLinear.backward",
              "numkit.activation_forward", "numkit.activation_backward",
              "numkit.sgd_step", "numkit.sgd_update", "hlstm.cell_forward",
              "hlstm.cell_backward", "hlstm.unroll_forward", "hlstm.bptt",
              "hlstm.evaluate")
PRUNE = ("growprune.weight_prune", "growprune.coordinated_rc_prune",
         "growprune.coordinated_rc_prune_counts")
GROW = ("growprune.weight_grow", "growprune.coordinated_rc_grow_counts")
CHECKPOINT = ("synthflow.checkpoint_save", "synthflow.checkpoint_load")
INCL_TIMED = ("latlab.sweep", "growprune.export_masks") + PRUNE + GROW + CHECKPOINT


def layer_metrics(inp, tracer, clock, load_s, train, flow, infer, profile) -> dict:
    """Per-layer metrics from the traced ops; times as read on this host,
    except `hlstm.forward_ms.*`, which are at the reference host speed."""
    s = SpanSummary(tracer.spans)
    m = {"host.calib_ms": statistics.median(clock.samples_ms),
         "corpus.load_s": statistics.median(load_s), "corpus.windows": tracer.windows}
    for st in ("train", "flow", "infer"):
        m[f"{st}.numkit.linear_fwd_s"] = s.self_s(st, "numkit.MaskedLinear.forward")
        m[f"{st}.numkit.linear_fwd_calls"] = s.count(st, "numkit.MaskedLinear.forward")
        m[f"{st}.numkit.activation_s"] = s.self_s(
            st, "numkit.activation_forward", "numkit.activation_backward")
        live, executed = tracer.macs[st]
        m[f"{st}.numkit.live_mac_frac"] = live / executed
        m[f"{st}.hlstm.cell_fwd_s"] = s.self_s(st, "hlstm.cell_forward")
        m[f"{st}.hlstm.unroll_s"] = s.self_s(st, "hlstm.unroll_forward")
        if st == "infer":
            continue
        m[f"{st}.numkit.linear_bwd_s"] = s.self_s(st, "numkit.MaskedLinear.backward")
        m[f"{st}.numkit.linear_bwd_calls"] = s.count(st, "numkit.MaskedLinear.backward")
        m[f"{st}.numkit.sgd_s"] = s.self_s(st, "numkit.sgd_step", "numkit.sgd_update")
        m[f"{st}.hlstm.cell_bwd_s"] = s.self_s(st, "hlstm.cell_backward")
        m[f"{st}.hlstm.bptt_s"] = s.self_s(st, "hlstm.bptt")
        m[f"{st}.hlstm.eval_s"] = s.self_s(st, "hlstm.evaluate")

    lat = inp.lib["latlab"]
    measured, predicted = [], []
    for d in INFER_DIMS:
        measured.append(statistics.median(ref for _, ref in infer.times[d]))
        predicted.append(predicted_ms(inp.variants[d], d, profile))
        m[f"hlstm.forward_ms.d{d}"] = measured[-1]
        m[f"latlab.pred_ms.d{d}"] = predicted[-1]
    m["latlab.sweep_s"] = s.incl_s("infer", "latlab.sweep")
    m["latlab.lhp_count"] = len(lat.detect_lhps(profile).lhp_set)
    m["latlab.pred_spearman"] = lat.spearman(predicted, measured)

    m["growprune.prune_s"] = s.incl_s("flow", *PRUNE)
    m["growprune.prune_calls"] = s.count("flow", *PRUNE)
    m["growprune.grow_s"] = s.incl_s("flow", *GROW)
    m["growprune.grow_calls"] = s.count("flow", *GROW)
    m["growprune.export_masks_s"] = s.incl_s("flow", "growprune.export_masks")
    m["growprune.export_masks_calls"] = s.count("flow", "growprune.export_masks")

    phases = {"baseline": "train_baseline", "wg": "step_weight_growth",
              "rcp": "step_rc_prune", "rcg": "step_rc_grow", "wp": "step_weight_prune"}
    for tag, meth in phases.items():
        m[f"synthflow.phase_s.{tag}"] = s.incl_s("flow", f"synthflow.SynthesisFlow.{meth}")
    m["synthflow.epoch_s"] = s.incl_s("flow", "synthflow.Trainer.epoch")
    m["synthflow.epochs"] = s.count("flow", "synthflow.Trainer.epoch")
    decisions = [dec.value for st, dec in tracer.decisions if st == "flow"]
    m["synthflow.prune_iters"] = len(decisions)
    m["synthflow.prune_kept"] = decisions.count("continue")
    m["synthflow.prune_keep_ratio"] = decisions.count("continue") / len(decisions)
    m["synthflow.checkpoint_s"] = s.incl_s("flow", *CHECKPOINT)
    m["synthflow.artifact_bytes"] = flow.traced_bytes

    attributed = s.attributed_s(SELF_TIMED, INCL_TIMED)
    m["trace.unattributed_frac"] = 1 - attributed / tracer.traced_wall
    m["trace.overhead_flow_s"] = flow.traced_s - statistics.median(r for r, _ in flow.times)
    m["trace.overhead_train_tok_s"] = (statistics.median(r for r, _ in train.rates)
                                       - train.traced_rate)
    return m


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


# --- main -----------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = now() + args.seconds

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(ROOT / "src"))
    cpu_mode = WORKLOADS[args.workload]

    clock = HostClock()
    inp, total, load = build_inputs(args.seed)
    setup, load_s = [(total, total * clock.scale(CALIB_REPEATS))], [load]

    def setup_rep():
        """Time one more set-up, then restore the modules `inp` was built from."""
        saved = {n: m for n, m in sys.modules.items() if is_hwsynth(n)}
        try:
            _, total, load = build_inputs(args.seed)
        finally:
            for name in [n for n in sys.modules if is_hwsynth(n)]:
                del sys.modules[name]
            sys.modules.update(saved)
        setup.append((total, total * clock.scale(CALIB_REPEATS)))
        load_s.append(load)

    tally = Tally()
    tracer = Tracer() if args.trace else None
    dims = INFER_DIMS if args.trace else tuple(E2E_DIMS.values())
    train = TrainStage(inp, args.seed, clock, tally)
    infer = InferStage(inp, args.seed, dims, clock, tally)
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        flow = FlowStage(inp, cpu_mode, args.seed, Path(tmp), clock, tally)
        measure(setup_rep, train, flow, infer, args.seconds, deadline, tracer,
                MIN_ROUNDS[args.trace])
    raw = {}
    if args.trace:
        profile = infer.traced_rounds(tracer)
        values = layer_metrics(inp, tracer, clock, load_s, train, flow, infer, profile)
    else:
        values = e2e_metrics(setup, train, flow, infer)
        raw = e2e_metrics(setup, train, flow, infer, scaled=False)
    names = [m["name"] for m in wanted]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(names))} "
                           f"disagree with {SPEC.name}")

    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed,
                      "calib_ms": statistics.median(clock.samples_ms),
                      "calib_ref_ms": REF_MS}))
    for problem in tally.problems:
        print(f"FAILED CHECK: {problem}")
    for m in wanted:
        name = m["name"]
        as_read = f"   (as read here: {raw[name]:.6g})" if raw.get(name, values[name]) != values[name] else ""
        print(f"{name:34s} {values[name]:>16.6g} {m['unit']}{as_read}")
    print(json.dumps({
        "correct": not tally.problems, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
