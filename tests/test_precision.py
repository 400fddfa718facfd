"""Models run in float32 by default, and every array a pass makes follows
the model's dtype: no float64 constant or buffer may promote a float32 pass
(which would leave its results float32-valued but run it at float64 speed,
or store float64 arrays). Float32 passes agree with their float64 oracle to
a tolerance derived from float32's machine epsilon."""

import math

import numpy as np
import pytest

from hwsynth import growprune, hlstm
from hwsynth.corpus import bundled_corpus_path, load_corpus
from hwsynth.hlstm import LMModel, bptt, evaluate, freeze, unroll_forward
from hwsynth.numkit import ARRAYS, DTYPE, make_rng
from hwsynth.synthflow import FlowConfig, OptimizerConfig, Trainer, make_seed
from oracles import rel_max_diff, with_dtype

F32 = np.dtype(np.float32)


def model_arrays(model):
    """(name, array) of every array a model owns."""
    yield "embedding", model.embedding
    yield "embedding_grad", model.embedding_grad
    for layer in model.masked_layers():
        for attr in ARRAYS:
            yield f"{layer.name}.{attr}", getattr(layer, attr)


def test_new_models_are_float32():
    assert DTYPE is np.float32
    cfg = FlowConfig(d_x=4, d_s=6, d_h=6)
    for model in (LMModel.create(5, 4, 6, 6, make_rng(0)), make_seed(cfg, 5, make_rng(0))):
        assert {a.dtype for _, a in model_arrays(model)} == {F32}


def test_dtype_changes_no_draw():
    """A model's draws do not depend on its dtype: a float32 model is its
    float64 twin, rounded."""
    m32 = LMModel.create(7, 3, 5, 4, make_rng(1))
    m64 = LMModel.create(7, 3, 5, 4, make_rng(1), dtype=np.float64)
    for (name, a32), (_, a64) in zip(model_arrays(m32), model_arrays(m64)):
        assert a64.dtype == np.float64 and np.array_equal(a32, a64.astype(np.float32)), name


class TestNoFloat64Leak:
    """Every operation of the flow on a float32 model leaves every array of
    the model, of each pass's layout, recording and backward buffers, of
    the collected gradients and of the frozen model float32."""

    @pytest.fixture
    def watched(self, monkeypatch):
        """Arrays the passes made, by where they were seen."""
        seen = []
        cell_forward, flush = hlstm.cell_forward, hlstm.Backward.flush

        def watch_forward(operands, table, ids, init, hs, record=True):
            state, rec = cell_forward(operands, table, ids, init, hs, record)
            seen.extend([("table", table), *(("operand", o) for o in operands),
                         ("init.h", init.h), ("init.c", init.c), ("state.h", state.h),
                         ("state.c", state.c), *((f"recording.{k}", getattr(rec, k))
                                                 for k in ("hs", "act", "gates", "c",
                                                           "tanh_c"))])
            return state, rec

        def watch_flush(bwd, cell):
            # a GradHelper's arrays are also those its process sums into and reads
            owners = ["backward"] + ["helper"] * isinstance(bwd, hlstm.GradHelper)
            seen.extend((f"{owner}.{k}", v) for owner in owners for k, v in vars(bwd).items()
                        if isinstance(v, np.ndarray))
            return flush(bwd, cell)

        monkeypatch.setattr(hlstm, "cell_forward", watch_forward)
        monkeypatch.setattr(hlstm.Backward, "flush", watch_flush)
        return seen

    @staticmethod
    def assert_float32(named):
        leaks = [(name, a.dtype) for name, a in named if a.dtype != F32]
        assert not leaks

    def test_no_module_level_float64_constant(self):
        """A pass's constants are Python scalars or arrays made in its dtype: a
        float64 array held by the module is cast on every call that applies it."""
        assert not [name for name, value in vars(hlstm).items()
                    if isinstance(value, np.ndarray) and value.dtype == np.float64]

    def test_every_flow_operation(self, watched):
        """At this size bptt sums its weight gradients in-process."""
        self.flow_operations(watched)
        names = {name for name, _ in watched}
        assert {"backward.grad_h", "backward.grad_o", "backward.step_h",
                "backward.step_o"} <= names
        assert not any(name.startswith("helper.") for name in names)

    def test_every_flow_operation_with_helper(self, watched, monkeypatch):
        """Every epoch forks its weight-gradient helper, however small the
        model: the arrays it reads and sums into are watched instead."""
        monkeypatch.setattr(hlstm.GradHelper, "MIN_WORK", 0)
        monkeypatch.setattr(hlstm, "usable_cores", lambda: 2)
        self.flow_operations(watched)
        names = {name for name, _ in watched}
        assert {"helper.grad_h", "helper.grad_o", "helper.act", "helper.hs",
                "helper.d_gates", "helper.d_xw"} <= names

    def flow_operations(self, watched):
        """Runs each operation of the flow on a small float32 model and checks
        that every array it made or watched is float32."""
        cfg = FlowConfig(d_x=4, d_s=12, d_h=12)
        corpus = load_corpus(bundled_corpus_path())
        ids = corpus.train[:3000]
        model = make_seed(cfg, corpus.vocab_size, make_rng(0))
        trainer = Trainer(OptimizerConfig())

        # growth epoch, then an epoch of the rc-pruned model
        sink = []
        trainer.epoch(model, ids, 8, 16, grad_sink=sink)
        assert len(sink) == len(model.masked_layers())
        self.assert_float32((f"grad_sink {k}", g) for k, g in enumerate(sink))
        for layer, grad in zip(model.masked_layers(), sink):
            growprune.weight_grow(layer, grad, 0.1, trainer.lr)
        growprune.coordinated_rc_prune_counts(model.cell, model.head, 3, 3)
        trainer.epoch(model, ids, 8, 16)
        assert (model.cell.d_s, model.cell.d_h) == (9, 9)
        self.assert_float32(model_arrays(model))

        # rcg's unit growth, then wp's prune and sweep
        growprune.coordinated_rc_grow_counts(model.cell, model.head, 2, 2)
        self.assert_float32(model_arrays(model))
        for layer in model.masked_layers():
            growprune.weight_prune(layer, 0.5)
        growprune.sweep(model.cell, model.head)
        self.assert_float32(model_arrays(model))

        frozen = freeze(model)
        logits, state = frozen.forward(corpus.valid[:64].reshape(4, 16))
        self.assert_float32([("frozen.table", frozen.table),
                             *(("frozen.operand", o) for o in frozen.operands),
                             *((f"frozen.head.{k}", v) for k, v in vars(frozen.head).items()
                               if isinstance(v, np.ndarray)),
                             ("logits", logits), ("state.h", state.h), ("state.c", state.c)])
        assert math.isfinite(evaluate(model, corpus.valid[:1000], seq_len=16, batch=4))
        assert {name.split(".")[0] for name, _ in watched} >= {
            "table", "operand", "recording", "backward", "init", "state"}
        self.assert_float32(watched)


class TestFloat32AgreesWithFloat64:
    """One float32 model and its float64 copy (the same weights, exactly)
    give the same forward logits, bptt gradients and epoch NLL up to
    float32 rounding.

    The tolerance: float32 rounds each operation to within u = eps / 2
    (eps = np.finfo(np.float32).eps, 1.19e-7) relative. An entry that sums
    K rounded terms is off by at most about K u in the worst case and by
    about sqrt(K) u when the roundings are independent (Higham and Mary,
    "A new approach to probabilistic rounding error analysis", SIAM J. Sci.
    Comput. 2019). The longest chain here feeds a weight-gradient entry: a
    sum over the B T steps of terms that each sum d_x + d_s + d_h products,
    so K = B T (d_x + d_s + d_h), and TOL = sqrt(K) u. At B = 32, T = 64,
    d_x = 32 and d_s = d_h = 128 that is 384 eps = 4.6e-5; the float64
    oracle's own rounding, about 2^-29 times smaller, does not count. Every
    comparison is normwise (`rel_max_diff`), or relative for one NLL. A pass
    that lost precision below float32 (float16's u is 4.9e-4) fails it."""

    B, T, D_X, D = 32, 64, 32, 128
    TOL = math.sqrt(B * T * (D_X + 2 * D)) * np.finfo(np.float32).eps / 2

    @pytest.fixture(scope="class")
    def pair(self):
        """The bench's seed model (50 % sparse, d = 128) and its float64
        copy, with a window of tokens and targets."""
        cfg = FlowConfig(d_x=self.D_X, d_s=self.D, d_h=self.D)
        corpus = load_corpus(bundled_corpus_path())
        m32 = make_seed(cfg, corpus.vocab_size, make_rng(0))
        rng = make_rng(1)
        tokens, targets = (rng.integers(0, corpus.vocab_size, size=(self.B, self.T))
                           for _ in range(2))
        return m32, with_dtype(m32, np.float64), tokens, targets, corpus

    def test_forward_logits(self, pair):
        m32, m64, tokens, _, _ = pair
        (l32, _, s32), (l64, _, s64) = unroll_forward(m32, tokens), unroll_forward(m64, tokens)
        assert l32.dtype == F32 and l64.dtype == np.float64
        assert rel_max_diff(l32, l64) <= self.TOL
        assert rel_max_diff(s32.c, s64.c) <= self.TOL

    def test_bptt_gradients(self, pair):
        m32, m64, tokens, targets, _ = pair
        m32, m64 = with_dtype(m32, np.float32), with_dtype(m64, np.float64)
        nll = []
        for model in (m32, m64):
            logits, rec, _ = unroll_forward(model, tokens, train=True)
            nll.append(bptt(model, logits, rec, tokens, targets, grad_scale=1.0 / tokens.size))
        assert abs(nll[0] - nll[1]) <= self.TOL * nll[1]
        for (name, g32), (_, g64) in zip(model_arrays(m32), model_arrays(m64)):
            if "grad" in name and g64.any():
                assert rel_max_diff(g32, g64) <= self.TOL, name

    def test_epoch_nll(self, pair):
        m32, m64, _, _, corpus = pair
        m32, m64 = with_dtype(m32, np.float32), with_dtype(m64, np.float64)
        ids = corpus.train[:20000]
        n32, n64 = (Trainer(OptimizerConfig()).epoch(m, ids, self.B, self.T)
                    for m in (m32, m64))
        assert abs(n32 - n64) <= self.TOL * n64
        v32, v64 = (evaluate(m, corpus.valid, seq_len=self.T, batch=4) for m in (m32, m64))
        assert abs(v32 - v64) <= self.TOL * v64
