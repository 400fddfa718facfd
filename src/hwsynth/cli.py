"""Command-line entry point.

Commands: profile (latency sweep), analyze (hysteresis report + plot),
synthesize (run the four-step flow), eval (perplexity of a checkpoint),
report (print a flow's report table), bench (forward latency of the
checkpoint's model, whose d_s/d_h it prints as compact_d_s/_d_h).

Exit codes: 0 success, 1 runtime failure, 2 usage, config or profile-file error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import latlab, synthflow
from .corpus import batch_windows, bundled_corpus_path, load_corpus
from .hlstm import evaluate, perplexity
from .numkit import ContractViolation, write_atomic


class UsageError(ValueError):
    pass


def _parse_grid(spec: str) -> list[int]:
    try:
        return latlab.dim_grid(tuple(int(p) for p in spec.split(":")))
    except (ValueError, ContractViolation) as exc:
        raise UsageError(f"grid must be 'lo:hi:step', got {spec!r}: {exc}") from None


def cmd_profile(args) -> int:
    if args.batch < 1 or args.warmup < 0:
        raise UsageError(f"need --batch >= 1 and --warmup >= 0, got {args.batch}, {args.warmup}")
    grid = _parse_grid(args.grid)
    backend = latlab.make_backend(args.backend, seed=args.seed)
    cfg = latlab.SweepConfig(warmup_runs=args.warmup, measured_runs=args.runs,
                             hardware_id=os.uname().nodename)
    profile = latlab.sweep(backend, grid, args.batch, cfg)
    latlab.save_profile(profile, args.out)
    print(f"wrote {len(grid)}-point profile to {args.out}")
    return 0


def cmd_analyze(args) -> int:
    profile = latlab.load_profile(args.profile)
    hmap = latlab.detect_lhps(profile)
    latlab.save_hysteresis_report(hmap, args.out)
    if args.svg:
        svg = latlab.profile_svg(hmap).encode("utf-8")
        write_atomic(args.svg, lambda fh: fh.write(svg))
    print(f"{len(hmap.lhp_set)} LHPs over {len(profile.grid)} grid points; "
          f"redundancy {hmap.redundancy * 100:.1f}%")
    return 0


def cmd_synthesize(args) -> int:
    cfg = synthflow.FlowConfig.from_json(args.config)
    if args.cpu_mode:
        cfg.cpu_mode = True
    if args.profile:
        cfg.profile_path = args.profile
    elif not args.sweep and not cfg.cpu_mode and cfg.profile_path is None \
            and cfg.latency.mode == "real":
        raise UsageError("default mode needs --profile or --sweep "
                         "(or a virtual-clock latency config)")
    report = synthflow.run_flow(cfg, args.out)
    status = "complete" if report.complete else "INCOMPLETE"
    print(f"flow {status}; report written to {args.out}/report.csv")
    return 0 if report.complete else 1


def cmd_eval(args) -> int:
    model, meta = synthflow.checkpoint_load(args.checkpoint)
    path = bundled_corpus_path() if args.corpus == "bundled" else args.corpus
    defaults = synthflow.FlowConfig   # for checkpoints older than the split meta
    corpus = load_corpus(path, meta.get("train_frac", defaults.train_frac),
                         meta.get("valid_frac", defaults.valid_frac))
    if corpus.vocab_size != model.vocab_size:
        raise UsageError(f"corpus vocabulary {corpus.vocab_size} != model "
                         f"vocabulary {model.vocab_size}")
    seq_len, batch = meta.get("seq_len", defaults.seq_len), synthflow.VALID_BATCH
    valid_ppl = perplexity(evaluate(model, corpus.valid, seq_len=seq_len, batch=batch))
    test_ppl = (repr(perplexity(evaluate(model, corpus.test, seq_len=seq_len, batch=batch)))
                if next(batch_windows(corpus.test, batch, seq_len), None) is not None
                else "none")   # a test split shorter than one window
    print(f"phase={meta.get('phase', '?')} valid_perplexity={valid_ppl!r} "
          f"test_perplexity={test_ppl}")
    return 0


def cmd_report(args) -> int:
    path = Path(args.flow) / "report.json"
    if not path.exists():
        raise UsageError(f"no report.json under {args.flow}")
    data = json.loads(path.read_text(encoding="utf-8"))
    if not data.get("complete", False):
        print("WARNING: partial report (flow did not complete)")
    cols = synthflow.FlowReport.CSV_HEADER
    print("  ".join(cols))
    for row in data["rows"]:
        print("  ".join(str(row[c]) if not isinstance(row[c], float)
                        else f"{row[c]:.4g}" for c in cols))
    return 0


def cmd_bench(args) -> int:
    if args.batch < 1 or args.reps < 5:
        raise UsageError(f"need --batch >= 1 and --reps >= 5, got {args.batch}, {args.reps}")
    model, meta = synthflow.checkpoint_load(args.checkpoint)
    lat_cfg = synthflow.LatencyConfig(
        mode="virtual" if args.virtual else "real",
        measure_batch=args.batch, runs=args.reps)
    # the flow's curve; a checkpoint written before the meta kept it gets the default
    curve = meta.get("latency_curve")
    if args.virtual and curve is not None:
        try:
            lat_cfg.curve = latlab.SyntheticCurveSpec(**curve)
        except (TypeError, ContractViolation) as exc:
            raise synthflow.CheckpointError(f"checkpoint {args.checkpoint}: its meta's "
                                            f"latency_curve {curve!r}: {exc}") from None
    stats = synthflow.measure_model_latency(model, lat_cfg)
    print(f"median_ns={stats.median_ns!r} p95_ns={stats.p95_ns!r} "
          f"mean_ns={stats.mean_ns!r} runs={stats.runs} "
          f"compact_d_s={model.cell.d_s} compact_d_h={model.cell.d_h}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwsynth",
        description="Hardware-guided grow-and-prune H-LSTM synthesis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="sweep matmul latency over a dimension grid")
    p.add_argument("--grid", required=True, help="lo:hi:step (inclusive)")
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--runs", type=int, default=50)
    p.add_argument("--warmup", type=int, default=10)
    p.add_argument("--backend", default="native",
                   help="'native' or 'synthetic:<specfile.json>'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("analyze", help="LHP detection and redundancy report")
    p.add_argument("--profile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("synthesize", help="run the four-step synthesis flow")
    p.add_argument("--config", required=True)
    p.add_argument("--profile", default=None, help="pre-measured profile CSV")
    p.add_argument("--sweep", action="store_true",
                   help="sweep the host instead of loading a profile")
    p.add_argument("--cpu-mode", action="store_true",
                   help="skip dimension reduction (rcp/rcg)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("eval", help="validation and test perplexity of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", default="bundled")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="print a flow directory's report table")
    p.add_argument("--flow", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("bench", help="model forward latency from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--reps", type=int, default=9, help="timed forwards, at least 5")
    p.add_argument("--virtual", action="store_true")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, synthflow.ConfigError, latlab.ProfileParseError,
            ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
