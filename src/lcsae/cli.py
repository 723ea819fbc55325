"""Command-line entry point: run, resume, and reconstruct.

Exit codes: 0 success, 1 usage or config error, 2 data, checkpoint or
output-location error, 3 training error.  The output directory defaults to
the current directory and can be overridden with --outdir or the
LCSAE_OUTDIR variable.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import runner
from .checkpoint import CheckpointError
from .config import ConfigError, load_config
from .data import DataError
from .xcsf import CoveringError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRAINING = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lcsae", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train from a config file")
    p_run.add_argument("config", help="key=value config file")
    p_run.add_argument("--outdir", default=None, help="run output directory")

    p_resume = sub.add_parser("resume", help="continue a checkpointed run")
    p_resume.add_argument("ckpt", help="population checkpoint file")
    p_resume.add_argument("--trials", type=int, required=True,
                          help="additional trials to run")

    p_rec = sub.add_parser("reconstruct",
                           help="reconstruct validation samples from a checkpoint")
    p_rec.add_argument("ckpt", help="population checkpoint file")
    p_rec.add_argument("data", help="dataset file")
    group = p_rec.add_mutually_exclusive_group()
    group.add_argument("--noise", type=float, default=None, metavar="F",
                       help="salt-and-pepper corruption fraction")
    group.add_argument("--cutout", action="store_true",
                       help="zero a random rectangle in each image")
    p_rec.add_argument("--count", type=int, default=16,
                       help="validation samples to reconstruct")
    p_rec.add_argument("--outdir", default=None, help="report/image directory")
    p_rec.add_argument("--no-images", action="store_true",
                       help="write the report only, no image files")
    return parser


def _default_outdir(explicit):
    if explicit:
        return explicit
    return os.environ.get("LCSAE_OUTDIR", ".")


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    out_dir = _default_outdir(args.outdir)
    metrics_path = runner.run_experiment(cfg, out_dir)
    print(f"run complete: {cfg.trials} trials, metrics in {metrics_path}")
    return EXIT_OK


def _cmd_resume(args) -> int:
    if args.trials < 0:
        raise _UsageError("--trials must be >= 0")
    metrics_path = runner.resume_experiment(args.ckpt, args.trials)
    print(f"resume complete: +{args.trials} trials, metrics in {metrics_path}")
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    if args.count < 1:
        raise _UsageError("--count must be >= 1")
    if args.noise is not None:
        if not 0.0 <= args.noise <= 1.0:
            raise _UsageError("--noise must be in [0, 1]")
        corruption, fraction = "salt_pepper", args.noise
    elif args.cutout:
        corruption, fraction = "cutout", 0.0
    else:
        corruption, fraction = "none", 0.0
    out_dir = _default_outdir(args.outdir)
    result = runner.reconstruct(args.ckpt, args.data, corruption=corruption,
                                noise_fraction=fraction, count=args.count,
                                out_dir=out_dir,
                                export_images=not args.no_images)
    print(f"reconstructed {result.count} validation samples "
          f"(corruption={result.corruption})")
    print(f"mean reconstruction MSE vs clean: {result.mean_recon_mse:.6f}")
    print(f"mean corrupted-input MSE vs clean: {result.mean_corrupt_mse:.6f}")
    if result.image_files:
        print(f"wrote {len(result.image_files)} images to {out_dir}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "resume":
            return _cmd_resume(args)
        return _cmd_reconstruct(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, CheckpointError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        # the readers raise the errors above, so this is an output that
        # cannot be written, such as an --outdir below a file
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (CoveringError, runner.TrainingError) as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except MemoryError as exc:
        print(f"training error: out of memory: {exc}", file=sys.stderr)
        return EXIT_TRAINING


if __name__ == "__main__":
    sys.exit(main())
