"""Command-line entry points.

Subcommands: train, eval, infer, analyze-conflicts, inspect. Exit codes:
0 success, 1 usage problem, 2 data or configuration problem, 3 numeric
failure. All files a run produces land in one output directory, chosen
by the --output-dir flag, the NORMINFER_OUTPUT_DIR environment variable,
or the config file, in that precedence order.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Sequence

from .base import (
    CheckpointError,
    ConfigError,
    ContractError,
    IngestError,
    NotFittedError,
    NumericError,
)
from .conflicts import analyze_conflicts, format_report, write_report_csv, write_report_text
from .estimator import NliClassifier
from .model import ModelConfig, count_parameters, parameter_shapes
from .persistence import (
    RunConfig,
    load_checkpoint,
    load_config,
    save_checkpoint,
    save_config,
    serialize_config,
)
from .text import (
    CLASSES, Vocabulary, bundled_conflicts_path, check_min_count, load_norm_conflicts, load_snli,
)
from .training import probabilities

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
# the errors a run reports with EXIT_DATA
DATA_ERRORS = (IngestError, ConfigError, CheckpointError, ContractError, NotFittedError)

OUTPUT_DIR_ENV = "NORMINFER_OUTPUT_DIR"

CHECKPOINT_FILE = "checkpoint.bin"
VOCAB_FILE = "vocab.txt"
TRAINLOG_FILE = "trainlog.tsv"
RUNCONFIG_FILE = "run.cfg"
REPORT_CSV_FILE = "conflict_report.csv"
REPORT_TEXT_FILE = "conflict_report.txt"

log = logging.getLogger(__name__)


def _resolve_output_dir(cfg_value: str, flag_value: str | None) -> Path:
    if flag_value:
        return Path(flag_value)
    env_value = os.environ.get(OUTPUT_DIR_ENV)
    if env_value:
        return Path(env_value)
    return Path(cfg_value)


@contextlib.contextmanager
def _output_dir(path: Path):
    """Make ``path`` with any parents for the body of the block. If the
    body raises an error that exits with EXIT_DATA, the directories made
    here go again, deepest first, as long as they are empty."""
    made = [p for p in (path, *path.parents) if not p.exists()]
    try:
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
        yield path
    except DATA_ERRORS:
        with contextlib.suppress(OSError):  # stops at the first one not empty
            for p in made:
                p.rmdir()
        raise


def _require_file(path_value: str | None, key: str) -> Path:
    if not path_value:
        raise ConfigError(f"missing required key {key!r}")
    path = Path(path_value)
    if not path.is_file():
        raise IngestError(f"{key} {path} does not exist")
    return path


def _load_examples(path: Path, key: str) -> list:
    """The labeled examples of the file ``key`` names; IngestError if none
    is usable."""
    examples = load_snli(path)
    if not examples:
        raise IngestError(f"{key} {path} holds no usable examples")
    return examples


def _load_classifier(checkpoint: str, vocab: str) -> NliClassifier:
    ckpt = load_checkpoint(_require_file(checkpoint, "checkpoint"))
    vocabulary = Vocabulary.load(_require_file(vocab, "vocab"))
    stored_hash = ckpt.meta.get("vocab_sha256")
    if stored_hash and stored_hash != vocabulary.content_hash():
        raise CheckpointError(
            "vocabulary file does not match the one the checkpoint was trained with"
        )
    return NliClassifier.from_artifacts(ckpt.params, vocabulary)


def _classifier_for(cfg: RunConfig) -> NliClassifier:
    """The estimator that trains the model ``cfg`` describes. A model key
    the estimator takes no argument for (bar vocab_words, which the built
    vocabulary replaces) must keep the value the estimator builds with."""
    clf = NliClassifier()
    params = clf.get_params()
    for f in fields(ModelConfig):
        value = getattr(cfg, f.name)
        if f.name not in params and f.name != "vocab_words" and value != f.default:
            raise ConfigError(
                f"key {f.name!r} = {value!r} is not supported: train builds "
                f"the model with {f.name} = {f.default!r}"
            )
    return clf.set_params(**{name: getattr(cfg, name) for name in params if hasattr(cfg, name)})


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    clf = _classifier_for(cfg)
    # every model, optimizer and vocabulary key is checked before any file is
    # read or made; the built vocabulary replaces vocab_words, so any valid one does
    cfg.train_config()
    cfg.model_config(vocab_words=3)
    check_min_count(cfg.min_count)
    out_dir = _resolve_output_dir(cfg.output_dir, args.output_dir)
    train_path = _require_file(cfg.train_path, "train_path")
    val_path = cfg.validation_path and _require_file(cfg.validation_path, "validation_path")

    with _output_dir(out_dir):
        train_examples = _load_examples(train_path, "train_path")
        val_examples = _load_examples(val_path, "validation_path") if val_path else None
        clf.fit(train_examples, val_examples)

    clf.vocabulary_.save(out_dir / VOCAB_FILE)
    # before any epoch the best accuracy is -inf, which JSON cannot hold
    best = float(clf.train_log_.best_val_accuracy)
    meta = {
        "best_epoch": clf.train_log_.best_epoch,
        "val_accuracy": best if math.isfinite(best) else None,
        "vocab_sha256": clf.vocabulary_.content_hash(),
    }
    save_checkpoint(clf.params_, meta, out_dir / CHECKPOINT_FILE)
    clf.train_log_.to_tsv(out_dir / TRAINLOG_FILE)
    save_config(replace(cfg, vocab_words=len(clf.vocabulary_)), out_dir / RUNCONFIG_FILE)

    print(f"trained {len(clf.train_log_.epochs)} epochs ({clf.train_log_.total_steps} steps)")
    print(f"best epoch {clf.train_log_.best_epoch} val accuracy "
          + (f"{best:.4f}" if math.isfinite(best) else "none"))
    if clf.train_log_.stopped_early:
        print("stopped early")
    for name in (CHECKPOINT_FILE, VOCAB_FILE, TRAINLOG_FILE, RUNCONFIG_FILE):
        print(f"wrote {out_dir / name}")
    if clf.train_log_.aborted:
        print("training aborted on a non-finite value; the checkpoint holds the best "
              "epoch's weights, or the last finite step's if no epoch ended", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    clf = _load_classifier(args.checkpoint, args.vocab)
    examples = _load_examples(_require_file(args.data, "data"), "data")
    accuracy = clf.score(examples)
    print(f"accuracy {accuracy:.4f} on {len(examples)} pairs")
    return EXIT_OK


def _cmd_infer(args: argparse.Namespace) -> int:
    clf = _load_classifier(args.checkpoint, args.vocab)
    [encoded] = clf.encoder_.transform([(args.premise, args.hypothesis)])
    probs = probabilities(clf.params_, [encoded])[0]
    for name, value in zip(CLASSES, probs):
        print(f"{name} {value:.6f}")
    print(f"predicted {CLASSES[int(probs.argmax())]}")
    if encoded.truncated:
        print("note: input was truncated to the model's maximum length",
              file=sys.stderr)
    return EXIT_OK


def _cmd_analyze_conflicts(args: argparse.Namespace) -> int:
    with _output_dir(_resolve_output_dir("out", args.output_dir)) as out_dir:
        clf = _load_classifier(args.checkpoint, args.vocab)
        if args.conflicts:
            conflicts_path = _require_file(args.conflicts, "conflicts")
        else:
            conflicts_path = bundled_conflicts_path()
        report = analyze_conflicts(clf, load_norm_conflicts(conflicts_path))

    write_report_csv(report, out_dir / REPORT_CSV_FILE)
    write_report_text(report, out_dir / REPORT_TEXT_FILE)
    print(format_report(report), end="")
    print(f"wrote {out_dir / REPORT_CSV_FILE}")
    print(f"wrote {out_dir / REPORT_TEXT_FILE}")
    return EXIT_OK


def _cmd_inspect(args: argparse.Namespace) -> int:
    cfg = load_config(args.config) if args.config else RunConfig()
    model_config = cfg.model_config()
    analytic = count_parameters(model_config)
    enumerated = sum(
        math.prod(spec.shape) for spec in parameter_shapes(model_config).values()
    )
    if analytic != enumerated:
        raise ContractError(
            f"parameter accounting disagrees: analytic {analytic}, "
            f"enumerated {enumerated}"
        )
    print(f"parameters = {analytic}")
    print(serialize_config(cfg), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="norminfer",
        description="Train and apply a sentence-pair inference model, "
                    "including contract norm conflict analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a model from a config file")
    train.add_argument("--config", required=True, help="run config file")
    train.add_argument("--output-dir", help="directory for run artifacts")
    train.set_defaults(func=_cmd_train)

    evaluate = sub.add_parser("eval", help="accuracy on a labeled dataset")
    evaluate.add_argument("--checkpoint", required=True)
    evaluate.add_argument("--vocab", required=True)
    evaluate.add_argument("--data", required=True, help="JSON-lines dataset")
    evaluate.set_defaults(func=_cmd_eval)

    infer = sub.add_parser("infer", help="score one premise/hypothesis pair")
    infer.add_argument("--checkpoint", required=True)
    infer.add_argument("--vocab", required=True)
    infer.add_argument("--premise", required=True)
    infer.add_argument("--hypothesis", required=True)
    infer.set_defaults(func=_cmd_infer)

    analyze = sub.add_parser(
        "analyze-conflicts", help="bidirectional report over norm pairs"
    )
    analyze.add_argument("--checkpoint", required=True)
    analyze.add_argument("--vocab", required=True)
    analyze.add_argument("--conflicts", help="norm pair file; bundled set if omitted")
    analyze.add_argument("--output-dir", help="directory for report files")
    analyze.set_defaults(func=_cmd_analyze_conflicts)

    inspect = sub.add_parser("inspect", help="parameter count and config echo")
    inspect.add_argument("--config", help="run config file; defaults if omitted")
    inspect.set_defaults(func=_cmd_inspect)

    return parser


def run_cli(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(message)s"
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run_cli())
