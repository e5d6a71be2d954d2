"""Experiment runner and results comparator.

`stta run` executes a grid of (mode, adaptation-rate, seed) cells over a
configured synthetic stream, one engine per cell, one cell at a time on
the calling thread, so the recorded batch latencies are not shared with
other cells. Results land as one JSON-Lines record per cell-seed plus a CSV
summary; every field except the `timing` subtree is deterministic for a
fixed config, so repeated runs are byte-identical once timing fields are
stripped. `stta compare` joins two result files and reports accuracy
deltas and latency ratios.

Exit codes: 0 ok, 1 usage/config error, 2 threshold check failed,
3 runtime failure (partial results are still flushed).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import inspect
import json
import math
import os
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import yaml

from .datagen import Corruption, StreamSpec, _preset, default_domain, make_stream, sample_source
from .engine import Engine, EngineConfig, RunMetrics, _as_rate
from .model import Model, checked_int, checked_number, default_model, is_real, load_model, pretrain
from .model import required, save_model

RESULT_SCHEMA = 1
OUT_DIR_ENV = "STTA_OUT_DIR"

# Engine settings implied by each mode; "ar" pins the rate for the
# no-adaptation baselines. `engine_config_for` also sets tent-equivalent's
# capacity to the batch size.
MODE_PRESETS: dict[str, dict] = {
    "snap": {"selection_mode": "cndrm", "inference_stats_mode": "iobmn"},
    "naive": {"selection_mode": "naive", "inference_stats_mode": "batch"},
    "random": {"selection_mode": "random", "inference_stats_mode": "batch"},
    "low_entropy": {"selection_mode": "low_entropy", "inference_stats_mode": "batch"},
    "crm": {"selection_mode": "crm", "inference_stats_mode": "batch"},
    "ema": {"selection_mode": "cndrm", "inference_stats_mode": "ema"},
    "tent-equivalent": {"selection_mode": "naive", "inference_stats_mode": "batch",
                        "tau_conf": 0.0},
    "source-only": {"inference_stats_mode": "frozen", "ar": "0"},
    "bn-stats": {"inference_stats_mode": "batch", "ar": "0"},
}
MODES = tuple(MODE_PRESETS)

# The real-valued engine settings, each an `EngineConfig` field of the same name.
ENGINE_REALS = ("tau_conf", "tau_delta", "alpha", "beta_centroid", "ema_momentum", "lr")

DEFAULT_CONFIG = {
    "out_dir": None,
    "stream": {
        "batch_size": 16,
        "correlated": False,
        "segments": [{"domain": {}, "corruption": "scale_strong", "batches": 100}],
    },
    "pretrain": {
        "samples": 600,
        "epochs": 60,
        "lr": 0.05,
        "batch_size": 32,
        "blocks": 3,
    },
    "engine": {key: getattr(EngineConfig, key) for key in (*ENGINE_REALS, "capacity")},
    "grid": {
        "modes": ["snap"],
        "ar": ["0.1"],
        "seeds": [0],
    },
    "thresholds": {},
}

# The keys of a segment's `domain` mapping: `default_domain`'s parameters but its corruption.
DOMAIN_DEFAULTS = {name: p.default for name, p in inspect.signature(default_domain).parameters.items()
                   if name != "corruption"}


class ConfigError(ValueError):
    pass


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(base[key], dict) and key != "thresholds":
            out[key] = _merge(base[key], _mapping(value, where, base[key]), where)
        else:
            out[key] = value
    return out


@contextlib.contextmanager
def _file_errors(path: str):
    """Report a file that cannot be opened or made, or is not UTF-8 text, as a ConfigError naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_config(path: str | None) -> dict:
    if path is None:
        return json.loads(json.dumps(DEFAULT_CONFIG))
    try:
        with _file_errors(path), open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:  # yaml errors carry line/column marks
        raise ConfigError(f"{path}: {exc}")
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return _merge(DEFAULT_CONFIG, raw)


def _mapping(value, at: str, keys) -> dict:
    """`value` if it is a mapping whose keys are all in `keys`; ConfigError naming `at` otherwise."""
    if not isinstance(value, dict):
        raise ConfigError(f"{at} must be a mapping, got {value!r}")
    for key in value:
        if key not in keys:
            raise ConfigError(f"unknown config key: {at}.{key}")
    return value


def _under(prefix: str, make, *args, **kwargs):
    """`make(*args, **kwargs)`, with a ValueError from its checks reported as a ConfigError after `prefix`."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _corruption(value, segment: str) -> Corruption:
    if isinstance(value, str):
        return _under(f"{segment}.", _preset, value)
    at = f"{segment}.corruption"
    if not isinstance(value, dict):
        raise ConfigError(f"{at} must be a preset name or a mapping, got {value!r}")
    return _under(f"{at}.", Corruption, **_mapping(value, at, Corruption.__dataclass_fields__))


def stream_spec_from_config(cfg: dict, seed: int = 0) -> StreamSpec:
    """The stream section as the StreamSpec for `seed`; ValueError naming the YAML path of a bad value."""
    stream_cfg = cfg["stream"]
    if not isinstance(stream_cfg["segments"], list):
        raise ConfigError(f"stream.segments must be a list, got {stream_cfg['segments']!r}")
    segments = []
    for i, entry in enumerate(stream_cfg["segments"]):
        at = f"stream.segments[{i}]"
        _mapping(entry, at, ("domain", "corruption", "batches"))
        corruption = _corruption(entry.get("corruption", "none"), at)
        domain = entry.get("domain")
        domain = _mapping({} if domain is None else domain, f"{at}.domain", DOMAIN_DEFAULTS)
        segments.append((_under(f"{at}.domain.", default_domain, **domain, corruption=corruption),
                         required(entry, "batches", at)))
    return _under("stream.", StreamSpec, tuple(segments), stream_cfg["batch_size"], seed, stream_cfg["correlated"])


def _real(value, where: str) -> float:
    """A real-valued setting as a float; a numeric string counts, as YAML reads `1e-3` as one."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"{where} must be a number, got {value!r}")


# ---------------------------------------------------------------------------
# grid construction and execution


def cell_key(mode: str, ar: Fraction) -> str:
    return f"{mode}@{ar}"


def grid_cells(grid: dict) -> tuple[list[tuple[str, Fraction]], list[int]]:
    """The distinct (mode, rate) cells of grid.modes x grid.ar in config order, and grid.seeds:
    lists of known modes, rates in [0, 1] and distinct integers >= 0 that give at least one cell."""
    for key in ("modes", "ar", "seeds"):
        if not isinstance(grid[key], list):
            raise ConfigError(f"grid.{key} must be a list, got {grid[key]!r}")
    rates = [_under(f"grid.ar[{i}]: ", _as_rate, ar) for i, ar in enumerate(grid["ar"])]
    seeds = [checked_int(seed, f"grid.seeds[{i}]") for i, seed in enumerate(grid["seeds"])]
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise ConfigError(f"grid.seeds[{i}]: seed {seed} is already in the grid")
    cells = []
    for i, mode in enumerate(grid["modes"]):
        if mode not in MODES:
            raise ConfigError(f"grid.modes[{i}]: unknown mode {mode!r} (have {', '.join(MODES)})")
        pinned = MODE_PRESETS[mode].get("ar")  # no-adaptation baselines: one cell
        cells.extend([(mode, _as_rate(pinned))] if pinned is not None else [(mode, ar) for ar in rates])
    cells = list(dict.fromkeys(cells))
    if not cells or not seeds:
        raise ConfigError("grid: grid.modes, grid.ar and grid.seeds give no cell to run")
    return cells, seeds


def engine_config_for(mode: str, ar: Fraction, engine_cfg: dict, seed: int,
                      batch_size: int) -> EngineConfig:
    settings = {**{key: _real(engine_cfg[key], key) for key in ENGINE_REALS}, **MODE_PRESETS[mode], "ar": ar}
    capacity = batch_size if mode == "tent-equivalent" else engine_cfg["capacity"]
    return EngineConfig(capacity=capacity, seed=seed, **settings)


# Seed-derivation offsets keep the stream, the source data, the weight init
# and the shuffling order decorrelated while staying reproducible.
DATA_SEED_OFFSET = 10_000
MODEL_SEED_OFFSET = 20_000
TRAIN_SEED_OFFSET = 30_000


def prepare_model(cfg: dict, seed: int, checkpoint: str | None) -> Model:
    """The source model for `seed`: pretrained on the stream's first domain, or loaded from
    `checkpoint`, which must take the stream's channels and classes (ValueError if not)."""
    domain = stream_spec_from_config(cfg).segments[0][0]
    if checkpoint is not None:
        with _file_errors(checkpoint):
            model = _under(f"{checkpoint}: ", load_model, checkpoint)
        if (model.in_channels, model.num_classes) != (domain.channels, domain.num_classes):
            raise ValueError(f"{checkpoint}: the model takes {model.in_channels} channels and {model.num_classes} "
                             f"classes, the stream has {domain.channels} channels and {domain.num_classes} classes")
        return model
    pre = validate_pretrain(cfg["pretrain"])
    x, y = sample_source(domain, pre["samples"], seed + DATA_SEED_OFFSET)
    model = default_model(channels=domain.channels, num_classes=domain.num_classes,
                          blocks=pre["blocks"], seed=seed + MODEL_SEED_OFFSET)
    pretrain(model, x, y, epochs=pre["epochs"], lr=pre["lr"],
             seed=seed + TRAIN_SEED_OFFSET, batch_size=pre["batch_size"])
    return model


def run_cell(mode: str, config: EngineConfig, stream: StreamSpec, base_model: Model) -> dict:
    """One (cell, seed) result: a fresh copy of `base_model` adapting over `stream` under `config`."""
    model = base_model.clone()
    model.reset_inference_stats()
    metrics = Engine(model, config).run_stream(make_stream(stream))
    return result_record(mode, config.ar, config.seed, metrics)


def result_record(mode: str, ar: Fraction, seed: int, metrics: RunMetrics) -> dict:
    mean_occ, final_occ = metrics.memory_occupancy()
    return {
        "schema": RESULT_SCHEMA,
        "cell": cell_key(mode, ar),
        "mode": mode,
        "ar": str(ar),
        "seed": seed,
        "metrics": {
            "accuracy": metrics.accuracy(),
            "segment_accuracies": [[seg, acc] for seg, acc in metrics.segment_accuracies()],
            "batches": metrics.total_batches,
            "samples": metrics.total_samples,
            "adapt_count": metrics.adapt_count,
            "skipped_adaptations": metrics.skipped_adaptations,
            "pseudo_label_accuracy": metrics.pseudo_label_accuracy(),
            "memory_mean_occupancy": mean_occ,
            "memory_final_occupancy": final_occ,
        },
        "timing": {
            "mean_batch_seconds": metrics.mean_latency(),
            "mean_adapted_batch_seconds": metrics.mean_latency(adapted=True),
            "mean_unadapted_batch_seconds": metrics.mean_latency(adapted=False),
            "adaptation_share": metrics.adaptation_share(),
        },
    }


def _grouped(records: list[dict], key: str) -> dict[str, list[dict]]:
    """Records by their value of `key`, each group in file order."""
    groups: dict[str, list[dict]] = {}
    for rec in records:
        groups.setdefault(rec[key], []).append(rec)
    return groups


def summarize(records: list[dict]) -> list[dict]:
    cells = _grouped(records, "cell")
    rows = []
    for key in sorted(cells):
        group = sorted(cells[key], key=lambda r: r["seed"])
        accs = [r["metrics"]["accuracy"] for r in group if r["metrics"]["accuracy"] is not None]
        lat = [r["timing"]["mean_batch_seconds"] for r in group]
        share = [r["timing"]["adaptation_share"] for r in group]
        rows.append({
            "cell": key,
            "mode": group[0]["mode"],
            "ar": group[0]["ar"],
            "seeds": len(group),
            "mean_accuracy": _mean_or_none(accs),
            "std_accuracy": float(np.std(accs)) if accs else None,
            "mean_adapt_count": float(np.mean([r["metrics"]["adapt_count"] for r in group])),
            "mean_pseudo_label_accuracy": _mean_or_none(
                [r["metrics"]["pseudo_label_accuracy"] for r in group]),
            "mean_batch_seconds": float(np.mean(lat)),
            "adaptation_share": float(np.mean(share)),
        })
    return rows


def _mean_or_none(values):
    vals = [v for v in values if v is not None]
    return float(np.mean(vals)) if vals else None


SUMMARY_FIELDS = ["cell", "mode", "ar", "seeds", "mean_accuracy", "std_accuracy",
                  "mean_adapt_count", "mean_pseudo_label_accuracy",
                  "mean_batch_seconds", "adaptation_share"]


def write_results(out_dir: str, records: list[dict]) -> tuple[str, str]:
    """Write results.jsonl and summary.csv into the existing `out_dir` atomically: each goes
    to a temp file first, and both replace the previous pair only once both are written."""
    records = sorted(records, key=lambda r: (r["cell"], r["seed"]))
    jsonl_path = os.path.join(out_dir, "results.jsonl")
    csv_path = os.path.join(out_dir, "summary.csv")
    try:
        with open(jsonl_path + ".tmp", "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        with open(csv_path + ".tmp", "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=SUMMARY_FIELDS)
            writer.writeheader()
            writer.writerows(summarize(records))
        os.replace(jsonl_path + ".tmp", jsonl_path)
        os.replace(csv_path + ".tmp", csv_path)
    except BaseException:
        for path in (jsonl_path, csv_path):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path + ".tmp")
        raise
    return jsonl_path, csv_path


def threshold_cells(thresholds) -> dict:
    """Each threshold key (mode@ar) with the cell key it names and its finite minimum accuracy."""
    if not isinstance(thresholds, (dict, type(None))):
        raise ConfigError("thresholds must map mode@ar keys to minimum accuracies")
    cells = {}
    for key, minimum in (thresholds or {}).items():
        mode, _, ar = str(key).partition("@")
        if mode not in MODES:
            raise ConfigError(f"threshold key {key!r}: unknown mode {mode!r}")
        rate = _under(f"threshold key {key!r}: ", _as_rate, ar)
        where = f"threshold {key!r}: minimum"
        value = checked_number(minimum if is_real(minimum) else _real(minimum, where), where, math.isfinite,
                               "that is finite")
        cells[key] = (cell_key(mode, rate), value)
    return cells


def validate_pretrain(pre: dict) -> dict:
    """The pretrain section typed: integer counts >= 1 and a finite float step size lr > 0."""
    settings = {key: checked_int(pre[key], f"pretrain.{key}", 1)
                for key in ("samples", "epochs", "batch_size", "blocks")}
    settings["lr"] = checked_number(_real(pre["lr"], "pretrain.lr"), "pretrain.lr", lambda v: 0.0 < v < math.inf,
                                    "> 0 and finite")
    return settings


def check_thresholds(thresholds: dict, records: list[dict]) -> list[str]:
    failures = []
    rows = {row["cell"]: row for row in summarize(records)}
    for raw_key, (key, minimum) in thresholds.items():
        row = rows.get(key)
        if row is None:
            failures.append(f"threshold for {raw_key}: cell {key} was not run")
        elif row["mean_accuracy"] is None or row["mean_accuracy"] < minimum:
            failures.append(
                f"threshold for {key}: mean accuracy {row['mean_accuracy']} < {minimum}")
    return failures


# ---------------------------------------------------------------------------
# commands


def run_command(args) -> int:
    try:
        cfg = load_config(args.config)
        if args.ar:
            cfg["grid"]["ar"] = [a.strip() for a in args.ar.split(",") if a.strip()]
        if args.seeds:
            try:
                cfg["grid"]["seeds"] = [int(s) for s in args.seeds.split(",") if s.strip()]
            except ValueError:
                raise ConfigError(f"--seeds must be comma-separated integers, got {args.seeds!r}") from None
        if args.mode:
            cfg["grid"]["modes"] = [args.mode]
        if not isinstance(cfg["out_dir"], (str, type(None))):
            raise ConfigError(f"out_dir must be a string or null, got {cfg['out_dir']!r}")
        out_dir = args.out or cfg["out_dir"] or os.environ.get(OUT_DIR_ENV) or "results"
        if args.workers is not None and args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        cells, seeds = grid_cells(cfg["grid"])
        stream = stream_spec_from_config(cfg)
        samples, classes = validate_pretrain(cfg["pretrain"])["samples"], stream.segments[0][0].num_classes
        if samples < classes:
            raise ConfigError(f"pretrain.samples must be >= {classes}, the stream's class count "
                              f"(one sample per class), got {samples}")
        thresholds = threshold_cells(cfg["thresholds"])
        configs = {(mode, ar): _under("engine: ", engine_config_for, mode, ar, cfg["engine"], seeds[0],
                                      stream.batch_size) for mode, ar in cells}
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        base_models = {seed: prepare_model(cfg, seed, args.checkpoint) for seed in seeds}
        with _file_errors(out_dir):  # made before any cell runs, so a run cannot lose its results to it
            os.makedirs(out_dir, exist_ok=True)
            if args.save_model:
                for seed, model in base_models.items():
                    save_model(model, os.path.join(out_dir, f"model-seed{seed}.json"))
    except (ValueError, FloatingPointError) as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records: list[dict] = []
    errors: list[str] = []
    for (mode, ar), config in configs.items():
        for seed in seeds:
            try:
                records.append(run_cell(mode, replace(config, seed=seed), replace(stream, seed=seed),
                                        base_models[seed]))
            except Exception as exc:  # flush what we have, report failure
                errors.append(f"{cell_key(mode, ar)} seed {seed}: {exc}")

    try:
        jsonl_path, csv_path = write_results(out_dir, records)
    except OSError as exc:
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 3
    print(f"wrote {len(records)} records to {jsonl_path}")
    print(f"wrote summary to {csv_path}")
    for row in summarize(records):
        acc = "-" if row["mean_accuracy"] is None else f"{row['mean_accuracy']:.4f}"
        std = "-" if row["std_accuracy"] is None else f"{row['std_accuracy']:.4f}"
        print(f"  {row['cell']:<24} acc {acc} +/- {std} "
              f"adapt {row['mean_adapt_count']:.1f} "
              f"batch {row['mean_batch_seconds'] * 1e3:.2f} ms")

    if errors:
        for line in errors:
            print(f"error: {line}", file=sys.stderr)
        return 3
    failures = check_thresholds(thresholds, records)
    if failures:
        for line in failures:
            print(f"threshold: {line}", file=sys.stderr)
        return 2
    return 0


# Every field `compare` reads, with the JSON types it may hold.
RECORD_FIELDS = (("cell", str, "a string"), ("mode", str, "a string"), ("ar", str, "a string"),
                 ("metrics.accuracy", (int, float, type(None)), "a number or null"),
                 ("timing.mean_batch_seconds", (int, float), "a number"))


def _load_records(path: str) -> list[dict]:
    records = []
    with _file_errors(path), open(path, "r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{line_number}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                rec = None
            if not isinstance(rec, dict):
                raise ConfigError(f"{where}: a result record must be a JSON object")
            if type(rec.get("schema")) is not int or rec["schema"] != RESULT_SCHEMA:  # not true, not 1.0
                raise ConfigError(f"{where}: unsupported result schema "
                                  f"{rec.get('schema')!r} (want {RESULT_SCHEMA})")
            for name, kinds, rule in RECORD_FIELDS:
                value = rec
                for key in name.split("."):
                    value = value.get(key, {}) if isinstance(value, dict) else {}
                if isinstance(value, bool) or not isinstance(value, kinds):
                    raise ConfigError(f"{where}: {name} must be {rule}")
            records.append(rec)
    return records


def _aggregate(records: list[dict], by: str) -> dict[str, dict]:
    return {key: {"mean_accuracy": _mean_or_none([r["metrics"]["accuracy"] for r in group]),
                  "mean_batch_seconds": float(np.mean([r["timing"]["mean_batch_seconds"] for r in group]))}
            for key, group in _grouped(records, by).items()}


def compare_command(args) -> int:
    try:
        if args.max_accuracy_drop is not None and not 0.0 <= args.max_accuracy_drop < math.inf:
            raise ConfigError(f"--max-accuracy-drop must be >= 0 and finite, got {args.max_accuracy_drop}")
        base = _aggregate(_load_records(args.files[0]), args.by)
        other = _aggregate(_load_records(args.files[1]), args.by)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    common = sorted(set(base) & set(other))
    if not common:
        print("error: result files share no cells to compare", file=sys.stderr)
        return 1
    rows = []
    flagged = []
    for key in common:
        b, o = base[key], other[key]
        delta = None
        if b["mean_accuracy"] is not None and o["mean_accuracy"] is not None:
            delta = o["mean_accuracy"] - b["mean_accuracy"]
        ratio = (o["mean_batch_seconds"] / b["mean_batch_seconds"]
                 if b["mean_batch_seconds"] else None)
        rows.append((key, b["mean_accuracy"], o["mean_accuracy"], delta, ratio))
        if delta is not None and args.max_accuracy_drop is not None and -delta > args.max_accuracy_drop:
            flagged.append(f"{key}: accuracy drop {-delta:.4f} exceeds {args.max_accuracy_drop}")
    gaps = [(key, "missing in " + args.files[1]) for key in sorted(set(base) - set(other))]
    gaps += [(key, "missing in " + args.files[0]) for key in sorted(set(other) - set(base))]

    print(f"{'cell':<24} {'base_acc':>9} {'other_acc':>9} {'delta':>8} {'lat_ratio':>9}")
    for key, b_acc, o_acc, delta, ratio in rows:
        fmt = lambda v, p: "-" if v is None else f"{v:.{p}f}"
        print(f"{key:<24} {fmt(b_acc, 4):>9} {fmt(o_acc, 4):>9} {fmt(delta, 4):>8} {fmt(ratio, 3):>9}")
    for key, note in gaps:
        print(f"{key:<24} GAP: {note}")
    if args.out:
        header = ("cell", "base_accuracy", "other_accuracy", "delta_accuracy", "latency_ratio")
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh).writerows([header, *rows, *((key, None, None, None, None) for key, _ in gaps)])
        except OSError as exc:
            print(f"error: {args.out}: {exc.strerror}", file=sys.stderr)
            return 3
    if flagged:
        for line in flagged:
            print(f"threshold: {line}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stta", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment grid")
    run_p.add_argument("--config", help="YAML config file")
    run_p.add_argument("--ar", help="comma-separated adaptation rates (overrides config)")
    run_p.add_argument("--seeds", help="comma-separated seeds (overrides config)")
    run_p.add_argument("--mode", choices=MODES, help="restrict the grid to one mode")
    run_p.add_argument("--out", help=f"output directory (default: config, then ${OUT_DIR_ENV}, then ./results)")
    run_p.add_argument("--workers", type=int, help="accepted (>= 1) and ignored: cells run one at a time")
    run_p.add_argument("--checkpoint", help="load the source model from a checkpoint file "
                       "(default: pretrain one per seed)")
    run_p.add_argument("--save-model", action="store_true",
                       help="save the per-seed source models next to the results")
    run_p.set_defaults(func=run_command)

    cmp_p = sub.add_parser("compare", help="delta table between two result files")
    cmp_p.add_argument("files", nargs=2, help="base and other results.jsonl")
    cmp_p.add_argument("--by", choices=("cell", "ar"), default="cell",
                       help="join on mode@ar cells (default) or on ar only")
    cmp_p.add_argument("--max-accuracy-drop", type=float,
                       help="flag cells whose accuracy dropped more than this (>= 0 and finite)")
    cmp_p.add_argument("--out", help="also write the delta table as CSV")
    cmp_p.set_defaults(func=compare_command)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return 1 if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
