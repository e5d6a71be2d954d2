"""Experiment runner and results comparator.

`stta run` executes a grid of (mode, adaptation-rate, seed) cells over a
configured synthetic stream, one engine per cell, on a bounded worker
pool. Results land as one JSON-Lines record per cell-seed plus a CSV
summary; every field except the `timing` subtree is deterministic for a
fixed config, so repeated runs are byte-identical once timing fields are
stripped. `stta compare` joins two result files and reports accuracy
deltas and latency ratios.

Exit codes: 0 ok, 1 usage/config error, 2 threshold check failed,
3 runtime failure (partial results are still flushed).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import yaml

from .datagen import (
    Corruption,
    DomainSpec,
    StreamSpec,
    class_mean_patterns,
    corruption_presets,
    make_stream,
    sample_source,
)
from .engine import Engine, EngineConfig, RunMetrics, _as_rate
from .model import Model, default_model, load_model, pretrain, save_model

RESULT_SCHEMA = 1
OUT_DIR_ENV = "STTA_OUT_DIR"

MODES = ("snap", "naive", "random", "low_entropy", "crm", "ema",
         "tent-equivalent", "source-only", "bn-stats")

# Engine settings implied by each mode; "ar" pins the rate for the
# no-adaptation baselines, "capacity" of "batch" matches the batch size.
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
    "engine": {
        "tau_conf": 0.5,
        "tau_delta": 0.1,
        "alpha": 4.0,
        "beta_centroid": 0.9,
        "ema_momentum": 0.9,
        "lr": 0.001,
        "capacity": None,
    },
    "grid": {
        "modes": ["snap"],
        "ar": ["0.1"],
        "seeds": [0],
    },
    "thresholds": {},
}

DOMAIN_DEFAULTS = {"num_classes": 3, "channels": 16, "length": 8,
                   "separation": 3.0, "source_noise": 0.5}


class ConfigError(ValueError):
    pass


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(base[key], dict) and isinstance(value, dict) and key not in ("thresholds", "domain"):
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = value
    return out


def load_config(path: str | None) -> dict:
    if path is None:
        return json.loads(json.dumps(DEFAULT_CONFIG))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:  # yaml errors carry line/column marks
        raise ConfigError(f"{path}: {exc}")
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return _merge(DEFAULT_CONFIG, raw)


def _domain_from_config(domain_cfg: dict, corruption) -> DomainSpec:
    params = dict(DOMAIN_DEFAULTS)
    for key, value in (domain_cfg or {}).items():
        if key not in params:
            raise ConfigError(f"unknown domain key: stream.segments[].domain.{key}")
        params[key] = value
    if isinstance(corruption, str):
        presets = corruption_presets()
        if corruption not in presets:
            raise ConfigError(f"unknown corruption preset {corruption!r} "
                              f"(have {', '.join(sorted(presets))})")
        corr = presets[corruption]
    elif isinstance(corruption, dict):
        try:
            corr = Corruption(**corruption)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad corruption spec: {exc}")
    else:
        raise ConfigError("corruption must be a preset name or a mapping")
    means = class_mean_patterns(params["num_classes"], params["channels"], params["separation"])
    return DomainSpec(params["num_classes"], params["channels"], params["length"],
                      means, params["source_noise"], corr)


def stream_spec_from_config(cfg: dict, seed: int) -> StreamSpec:
    stream_cfg = cfg["stream"]
    segments = []
    for entry in stream_cfg["segments"]:
        if "batches" not in entry:
            raise ConfigError("every stream segment needs a 'batches' count")
        segments.append((_domain_from_config(entry.get("domain", {}),
                                             entry.get("corruption", "none")),
                         int(entry["batches"])))
    return StreamSpec(tuple(segments), int(stream_cfg["batch_size"]), seed,
                      bool(stream_cfg["correlated"]))


# ---------------------------------------------------------------------------
# grid construction and execution


def cell_key(mode: str, ar) -> str:
    return f"{mode}@{_as_rate(ar)}"


def build_cells(cfg: dict) -> list[tuple[str, Fraction]]:
    modes = cfg["grid"]["modes"]
    rates = [_as_rate(a) for a in cfg["grid"]["ar"]]
    cells: list[tuple[str, Fraction]] = []
    for mode in modes:
        if mode not in MODES:
            raise ConfigError(f"unknown mode {mode!r} (have {', '.join(MODES)})")
        preset = MODE_PRESETS[mode]
        if "ar" in preset:  # rate is pinned (no-adaptation baselines): one cell
            cells.append((mode, _as_rate(preset["ar"])))
        else:
            cells.extend((mode, ar) for ar in rates)
    seen = set()
    unique = []
    for cell in cells:
        if cell not in seen:
            seen.add(cell)
            unique.append(cell)
    return unique


def engine_config_for(mode: str, ar: Fraction, engine_cfg: dict, seed: int,
                      batch_size: int) -> EngineConfig:
    preset = dict(MODE_PRESETS[mode])
    preset.pop("ar", None)
    tau_conf = preset.pop("tau_conf", engine_cfg["tau_conf"])
    capacity = engine_cfg["capacity"]
    if mode == "tent-equivalent":
        capacity = batch_size
    return EngineConfig(
        ar=ar,
        tau_conf=tau_conf,
        tau_delta=engine_cfg["tau_delta"],
        alpha=engine_cfg["alpha"],
        beta_centroid=engine_cfg["beta_centroid"],
        ema_momentum=engine_cfg["ema_momentum"],
        lr=engine_cfg["lr"],
        capacity=capacity,
        seed=seed,
        **preset,
    )


# Seed-derivation offsets keep the stream, the source data, the weight init
# and the shuffling order decorrelated while staying reproducible.
DATA_SEED_OFFSET = 10_000
MODEL_SEED_OFFSET = 20_000
TRAIN_SEED_OFFSET = 30_000


def prepare_model(cfg: dict, seed: int, checkpoint: str | None) -> Model:
    if checkpoint is not None:
        return load_model(checkpoint)
    pre = cfg["pretrain"]
    stream_cfg = cfg["stream"]
    first_domain = _domain_from_config(stream_cfg["segments"][0].get("domain", {}), "none")
    x, y = sample_source(first_domain, int(pre["samples"]), seed + DATA_SEED_OFFSET)
    model = default_model(channels=first_domain.channels, num_classes=first_domain.num_classes,
                          blocks=int(pre["blocks"]), seed=seed + MODEL_SEED_OFFSET)
    pretrain(model, x, y, epochs=int(pre["epochs"]), lr=float(pre["lr"]),
             seed=seed + TRAIN_SEED_OFFSET, batch_size=int(pre["batch_size"]))
    return model


def run_cell(cfg: dict, mode: str, ar: Fraction, seed: int, base_model: Model) -> dict:
    model = base_model.clone()
    model.reset_inference_stats()
    stream_spec = stream_spec_from_config(cfg, seed)
    config = engine_config_for(mode, ar, cfg["engine"], seed, stream_spec.batch_size)
    engine = Engine(model, config)
    metrics = engine.run_stream(make_stream(stream_spec))
    return result_record(mode, ar, seed, metrics)


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


def summarize(records: list[dict]) -> list[dict]:
    cells: dict[str, list[dict]] = {}
    for rec in records:
        cells.setdefault(rec["cell"], []).append(rec)
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
            "mean_accuracy": float(np.mean(accs)) if accs else None,
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
    os.makedirs(out_dir, exist_ok=True)
    records = sorted(records, key=lambda r: (r["cell"], r["seed"]))
    jsonl_path = os.path.join(out_dir, "results.jsonl")
    with open(jsonl_path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    csv_path = os.path.join(out_dir, "summary.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_FIELDS)
        writer.writeheader()
        for row in summarize(records):
            writer.writerow(row)
    return jsonl_path, csv_path


def validate_thresholds(thresholds) -> None:
    """Each key names a cell as mode@ar and maps to a finite minimum accuracy."""
    if not isinstance(thresholds, dict):
        raise ConfigError("thresholds must map mode@ar keys to minimum accuracies")
    for key, minimum in thresholds.items():
        mode, _, ar = str(key).partition("@")
        if mode not in MODES:
            raise ConfigError(f"threshold key {key!r}: unknown mode {mode!r}")
        try:
            _as_rate(ar)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"threshold key {key!r}: {ar!r} is not an adaptation rate in [0, 1]") from None
        try:
            finite = math.isfinite(float(minimum))
        except (TypeError, ValueError):
            finite = False
        if not finite:
            raise ConfigError(f"threshold {key!r}: minimum {minimum!r} is not a finite number")


def check_thresholds(cfg: dict, records: list[dict]) -> list[str]:
    failures = []
    rows = {row["cell"]: row for row in summarize(records)}
    for raw_key, minimum in (cfg.get("thresholds") or {}).items():
        mode, _, ar = raw_key.partition("@")
        key = cell_key(mode, ar)
        row = rows.get(key)
        if row is None:
            failures.append(f"threshold for {raw_key}: cell {key} was not run")
        elif row["mean_accuracy"] is None or row["mean_accuracy"] < float(minimum):
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
            cfg["grid"]["seeds"] = [int(s) for s in args.seeds.split(",") if s.strip()]
        if args.mode:
            cfg["grid"]["modes"] = [args.mode]
        out_dir = args.out or cfg.get("out_dir") or os.environ.get(OUT_DIR_ENV) or "results"
        cells = build_cells(cfg)
        stream_spec_from_config(cfg, 0)  # fail fast on bad stream/domain keys
        validate_thresholds(cfg.get("thresholds") or {})
        seeds = cfg["grid"]["seeds"]
        if not seeds:
            raise ConfigError("grid.seeds is empty")
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        base_models = {seed: prepare_model(cfg, seed, args.checkpoint) for seed in seeds}
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.save_model:
        os.makedirs(out_dir, exist_ok=True)
        for seed, model in base_models.items():
            save_model(model, os.path.join(out_dir, f"model-seed{seed}.json"))

    tasks = [(mode, ar, seed) for mode, ar in cells for seed in seeds]
    records: list[dict] = []
    errors: list[str] = []
    lock = threading.Lock()

    def work(task):
        mode, ar, seed = task
        try:
            rec = run_cell(cfg, mode, ar, seed, base_models[seed])
            with lock:
                records.append(rec)
        except Exception as exc:  # flush what we have, report failure
            with lock:
                errors.append(f"{cell_key(mode, ar)} seed {seed}: {exc}")

    workers = args.workers or os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(work, tasks))

    jsonl_path, csv_path = write_results(out_dir, records)
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
    failures = check_thresholds(cfg, records)
    if failures:
        for line in failures:
            print(f"threshold: {line}", file=sys.stderr)
        return 2
    return 0


def _load_records(path: str) -> list[dict]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("schema") != RESULT_SCHEMA:
                raise ConfigError(f"{path}:{line_number}: unsupported result schema "
                                  f"{rec.get('schema')!r} (want {RESULT_SCHEMA})")
            records.append(rec)
    return records


def _aggregate(records: list[dict], by: str) -> dict[str, dict]:
    groups: dict[str, list[dict]] = {}
    for rec in records:
        key = rec["ar"] if by == "ar" else rec["cell"]
        groups.setdefault(key, []).append(rec)
    out = {}
    for key, group in groups.items():
        accs = [r["metrics"]["accuracy"] for r in group if r["metrics"]["accuracy"] is not None]
        out[key] = {
            "mean_accuracy": float(np.mean(accs)) if accs else None,
            "mean_batch_seconds": float(np.mean([r["timing"]["mean_batch_seconds"] for r in group])),
            "modes": sorted({r["mode"] for r in group}),
        }
    return out


def compare_command(args) -> int:
    try:
        base = _aggregate(_load_records(args.files[0]), args.by)
        other = _aggregate(_load_records(args.files[1]), args.by)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
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
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cell", "base_accuracy", "other_accuracy", "delta_accuracy", "latency_ratio"])
            for key, b_acc, o_acc, delta, ratio in rows:
                writer.writerow([key, b_acc, o_acc, delta, ratio])
            for key, note in gaps:
                writer.writerow([key, None, None, None, None])
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
    run_p.add_argument("--workers", type=int, help="worker pool size (default: cpu count)")
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
                       help="flag cells whose accuracy dropped more than this")
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
